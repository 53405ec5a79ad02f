import importlib
import itertools
import math
import os
import pkgutil
import random
import sys
import types
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

import plumbtau
from plumbtau import linalg
from plumbtau.floer import (
    AlexanderFiltration,
    FloerComplex,
    _HatSlice,
    _require_valid,
    _theta_classes,
)
from plumbtau.obstruct import (
    CLEAR,
    FIRES,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    MetaboliserCandidate,
    Verdict,
    _h1_decomposition,
)
from plumbtau.plumbing import (
    IntersectionForm,
    PlumbingTree,
    SpincClass,
    _image,
    _rooted,
    conjugate,
    spinc_translate,
)
from plumbtau.surgery import BraidDatum, SurgeryComponent, SurgeryPresentation, linking_matrix
from plumbtau.tau import TauProfile

DEFAULT_SEED = 20260814


def property_seed() -> int:
    """Seed for randomized suites; override with the PLUMBTAU_SEED env var (unset or empty: default)."""
    return int(os.environ.get("PLUMBTAU_SEED") or DEFAULT_SEED)


def count_fractions(monkeypatch) -> list:
    """The arguments of each Fraction the package makes from now on in the test.

    The package imports fractions in each function that makes a Fraction,
    so that ``import fractions`` reads ``sys.modules`` at call time; a
    stand-in module there hands out the counter as ``Fraction``.  The real
    module is left as it is: ``Fraction.__new__`` reads its own class from
    it (``super(Fraction, cls)``), so a counter there would break every
    other Fraction, the test's own included.  A package module first
    imported while the stand-in is in place would keep the counter as its
    ``Fraction`` for the rest of the session, so every one is imported first.
    """
    for module in pkgutil.iter_modules(plumbtau.__path__):
        importlib.import_module(f"plumbtau.{module.name}")
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    stand_in = types.ModuleType("fractions")
    stand_in.Fraction = counted
    monkeypatch.setitem(sys.modules, "fractions", stand_in)
    return made


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise RuntimeError("inner dimensions must agree")
    cols = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def mat_vec(m, v):
    if len(m[0]) != len(v):
        raise RuntimeError("dimension mismatch")
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def det(m) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Intermediate values stay integral: after step k every entry is a
    k-th leading minor of the original matrix, so the divisions below
    are exact.  Empty matrices have det 1 by convention.  The package
    reads |det Q| off the denominator of ``IntersectionForm.qinv`` (a
    tree's branch determinants) or of ``linalg.inverse``; this is the
    second route the tests check it against.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_exact(m, b) -> list[Fraction]:
    """Solve m·x = b exactly over the rationals; m must be nonsingular."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise linalg.SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def is_negative_definite(m) -> bool:
    """Dense reference for the tree elimination of ``IntersectionForm.negative_definite``.

    True iff (-1)^k times the k-th leading principal minor is positive
    for all k; the pivots of Bareiss elimination without row swaps are
    these minors.
    """
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    a = [list(map(int, row)) for row in m]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if (-1) ** (k + 1) * p <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return True


def pivots_negative_definite(tree: PlumbingTree) -> bool:
    """Reference for ``IntersectionForm.negative_definite``: leaf elimination on Q itself.

    Removing a leaf w with pivot p_w changes only its neighbour's weight,
    to a_v - 1/p_w (edges carry 1), so the pivots are
    p_v = a_v - sum of 1/p_w over the neighbours w eliminated before v,
    and the form is negative definite iff every pivot is negative.  In
    integers, p_v = D_v / P_v with D_v the determinant of v's subtree of Q
    and P_v the product of its children's D_w, so 1/p_w = P_w / D_w.  The
    package runs the same pass on -Q, where every D_v must be positive.
    """
    order, parent = _rooted(tree)
    pivot = {v: (a, 1) for v, a in tree.vertices}  # p_v as (D_v, P_v)
    for v in reversed(order):
        d, q = pivot[v]
        if d == 0 or (d < 0) == (q < 0):  # p_v >= 0; q != 0, as every D_w before v was
            return False
        if (u := parent[v]) is not None:
            pivot[u] = (pivot[u][0] * d - q * pivot[u][1], pivot[u][1] * d)
    return True


def short_char_vectors(f: IntersectionForm) -> list[tuple[int, ...]]:
    """All characteristic vectors in the box a_i + 2 <= kappa_i <= -a_i, lex order."""
    f.require_box()
    ranges = []
    for i in range(f.n):
        a = f.q[i][i]
        ranges.append(range(a + 2, -a + 1, 2))
    return [tuple(k) for k in itertools.product(*ranges)]


def box_classes(f: IntersectionForm) -> dict[tuple[int, ...], SpincClass]:
    """Reference for ``plumbing._scan``: the built box, keyed by one ``_image`` each.

    Each vector's square is its ``linalg.pair`` with itself, a route apart
    from the key's.  Each vector pays n x n products where the walk pays
    O(n); the keys,
    their order, the reps, d and the realizing tuples must agree.
    """
    box = short_char_vectors(f)
    p = f.qinv[1]  # |det Q|
    groups: dict[tuple[int, ...], list] = {}  # key -> [rep, best numerator, its vectors]
    for k in box:  # lex order: a group's first vector is its rep
        key, num = _image(f, k), int(linalg.pair(f.qinv, k, k) * p)
        group = groups.get(key)
        if group is None:
            groups[key] = [k, num, [k]]
        elif num > group[1]:
            group[1:] = [num, [k]]
        elif num == group[1]:
            group[2].append(k)
    if len(groups) != p:
        raise RuntimeError("class count must equal |det Q|")
    return {
        key: SpincClass(rep=rep, d_num=num + f.n * p, realizing=tuple(best), form=f, key=key)
        for key, (rep, num, best) in groups.items()
    }


def fraction_classes(f) -> list[tuple[tuple, tuple, Fraction, tuple]]:
    """Reference spin-c classes: (rep, all short reps, d, d-realizing reps), by rep.

    Groups the short box by Q^{-1}·kappa mod 2 with ``solve_exact``, which
    does not use the integer inverse, and takes d = max (kappa^2 + n)/4.
    """
    groups: dict[tuple, list] = {}
    squares = {}
    for k in short_char_vectors(f):
        x = solve_exact(f.q, k)
        groups.setdefault(tuple(xi % 2 for xi in x), []).append(k)
        squares[k] = sum(ki * xi for ki, xi in zip(k, x))
    out = []
    for reps in groups.values():
        best = max(squares[k] for k in reps)
        realizing = tuple(k for k in reps if squares[k] == best)
        out.append((reps[0], tuple(reps), (best + f.n) / 4, realizing))
    return sorted(out)


def random_tree(rng, n, low, high):
    """Random weights in [low, high]; vertex i hangs off a random earlier vertex."""
    ids = [f"v{i}" for i in range(n)]
    weights = [rng.randint(low, high) for _ in range(n)]
    edges = tuple((ids[i], ids[rng.randrange(i)]) for i in range(1, n))
    return PlumbingTree(vertices=tuple(zip(ids, weights)), edges=edges)


def blow_up(tree: PlumbingTree, rng) -> tuple[PlumbingTree, Callable]:
    """A random blow-up of ``tree``, and the map phi it induces on characteristic vectors.

    Neumann's plumbing calculus keeps the boundary under either move, and
    both keep the form negative definite: at a vertex w, a -1 leaf e on w
    and a_w - 1; on an edge u-v, u-e-v with e of weight -1 and a_u - 1,
    a_v - 1.  e is the new tree's last vertex.  phi(K) sets K'_e = 1,
    lowers K'_w (K'_u and K'_v) by 1 and keeps every other coordinate, so
    K'^2 = K^2 - 1 and n' = n + 1 keep d class by class, and a strand on a
    leaf the move leaves alone keeps its pairing.
    """
    ids = [v for v, _ in tree.vertices]
    e = next(f"e{i}" for i in itertools.count() if f"e{i}" not in ids)
    if tree.edges and rng.random() < 0.5:
        k = rng.randrange(len(tree.edges))
        lowered = tree.edges[k]
        edges = tree.edges[:k] + ((lowered[0], e), (e, lowered[1])) + tree.edges[k + 1:]
    else:
        lowered = (rng.choice(ids),)
        edges = tree.edges + ((lowered[0], e),)
    vertices = tuple((v, a - (v in lowered)) for v, a in tree.vertices) + ((e, -1),)
    at = [ids.index(v) for v in lowered]

    def phi(kappa: Sequence[int]) -> tuple[int, ...]:
        return (*(k - (i in at) for i, k in enumerate(kappa)), 1)

    return PlumbingTree(vertices, edges), phi


def lens_chain(p: int, q: int) -> PlumbingTree:
    """The chain -a_1, ..., -a_n, ids v1..vn, with p/q = [a_1, ..., a_n]^-.

    [a_1, ..., a_n]^- = a_1 - 1/(a_2 - 1/(... - 1/a_n)) with every a_i >= 2,
    taken with a_i = ceil of the remaining fraction; the chain bounds -L(p, q).
    """
    if not 0 < q < p or math.gcd(p, q) != 1:
        raise ValueError(f"L({p}, {q}) needs 0 < q < p coprime")
    weights = []
    while q:
        a = -(-p // q)
        weights.append(-a)
        p, q = q, a * q - p
    return PlumbingTree.path(*weights)


def sigma_square(f, link) -> Fraction:
    """Self-pairing m^T Q^{-1} m of the fibre multiplicity vector."""
    return linalg.pair(f.qinv, link.m, link.m)


def pairing(f, kappa, link) -> Fraction:
    """kappa^T Q^{-1} m, exact."""
    return linalg.pair(f.qinv, kappa, link.m)


def tau_detail(f, link, s):
    """Tau value together with its lexicographically least minimizing vector.

    The row of ``tau.TauProfile``, its numerator over 2|det Q| made the
    ``Fraction`` that ``TauProfile.tau_at`` makes.
    """
    profile = TauProfile(f, link)
    num, minimizer = profile.row(s)
    return Fraction(num, profile.den), minimizer


def tau(f, link, s) -> Fraction:
    """Tau-invariant of the leaf-fibre link in the spin-c class s."""
    return tau_detail(f, link, s)[0]


def tau_table(f, link, classes) -> dict:
    """Tau of the link at each of ``classes``, keyed in their order, from one profile."""
    profile = TauProfile(f, link)
    return {s: profile.tau_at(s) for s in classes}


def pairing_tau_detail(f, link, s):
    """Reference for ``tau_detail`` and ``tau_table``: (tau, lex-least minimizer).

    One ``linalg.pair`` per d-realizing vector and one for m^T Q^{-1} m,
    each a Fraction, where the package takes integer dot products with
    the one pairing vector w = a·m.
    """
    f.require_negative_definite()
    if len(link.m) != f.n:
        raise ValueError("link multiplicity vector has wrong length")
    if s.form.q != f.q:
        raise ValueError("spin-c class belongs to a different form")
    best, minimizer = min((pairing(f, k, link), k) for k in s.realizing)
    value = best / 2 - sigma_square(f, link) / 2
    return value, minimizer


def in_image_of(lattice_gen, v) -> bool:
    """Decide v ∈ lattice_gen · Z^n for a nonsingular integer matrix.

    Solves the system exactly over Q and checks the solution for
    integrality, which is equivalent to a Hermite-form divisibility
    test when the generator matrix has full rank.
    """
    x = solve_exact(lattice_gen, v)
    return all(xi.denominator == 1 for xi in x)


def _toggle_entry(entries: dict, key: tuple[str, str], m: int) -> None:
    if key in entries:
        # the grading pins the exponent, so a collision must agree
        assert entries[key] == m, (key, entries[key], m)
        del entries[key]
    else:
        entries[key] = m


def _shift(chain: frozenset, delta: int) -> frozenset:
    return frozenset((g, e + delta) for g, e in chain)


def d2_rows(c: FloerComplex) -> list[tuple[str, list[str]]]:
    """Reference for the d^2 listing: each source x in name order, with the
    z that survive in d(d(x)), sorted.

    Over F2[U] with the grading law the exponent of every composite x -> z
    is pinned, so a z survives when an odd number of paths reach it; the
    paths are counted one at a time.
    """
    outgoing: dict[str, list[str]] = {}
    for x, y in c.entries:
        outgoing.setdefault(x, []).append(y)
    rows = []
    for x in sorted(outgoing):
        parity: dict[str, int] = {}
        for y in outgoing[x]:
            for z in outgoing.get(y, ()):
                parity[z] = parity.get(z, 0) ^ 1
        rows.append((x, sorted(z for z, odd in parity.items() if odd)))
    return rows


def d2_listing(c: FloerComplex) -> list[str]:
    """Every d^2 failure line that ``verify_axioms`` may list, in its order (``d2_rows``)."""
    return [f"d_squared: d(d({x})) has a surviving {z} term" for x, zs in d2_rows(c) for z in zs]


def scan_decompose(c: FloerComplex) -> tuple[list[tuple[int, frozenset]], list[tuple[int, int]]]:
    """Brute-force reference for ``floer._eliminate``.

    Gaussian cancellation over F2[U] that re-scans the whole entry dict
    for the pivot and for every row and column operation.  Returns
    (towers, torsion) where each tower is (grading, chain in the
    original basis) and each torsion summand is (grading, U-power).
    """
    _require_valid(c)
    entries: dict[tuple[str, str], int] = dict(c.entries)
    gr = dict(c.gradings)
    alive = set(c.generators)
    reps: dict[str, frozenset] = {g: frozenset({(g, 0)}) for g in alive}
    torsion: list[tuple[int, int]] = []
    while entries:
        # globally U-minimal pivot keeps every elimination inside F2[U]
        (x, y), a = min(entries.items(), key=lambda kv: (kv[1], kv[0]))
        # clear the column of y: each other source w becomes w + U^delta x,
        # so its row gains a shifted row of x and arrows into w gain a
        # shifted copy into x
        for w in sorted(w for (w, z) in entries if z == y and w != x):
            delta = entries[(w, y)] - a
            for (xx, z), m in sorted(entries.items()):
                if xx == x:
                    _toggle_entry(entries, (w, z), m + delta)
            for (v, t), k in sorted(entries.items()):
                if t == w:
                    _toggle_entry(entries, (v, x), k + delta)
            reps[w] = reps[w] ^ _shift(reps[x], delta)
        # clear the row of x: fold the remaining targets into y
        for z in sorted(z for (xx, z) in entries if xx == x and z != y):
            delta = entries[(x, z)] - a
            reps[y] = reps[y] ^ _shift(reps[z], delta)
            for (yy, t), n in sorted(entries.items()):
                if yy == z:
                    _toggle_entry(entries, (y, t), n + delta)
            del entries[(x, z)]
        # d^2 = 0 now forces the pair to split off: y is a cycle and
        # nothing maps to x
        assert not any(t == x for (_, t) in entries), "incoming arrow to a pivot"
        assert not any(s == y for (s, _) in entries), "pivot target is not a cycle"
        del entries[(x, y)]
        alive.discard(x)
        alive.discard(y)
        if a >= 1:
            torsion.append((gr[y], a))
    towers = sorted(
        ((gr[g], reps[g]) for g in alive),
        key=lambda t: (-t[0], sorted(t[1])),
    )
    return towers, sorted(torsion, key=lambda t: (-t[0], t[1]))


def hat_view(c: FloerComplex, decomposition) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A ``scan_decompose`` result in the form ``floer._eliminate`` returns.

    Each tower chain becomes its hat reduction, the exponent-zero part,
    as a bitmask whose bit i stands for ``c.generators[i]``; towers are
    sorted by grading, highest first, then by mask.
    """
    bit = {g: 1 << i for i, g in enumerate(c.generators)}
    towers, torsion = decomposition
    hats = [(gr, sum(bit[g] for g, e in chain if e == 0)) for gr, chain in towers]
    return sorted(hats, key=lambda t: (-t[0], t[1])), torsion


# --- full F2[U] homology and the hat classes, from the scan oracle --------


class Tower(NamedTuple):
    """Free summand of the homology: a cycle whose class generates F2[U]."""

    grading: int
    chain: tuple[tuple[str, int], ...]  # (generator, U-exponent) pairs


class HomologyDecomposition(NamedTuple):
    towers: tuple[Tower, ...]
    torsion: tuple[tuple[int, int], ...]  # (grading, U-power) pairs

    @property
    def rank(self) -> int:
        return len(self.towers)


def homology_minus(c: FloerComplex) -> HomologyDecomposition:
    """Exact homology of the complex as a module over F2[U] (``scan_decompose``)."""
    towers, torsion = scan_decompose(c)
    return HomologyDecomposition(
        towers=tuple(Tower(g, tuple(sorted(chain))) for g, chain in towers),
        torsion=tuple(torsion),
    )


def _hat_reduction(chain: frozenset) -> frozenset:
    """Exponent-zero part of a homogeneous F2[U]-chain, as an F2-chain."""
    return frozenset(g for g, e in chain if e == 0)


def image_classes(c: FloerComplex) -> tuple[frozenset, frozenset, tuple[frozenset, ...]]:
    """Reductions of the tower cycles of ``scan_decompose`` in the hat complex.

    Returns (theta_top, theta_bot, basis) where theta_top is the class
    at the correction term d, theta_bot the one at d - basepoints + 1,
    and basis lists all tower reductions.  These are nonzero and
    independent: a dependency would exhibit a tower cycle in
    U*C + boundaries, contradicting that the towers extend to an
    F2[U]-basis with trivial differential.
    """
    towers, _ = scan_decompose(c)
    if not towers:
        raise ValueError("homology has no free part")
    d = max(g for g, _ in towers)
    bottom = d - c.basepoints + 1
    tops = [chain for g, chain in towers if g == d]
    bots = [chain for g, chain in towers if g == bottom]
    if len(tops) != 1 or len(bots) != 1:
        raise ValueError(
            "tower gradings do not single out top and bottom classes"
        )
    basis = tuple(_hat_reduction(chain) for _, chain in towers)
    return _hat_reduction(tops[0]), _hat_reduction(bots[0]), basis


# --- complexes: the hat complex, theta support, duality, text -------------


def hat_complex(c: FloerComplex) -> FloerComplex:
    """Set U = 0: keep only the exponent-zero differential entries."""
    return FloerComplex(
        gradings=dict(c.gradings),
        entries={k: 0 for k, m in c.entries.items() if m == 0},
        basepoints=c.basepoints,
    )


def _theta_test(c: FloerComplex, cycle: Iterable[str], bottom: bool) -> bool:
    d, theta_top, theta_bot = _theta_classes(c)
    chain = frozenset(cycle)
    for g in chain:
        if g not in c.gradings:
            raise ValueError(f"unknown generator {g!r}")
    if not chain:
        return False
    grading = c.grading_of_chain(chain)
    target_grading = d - c.basepoints + 1 if bottom else d
    theta = theta_bot if bottom else theta_top
    slice_ = _HatSlice(c, grading)
    if not slice_.is_cycle(chain):
        raise ValueError("chain is not a cycle of the hat complex")
    if grading != target_grading:
        return False
    functional = slice_.class_functional(theta)
    return functional(slice_.vector(chain)) == 1


def is_theta_supported(c: FloerComplex, cycle: Iterable[str]) -> bool:
    """Whether the hat cycle has a nonzero top distinguished coordinate."""
    return _theta_test(c, cycle, bottom=False)


def is_theta_star_supported(c: FloerComplex, cycle: Iterable[str]) -> bool:
    """Bottom-grading counterpart of ``is_theta_supported``."""
    return _theta_test(c, cycle, bottom=True)


def dualize(
    c: FloerComplex, filt: AlexanderFiltration
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Transpose the differential and negate gradings and levels."""
    filt.check(c)
    dual = FloerComplex(
        gradings={g: -v for g, v in c.gradings.items()},
        entries={(y, x): m for (x, y), m in c.entries.items()},
        basepoints=c.basepoints,
    )
    dual_filt = AlexanderFiltration({g: -v for g, v in filt.levels.items()})
    return dual, dual_filt


def format_complex(c: FloerComplex, filt: AlexanderFiltration) -> list[str]:
    filt.check(c)
    lines = [f"{g} {c.gradings[g]} {filt.levels[g]}" for g in c.generators]
    lines.extend(
        f"{x} -> {y} pow {m}" for (x, y), m in sorted(c.entries.items())
    )
    return lines


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, coefficients from the constant term up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide(num: list[int], den: list[int]) -> list[int]:
    """num / den for integer polynomials, den monic; the division must be exact."""
    rest, quotient = list(num), [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = rest[i + len(den) - 1]
        for j, d in enumerate(den):
            rest[i + j] -= c * d
    if any(rest):
        raise ValueError("the division leaves a remainder")
    return quotient


def torus_staircase(p: int, q: int) -> tuple[FloerComplex, AlexanderFiltration]:
    """The staircase complex of the torus knot T(p, q), read off its Alexander polynomial.

    Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by exact integer
    division, is sum (-1)^k t^(g + n_k) with n_0 = g.  Generator x_k has level
    n_k; gr(x_0) = 0, gr(x_2l+1) = gr(x_2l) - 2(n_2l - n_2l+1) + 1 and
    gr(x_2l+2) = gr(x_2l+1) - 1; the entries are x_2l+1 -> x_2l and
    x_2l+1 -> x_2l+2, each U-power the one the gradings force (Ozsvath-Szabo,
    Topology 2005).
    """

    def less_one(n):  # t^n - 1
        return [-1] + [0] * (n - 1) + [1]

    delta = _divide(_times(less_one(p * q), less_one(1)), _times(less_one(p), less_one(q)))
    g = (p - 1) * (q - 1) // 2
    terms = [(e - g, c) for e, c in reversed(list(enumerate(delta))) if c]
    if [c for _, c in terms] != [(-1) ** k for k in range(len(terms))]:
        raise ValueError(f"T({p}, {q}) is not a knot: its coefficients do not alternate")
    levels = [n for n, _ in terms]
    gradings = [0]
    for k in range(1, len(levels)):
        step = 2 * (levels[k - 1] - levels[k]) - 1 if k % 2 else 1
        gradings.append(gradings[-1] - step)
    names = [f"x{k}" for k in range(len(levels))]
    entries = {
        (names[k], names[j]): (gradings[j] - gradings[k] + 1) // 2
        for k in range(1, len(names), 2)
        for j in (k - 1, k + 1)
    }
    return (
        FloerComplex(dict(zip(names, gradings)), entries),
        AlexanderFiltration(dict(zip(names, levels))),
    )


def tensor(
    k1: tuple[FloerComplex, AlexanderFiltration], k2: tuple[FloerComplex, AlexanderFiltration]
) -> tuple[FloerComplex, AlexanderFiltration]:
    """The complex of a connected sum: generators x.y, gradings and levels add, d = d1 + d2."""
    (c1, f1), (c2, f2) = k1, k2
    pairs = [(x, y) for x in c1.generators for y in c2.generators]
    entries = {}
    for (x, z), m in c1.entries.items():
        entries.update({(f"{x}.{y}", f"{z}.{y}"): m for y in c2.generators})
    for (y, z), m in c2.entries.items():
        entries.update({(f"{x}.{y}", f"{x}.{z}"): m for x in c1.generators})
    return (
        FloerComplex({f"{x}.{y}": c1.gradings[x] + c2.gradings[y] for x, y in pairs}, entries),
        AlexanderFiltration({f"{x}.{y}": f1.levels[x] + f2.levels[y] for x, y in pairs}),
    )


def mirror(knot: tuple[FloerComplex, AlexanderFiltration]) -> tuple[FloerComplex, AlexanderFiltration]:
    """The complex of the mirror knot: the dual (``dualize``)."""
    return dualize(*knot)


def _apply_basis_change(entries: dict, e: str, f: str, delta: int) -> None:
    """Replace e by e + U^delta f in the basis, updating the differential."""
    for (x, z), m in sorted(entries.items()):
        if x == f:
            _toggle_entry(entries, (e, z), m + delta)
    for (w, x), k in sorted(entries.items()):
        if x == e:
            _toggle_entry(entries, (w, f), k + delta)


def random_complex(
    rng,
    max_generators: int = 6,
    max_basepoints: int = 2,
    max_changes: int = 12,
    distinguished_pairs: int = 0,
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Random valid filtered complex built from elementary pieces.

    Towers in the model grading pattern plus U^a-cancelling pairs always
    satisfy the axioms; up to ``max_changes`` random graded filtered
    basis changes then mix the pieces without changing any invariant.
    ``distinguished_pairs`` adds that many U^0-cancelling pairs, beyond
    ``max_generators``, each with one generator in a distinguished grading
    (g0 or g0 - ell + 1), so that the hat slices tau_top and tau_bot sweep
    hold more than their tower; with 0 the draws are the same as without it.
    """
    ell = rng.randint(1, max_basepoints)
    g0 = rng.randint(-4, 4)
    # grading pattern of the model: comb(ell-1, i) towers at g0 - i
    tower_grs = [g0 - i for i in range(ell) for _ in range(comb(ell - 1, i))]
    gr: dict[str, int] = {}
    levels: dict[str, int] = {}
    names: list[str] = []
    for i, g in enumerate(tower_grs):
        name = f"t{i}"
        names.append(name)
        gr[name] = g
        levels[name] = rng.randint(-3, 3)
    entries: dict[tuple[str, str], int] = {}
    n_pairs = rng.randint(0, (max_generators - len(names)) // 2)
    blocked = {g0, g0 - ell + 1}
    for j in range(n_pairs):
        while True:
            a = rng.randint(0, 3)
            gy = rng.randint(-5, 5)
            # a U^a pair with a >= 1 leaves two hat homology classes, at
            # the gradings of its two generators; keep those away from
            # the distinguished gradings so that the theta classes span
            # the hat homology there and every projection convention
            # agrees (as in the complexes of rational homology spheres
            # with minimal hat homology, the only ones used downstream)
            if a == 0 or not ({gy, gy - 2 * a + 1} & blocked):
                break
        x, y = f"p{j}", f"q{j}"
        gr[y] = gy
        gr[x] = gy - 2 * a + 1
        levels[y] = rng.randint(-3, 3)
        levels[x] = levels[y] - a + rng.randint(0, 3)
        names.extend([x, y])
        entries[(x, y)] = a
    for j in range(distinguished_pairs):
        # y in the grading, or x (one above y) in it
        gy = rng.choice(sorted(blocked)) - rng.randint(0, 1)
        x, y = f"r{j}", f"s{j}"
        gr[y], gr[x] = gy, gy + 1
        levels[y] = rng.randint(-3, 3)
        levels[x] = levels[y] + rng.randint(0, 3)
        names.extend([x, y])
        entries[(x, y)] = 0
    cands = [
        (e, f)
        for e in names
        for f in names
        if e != f
        and (gr[f] - gr[e]) % 2 == 0
        and gr[f] >= gr[e]
        and levels[f] - (gr[f] - gr[e]) // 2 <= levels[e]
    ]
    for _ in range(rng.randint(0, max_changes)):
        if not cands:
            break
        e, f = rng.choice(cands)
        _apply_basis_change(entries, e, f, (gr[f] - gr[e]) // 2)
    shuffled = list(range(len(names)))
    rng.shuffle(shuffled)
    rename = {old: f"g{shuffled[i]}" for i, old in enumerate(names)}
    c = FloerComplex(
        gradings={rename[n]: gr[n] for n in names},
        entries={(rename[x], rename[y]): m for (x, y), m in entries.items()},
        basepoints=ell,
    )
    filt = AlexanderFiltration({rename[n]: levels[n] for n in names})
    return c, filt


def _sweep_insert(pivots: dict, v: int, mask: int):
    """Echelon insertion of the per-level reference (None if independent).

    The reference keeps its own reduction loops, so it does not rest on
    the one that ``floer`` shares between insertion and expression.
    """
    while v:
        h = v.bit_length() - 1
        if h not in pivots:
            pivots[h] = (v, mask)
            return None
        pv, pm = pivots[h]
        v ^= pv
        mask ^= pm
    return mask


def _sweep_express(pivots: dict, v: int):
    mask = 0
    while v:
        h = v.bit_length() - 1
        if h not in pivots:
            return None
        pv, pm = pivots[h]
        v ^= pv
        mask ^= pm
    return mask


def sweep_cycle_space(slice_: _HatSlice, allowed) -> list[int]:
    """Basis of hat cycles supported on the allowed generators."""
    pivots: dict = {}
    kernel = []
    for g in sorted(set(allowed)):
        mask = _sweep_insert(pivots, slice_.images[g], 1 << slice_.bit[g])
        if mask is not None:
            kernel.append(mask)
    return kernel


def _sweep(c: FloerComplex, filt: AlexanderFiltration, qualifies) -> int:
    filt.check(c)
    levels = sorted({filt.levels[g] for g in c.generators})
    for m in levels:
        allowed = [g for g in c.generators if filt.levels[g] <= m]
        if qualifies(allowed):
            return m
    raise ValueError("no qualifying cycle at any filtration level")


def sweep_tau_theta(c: FloerComplex, filt: AlexanderFiltration, bottom: bool) -> int:
    """Per-level reference for ``floer.tau_top`` / ``tau_bot``.

    Rebuilds the cycle space of the hat slice from nothing at every
    distinct filtration level, lowest first, and stops at the first
    level holding a cycle with a nonzero distinguished coordinate.
    """
    d, theta_top, theta_bot = _theta_classes(c)
    grading = d - c.basepoints + 1 if bottom else d
    theta = theta_bot if bottom else theta_top
    slice_ = _HatSlice(c, grading)
    functional = slice_.class_functional(theta)

    def qualifies(allowed: list[str]) -> bool:
        here = [g for g in allowed if c.gradings[g] == grading]
        return any(functional(v) for v in sweep_cycle_space(slice_, here))

    return _sweep(c, filt, qualifies)


def sweep_tau_alpha(c: FloerComplex, filt: AlexanderFiltration, alpha) -> int:
    """Per-level reference for ``floer.tau_alpha``.

    At every distinct filtration level, lowest first, builds one echelon
    of the boundaries and the sublevel cycles from nothing and tests
    whether alpha lies in its span.
    """
    _require_valid(c)
    chain = frozenset(alpha)
    if not chain:
        raise ValueError("alpha must be a nonzero class")
    grading = c.grading_of_chain(chain)
    slice_ = _HatSlice(c, grading)
    if not slice_.is_cycle(chain):
        raise ValueError("alpha is not a cycle of the hat complex")
    target = slice_.vector(chain)
    boundaries: dict = {}
    for b in slice_.boundaries:
        _sweep_insert(boundaries, b, 0)
    if _sweep_express(boundaries, target) is not None:
        raise ValueError("alpha must be a nonzero class")

    def qualifies(allowed: list[str]) -> bool:
        here = [g for g in allowed if c.gradings[g] == grading]
        pivots: dict = {}
        for b in slice_.boundaries:
            _sweep_insert(pivots, b, 0)
        for v in sweep_cycle_space(slice_, here):
            _sweep_insert(pivots, v, 0)
        return _sweep_express(pivots, target) is not None

    return _sweep(c, filt, qualifies)


def random_presentation(rng: random.Random, max_components: int = 4) -> SurgeryPresentation:
    """Random nonsingular presentation with t <= max_components, entries in [-5, 5]."""
    while True:
        t = rng.randint(1, max_components)
        comps = []
        for _ in range(t):
            if rng.random() < 0.25:
                comps.append(SurgeryComponent(kind="handle"))
            else:
                comps.append(
                    SurgeryComponent(kind="surgery", tb=rng.randint(-5, 5), rot=rng.randint(-5, 5))
                )
        linking = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i + 1, t):
                linking[i][j] = linking[j][i] = rng.randint(-5, 5)
        q = [list(row) for row in linking]
        for i in range(t):
            q[i][i] = comps[i].coefficient
        if det(q) == 0:
            continue
        n_links = rng.randint(0, 4)
        vectors = tuple(
            tuple(rng.randint(-5, 5) for _ in range(t)) for _ in range(n_links)
        )
        return SurgeryPresentation(
            components=tuple(comps),
            linking=tuple(tuple(row) for row in linking),
            link_vectors=vectors,
        )


def bordered_matrix(p: SurgeryPresentation, k: int) -> list[list[int]]:
    """Q bordered by the k-th linking vector: top-left 0, then Q."""
    q = linking_matrix(p)
    v = p.link_vectors[k]
    return [[0, *v]] + [[v[i], *q[i]] for i in range(len(q))]


def bordered_self_intersection(p: SurgeryPresentation) -> Fraction:
    """Self-intersection of the capped surface, by the bordered-determinant formula.

    -sum_k det(Q_k(0, a_1..a_t))/det(Q) + 2 sum_{a<b} <l_a, Q^{-1} l_b>.
    Oracle for ``surgery.self_intersection``, the single pairing <S, Q^{-1} S>.
    """
    q = linking_matrix(p)
    d = det(q)
    qinv = linalg.inverse(q)
    total = Fraction(0)
    for k in range(len(p.link_vectors)):
        total -= Fraction(det(bordered_matrix(p, k)), d)
    # 2 sum_{a<b} <l_a, Q^-1 l_b> = <S, Q^-1 S> - sum_a <l_a, Q^-1 l_a>, S = sum_a l_a
    vs = p.link_vectors
    s = [sum(v[i] for v in vs) for i in range(len(q))]
    total += linalg.pair(qinv, s, s)
    for v in vs:
        total -= linalg.pair(qinv, v, v)
    return total


def random_braid(rng: random.Random) -> BraidDatum:
    """Quasi-positive braid data: each band merges at most one pair of strands,
    so the closure has between max(1, n - w) and n components."""
    n = rng.randint(1, 8)
    w = rng.randint(0, 14)
    return BraidDatum(strands=n, writhe=w, components=rng.randint(max(1, n - w), n))


def _close_subgroup(diag, seed):
    group = set(seed)
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(tuple(group), repeat=2):
            c = tuple((x + y) % m for x, y, m in zip(a, b, diag))
            if c not in group:
                group.add(c)
                grew = True
    return frozenset(group)


def _subgroups_of_order(diag, m):
    """All subgroups of Z/d_1 x ... x Z/d_n of order m, by closure search."""
    zero = tuple(0 for _ in diag)
    elements = sorted(itertools.product(*[range(x) for x in diag]))
    found = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        h = frontier.pop()
        for g in elements:
            if g in h:
                continue
            k = _close_subgroup(diag, h | {g})
            # chains through subgroups of the target never exceed its order
            if len(k) <= m and k not in found:
                found.add(k)
                frontier.append(k)
    return sorted((h for h in found if len(h) == m), key=sorted)


def closure_metaboliser_candidates(f) -> list[MetaboliserCandidate]:
    """Brute-force reference for ``obstruct.metaboliser_candidates``.

    Closes every subgroup of order at most sqrt(|H_1|) by an O(|H|^2)
    fixpoint, keeps those of order sqrt(|H_1|) whose elements pair
    integrally, and recovers generators by a second round of closures.
    """
    order = abs(det(f.q))
    root = math.isqrt(order)
    if root * root != order:
        return []
    diag, _, sinv = _h1_decomposition(f)
    qinv = f.qinv

    def lift(residue):
        return tuple(
            sum(sinv[i][j] * residue[j] for j in range(f.n)) for i in range(f.n)
        )

    out = []
    for group in _subgroups_of_order(diag, root):
        residues = tuple(sorted(group))
        lifts = tuple(lift(r) for r in residues)
        if any(
            linalg.pair(qinv, a, b).denominator != 1
            for a, b in itertools.combinations_with_replacement(lifts, 2)
        ):
            continue
        gens: list[tuple[int, ...]] = []
        closed = frozenset({residues[0]}) if residues else frozenset()
        for r in residues:
            if r not in closed:
                gens.append(r)
                closed = _close_subgroup(diag, closed | {r})
        out.append(
            MetaboliserCandidate(
                generators=tuple(lift(r) for r in gens),
                elements=lifts,
                residues=residues,
            )
        )
    return out


# --- obstruction formulas no CLI check runs yet -----------------------------


def h1_residues(f: IntersectionForm, vector: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of a class of Z^n / Q Z^n in the invariant-factor form."""
    diag, s, _ = _h1_decomposition(f)
    if len(vector) != f.n:
        raise ValueError("vector has wrong length")
    return tuple(
        sum(s[i][j] * vector[j] for j in range(f.n)) % diag[i] for i in range(f.n)
    )


def genus_bounds_check(
    tau_s,
    tau_L0,
    g: int,
    ellL: int,
    sizeF: int,
    unlink: bool,
) -> Verdict:
    """Cobordism bounds through a genus-g surface with |F| = |L0| pieces.

    Equal component counts give |tau - tau_0| <= g; when the far end is an
    unlink the two-sided bound -g <= tau <= g + ellL - sizeF applies instead.
    """
    tau_s = Fraction(tau_s)
    if unlink:
        slack = min(tau_s + g, g + ellL - sizeF - tau_s)
    else:
        slack = g - abs(tau_s - Fraction(tau_L0))
    return Verdict(
        check="genus_bounds",
        verdict=SATISFIED if slack >= 0 else VIOLATED,
        witness={
            "tau": tau_s,
            "tau_reference": None if unlink else Fraction(tau_L0),
            "genus": g,
            "ell": ellL,
            "surface_components": sizeF,
            "unlink": unlink,
        },
        slack=slack,
    )


def adjunction_bound(tau_alpha, g: int, ell2: int, sizeF: int, c1F, FF) -> Fraction:
    """Right-hand side of the relative adjunction inequality."""
    return (
        Fraction(tau_alpha)
        + g
        + ell2
        - sizeF
        - (Fraction(c1F) + Fraction(FF)) / 2
    )


# --- the integer obstruction checks, computed with Fractions ----------------
# The Fraction bodies of obstruct's integrality, conjugation, metaboliser,
# pl-genus and concordance checks, which now keep each value as an integer
# over a known denominator; tests compare the two.


class FractionPLGenusBound(NamedTuple):
    genus: int
    raw: Fraction


def fraction_metaboliser_obstruction(
    profile: TauProfile, s: SpincClass, candidates: list[MetaboliserCandidate]
) -> Verdict:
    if not candidates:
        return Verdict(
            check="metaboliser",
            verdict=FIRES,
            witness=f"no metaboliser exists in a group of order {s.form.qinv[1]}",
        )
    base = profile.num(s)
    best = None
    for cand in candidates:
        margin = min(
            base - abs(profile.num(spinc_translate(s, alpha))) for alpha in cand.elements
        )
        if best is None or margin > best[0]:
            best = (margin, cand)
    margin, cand = best
    slack = Fraction(margin, profile.den)
    witness = {
        "class": list(s.rep),
        "metaboliser": [list(g) for g in cand.generators],
        "subgroup_order": cand.order,
    }
    return Verdict(
        check="metaboliser",
        verdict=CLEAR if slack >= 0 else FIRES,
        witness=witness,
        slack=slack,
    )


def fraction_conjugation_obstruction(profile: TauProfile, s: SpincClass) -> Verdict:
    sbar = conjugate(s)
    gap = profile.num(s) - profile.num(sbar)
    return Verdict(
        check="conjugation",
        verdict=FIRES if gap != 0 else CLEAR,
        witness={
            "class": list(s.rep),
            "conjugate": list(sbar.rep),
            "tau": profile.tau_at(s),
            "tau_conjugate": profile.tau_at(sbar),
        },
        slack=Fraction(gap, profile.den),
    )


def fraction_pl_genus_lower_bound(
    profile: TauProfile, subset: Sequence[SpincClass]
) -> FractionPLGenusBound:
    if not subset:
        raise ValueError("subset of spin-c classes must be non-empty")
    values = [profile.num(s) for s in subset]
    raw = Fraction(max(values) - min(values), 2 * profile.den)
    return FractionPLGenusBound(genus=math.ceil(raw), raw=raw)


def fraction_integrality_obstruction(tau) -> Verdict:
    value = Fraction(tau)
    return Verdict(
        check="integrality",
        verdict=FIRES if value.denominator != 1 else CLEAR,
        witness={"tau": value},
    )


def fraction_concordance_obstruction(profile: TauProfile, subset: Sequence[SpincClass]) -> Verdict:
    if not subset:
        return Verdict(
            check="concordance",
            verdict=INCONCLUSIVE,
            witness="no spin-c classes supplied",
        )
    values = [profile.num(s) for s in subset]
    hi, lo, den = max(values), min(values), profile.den
    return Verdict(
        check="concordance",
        verdict=FIRES if hi != lo else CLEAR,
        witness={"tau_max": Fraction(hi, den), "tau_min": Fraction(lo, den)},
        slack=Fraction(hi - lo, den),
    )

"""Filtered chain complexes over F2[U] and their tau invariants.

A complex here is a finite free F2[U]-module with a basis of graded
generators and a differential whose entries are monomials U^m.  The
grading forces the exponent of every entry: multiplication by U drops
the grading by two, so an entry x -> y carries exactly
m = (gr(y) - gr(x) + 1) / 2.  In particular basis changes of the form
e <- e + U^d f keep every entry a monomial, and homology can be
computed by exact Gaussian cancellation over the principal ideal
domain F2[U] (elimination with the globally U-minimal pivot is Smith
normal form: each cancelled pair contributes either nothing or one
U-power torsion summand, and the untouched generators are the free
towers).

Setting U = 0 gives the hat complex over F2.  The tower classes reduce
to independent nonzero classes there; the top and bottom reductions
are the distinguished classes used to test cycles for theta support.
The tau invariants of an Alexander-type filtration are found by an
exact sublevel sweep: the smallest level whose hat subcomplex contains
a qualifying cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True)
class FloerComplex:
    """Free graded complex over F2[U].

    ``entries`` maps (x, y) to the exponent m of the monomial U^m with
    which y appears in the differential of x.  ``basepoints`` is the
    number of basepoints of the underlying link diagram; it only enters
    through the expected rank 2^(basepoints - 1) of the homology and
    the grading gap between the two distinguished classes.

    The constructor checks shape only.  The three chain-complex axioms
    are report-valued (``verify_axioms``) so that broken complexes can
    be built and diagnosed.
    """

    generators: tuple[str, ...]
    gradings: Mapping[str, int]
    entries: Mapping[tuple[str, str], int]
    basepoints: int = 1

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be unique")
        for g in self.generators:
            if not g or any(ch.isspace() for ch in g):
                raise ValueError(f"bad generator name {g!r}")
            if g not in self.gradings:
                raise ValueError(f"generator {g!r} has no grading")
        gset = set(self.generators)
        for key in self.gradings:
            if key not in gset:
                raise ValueError(f"grading for unknown generator {key!r}")
        for (x, y), m in self.entries.items():
            if x not in gset or y not in gset:
                raise ValueError(f"differential entry ({x!r},{y!r}) off the basis")
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"entry ({x!r},{y!r}) needs an integer U-power >= 0")
        if self.basepoints < 1:
            raise ValueError("basepoint count must be >= 1")

    def grading_of_chain(self, chain: Iterable[str]) -> int:
        """Common grading of a homogeneous F2-chain of generators."""
        gens = set(chain)
        grs = {self.gradings[g] for g in gens}
        if len(grs) != 1:
            raise ValueError("chain is not homogeneous")
        return grs.pop()


@dataclass(frozen=True)
class AlexanderFiltration:
    """Integer filtration level per generator.

    Compatible with a complex when every entry x -> y pow m satisfies
    A(y) - m <= A(x): the differential never raises the level, and each
    U multiplication drops it by one.
    """

    levels: Mapping[str, int]

    def check(self, c: FloerComplex) -> None:
        for g in c.generators:
            if g not in self.levels:
                raise ValueError(f"generator {g!r} has no filtration level")
        for (x, y), m in c.entries.items():
            if self.levels[y] - m > self.levels[x]:
                raise ValueError(
                    f"entry {x} -> {y} pow {m} raises the filtration level"
                )


@dataclass(frozen=True)
class Tower:
    """Free summand of the homology: a cycle whose class generates F2[U]."""

    grading: int
    chain: tuple[tuple[str, int], ...]  # (generator, U-exponent) pairs


@dataclass(frozen=True)
class HomologyDecomposition:
    towers: tuple[Tower, ...]
    torsion: tuple[tuple[int, int], ...]  # (grading, U-power) pairs

    @property
    def rank(self) -> int:
        return len(self.towers)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failures: tuple[str, ...]


def _graded_d2_failures(c: FloerComplex) -> list[str]:
    failures = []
    for (x, y), m in sorted(c.entries.items()):
        if c.gradings[y] - 2 * m != c.gradings[x] - 1:
            failures.append(
                f"grading: entry {x} -> {y} pow {m} has gr {c.gradings[y]} - 2*{m}"
                f" != gr {c.gradings[x]} - 1"
            )
    if failures:
        return failures
    # d^2 = 0 over F2[U]: compose entries and cancel mod 2
    square: dict[tuple[str, str], int] = {}
    outgoing: dict[str, list[tuple[str, int]]] = {}
    for (x, y), m in c.entries.items():
        outgoing.setdefault(x, []).append((y, m))
    for (x, y), m in c.entries.items():
        for z, n in outgoing.get(y, ()):
            key = (x, z)
            square[key] = square.get(key, 0) ^ 1
            # the grading pins the exponent m + n, so parity is enough
    for (x, z), parity in sorted(square.items()):
        if parity:
            failures.append(f"d_squared: d(d({x})) has a surviving {z} term")
    return failures


def verify_axioms(c: FloerComplex) -> AxiomReport:
    """Check the grading law, d^2 = 0 and the homology rank."""
    failures = _graded_d2_failures(c)
    if not failures:
        expected = 2 ** (c.basepoints - 1)
        got = homology_minus(c).rank
        if got != expected:
            failures.append(f"rank: homology has {got} towers, expected {expected}")
    return AxiomReport(ok=not failures, failures=tuple(failures))


def _require_valid(c: FloerComplex) -> None:
    failures = _graded_d2_failures(c)
    if failures:
        raise ValueError(failures[0])


def _shift(chain: frozenset, delta: int) -> frozenset:
    return frozenset((g, e + delta) for g, e in chain)


def _toggle_entry(entries: dict, key: tuple[str, str], m: int) -> None:
    if key in entries:
        # the grading pins the exponent, so a collision must agree
        assert entries[key] == m, (key, entries[key], m)
        del entries[key]
    else:
        entries[key] = m


def _decompose(c: FloerComplex) -> tuple[list[tuple[int, frozenset]], list[tuple[int, int]]]:
    """Gaussian cancellation over F2[U], tracking cycle representatives.

    Returns (towers, torsion) where each tower is (grading, chain in the
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


def homology_minus(c: FloerComplex) -> HomologyDecomposition:
    """Exact homology of the complex as a module over F2[U]."""
    towers, torsion = _decompose(c)
    return HomologyDecomposition(
        towers=tuple(Tower(g, tuple(sorted(chain))) for g, chain in towers),
        torsion=tuple(torsion),
    )


def correction_term(c: FloerComplex) -> int:
    """Maximal grading of a cycle whose class is not U-torsion."""
    towers, _ = _decompose(c)
    if not towers:
        raise ValueError("homology has no free part, correction term undefined")
    return max(g for g, _ in towers)


def hat_complex(c: FloerComplex) -> FloerComplex:
    """Set U = 0: keep only the exponent-zero differential entries."""
    return FloerComplex(
        generators=c.generators,
        gradings=dict(c.gradings),
        entries={k: 0 for k, m in c.entries.items() if m == 0},
        basepoints=c.basepoints,
    )


def _hat_reduction(chain: frozenset) -> frozenset:
    """Exponent-zero part of a homogeneous F2[U]-chain, as an F2-chain."""
    return frozenset(g for g, e in chain if e == 0)


def _theta_classes(c: FloerComplex) -> tuple[int, frozenset, frozenset, tuple[frozenset, ...]]:
    """(d, theta_top, theta_bot, basis) from a single decomposition; see ``image_classes``."""
    towers, _ = _decompose(c)
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
    return d, _hat_reduction(tops[0]), _hat_reduction(bots[0]), basis


def image_classes(c: FloerComplex) -> tuple[frozenset, frozenset, tuple[frozenset, ...]]:
    """Reductions of the tower cycles in the hat complex.

    Returns (theta_top, theta_bot, basis) where theta_top is the class
    at the correction term d, theta_bot the one at d - basepoints + 1,
    and basis lists all tower reductions.  These are nonzero and
    independent: a dependency would exhibit a tower cycle in
    U*C + boundaries, contradicting that the towers extend to an
    F2[U]-basis with trivial differential.
    """
    _, theta_top, theta_bot, basis = _theta_classes(c)
    return theta_top, theta_bot, basis


# --- exact F2 linear algebra on bitmask vectors ---------------------------


def _echelon_insert(pivots: dict, v: int, mask: int) -> bool:
    """Reduce v against the pivot rows; insert if independent."""
    while v:
        h = v.bit_length() - 1
        if h not in pivots:
            pivots[h] = (v, mask)
            return True
        pv, pm = pivots[h]
        v ^= pv
        mask ^= pm
    return False


def _express(pivots: dict, v: int) -> Optional[int]:
    """Mask of inserted vectors summing to v, or None if outside the span."""
    mask = 0
    while v:
        h = v.bit_length() - 1
        if h not in pivots:
            return None
        pv, pm = pivots[h]
        v ^= pv
        mask ^= pm
    return mask


class _HatSlice:
    """F2 linear algebra of the hat complex in one fixed grading."""

    def __init__(self, c: FloerComplex, grading: int):
        self.grading = grading
        self.gens = sorted(g for g in c.generators if c.gradings[g] == grading)
        self.bit = {g: i for i, g in enumerate(self.gens)}
        below = sorted(g for g in c.generators if c.gradings[g] == grading - 1)
        bit_below = {g: i for i, g in enumerate(below)}
        hat = {k: m for k, m in c.entries.items() if m == 0}
        self.images = {}
        for g in self.gens:
            v = 0
            for (x, y), _ in hat.items():
                if x == g and y in bit_below:
                    v ^= 1 << bit_below[y]
            self.images[g] = v
        # boundaries landing in this grading
        self.boundaries = []
        for u in sorted(g for g in c.generators if c.gradings[g] == grading + 1):
            v = 0
            for (x, y), _ in hat.items():
                if x == u and y in self.bit:
                    v ^= 1 << self.bit[y]
            if v:
                self.boundaries.append(v)

    def vector(self, chain: Iterable[str]) -> int:
        v = 0
        for g in chain:
            v ^= 1 << self.bit[g]
        return v

    def is_cycle(self, chain: Iterable[str]) -> bool:
        v = 0
        for g in chain:
            v ^= self.images[g]
        return v == 0

    def cycle_space(self, allowed: Iterable[str]) -> list[int]:
        """Basis of hat cycles supported on the allowed generators."""
        pivots: dict = {}
        kernel = []
        for i, g in enumerate(sorted(set(allowed))):
            v = self.images[g]
            mask = 1 << self.bit[g]
            while v:
                h = v.bit_length() - 1
                if h not in pivots:
                    pivots[h] = (v, mask)
                    break
                pv, pm = pivots[h]
                v ^= pv
                mask ^= pm
            if not v:
                kernel.append(mask)
        return kernel

    def class_functional(self, distinguished: int):
        """Coefficient of the distinguished class in a fixed homology basis.

        The basis lists the boundary space first, then the distinguished
        cycle, then standard vectors in generator order; the returned
        function maps a cycle vector to its distinguished coordinate.
        """
        pivots: dict = {}
        for b in self.boundaries:
            _echelon_insert(pivots, b, 0)
        if not _echelon_insert(pivots, distinguished, 1):
            raise ValueError("distinguished cycle is a boundary")
        for g in self.gens:
            _echelon_insert(pivots, 1 << self.bit[g], 0)

        def functional(cycle: int) -> int:
            mask = _express(pivots, cycle)
            assert mask is not None, "vector outside the grading slice"
            return mask & 1

        return functional

    def same_class(self, u: int, v: int) -> bool:
        pivots: dict = {}
        for b in self.boundaries:
            _echelon_insert(pivots, b, 0)
        return _express(pivots, u ^ v) is not None


def _theta_test(c: FloerComplex, cycle: Iterable[str], bottom: bool) -> bool:
    d, theta_top, theta_bot, _ = _theta_classes(c)
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
    functional = slice_.class_functional(slice_.vector(theta))
    return functional(slice_.vector(chain)) == 1


def is_theta_supported(c: FloerComplex, cycle: Iterable[str]) -> bool:
    """Whether the hat cycle has a nonzero top distinguished coordinate."""
    return _theta_test(c, cycle, bottom=False)


def is_theta_star_supported(c: FloerComplex, cycle: Iterable[str]) -> bool:
    """Bottom-grading counterpart of ``is_theta_supported``."""
    return _theta_test(c, cycle, bottom=True)


def _sweep(c: FloerComplex, filt: AlexanderFiltration, qualifies) -> int:
    filt.check(c)
    levels = sorted({filt.levels[g] for g in c.generators})
    for m in levels:
        allowed = [g for g in c.generators if filt.levels[g] <= m]
        if qualifies(allowed):
            return m
    raise ValueError("no qualifying cycle at any filtration level")


def _tau_theta(c: FloerComplex, filt: AlexanderFiltration, bottom: bool) -> int:
    d, theta_top, theta_bot, _ = _theta_classes(c)
    grading = d - c.basepoints + 1 if bottom else d
    theta = theta_bot if bottom else theta_top
    slice_ = _HatSlice(c, grading)
    functional = slice_.class_functional(slice_.vector(theta))

    def qualifies(allowed: list[str]) -> bool:
        here = [g for g in allowed if c.gradings[g] == grading]
        return any(functional(v) for v in slice_.cycle_space(here))

    return _sweep(c, filt, qualifies)


def tau_top(c: FloerComplex, filt: AlexanderFiltration) -> int:
    """Least filtration level whose hat subcomplex holds a top-supported cycle."""
    return _tau_theta(c, filt, bottom=False)


def tau_bot(c: FloerComplex, filt: AlexanderFiltration) -> int:
    """Least filtration level whose hat subcomplex holds a bottom-supported cycle."""
    return _tau_theta(c, filt, bottom=True)


def tau_alpha(c: FloerComplex, filt: AlexanderFiltration, alpha: Iterable[str]) -> int:
    """Least filtration level holding a cycle in the class of ``alpha``."""
    _require_valid(c)
    chain = frozenset(alpha)
    if not chain:
        raise ValueError("alpha must be a nonzero class")
    grading = c.grading_of_chain(chain)
    slice_ = _HatSlice(c, grading)
    if not slice_.is_cycle(chain):
        raise ValueError("alpha is not a cycle of the hat complex")
    target = slice_.vector(chain)
    if slice_.same_class(target, 0):
        raise ValueError("alpha must be a nonzero class")

    def qualifies(allowed: list[str]) -> bool:
        here = [g for g in allowed if c.gradings[g] == grading]
        pivots: dict = {}
        for b in slice_.boundaries:
            _echelon_insert(pivots, b, 0)
        for v in slice_.cycle_space(here):
            _echelon_insert(pivots, v, 0)
        return _express(pivots, target) is not None

    return _sweep(c, filt, qualifies)


def dualize(
    c: FloerComplex, filt: AlexanderFiltration
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Transpose the differential and negate gradings and levels."""
    filt.check(c)
    dual = FloerComplex(
        generators=c.generators,
        gradings={g: -v for g, v in c.gradings.items()},
        entries={(y, x): m for (x, y), m in c.entries.items()},
        basepoints=c.basepoints,
    )
    dual_filt = AlexanderFiltration({g: -v for g, v in filt.levels.items()})
    return dual, dual_filt


# --- textual format -------------------------------------------------------


def parse_complex(
    lines: Iterable[str], basepoints: int = 1
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Read "name gr A" generator lines and "x -> y pow m" entry lines."""
    gens: list[str] = []
    gradings: dict[str, int] = {}
    levels: dict[str, int] = {}
    entries: dict[tuple[str, str], int] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if "->" in parts:
            if len(parts) == 3 and parts[1] == "->":
                x, y, m = parts[0], parts[2], 0
            elif len(parts) == 5 and parts[1] == "->" and parts[3] == "pow":
                x, y = parts[0], parts[2]
                try:
                    m = int(parts[4])
                except ValueError:
                    raise ValueError(f"bad U-power in line {line!r}")
            else:
                raise ValueError(f"bad differential line {line!r}")
            if (x, y) in entries:
                raise ValueError(f"duplicate entry {x} -> {y}")
            entries[(x, y)] = m
        else:
            if len(parts) != 3:
                raise ValueError(f"bad generator line {line!r}")
            name = parts[0]
            try:
                gr, a = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"bad grading or level in line {line!r}")
            if name in gradings:
                raise ValueError(f"duplicate generator {name!r}")
            gens.append(name)
            gradings[name] = gr
            levels[name] = a
    c = FloerComplex(tuple(gens), gradings, entries, basepoints)
    return c, AlexanderFiltration(levels)


def format_complex(c: FloerComplex, filt: AlexanderFiltration) -> list[str]:
    filt.check(c)
    lines = [f"{g} {c.gradings[g]} {filt.levels[g]}" for g in c.generators]
    lines.extend(
        f"{x} -> {y} pow {m}" for (x, y), m in sorted(c.entries.items())
    )
    return lines


# --- random valid complexes for property tests ----------------------------


def _apply_basis_change(
    entries: dict, e: str, f: str, delta: int
) -> None:
    """Replace e by e + U^delta f in the basis, updating the differential."""
    for (x, z), m in sorted(entries.items()):
        if x == f:
            _toggle_entry(entries, (e, z), m + delta)
    for (w, x), k in sorted(entries.items()):
        if x == e:
            _toggle_entry(entries, (w, f), k + delta)


def random_complex(
    rng, max_generators: int = 6, max_basepoints: int = 2
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Random valid filtered complex built from elementary pieces.

    Towers in the model grading pattern plus U^a-cancelling pairs always
    satisfy the axioms; random graded filtered basis changes then mix
    the pieces without changing any invariant.
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
    for _ in range(rng.randint(0, 12)):
        cands = [
            (e, f)
            for e in names
            for f in names
            if e != f
            and (gr[f] - gr[e]) % 2 == 0
            and gr[f] >= gr[e]
            and levels[f] - (gr[f] - gr[e]) // 2 <= levels[e]
        ]
        if not cands:
            break
        e, f = rng.choice(cands)
        _apply_basis_change(entries, e, f, (gr[f] - gr[e]) // 2)
    shuffled = list(range(len(names)))
    rng.shuffle(shuffled)
    rename = {old: f"g{shuffled[i]}" for i, old in enumerate(names)}
    c = FloerComplex(
        generators=tuple(rename[n] for n in names),
        gradings={rename[n]: gr[n] for n in names},
        entries={(rename[x], rename[y]): m for (x, y), m in entries.items()},
        basepoints=ell,
    )
    filt = AlexanderFiltration({rename[n]: levels[n] for n in names})
    return c, filt

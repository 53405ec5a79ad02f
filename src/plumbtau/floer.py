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
towers).  The elimination keeps each generator's targets and sources
as Python ints, one bit per generator in (grading, name) order, and
derives every exponent from the gradings: a pivot costs one XOR per row
it changes, and a heap of each row's least entry pops the next pivot.

Setting U = 0 gives the hat complex over F2.  The tower classes reduce
to independent nonzero classes there; the top and bottom reductions
are the distinguished classes used to test cycles for theta support.
Nothing downstream reads more of a tower cycle than its reduction, so
the elimination tracks only that: a basis change by U^delta with
delta > 0 leaves every reduction as it was.  A reduction is a mask over
the complex's generator order, bit i for ``generators[i]``, and every
hat chain below is numbered the same way, so the distinguished classes
reach tau as the elimination returns them.  The tau invariants of an
Alexander-type filtration are the smallest level whose hat subcomplex
contains a qualifying cycle.  One pass finds it: the generators of the
relevant grading enter one F2 echelon in level order, each dependency
closes a new cycle, and the first cycle that qualifies fixes the level.

A complex that breaks the grading law or d^2 = 0 has its failures decided
in one place, ``_failures``: their count, and their lines formatted as they
are read.  ``verify_axioms`` lists the first ``MAX_LISTED_FAILURES`` lines
and counts the rest; every other answer raises the first line.
"""

from __future__ import annotations

# the C functions that heapq re-exports, without loading its Python module
from _heapq import heappop, heappush
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

# Most failures ``verify_axioms`` lists; one last line counts the rest, so a
# broken complex of e entries reports in bounded output, not e^2 lines.
MAX_LISTED_FAILURES = 100

# Most work n^2 + 16 e a complex of n generators and e entries may ask for
# (``_require_size``); the largest allowed complexes answer in about 1 s.
MAX_WORK = 4_500_000


class _FloerFields(NamedTuple):
    gradings: Mapping[str, int]
    entries: Mapping[tuple[str, str], int]
    basepoints: int = 1


class FloerComplex(_FloerFields):
    """Free graded complex over F2[U].

    ``gradings`` maps each generator's name to its grading, and its keys,
    in their order, are the generators.  ``entries`` maps (x, y) to the
    exponent m of the monomial U^m with which y appears in the
    differential of x.  ``basepoints`` is the number of basepoints of the
    underlying link diagram; it only enters through the expected rank
    2^(basepoints - 1) of the homology and the grading gap between the
    two distinguished classes.

    The constructor checks shape only.  The three chain-complex axioms
    are report-valued (``verify_axioms``) so that broken complexes can
    be built and diagnosed.
    """

    __slots__ = ()

    def __new__(cls, gradings: Mapping[str, int], entries: Mapping[tuple[str, str], int],
                basepoints: int = 1):
        self = super().__new__(cls, gradings, entries, basepoints)
        for g in self.gradings:
            # one word, not empty and without whitespace
            if g.split() != [g]:
                raise ValueError(f"bad generator name {g!r}")
        for (x, y), m in self.entries.items():
            if x not in self.gradings or y not in self.gradings:
                raise ValueError(f"differential entry ({x!r},{y!r}) off the basis")
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"entry ({x!r},{y!r}) needs an integer U-power >= 0")
        if self.basepoints < 1:
            raise ValueError("basepoint count must be >= 1")
        return self

    @property
    def generators(self) -> tuple[str, ...]:
        """The generator names, in the order of ``gradings``: a new tuple per read."""
        return tuple(self.gradings)

    def grading_of_chain(self, chain: Iterable[str]) -> int:
        """Common grading of a homogeneous F2-chain of generators."""
        grs = {self.gradings[g] for g in chain}
        if len(grs) != 1:
            raise ValueError("chain is not homogeneous")
        return grs.pop()


class AlexanderFiltration(NamedTuple):
    """Integer filtration level per generator.

    Compatible with a complex when every entry x -> y pow m satisfies
    A(y) - m <= A(x): the differential never raises the level, and each
    U multiplication drops it by one.
    """

    levels: Mapping[str, int]

    def check(self, c: FloerComplex) -> None:
        for g in c.gradings:
            if g not in self.levels:
                raise ValueError(f"generator {g!r} has no filtration level")
        for (x, y), m in c.entries.items():
            if self.levels[y] - m > self.levels[x]:
                raise ValueError(f"entry {x} -> {y} pow {m} raises the filtration level")


class AxiomReport(NamedTuple):
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """The complex passes every check: no failure is listed."""
        return not self.failures


def _ungraded(c: FloerComplex) -> list[tuple[str, str, int]]:
    """Entries x -> y pow m that break the grading law, sorted; a graded complex sorts nothing."""
    gr = c.gradings
    return sorted((x, y, m) for (x, y), m in c.entries.items() if gr[y] - 2 * m != gr[x] - 1)


def _require_size(c: FloerComplex) -> None:
    """Refuse n generators and e entries whose work n^2 + 16 e exceeds ``MAX_WORK``.

    A pivot x -> y XORs two rows per other source of y and per other target
    of x, and one per source of x and per target of y.  The grading law puts
    the sources of x and of y in gradings of opposite parity, and so their
    targets: a pivot among m live generators XORs at most 4(m - 2) rows of
    n bits, each with at most one heap push, and the n/2 pivots fewer than
    n^2.  A hat slice of tau costs as much, n vectors reduced against n
    pivots.  Reading and checking the entries, and the d^2 masks, cost a
    few steps per entry, measured at about 16 units of n^2.
    """
    n, e = len(c.gradings), len(c.entries)
    work = n * n + 16 * e
    if work > MAX_WORK:
        raise ValueError(
            f"{n} generators and {e} entries make n^2 + 16 e = {work},"
            f" above the limit of {MAX_WORK}"
        )


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rows(c: FloerComplex) -> tuple[list[str], list[int], list[int]]:
    """The generators in (grading, name) order, and their bit rows ``out`` and ``inn``.

    Bit j of ``out[i]``, and bit i of ``inn[j]``, is set when names[i] ->
    names[j] is an entry.  The grading law makes the exponent grow with the
    target's grading, so the lowest bit of a row is its (m, name)-least entry.
    """
    gr = c.gradings
    names = sorted(gr, key=lambda g: (gr[g], g))
    index = {g: i for i, g in enumerate(names)}
    out, inn = [0] * len(names), [0] * len(names)
    for x, y in c.entries:
        i, j = index[x], index[y]
        out[i] |= 1 << j
        inn[j] |= 1 << i
    return names, out, inn


def _d2_masks(names: list[str], out: list[int]) -> Iterator[tuple[str, int]]:
    """Each source x in name order, with d(d(x)) as a mask over ``names``: the
    XOR of the rows of x's targets, as the grading law pins each exponent."""
    for i in sorted(range(len(names)), key=names.__getitem__):
        square = 0
        for j in _bits(out[i]):
            square ^= out[j]
        yield names[i], square


def _failures(c: FloerComplex) -> tuple[int, Iterator[str]]:
    """How many failures of the grading law, else of d^2 = 0, ``c`` has, and their lines.

    The count is the number of ungraded entries or the bits of the d^2
    masks; the lines, in sorted order, are formatted only as they are read.
    """
    gr = c.gradings
    if ungraded := _ungraded(c):
        return len(ungraded), (
            f"grading: entry {x} -> {y} pow {m} has gr {gr[y]} - 2*{m} != gr {gr[x]} - 1"
            for x, y, m in ungraded
        )
    names, out, _ = _rows(c)
    squares = list(_d2_masks(names, out))
    return sum(square.bit_count() for _, square in squares), (
        f"d_squared: d(d({x})) has a surviving {z} term"
        for x, square in squares
        for z in sorted(names[k] for k in _bits(square))
    )


def verify_axioms(c: FloerComplex) -> AxiomReport:
    """Check the size, the grading law and d^2 = 0 (by eliminating), then the rank.

    The first ``MAX_LISTED_FAILURES`` failures are listed, then one line
    ``... and N more failures`` if there are more.
    """
    _require_size(c)
    try:
        rank, power = len(_eliminate(c)[0]), c.basepoints - 1
    except ValueError:
        count, listing = _failures(c)
        failures = list(islice(listing, MAX_LISTED_FAILURES))
        if count > MAX_LISTED_FAILURES:
            failures.append(f"... and {count - MAX_LISTED_FAILURES} more failures")
        return AxiomReport(tuple(failures))
    failures = []
    # 2^power is built only while it could equal the rank, at most #generators
    if power >= len(c.gradings).bit_length():
        failures.append(f"rank: homology has {rank} towers, expected 2^{power}")
    elif rank != 2**power:
        failures.append(f"rank: homology has {rank} towers, expected {2**power}")
    return AxiomReport(tuple(failures))


def _require_valid(c: FloerComplex) -> None:
    count, listing = _failures(c)
    if count:  # raise the first
        raise ValueError(next(listing))


def _eliminate(c: FloerComplex) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Gaussian cancellation over F2[U], tracking the hat part of each cycle.

    Raises the first failure ``verify_axioms`` lists, if any, as a
    ``ValueError``.  Returns (towers, torsion).  Each tower is (grading,
    hat reduction of its cycle), the reduction a bitmask whose bit i
    stands for ``c.generators[i]``; towers are sorted by grading, highest
    first, then by mask.  Each torsion summand is (grading, U-power).

    The rows are those of ``_rows``; the grading law, checked first, pins
    each exponent, and the graded basis changes keep it, and D^2 up to
    conjugation.  So the elimination is the d^2 check: d^2 = 0 makes every
    pivot pair split off, and if all do, d^2 = 0.

    A pivot x -> y pow a does ``out[w] ^= out[x]`` for each other source w
    of y and ``inn[z] ^= inn[y]`` for each other target z of x.  As the
    pivot is globally U-minimal, the basis change w <- w + U^delta x has
    delta >= 0, and only delta = 0, that is gr w = gr x, puts anything at
    exponent 0: only then does the reduction of w gain that of x.  The row
    clear changes only the representative of y, which leaves with x.
    """
    if _ungraded(c):
        _require_valid(c)
    names, out, inn = _rows(c)
    grs = [c.gradings[g] for g in names]
    position = {g: i for i, g in enumerate(c.generators)}
    hat = [1 << position[g] for g in names]
    heap: list[tuple] = []
    pop, push = heappop, heappush
    def offer(w: int) -> None:  # push w's least entry, if it has one
        row = out[w]
        if row:
            z = (row & -row).bit_length() - 1
            push(heap, ((grs[z] - grs[w] + 1) // 2, names[w], names[z], w, 1 << z))

    # Pivots pop in (m, x, y) order, the globally U-minimal entry with ties
    # broken by name, as a plain minimum over all entries would: that fixes
    # the cycle of each tower, so the theta classes, tau and every output
    # byte.  Each row's least entry is pushed whenever it changes, enough as
    # a pivot ends its row; a popped entry is stale unless still its lowest.
    for w in range(len(names)):
        offer(w)
    alive = set(range(len(names)))
    torsion: list[tuple[int, int]] = []
    while heap:
        a, _, _, x, ybit = pop(heap)
        row = out[x]
        if row & -row != ybit:
            continue
        y, xbit = ybit.bit_length() - 1, 1 << x
        column, gx, hx = inn[y], grs[x], hat[x]
        # clear the column of y: each other source w becomes w + U^delta x,
        # so w loses y and gains the other targets of x; y is row's lowest bit
        incoming = inn[x]
        for w in _bits(column ^ xbit):
            out[w] ^= row
            if not out[w] & (ybit - 1):  # w's least entry was w -> y
                offer(w)
            if grs[w] == gx:
                hat[w] ^= hx
            incoming ^= inn[w]
        # the same change gives each source v of w an arrow v -> x, and
        # d^2 = 0 makes these cancel the arrows into x: nothing maps to x
        for v in _bits(inn[x]):
            out[v] ^= xbit
            if not out[v] & (xbit - 1):  # v's least entry was v -> x
                offer(v)
        # clear the row of x: y <- y + sum of U^delta z over its other
        # targets z, and d^2 = 0 makes the new y a cycle
        outgoing = out[y]
        for z in _bits(row ^ ybit):
            outgoing ^= out[z]
            inn[z] ^= column
        if incoming or outgoing:
            # d^2 != 0, so the listing finds a failure unless this code is wrong
            _require_valid(c)
            raise RuntimeError(f"pivot {names[x]} -> {names[y]} does not split off")
        for t in _bits(out[y]):
            inn[t] ^= ybit
        out[x] = out[y] = inn[x] = inn[y] = 0
        alive -= {x, y}
        if a >= 1:
            torsion.append((grs[y], a))
    towers = sorted(((grs[g], hat[g]) for g in alive), key=lambda t: (-t[0], t[1]))
    return towers, sorted(torsion, key=lambda t: (-t[0], t[1]))


def correction_term(c: FloerComplex) -> int:
    """Maximal grading of a cycle whose class is not U-torsion."""
    _require_size(c)
    towers, _ = _eliminate(c)
    if not towers:
        raise ValueError("homology has no free part, correction term undefined")
    return towers[0][0]


def _theta_classes(c: FloerComplex) -> tuple[int, int, int]:
    """(d, theta_top, theta_bot) from a single decomposition.

    theta_top is the hat reduction of the tower at the correction term d,
    theta_bot that of the tower at d - basepoints + 1, as masks over ``c.generators``.
    """
    _require_size(c)
    towers, _ = _eliminate(c)
    if not towers:
        raise ValueError("homology has no free part")
    d = towers[0][0]
    bottom = d - c.basepoints + 1
    tops = [hat for g, hat in towers if g == d]
    bots = [hat for g, hat in towers if g == bottom]
    if len(tops) != 1 or len(bots) != 1:
        raise ValueError("tower gradings do not single out top and bottom classes")
    return d, tops[0], bots[0]


# --- exact F2 linear algebra on bitmask vectors ---------------------------


def _reduce(pivots: dict, v: int, mask: int = 0) -> tuple[int, int]:
    """Reduce v against the pivot rows: (remainder, mask of rows used)."""
    while v:
        h = v.bit_length() - 1
        if h not in pivots:
            break
        pv, pm = pivots[h]
        v ^= pv
        mask ^= pm
    return v, mask


def _echelon_insert(pivots: dict, v: int, mask: int) -> Optional[int]:
    """Reduce v against the pivot rows and insert it if independent (None).

    Otherwise return the dependency: the reduced mask, whose inserted
    vectors sum to zero.
    """
    v, mask = _reduce(pivots, v, mask)
    if not v:
        return mask
    pivots[v.bit_length() - 1] = (v, mask)
    return None


def _express(pivots: dict, v: int) -> Optional[int]:
    """Mask of inserted vectors summing to v, or None if outside the span."""
    v, mask = _reduce(pivots, v)
    return None if v else mask


class _HatSlice:
    """F2 linear algebra of the hat complex in one fixed grading, on masks over ``c.generators``."""

    def __init__(self, c: FloerComplex, grading: int):
        gr = c.gradings
        self.gens = sorted(g for g in gr if gr[g] == grading)
        self.bit = {g: i for i, g in enumerate(gr)}
        self.images = dict.fromkeys(self.gens, 0)
        above = dict.fromkeys(sorted(g for g in gr if gr[g] == grading + 1), 0)
        for (x, y), m in c.entries.items():
            if m:
                continue
            if x in self.images and gr[y] == grading - 1:
                self.images[x] ^= 1 << self.bit[y]
            elif x in above and gr[y] == grading:
                above[x] ^= 1 << self.bit[y]
        # boundaries landing in this grading
        self.boundaries = [v for v in above.values() if v]

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

    def first_level(self, levels: Mapping[str, int], found) -> int:
        """Least level whose sublevel holds a hat cycle that ``found`` accepts.

        The generators enter one echelon in (level, name) order.  Each one
        whose image depends on those before closes a new cycle, passed to
        ``found`` as a generator mask; the cycles closed so far span the
        cycles of the sublevel, so ``found`` must be decided by that span.
        """
        pivots: dict = {}
        for g in sorted(self.gens, key=lambda g: (levels[g], g)):
            mask = _echelon_insert(pivots, self.images[g], 1 << self.bit[g])
            if mask is not None and found(mask):
                return levels[g]
        raise ValueError("no qualifying cycle at any filtration level")

    def class_functional(self, distinguished: int):
        """Coefficient of the distinguished class in a fixed homology basis.

        The basis lists the boundary space first, then the distinguished
        cycle, then standard vectors in generator order; the returned
        function maps a cycle vector to its distinguished coordinate.
        """
        pivots: dict = {}
        for b in self.boundaries:
            _echelon_insert(pivots, b, 0)
        if _echelon_insert(pivots, distinguished, 1) is not None:
            raise ValueError("distinguished cycle is a boundary")
        for g in self.gens:
            _echelon_insert(pivots, 1 << self.bit[g], 0)

        def functional(cycle: int) -> int:
            mask = _express(pivots, cycle)
            if mask is None:
                raise RuntimeError("vector outside the grading slice")
            return mask & 1

        return functional


def _tau_theta(c: FloerComplex, filt: AlexanderFiltration, bottom: bool) -> int:
    d, theta_top, theta_bot = _theta_classes(c)
    grading = d - c.basepoints + 1 if bottom else d
    theta = theta_bot if bottom else theta_top
    slice_ = _HatSlice(c, grading)
    functional = slice_.class_functional(theta)
    filt.check(c)
    return slice_.first_level(filt.levels, functional)


def tau_top(c: FloerComplex, filt: AlexanderFiltration) -> int:
    """Least filtration level whose hat subcomplex holds a top-supported cycle."""
    return _tau_theta(c, filt, bottom=False)


def tau_bot(c: FloerComplex, filt: AlexanderFiltration) -> int:
    """Least filtration level whose hat subcomplex holds a bottom-supported cycle."""
    return _tau_theta(c, filt, bottom=True)


def tau_alpha(c: FloerComplex, filt: AlexanderFiltration, alpha: Iterable[str]) -> int:
    """Least filtration level holding a cycle in the class of ``alpha``."""
    _require_size(c)
    _eliminate(c)  # the d^2 = 0 check, as for every other answer
    chain = frozenset(alpha)
    if not chain:
        raise ValueError("alpha must be a nonzero class")
    grading = c.grading_of_chain(chain)
    slice_ = _HatSlice(c, grading)
    if not slice_.is_cycle(chain):
        raise ValueError("alpha is not a cycle of the hat complex")
    target = slice_.vector(chain)
    pivots: dict = {}
    for b in slice_.boundaries:
        _echelon_insert(pivots, b, 0)
    if _express(pivots, target) is not None:
        raise ValueError("alpha must be a nonzero class")
    filt.check(c)

    def found(cycle: int) -> bool:
        _echelon_insert(pivots, cycle, 0)
        return _express(pivots, target) is not None

    return slice_.first_level(filt.levels, found)


# --- textual format -------------------------------------------------------


def parse_complex(
    lines: Iterable[str], basepoints: int = 1
) -> tuple[FloerComplex, AlexanderFiltration]:
    """Read "name gr A" generator lines and "x -> y pow m" entry lines."""
    gradings: dict[str, int] = {}
    levels: dict[str, int] = {}
    entries: dict[tuple[str, str], int] = {}
    for raw in lines:
        # one split for a line without a comment
        line = raw.split("#", 1)[0] if "#" in raw else raw
        parts = line.split()
        n = len(parts)
        if n in (3, 5) and parts[1] == "->" and (n == 3 or parts[3] == "pow"):
            key = parts[0], parts[2]
            try:
                m = int(parts[4]) if n == 5 else 0
            except ValueError:
                raise ValueError(f"bad U-power in line {line.strip()!r}")
            if key in entries:
                raise ValueError(f"duplicate entry {key[0]} -> {key[1]}")
            entries[key] = m
        elif "->" in parts:
            raise ValueError(f"bad differential line {line.strip()!r}")
        elif n == 3:
            name = parts[0]
            try:
                gr, a = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"bad grading or level in line {line.strip()!r}")
            if name in gradings:
                raise ValueError(f"duplicate generator {name!r}")
            gradings[name] = gr
            levels[name] = a
        elif n:
            raise ValueError(f"bad generator line {line.strip()!r}")
    c = FloerComplex(gradings, entries, basepoints)
    return c, AlexanderFiltration(levels)

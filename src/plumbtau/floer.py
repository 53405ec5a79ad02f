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
towers).  The elimination is indexed: it keeps each generator's
targets and sources as sets of names, derives every exponent from the
gradings, and pops the globally U-minimal pivot from a heap, so a row
or column operation touches only the entries it changes.

Setting U = 0 gives the hat complex over F2.  The tower classes reduce
to independent nonzero classes there; the top and bottom reductions
are the distinguished classes used to test cycles for theta support.
Nothing downstream reads more of a tower cycle than its reduction, so
the elimination tracks only that: a basis change by U^delta with
delta > 0 leaves every reduction as it was.  The tau invariants of an
Alexander-type filtration are the smallest level whose hat subcomplex
contains a qualifying cycle.  One pass finds it: the generators of the
relevant grading enter one F2 echelon in level order, each dependency
closes a new cycle, and the first cycle that qualifies fixes the level.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

# Most failures ``verify_axioms`` lists; one last line counts the rest, so a
# broken complex of e entries reports in bounded output, not e^2 lines.
MAX_LISTED_FAILURES = 100

# The package's records are NamedTuples or plain classes, never dataclasses:
# ``dataclasses`` imports ``inspect`` (and through it ``ast``, ``dis`` and
# ``tokenize``), 9-11.5 ms of every CLI call, and builds each class in about
# 1 ms, against 0.1-0.2 ms for a NamedTuple.  A record with checks is a
# NamedTuple of its fields plus a subclass whose ``__new__`` runs them, as
# below; ``_replace`` and ``_make`` skip ``__new__``, so the package uses
# neither.  ``IntersectionForm`` and ``SpincClass`` (``plumbing``) are plain
# classes, since their equality leaves fields out and the form caches its
# inverse.


class _FloerFields(NamedTuple):
    generators: tuple[str, ...]
    gradings: Mapping[str, int]
    entries: Mapping[tuple[str, str], int]
    basepoints: int = 1


class FloerComplex(_FloerFields):
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

    __slots__ = ()

    def __new__(
        cls,
        generators: tuple[str, ...],
        gradings: Mapping[str, int],
        entries: Mapping[tuple[str, str], int],
        basepoints: int = 1,
    ):
        self = super().__new__(cls, generators, gradings, entries, basepoints)
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
        return self

    def grading_of_chain(self, chain: Iterable[str]) -> int:
        """Common grading of a homogeneous F2-chain of generators."""
        gens = set(chain)
        grs = {self.gradings[g] for g in gens}
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
        for g in c.generators:
            if g not in self.levels:
                raise ValueError(f"generator {g!r} has no filtration level")
        for (x, y), m in c.entries.items():
            if self.levels[y] - m > self.levels[x]:
                raise ValueError(
                    f"entry {x} -> {y} pow {m} raises the filtration level"
                )


class AxiomReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]


def _ungraded(c: FloerComplex) -> list[tuple[str, str, int]]:
    """Entries x -> y pow m that break the grading law, in sorted order.

    The scan runs in entry order and only the failures are sorted, so a
    graded complex costs no sort.
    """
    gr = c.gradings
    return sorted(
        (x, y, m) for (x, y), m in c.entries.items() if gr[y] - 2 * m != gr[x] - 1
    )


def _d2_rows(c: FloerComplex) -> Iterator[tuple[str, list[str]]]:
    """Each source x in name order, with the z that survive in d(d(x)), unsorted.

    Over F2[U] with the grading law the exponent of every composite x -> z
    is pinned, so a z survives when an odd number of paths reach it.
    """
    outgoing: dict[str, list[str]] = {}
    for x, y in c.entries:
        outgoing.setdefault(x, []).append(y)
    for x in sorted(outgoing):
        row: dict[str, int] = {}
        for y in outgoing[x]:
            for z in outgoing.get(y, ()):
                row[z] = row.get(z, 0) ^ 1
        yield x, [z for z, parity in row.items() if parity]


def _graded_d2_failures(c: FloerComplex) -> Iterator[str]:
    """Failures of the grading law, else of d^2 = 0, lazily and in sorted order.

    The d^2 rows are built one source at a time, so the first failure
    costs one row, not the whole square.
    """
    graded = True
    for x, y, m in _ungraded(c):
        graded = False
        yield (
            f"grading: entry {x} -> {y} pow {m} has gr {c.gradings[y]} - 2*{m}"
            f" != gr {c.gradings[x]} - 1"
        )
    if graded:
        for x, survivors in _d2_rows(c):
            for z in sorted(survivors):
                yield f"d_squared: d(d({x})) has a surviving {z} term"


def _failure_count(c: FloerComplex) -> int:
    """How many failures ``_graded_d2_failures`` yields, none of them formatted."""
    return len(_ungraded(c)) or sum(len(zs) for _, zs in _d2_rows(c))


def verify_axioms(c: FloerComplex) -> AxiomReport:
    """Check the grading law and d^2 = 0 (by eliminating), then the rank.

    The first ``MAX_LISTED_FAILURES`` failures are listed, then one line
    ``... and N more failures`` if there are more.
    """
    try:
        rank, power = len(_eliminate(c)[0]), c.basepoints - 1
    except ValueError:
        failures = list(islice(_graded_d2_failures(c), MAX_LISTED_FAILURES))
        if len(failures) == MAX_LISTED_FAILURES:
            more = _failure_count(c) - MAX_LISTED_FAILURES
            if more:
                failures.append(f"... and {more} more failures")
        return AxiomReport(ok=False, failures=tuple(failures))
    failures = []
    # 2^power is built only while it could equal the rank, at most #generators
    if power >= len(c.generators).bit_length():
        failures.append(f"rank: homology has {rank} towers, expected 2^{power}")
    elif rank != 2**power:
        failures.append(f"rank: homology has {rank} towers, expected {2**power}")
    return AxiomReport(ok=not failures, failures=tuple(failures))


def _require_valid(c: FloerComplex) -> None:
    failure = next(_graded_d2_failures(c), None)
    if failure is not None:
        raise ValueError(failure)


def _eliminate(c: FloerComplex) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Gaussian cancellation over F2[U], tracking the hat part of each cycle.

    Raises the first failure ``verify_axioms`` lists, if any, as a
    ``ValueError``.  Returns (towers, torsion).  Each tower is (grading,
    hat reduction of its cycle), the reduction a bitmask whose bit i
    stands for ``c.generators[i]``; towers are sorted by grading, highest
    first, then by mask.  Each torsion summand is (grading, U-power).

    Rows are sets: ``out[x]`` holds the targets of x and ``inn[y]`` the
    sources of y.  No exponent is stored.  The grading law pins that of
    x -> y to (gr y - gr x + 1) / 2; it is checked first, and the graded
    basis changes keep it, and D^2 up to conjugation.  So the elimination
    is the d^2 check: d^2 = 0 makes every pivot pair split off, and if
    all do, d^2 = 0.  Only a pair that fails lists the d^2 rows.

    A representative is kept only as its hat reduction.  The pivot is a
    globally U-minimal entry x -> y pow a, so every other source w of y
    has an entry w -> y pow k with k >= a, and the column clear
    w <- w + U^delta x shifts by delta = k - a >= 0.  A shift by delta > 0
    puts nothing at exponent 0, so the reduction of w gains that of x
    exactly when delta = 0, that is when gr w = gr x.  The row clear
    changes only the representative of y, which leaves with x and is
    never read again.
    """
    if _ungraded(c):
        _require_valid(c)
    gr = c.gradings
    out: dict[str, set[str]] = {g: set() for g in c.generators}
    inn: dict[str, set[str]] = {g: set() for g in c.generators}
    for x, y in c.entries:
        out[x].add(y)
        inn[y].add(x)
    # Pivots pop in (m, x, y) order: the globally U-minimal entry, which
    # keeps every elimination inside F2[U], ties broken by name.  This is
    # the order of a plain minimum over all entries, kept on purpose: it
    # fixes which cycle represents each tower, and with it the theta
    # classes, tau and every output byte.
    # An entry cancelled after its push stays in the heap and is skipped
    # when popped; its U-power is pinned by the gradings, so presence in
    # ``out`` is the only check needed.
    heap = [(m, x, y) for (x, y), m in c.entries.items()]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    hat = {g: 1 << i for i, g in enumerate(c.generators)}
    alive = set(c.generators)
    torsion: list[tuple[int, int]] = []
    while heap:
        a, x, y = pop(heap)
        targets = out[x]
        if y not in targets:
            continue
        targets.discard(y)
        sources = inn[y]
        sources.discard(x)
        gx = gr[x]
        # clear the column of y: each other source w becomes w + U^delta x,
        # so w loses y and its row gains the other targets of x
        incoming = set(inn[x])
        for w in sources:
            row = out[w]
            row.discard(y)
            gw = gr[w]
            for z in targets:
                if z in row:
                    row.discard(z)
                    inn[z].discard(w)
                else:
                    row.add(z)
                    inn[z].add(w)
                    push(heap, ((gr[z] - gw + 1) // 2, w, z))
            if gw == gx:
                hat[w] ^= hat[x]
            incoming ^= inn[w]
        # the same change gives each source v of w an arrow v -> x, and
        # d^2 = 0 makes these cancel the arrows into x: nothing maps to x
        for v in inn[x]:
            out[v].discard(x)
        # clear the row of x: y <- y + sum of U^delta z over its other
        # targets z, and d^2 = 0 makes the new y a cycle
        outgoing = set(out[y])
        for z in targets:
            outgoing ^= out[z]
            inn[z].discard(x)
        if incoming or outgoing:
            # d^2 != 0, so the listing finds a failure unless this code is wrong
            _require_valid(c)
            raise RuntimeError(f"pivot {x} -> {y} does not split off")
        for t in out[y]:
            inn[t].discard(y)
        for g in (x, y):
            out[g].clear()
            inn[g].clear()
            alive.discard(g)
        if a >= 1:
            torsion.append((gr[y], a))
    towers = sorted(((gr[g], hat[g]) for g in alive), key=lambda t: (-t[0], t[1]))
    return towers, sorted(torsion, key=lambda t: (-t[0], t[1]))


def correction_term(c: FloerComplex) -> int:
    """Maximal grading of a cycle whose class is not U-torsion."""
    towers, _ = _eliminate(c)
    if not towers:
        raise ValueError("homology has no free part, correction term undefined")
    return towers[0][0]


def _chain(c: FloerComplex, mask: int) -> frozenset:
    """The generators whose bits are set in ``mask``."""
    return frozenset(g for i, g in enumerate(c.generators) if mask >> i & 1)


def _theta_classes(c: FloerComplex) -> tuple[int, frozenset, frozenset]:
    """(d, theta_top, theta_bot) from a single decomposition.

    theta_top is the hat reduction of the tower at the correction term d,
    theta_bot that of the tower at d - basepoints + 1.
    """
    towers, _ = _eliminate(c)
    if not towers:
        raise ValueError("homology has no free part")
    d = towers[0][0]
    bottom = d - c.basepoints + 1
    tops = [hat for g, hat in towers if g == d]
    bots = [hat for g, hat in towers if g == bottom]
    if len(tops) != 1 or len(bots) != 1:
        raise ValueError(
            "tower gradings do not single out top and bottom classes"
        )
    return d, _chain(c, tops[0]), _chain(c, bots[0])


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
    """F2 linear algebra of the hat complex in one fixed grading."""

    def __init__(self, c: FloerComplex, grading: int):
        self.grading = grading
        self.gens = sorted(g for g in c.generators if c.gradings[g] == grading)
        self.bit = {g: i for i, g in enumerate(self.gens)}
        below = sorted(g for g in c.generators if c.gradings[g] == grading - 1)
        bit_below = {g: i for i, g in enumerate(below)}
        self.images = dict.fromkeys(self.gens, 0)
        above = dict.fromkeys(
            sorted(g for g in c.generators if c.gradings[g] == grading + 1), 0
        )
        for (x, y), m in c.entries.items():
            if m:
                continue
            if x in self.images and y in bit_below:
                self.images[x] ^= 1 << bit_below[y]
            elif x in above and y in self.bit:
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
    functional = slice_.class_functional(slice_.vector(theta))
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
    _require_valid(c)
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

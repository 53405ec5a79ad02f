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
as Python ints, one bit per generator in (grading, name) order, built in
one walk over the entries that also checks the grading law, and derives
every exponent from the gradings.  A pivot costs one XOR per row it
changes, and a heap of plain ints pops the next pivot: one key
m n^2 + rank(x) n + y per row's least entry x -> y pow m, where n counts
the generators and rank(x) is the place of x in name order.

Setting U = 0 gives the hat complex over F2.  The tower classes reduce
to independent nonzero classes there; the top and bottom reductions
are the distinguished classes used to test cycles for theta support.
Nothing downstream reads more of a tower cycle than its reduction, so
the elimination tracks only that: a basis change by U^delta with
delta > 0 leaves every reduction as it was.  A reduction is a mask over
the rows, bit i for the i-th generator in (grading, name) order, and
every hat chain below is numbered the same way: the hat slice of a
grading is cut from the same rows, so the distinguished classes reach
tau as the elimination returns them.  The tau invariants of an
Alexander-type filtration are the smallest level whose hat subcomplex
contains a qualifying cycle.  One pass finds it: the generators of the
relevant grading enter one F2 echelon in level order, each dependency
closes a new cycle, and the first cycle that qualifies fixes the level.

A complex that breaks the grading law or d^2 = 0 has its failures decided
in one place, ``_failures``: their count, and their lines formatted as they
are read, from the rows the answer has already built, so every answer,
valid or refused, builds them once.  ``verify_axioms`` lists the first
``MAX_LISTED_FAILURES`` lines and counts the rest; every other answer
raises the first line.
"""

from __future__ import annotations

# the C functions that heapq re-exports, without loading its Python module;
# ``_HatSlice`` imports bisect's the same way, so an answer that cuts no slice
# loads no ``_bisect``
from _heapq import heapify, heappop, heappush
from itertools import count, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from . import _Checked

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


class FloerComplex(_Checked, _FloerFields):
    """Free graded complex over F2[U].

    ``gradings`` maps each generator's name to its grading, and its keys,
    in their order, are the generators.  ``entries`` maps (x, y) to the
    exponent m of the monomial U^m with which y appears in the
    differential of x.  ``basepoints`` is the number of basepoints of the
    underlying link diagram; it only enters through the expected rank
    2^(basepoints - 1) of the homology and the grading gap between the
    two distinguished classes.

    ``_check``, run by ``_Checked`` on every complex built, checks shape
    only: names, entries off the basis, U-powers and the basepoint count.
    The three chain-complex axioms are checked by ``verify_axioms``, which
    lists what fails, so that broken complexes can be built and diagnosed.
    """

    __slots__ = ()

    def _check(self):
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

    @property
    def generators(self) -> tuple[str, ...]:
        """The generator names, in the order of ``gradings``: a new tuple per read."""
        return tuple(self.gradings)

    def grading_of_chain(self, chain: Iterable[str]) -> int:
        """Common grading of a homogeneous F2-chain of generators."""
        try:  # in name order, so the least unknown name is the one named
            grs = {self.gradings[g] for g in sorted(chain)}
        except KeyError as unknown:
            raise ValueError(f"unknown generator {unknown.args[0]!r}") from None
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
        levels = self.levels
        for g in c.gradings:
            if g not in levels:
                raise ValueError(f"generator {g!r} has no filtration level")
        for (x, y), m in c.entries.items():
            if levels[y] - m > levels[x]:
                raise ValueError(f"entry {x} -> {y} pow {m} raises the filtration level")


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


def _rows(c: FloerComplex) -> tuple[tuple, tuple, list[int], list[int], list]:
    """The one view of ``c`` that its answers read, after ``_require_size``.

    Returns the generators in (grading, name) order, as their gradings and
    names; their bit rows ``out`` and ``inn``; and the entries x -> y pow m
    that break the grading law, sorted.  Bit j of ``out[i]``, and bit i of
    ``inn[j]``, is set when names[i] -> names[j] is an entry; every mask in
    this module is numbered so, bit i for row i.  The grading law makes the
    exponent grow with the target's grading, so the lowest bit of a row is
    its (m, name)-least entry, and each grading's rows are one run.
    """
    _require_size(c)
    gr = c.gradings
    grs, names = zip(*sorted(zip(gr.values(), gr))) if gr else ((), ())
    index = dict(zip(names, count()))
    bit = [1 << i for i in range(len(names))]
    out, inn = [0] * len(names), [0] * len(names)
    ungraded = []
    for (x, y), m in c.entries.items():
        i, j = index[x], index[y]
        out[i] |= bit[j]
        inn[j] |= bit[i]
        if grs[j] - grs[i] != 2 * m - 1:
            ungraded.append((x, y, m))
    return grs, names, out, inn, sorted(ungraded)


def _d2_masks(names: tuple[str, ...], out: list[int]) -> Iterator[tuple[str, int]]:
    """Each source x in name order, with d(d(x)) as a mask over ``names``: the
    XOR of the rows of x's targets, as the grading law pins each exponent."""
    for i in sorted(range(len(names)), key=names.__getitem__):
        square = 0
        for j in _bits(out[i]):
            square ^= out[j]
        yield names[i], square


def _failures(c: FloerComplex, rows) -> tuple[int, Iterator[str]]:
    """How many failures of the grading law, else of d^2 = 0, ``c`` has, and their lines.

    ``rows`` is ``_rows(c)``, read as built.  The count is the number of
    ungraded entries or the bits of the d^2 masks; the lines, in sorted
    order, are formatted only as they are read.
    """
    gr = c.gradings
    _, names, out, _, ungraded = rows
    if ungraded:
        return len(ungraded), (
            f"grading: entry {x} -> {y} pow {m} has gr {gr[y]} - 2*{m} != gr {gr[x]} - 1"
            for x, y, m in ungraded
        )
    squares = list(_d2_masks(names, out))
    return sum(square.bit_count() for _, square in squares), (
        f"d_squared: d(d({x})) has a surviving {z} term"
        for x, square in squares
        for z in sorted(names[k] for k in _bits(square))
    )


def verify_axioms(c: FloerComplex) -> tuple[str, ...]:
    """Check the size, the grading law and d^2 = 0 (by eliminating), then the rank.

    Returns the failures, empty for a valid complex: the first
    ``MAX_LISTED_FAILURES``, then one line ``... and N more failures`` if
    there are more.  The elimination and the listing read the same rows.
    """
    rows = _rows(c)
    try:
        rank, power = len(_eliminate(c, rows)[0]), c.basepoints - 1
    except ValueError:
        count, listing = _failures(c, rows)
        failures = list(islice(listing, MAX_LISTED_FAILURES))
        if count > MAX_LISTED_FAILURES:
            failures.append(f"... and {count - MAX_LISTED_FAILURES} more failures")
        return tuple(failures)
    failures = []
    # 2^power is built only while it could equal the rank, at most #generators
    if power >= len(c.gradings).bit_length():
        failures.append(f"rank: homology has {rank} towers, expected 2^{power}")
    elif rank != 2**power:
        failures.append(f"rank: homology has {rank} towers, expected {2**power}")
    return tuple(failures)


def _eliminate(c: FloerComplex, rows) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Gaussian cancellation over F2[U], tracking the hat part of each cycle.

    Raises the first failure ``verify_axioms`` lists, if any, as a
    ``ValueError``, read by ``_failures`` from ``rows``, which is
    ``_rows(c)`` and which the elimination leaves as they were.  Returns
    (towers, torsion).  Each tower is (grading, hat reduction of its
    cycle), the reduction a bitmask over the rows; towers are sorted by
    grading, highest first, then by mask.  Each torsion summand is
    (grading, U-power).

    It works on copies of the rows, so a hat slice can read them after, and
    each hat starts as its own row's bit.  ``_rows`` checks the grading law
    as it builds them; the law pins each exponent, and the graded basis
    changes keep it, and D^2 up to conjugation.  So the elimination is the
    d^2 check: d^2 = 0 makes every pivot pair split off, and if all do, d^2 = 0.

    A pivot x -> y pow a does ``out[w] ^= out[x]`` for each other source w
    of y and ``inn[z] ^= inn[y]`` for each other target z of x.  As the
    pivot is globally U-minimal, the basis change w <- w + U^delta x has
    delta >= 0, and only delta = 0, that is gr w = gr x, puts anything at
    exponent 0: only then does the reduction of w gain that of x.  The row
    clear changes only the representative of y, which leaves with x.
    """
    grs, names, out, inn, ungraded = rows
    if ungraded:
        raise ValueError(next(_failures(c, rows)[1]))
    out, inn = out[:], inn[:]
    n = len(names)
    nn = n * n
    bit = [1 << i for i in range(n)]
    # Pivots pop in (m, x, y) order, the globally U-minimal entry with ties
    # broken by name, as a plain minimum over all entries would: that fixes
    # the cycle of each tower, so the theta classes, tau and every output
    # byte.  The key of a row's least entry w -> z pow m is the int
    # m n^2 + rank(w) n + z, with z the target's row: the targets of one
    # exponent share a grading, where rows run in name order.  Twice the key
    # is a target part plus a source part.  A row's least entry is pushed
    # whenever it changes, enough as a pivot ends its row; a popped key is
    # stale unless its target is still its row's lowest bit.
    by_rank = sorted(range(n), key=names.__getitem__)
    source = [0] * n
    for r, w in enumerate(by_rank):
        source[w] = (1 - grs[w]) * nn + 2 * n * r
    target = [g * nn + 2 * z for z, g in enumerate(grs)]
    heap = [target[(row & -row).bit_length() - 1] + source[w] for w, row in enumerate(out) if row]
    heapify(heap)
    pop, push = heappop, heappush
    hat = bit[:]
    torsion: list[tuple[int, int]] = []
    while heap:
        key = pop(heap) >> 1
        y, x = key % n, by_rank[key // n % n]
        row, ybit = out[x], bit[y]
        if row & -row != ybit:
            continue
        xbit = bit[x]
        column, gx, hx = inn[y], grs[x], hat[x]
        # clear the column of y: each other source w becomes w + U^delta x,
        # so w loses y and gains the other targets of x; y is row's lowest bit
        incoming = inn[x]
        mask = column ^ xbit
        while mask:
            w = mask.bit_length() - 1
            mask ^= bit[w]
            new = out[w] = out[w] ^ row
            if new and not new & (ybit - 1):  # w's least entry was w -> y
                push(heap, target[(new & -new).bit_length() - 1] + source[w])
            if grs[w] == gx:
                hat[w] ^= hx
            incoming ^= inn[w]
        # the same change gives each source v of w an arrow v -> x, and
        # d^2 = 0 makes these cancel the arrows into x: nothing maps to x
        mask = inn[x]
        while mask:
            v = mask.bit_length() - 1
            mask ^= bit[v]
            new = out[v] = out[v] ^ xbit
            if new and not new & (xbit - 1):  # v's least entry was v -> x
                push(heap, target[(new & -new).bit_length() - 1] + source[v])
        # clear the row of x: y <- y + sum of U^delta z over its other
        # targets z, and d^2 = 0 makes the new y a cycle
        outgoing = out[y]
        mask = row ^ ybit
        while mask:
            z = mask.bit_length() - 1
            mask ^= bit[z]
            outgoing ^= out[z]
            inn[z] ^= column
        if incoming or outgoing:
            # d^2 != 0, so the listing finds a failure unless this code is wrong
            for failure in _failures(c, rows)[1]:
                raise ValueError(failure)
            raise RuntimeError(f"pivot {names[x]} -> {names[y]} does not split off")
        mask = out[y]
        while mask:
            t = mask.bit_length() - 1
            mask ^= bit[t]
            inn[t] ^= ybit
        # a pivot's pair leaves with a zero reduction; the reductions stay
        # independent, so every live one is nonzero
        out[x] = out[y] = inn[x] = inn[y] = hat[x] = hat[y] = 0
        if key >= nn:
            torsion.append((grs[y], key // nn))
    towers = sorted(((g, h) for g, h in zip(grs, hat) if h), key=lambda t: (-t[0], t[1]))
    return towers, sorted(torsion, key=lambda t: (-t[0], t[1]))


def correction_term(c: FloerComplex) -> int:
    """Maximal grading of a cycle whose class is not U-torsion."""
    towers, _ = _eliminate(c, _rows(c))
    if not towers:
        raise ValueError("homology has no free part, correction term undefined")
    return towers[0][0]


def _theta_classes(c: FloerComplex, rows) -> tuple[int, int, int]:
    """(d, theta_top, theta_bot) from a single decomposition of ``rows``, ``_rows(c)``.

    theta_top is the hat reduction of the tower at the correction term d,
    theta_bot that of the tower at d - basepoints + 1, as masks over the rows.
    """
    towers, _ = _eliminate(c, rows)
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
    """F2 linear algebra of the hat complex in one fixed grading, on masks over the rows.

    ``rows`` is ``_rows(c)`` of a complex that keeps the grading law, which
    puts every U^0 entry exactly one grading down: the image of a generator
    is its row's part in the grading below, and the boundaries are the
    nonzero parts in this grading of the rows above, in row order.
    """

    def __init__(self, rows, grading: int):
        from _bisect import bisect_left

        grs, names, out, _, _ = rows
        # the rows of gradings g - 1, g and g + 1 are the runs [lo, mid), [mid, hi), [hi, top)
        lo, mid, hi, top = (bisect_left(grs, g) for g in range(grading - 1, grading + 3))
        self.gens = names[mid:hi]
        self.bit = dict(zip(self.gens, range(mid, hi)))
        below, here = (1 << mid) - (1 << lo), (1 << hi) - (1 << mid)
        self.images = {names[i]: out[i] & below for i in range(mid, hi)}
        self.boundaries = [v for v in (out[j] & here for j in range(hi, top)) if v]

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
        # the generators run in name order, and the sort keeps it within a level
        for g in sorted(self.gens, key=levels.__getitem__):
            mask = _echelon_insert(pivots, self.images[g], 1 << self.bit[g])
            if mask is not None and found(mask):
                return levels[g]
        raise ValueError("no qualifying cycle at any filtration level")

    def class_functional(self, distinguished: int):
        """Coefficient of the distinguished class in a fixed homology basis.

        The basis lists the boundary space first, then the distinguished
        cycle, then standard vectors in name order; the returned
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
    rows = _rows(c)
    d, theta_top, theta_bot = _theta_classes(c, rows)
    grading = d - c.basepoints + 1 if bottom else d
    theta = theta_bot if bottom else theta_top
    slice_ = _HatSlice(rows, grading)
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
    rows = _rows(c)
    _eliminate(c, rows)  # the d^2 = 0 check, as for every other answer
    chain = frozenset(alpha)
    if not chain:
        raise ValueError("alpha must be a nonzero class")
    grading = c.grading_of_chain(chain)
    slice_ = _HatSlice(rows, grading)
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
        # 5-token entry lines, most of a document, are tested first
        if n == 5 and parts[1] == "->" and parts[3] == "pow" or n == 3 and parts[1] == "->":
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

"""Exact integer and rational linear algebra for surgery matrices and Smith forms.

All computations are over arbitrary-precision integers; a rational
inverse is one integer matrix over one denominator, and only a pairing
returns a ``fractions.Fraction``.  ``inverse`` serves surgery linking
matrices alone, and ``pair`` the surgery terms; a Smith form carries its
transforms in the one matrix it eliminates on, and the metaboliser reads
s^{-1} off s·Q·t = D (``obstruct._h1_decomposition``, which imports this
module where it runs);
a plumbing form's Q^{-1} comes from its tree
(``plumbing.IntersectionForm.qinv``), which needs nothing here, and an
integer over a known denominator is written by ``plumbtau._quotient``, so
a ``dinv`` or ``tau`` call loads nothing here, nor does an ``obstruct``
check but the metaboliser and slice-Bennequin.  Nothing here ever touches
floating point.  Matrices are dense lists of row lists,
which is plenty for the small matrices this package works with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

# fractions is imported where a Fraction is made: see the note in plumbing
if TYPE_CHECKING:
    from fractions import Fraction

Vector = Sequence[int]
IntMatrix = Sequence[Sequence[int]]
# m^{-1} = a / p with a integral and p = |det m| > 0
Inverse = tuple[list[list[int]], int]


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix."""


def _check_square(m: IntMatrix) -> int:
    n = len(m)
    if n == 0:
        return 0
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _augmented(m: IntMatrix) -> list[list[int]]:
    # [m | I], each row of m followed by its row of the identity
    n = len(m)
    return [list(map(int, row)) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]


def inverse(m: IntMatrix) -> Inverse:
    """Exact inverse (a, p), m^{-1} = a/p, by one fraction-free Gauss–Jordan pass on [m | I].

    Each step is Bareiss's fraction-free update applied to every other
    row: the entries stay minors of [m | I], so each division by the
    previous pivot is exact.  At the end the left block is d·I and the
    right block d·m^{-1}, where d = ±det(m) is the last pivot; the sign
    goes into a so that p = |det m|.  It costs O(n^3) steps.  The package
    inverts with it surgery linking matrices alone; a plumbing's Q^{-1}
    comes from its tree (``IntersectionForm.qinv``).
    The empty matrix gives ([], 1).
    """
    n = _check_square(m)
    a = _augmented(m)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        p, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    sign = -1 if prev < 0 else 1
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def pair(inv: Inverse, u: Vector, v: Vector) -> Fraction:
    """The bilinear pairing u^T m^{-1} v = (u^T a v) / p for inv = (a, p), exact."""
    import fractions

    a, p = inv
    n = len(a)
    if len(u) != n or len(v) != n or any(len(row) != n for row in a):
        raise ValueError("dimension mismatch in pairing")
    total = 0
    for ui, row in zip(u, a):
        if ui:
            total += ui * sum(x * y for x, y in zip(row, v))
    return fractions.Fraction(total, p)


def smith_normal_form(m: IntMatrix):
    """Integer Smith normal form.

    Returns (s, d, t) with s·m·t = d, s and t unimodular, and d diagonal
    with non-negative entries d_1 | d_2 | ... .  The elimination works on
    one matrix, [m | I] stacked over [I | 0]: a row operation on the top
    rows acts on m and s together, a column operation on the left columns
    on m and t together, so s and t are read off the blocks at the end.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = _augmented(m) + [row + [0] * rows for row in identity(cols)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, q):  # column dst += q * column src
        for row in a:
            row[dst] += q * row[src]

    k = 0
    while k < min(rows, cols):
        # move a minimal nonzero entry of the trailing block to (k, k)
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[k], a[best[0]] = a[best[0]], a[k]
        swap_cols(k, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    add_row(k, i, -(a[i][k] // a[k][k]))
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    add_col(k, j, -(a[k][j] // a[k][k]))
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
        # enforce the divisibility chain: fold any bad entry into column k
        bad = next(((i, j) for i in range(k + 1, rows) for j in range(k + 1, cols)
                    if a[i][j] % a[k][k] != 0), None)
        if bad is not None:
            add_row(bad[0], k, 1)
            continue
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
        k += 1
    s, d = [row[cols:] for row in a[:rows]], [row[:cols] for row in a[:rows]]
    return s, d, [row[:cols] for row in a[rows:]]

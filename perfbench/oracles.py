"""Independent reference values for the benchmark's output checks.

Nothing here imports plumbtau: each value comes from its own route, so a
check that agrees with the program is evidence, not a tautology.

- Correction terms of linear chains from the lens-space recursion of
  Ozsvath-Szabo (Absolutely graded Floer homologies..., 2003): the chain
  with weights a_1..a_n bounds -L(p, q) with p/q = [-a_1, ..., -a_n], so
  its d multiset is {-d(L(p, q), i)}.
- Determinants and inverses by exact Gauss-Jordan elimination over the
  rationals, used for the class count |det Q|, for lattice membership
  and for the Q^-1 pairing route of surgery quantities.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache


def hj_fraction(weights):
    """p, q with p/q = [-a_1, ..., -a_n] = b_1 - 1/(b_2 - 1/(... - 1/b_n))."""
    p, q = 1, 0
    for a in reversed(weights):
        p, q = -a * p - q, p
    return p, q


@lru_cache(maxsize=None)
def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(L(p, q), i) for 0 <= i < p + q, by the Ozsvath-Szabo recursion."""
    if p == 1:
        return Fraction(0)
    r, j = p % q, i % q
    return (
        Fraction(-1, 4)
        + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
        - lens_d(q, r, j)
    )


def chain_d_multiset(weights) -> Counter:
    """Multiset of correction terms of the boundary of a linear plumbing."""
    p, q = hj_fraction(weights)
    values = Counter(-lens_d(p, q, i) for i in range(p))
    lens_d.cache_clear()
    return values


def _gauss_jordan(m, rhs_columns):
    """Solve m x = b for each column b; returns (det, solutions)."""
    n = len(m)
    a = [
        [Fraction(m[i][j]) for j in range(n)] + [Fraction(col[i]) for col in rhs_columns]
        for i in range(n)
    ]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0, None
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        pv = a[c][c]
        det *= pv
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                factor = a[r][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    k = len(rhs_columns)
    return det, [[a[i][n + j] for i in range(n)] for j in range(k)]


def det(m) -> int:
    value, _ = _gauss_jordan(m, [])
    return int(value)


def inverse(m):
    """Exact inverse as a list of rows; raises ValueError when singular."""
    n = len(m)
    value, cols = _gauss_jordan(m, [[int(i == j) for i in range(n)] for j in range(n)])
    if value == 0:
        raise ValueError("matrix is singular")
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def pair(qinv, u, v) -> Fraction:
    return sum(
        (u[i] * qinv[i][j] * v[j] for i in range(len(u)) for j in range(len(v))),
        Fraction(0),
    )


def same_class(q, u, v) -> bool:
    """u - v in 2Q Z^n: the two characteristic vectors give one spin-c class."""
    qinv = inverse(q)
    diff = [a - b for a, b in zip(u, v)]
    return all(
        (sum(qinv[i][j] * diff[j] for j in range(len(diff))) / 2).denominator == 1
        for i in range(len(diff))
    )


def in_box(q, kappa) -> bool:
    """kappa lies in the short box a_i + 2 <= kappa_i <= -a_i."""
    return all(q[i][i] + 2 <= k <= -q[i][i] for i, k in enumerate(kappa))


def surgery_matrix(node) -> list[list[int]]:
    comps = node["components"]
    q = [list(row) for row in node["linking"]]
    for i, c in enumerate(comps):
        q[i][i] = c["tb"] - 1 if c["kind"] == "surgery" else 0
    return q


def surgery_values(node) -> dict:
    """self-int, chern, sl and tau-curve of a presentation via Q^-1 pairings."""
    q = surgery_matrix(node)
    qinv = inverse(q)
    vectors = node["link_components"]
    t = len(q)
    total = [sum(v[i] for v in vectors) for i in range(t)]
    self_int = pair(qinv, total, total)
    rot = [c.get("rot", 0) for c in node["components"]]
    chern = -sum((pair(qinv, rot, v) for v in vectors), Fraction(0))
    out = {"self-int": self_int, "chern": chern}
    braid = node.get("braid")
    if braid is not None:
        sl0 = braid["writhe"] - braid["strands"]
        out["sl"] = sl0 - chern - self_int
        chi = braid["strands"] - braid["writhe"]
        out["tau-curve"] = -(Fraction(chi - braid["components"]) + chern + self_int) / 2
    return out

import random
from fractions import Fraction

from plumbtau import linalg
from plumbtau.surgery import BraidDatum, SurgeryComponent, SurgeryPresentation


def solve_exact(m, b) -> list[Fraction]:
    """Solve m·x = b exactly over the rationals; m must be nonsingular."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise linalg.SingularMatrixError()
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def in_image_of(lattice_gen, v) -> bool:
    """Decide v ∈ lattice_gen · Z^n for a nonsingular integer matrix.

    Solves the system exactly over Q and checks the solution for
    integrality, which is equivalent to a Hermite-form divisibility
    test when the generator matrix has full rank.
    """
    x = solve_exact(lattice_gen, v)
    return all(xi.denominator == 1 for xi in x)


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
        if linalg.det(q) == 0:
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


def random_braid(rng: random.Random) -> BraidDatum:
    """Quasi-positive braid data: each band merges at most one pair of strands,
    so the closure has between max(1, n - w) and n components."""
    n = rng.randint(1, 8)
    w = rng.randint(0, 14)
    return BraidDatum(strands=n, writhe=w, components=rng.randint(max(1, n - w), n))

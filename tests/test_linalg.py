import random
from fractions import Fraction

import pytest

from conftest import det, in_image_of, is_negative_definite, mat_mul, mat_vec, solve_exact
from plumbtau import linalg


def test_det_known_values():
    assert det([[-2, 1], [1, -5]]) == 9
    assert det([[-4]]) == -4
    assert det(linalg.identity(3)) == 1
    assert det([]) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_det_multiplicative_on_random_4x4():
    rng = random.Random(11)
    for _ in range(200):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_inverse_known_values():
    assert linalg.inverse([[-4]]) == ([[-1]], 4)
    assert linalg.inverse([[-5, 1], [1, -2]]) == ([[-2, -1], [-1, -5]], 9)
    eye = linalg.identity(3)
    assert linalg.inverse(eye) == (eye, 1)
    assert linalg.inverse([]) == ([], 1)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[1, 2], [2, 4]])


def test_inverse_correct_on_random_matrices():
    rng = random.Random(7)
    done = 0
    while done < 500:
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        a, p = linalg.inverse(m)
        assert p == abs(det(m))
        assert mat_mul(m, a) == [[p * int(i == j) for j in range(n)] for i in range(n)]
        done += 1


def test_negative_definite():
    assert is_negative_definite([[-5, 1], [1, -2]])
    assert is_negative_definite([[-4]])
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-2, 3], [3, -2]])
    with pytest.raises(ValueError):
        is_negative_definite([[0, 1], [2, 0]])


def test_negative_definite_implies_det_sign():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(-7, -1)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        if is_negative_definite(m):
            assert (-1) ** n * det(m) > 0


def test_pair_values_and_symmetry():
    assert linalg.pair(([[-1]], 4), [1], [1]) == Fraction(-1, 4)
    assert linalg.pair(([[-1]], 4), [0], [5]) == 0
    assert linalg.pair(([], 1), [], []) == 0
    qinv = linalg.inverse([[-5, 1], [1, -2]])
    assert linalg.pair(qinv, [1, 0], [1, 0]) == Fraction(-2, 9)
    rng = random.Random(5)
    for _ in range(50):
        u = [rng.randint(-4, 4) for _ in range(2)]
        v = [rng.randint(-4, 4) for _ in range(2)]
        assert linalg.pair(qinv, u, v) == linalg.pair(qinv, v, u)
    with pytest.raises(ValueError):
        linalg.pair(qinv, [1], [1, 0])


def _brute_force_in_image(gen, v, bound=10):
    n = len(gen)
    from itertools import product

    for coeffs in product(range(-bound, bound + 1), repeat=n):
        if mat_vec(gen, list(coeffs)) == list(v):
            return True
    return False


def test_in_image_of_examples():
    assert in_image_of([[-8]], [8])
    assert not in_image_of([[-8]], [4])
    two_q = [[-10, 2], [2, -4]]
    assert in_image_of(two_q, [2, -4])


def test_in_image_of_agrees_with_brute_force():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        gen = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if det(gen) == 0:
            continue
        v = [rng.randint(-8, 8) for _ in range(2)]
        # the solution of a nonsingular system is unique, so the brute
        # force is only conclusive when that solution lies in its box
        x = solve_exact(gen, v)
        if max(abs(xi.numerator) for xi in x) > 10 * max(xi.denominator for xi in x):
            continue
        assert in_image_of(gen, v) == _brute_force_in_image(gen, v)
        checked += 1


def test_in_image_of_singular_generator_raises():
    with pytest.raises(linalg.SingularMatrixError):
        in_image_of([[1, 1], [1, 1]], [1, 0])


def test_smith_normal_form_random():
    rng = random.Random(17)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        s, d, t = linalg.smith_normal_form(m)
        assert mat_mul(mat_mul(s, m), t) == d
        assert abs(det(s)) == 1
        assert abs(det(t)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_smith_normal_form_known():
    s, d, t = linalg.smith_normal_form([[-5, 1], [1, -2]])
    assert [d[0][0], d[1][1]] == [1, 9]

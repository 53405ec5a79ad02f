import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import in_image_of, property_seed
from plumbtau import linalg
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import (
    PlumbingTree,
    class_of,
    conjugate,
    d_candidate,
    d_invariant,
    d_realizing_reps,
    form_from_tree,
    short_char_vectors,
    solve_square,
    spinc_classes,
    spinc_translate,
    square,
)

L41, L92 = form_41(), form_92()


def test_form_from_tree_matrices():
    assert L41.q == ((-4,),)
    assert L92.q == ((-5, 1), (1, -2))
    two_chain = form_from_tree(PlumbingTree.path(-2, -2))
    assert two_chain.q == ((-2, 1), (1, -2))
    assert L92.sigma == -2 and L92.b2 == 2


def test_tree_validation():
    with pytest.raises(ValueError):
        PlumbingTree(vertices=(("a", -2), ("b", -2)), edges=())
    with pytest.raises(ValueError):
        PlumbingTree(
            vertices=(("a", -2), ("b", -2), ("c", -2)),
            edges=(("a", "b"), ("b", "c"), ("c", "a")),
        )
    with pytest.raises(ValueError):
        PlumbingTree(vertices=(("a", -2), ("a", -3)), edges=(("a", "a"),))


def test_short_char_vectors():
    assert short_char_vectors(L41) == [(-2,), (0,), (2,), (4,)]
    box = short_char_vectors(L92)
    assert len(box) == 10
    assert set(k[0] for k in box) == {-3, -1, 1, 3, 5}
    assert set(k[1] for k in box) == {0, 2}
    assert short_char_vectors(form_from_tree(PlumbingTree.path(-2))) == [(0,), (2,)]
    indefinite = form_from_tree(PlumbingTree.path(1))
    with pytest.raises(ValueError):
        short_char_vectors(indefinite)


def test_spinc_classes_counts():
    assert [s.rep for s in spinc_classes(L41)] == [(-2,), (0,), (2,), (4,)]
    classes = spinc_classes(L92)
    assert len(classes) == 9
    doubletons = [s for s in classes if len(s.reps) == 2]
    assert len(doubletons) == 1
    assert doubletons[0].reps == ((-3, 0), (5, 2))
    s3 = form_from_tree(PlumbingTree.path(-1))
    assert len(spinc_classes(s3)) == 1


def test_conjugate():
    assert conjugate(class_of(L92, (-3, 0))).rep == (3, 0)
    s0 = class_of(L92, (-1, 2))
    assert conjugate(s0) == s0
    for s in spinc_classes(L92):
        assert conjugate(conjugate(s)) == s
        assert d_invariant(conjugate(s)) == d_invariant(s)


def test_square_and_d_candidate():
    assert square(L92, (-3, 0)) == -2
    assert square(L41, (-2,)) == -1
    even = form_from_tree(PlumbingTree.path(-2))
    assert square(even, (0,)) == 0
    assert d_candidate(L92, (-3, 0)) == 0
    assert d_candidate(L41, (-2,)) == 0
    assert d_candidate(L41, (0,)) == Fraction(1, 4)
    assert d_candidate(L92, (5, 2)) == -2


def test_d_invariant():
    assert d_invariant(class_of(L41, (4,))) == Fraction(-3, 4)
    for rep in [(-3, 0), (3, 0), (-1, 2)]:
        assert d_invariant(class_of(L92, rep)) == 0
    zeros_41 = [s for s in spinc_classes(L41) if d_invariant(s) == 0]
    assert len(zeros_41) == 2
    zeros_92 = [s for s in spinc_classes(L92) if d_invariant(s) == 0]
    assert len(zeros_92) == 3


def test_d_realizing_reps_picks_the_max_square():
    s = class_of(L92, (-3, 0))
    assert s.reps == ((-3, 0), (5, 2))
    assert d_realizing_reps(s) == [(-3, 0)]


def test_solve_square():
    assert solve_square(L92, -2) == [(-3, 0), (-1, 2), (1, -2), (3, 0)]
    assert solve_square(L41, -1) == [(-2,), (2,)]
    assert solve_square(L92, 1) == []


def test_spinc_translate():
    assert spinc_translate(class_of(L41, (-2,)), [2]).rep == (2,)
    # translating by a vector in Q·Z^n fixes the class
    s = class_of(L92, (1, 0))
    q_elem = linalg.mat_vec(L92.q, [1, 1])
    assert spinc_translate(s, q_elem) == s
    hit = {spinc_translate(class_of(L92, (-3, 0)), [a, 0]).rep for a in (0, 3, 6)}
    assert hit == {(-3, 0), (-1, 2), (3, 0)}


def test_classes_partition_the_box():
    for f in (L41, L92):
        reps = [k for s in spinc_classes(f) for k in s.reps]
        assert sorted(reps) == short_char_vectors(f)


def test_translate_fixes_class_iff_alpha_in_image():
    rng = random.Random(23)
    for s in spinc_classes(L92):
        for _ in range(10):
            alpha = [rng.randint(-4, 4) for _ in range(2)]
            fixed = spinc_translate(s, alpha) == s
            assert fixed == in_image_of(list(map(list, L92.q)), alpha)


def _same_class(f, u, v):
    """The pairwise route: u - v lies in 2Q·Z^n."""
    two_q = [[2 * e for e in row] for row in f.q]
    return in_image_of(two_q, [a - b for a, b in zip(u, v)])


def _class_by_scan(classes, kappa):
    return next(s for s in classes if _same_class(s.form, kappa, s.rep))


def test_d_candidate_symmetry_and_class_count_property():
    rng = random.Random(29)
    for _ in range(12):
        n = rng.randint(1, 4)
        weights = [rng.randint(-7, -1) for _ in range(n)]
        # random tree shape: attach vertex i to a random earlier vertex
        ids = [f"v{i}" for i in range(n)]
        edges = tuple((ids[i], ids[rng.randrange(i)]) for i in range(1, n))
        tree = PlumbingTree(vertices=tuple(zip(ids, weights)), edges=edges)
        f = form_from_tree(tree)
        if not f.negative_definite:
            continue
        classes = spinc_classes(f)
        assert len(classes) == abs(f.det())
        for s in classes:
            for k in s.reps:
                assert d_candidate(f, k) == d_candidate(f, [-x for x in k])
                assert _same_class(f, k, s.rep)
        box = set(short_char_vectors(f))
        for _ in range(5):
            kappa = [f.q[i][i] + 2 * rng.randint(-8, 8) for i in range(n)]
            if tuple(kappa) in box:
                continue
            s = class_of(f, kappa)
            assert s == _class_by_scan(classes, kappa)
            assert conjugate(s) == _class_by_scan(classes, [-k for k in kappa])
            alpha = [rng.randint(-3, 3) for _ in range(n)]
            shifted = [k + 2 * a for k, a in zip(s.rep, alpha)]
            assert spinc_translate(s, alpha) == _class_by_scan(classes, shifted)


def _lens_d(p, q, i):
    """d(L(p, q), i) by the Ozsváth–Szabó recursion, with d(S^3) = 0."""
    if p == 1:
        return Fraction(0)
    step = Fraction(-1, 4) + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
    return step - _lens_d(q, p % q, i % q)


def test_chain_d_invariants_match_lens_space_recursion():
    # the chain a_1, ..., a_n bounds -L(p, q) with p/q = [-a_1, ..., -a_n]
    rng = random.Random(property_seed())
    for _ in range(30):
        weights = [rng.randint(-7, -2) for _ in range(rng.randint(1, 4))]
        p, q = 1, 0
        for a in reversed(weights):
            p, q = -a * p - q, p
        f = form_from_tree(PlumbingTree.path(*weights))
        got = Counter(d_invariant(s) for s in spinc_classes(f))
        assert got == Counter(-_lens_d(p, q, i) for i in range(p)), weights

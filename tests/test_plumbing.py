import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from conftest import (
    blow_up,
    box_classes,
    count_fractions,
    det,
    fraction_classes,
    in_image_of,
    is_negative_definite,
    lens_chain,
    mat_vec,
    pivots_negative_definite,
    property_seed,
    random_tree,
    short_char_vectors,
    solve_exact,
)
from plumbtau import cli, linalg, plumbing
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import (
    IntersectionForm,
    PlumbingTree,
    _image,
    _scan,
    _walk,
    class_of,
    conjugate,
    solve_square,
    spinc_classes,
    spinc_translate,
)
from plumbtau.tau import TauProfile, leaf_link

L41, L92 = form_41(), form_92()


def test_form_from_tree_matrices():
    assert L41.q == ((-4,),)
    assert L92.q == ((-5, 1), (1, -2))
    two_chain = IntersectionForm(PlumbingTree.path(-2, -2))
    assert two_chain.q == ((-2, 1), (1, -2))
    assert L92.negative_definite and L41.negative_definite


def test_form_builds_its_matrix_only_when_read(tmp_path, capsys, monkeypatch):
    # definiteness and the box are read from the tree: the refused (-2) chain
    # of 15,000 vertices never holds its 15,000 x 15,000 matrix
    f = IntersectionForm(PlumbingTree.path(*[-2] * 15_000))
    assert f.negative_definite
    with pytest.raises(ValueError, match="the short-vector box holds"):
        f.require_box()
    assert "q" not in f.__dict__
    # Q^-1 of a definite tree, its classes, a class lookup and tau read the tree too
    reads = [
        lambda f: f.qinv,
        spinc_classes,
        lambda f: class_of(f, (-3, 0)),
        lambda f: conjugate(class_of(f, (3, 0))),
        lambda f: [TauProfile(f, leaf_link(f, {"v1": 1})).tau_at(s) for s in spinc_classes(f)],
        lambda f: TauProfile(f, leaf_link(f, {"v1": 2})).row(class_of(f, (-1, 0))),
    ]
    for read in reads:
        f = IntersectionForm(PlumbingTree.path(-5, -2))
        read(f)
        assert "qinv" in f.__dict__ and "q" not in f.__dict__
    # and so do the CLI commands that read a plumbing's classes, d or tau
    built = []
    build_form = cli.build_form
    monkeypatch.setattr(cli, "build_form", lambda doc: built.append(build_form(doc)) or built[-1])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "plumbing": {"vertices": [["v1", -5], ["v2", -2]], "edges": [["v1", "v2"]]},
        "leaf_link": {"v1": 1},
    }), encoding="utf-8")
    for argv in (["dinv"], ["spinc"], ["tau"], ["tau", "--spinc=-3,0"], ["tau", "--spinc", "d0"]):
        assert cli.main([*argv, "--input", str(path)]) == 0, capsys.readouterr().err
        assert "q" not in built.pop().__dict__, argv
    capsys.readouterr()


def test_tree_definiteness_matches_the_pivot_rule():
    # the down-branch pass on -Q against the pivot rule on Q that it replaced
    rng = random.Random(property_seed())
    trees = [random_tree(rng, rng.randint(1, 30), -5, 1) for _ in range(300)]
    trees += [random_tree(rng, rng.randint(1, 60), -6, -2) for _ in range(100)]
    # blow-ups keep a definite form definite and add -1 vertices
    for t in trees[-100:]:
        for _ in range(rng.randint(1, 10)):
            t, _ = blow_up(t, rng)
        trees.append(t)
    named = [
        (_star(-2, -2, -2, -2), True),  # D4
        (_star(-2, -2, -2, -2, -2), False),  # affine D4: semidefinite
        (_star(-1, -2, -3, -7), True),  # bounded by Sigma(2,3,7): |det| = 1
        (PlumbingTree.path(-1, -1), False),  # semidefinite
        (PlumbingTree.path(*[-2] * 15_000), True),
        (PlumbingTree.path(*[-2] * 7_500, -1, *[-2] * 7_499), False),
        (PlumbingTree.path(*[-2] * 14_999, -1), True),  # |det| = 1
    ]
    for t, definite in named:
        assert IntersectionForm(t).negative_definite == pivots_negative_definite(t) == definite
    kinds = Counter()
    for t in trees:
        f = IntersectionForm(t)
        assert f.negative_definite == pivots_negative_definite(t), t
        kinds[f.negative_definite] += 1
    assert kinds[True] >= 50 and kinds[False] >= 50, kinds


def test_tree_inverse_matches_the_dense_inverse():
    # the branch determinants give Q^-1 = a/p exactly as the Gauss-Jordan
    # pass does, both a and p, on chains, stars with -1 arms, random trees
    # and both kinds of blow-up of them
    rng = random.Random(property_seed())
    trees = [PlumbingTree.path(*[w] * n) for w in (-2, -3) for n in (1, 2, 7, 31, 60)]
    trees += [PlumbingTree.path(*[rng.randint(-9, -2) for _ in range(n)]) for n in (5, 20, 60)]
    trees += [_star(-(k + 1), *[-1] * k) for k in (1, 4, 20, 59)]
    trees += [_star(-k, *[-1] * (k - 2), -2, -3) for k in (4, 12, 40)]
    random_trees = []
    while len(random_trees) < 120:
        n = rng.choice((rng.randint(1, 10), rng.randint(11, 45)))
        t = random_tree(rng, n, -6, -1 if n <= 10 else -2)
        if IntersectionForm(t).negative_definite:
            random_trees.append(t)
    trees += random_trees
    sides = Counter()
    for t in random_trees[:60] + trees[:10]:
        for _ in range(rng.randint(1, 12)):
            t, _ = blow_up(t, rng)
            e = t.vertices[-1][0]
            sides[t.degree(e)] += 1  # 1 at a vertex, 2 on an edge
        trees.append(t)
    assert sides[1] >= 20 and sides[2] >= 20, sides
    assert max(len(t.vertices) for t in trees) >= 60
    for t in trees:
        f = IntersectionForm(t)
        assert f.negative_definite, t
        a, p = f.qinv
        assert (a, p) == linalg.inverse(f.q), t
        assert p == det([[-x for x in row] for row in f.q])
    # a form that is not negative definite has no Q^-1 here: it is refused,
    # an invertible one and the singular chain (-1, -1) alike
    indefinite = 0
    for _ in range(200):
        f = IntersectionForm(random_tree(rng, rng.randint(1, 8), -3, 1))
        if f.negative_definite or det(f.q) == 0:
            continue
        with pytest.raises(ValueError, match="^intersection form is not negative definite$"):
            f.qinv
        indefinite += 1
    assert indefinite >= 20, indefinite
    singular = IntersectionForm(PlumbingTree.path(-1, -1))
    assert det(singular.q) == 0
    with pytest.raises(ValueError, match="^intersection form is not negative definite$"):
        singular.qinv


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
    assert short_char_vectors(IntersectionForm(PlumbingTree.path(-2))) == [(0,), (2,)]
    indefinite = IntersectionForm(PlumbingTree.path(1))
    with pytest.raises(ValueError):
        short_char_vectors(indefinite)


def test_spinc_classes_counts():
    assert [s.rep for s in spinc_classes(L41)] == [(-2,), (0,), (2,), (4,)]
    classes = spinc_classes(L92)
    assert len(classes) == 9
    doubletons = [reps for _, reps, _, _ in fraction_classes(L92) if len(reps) == 2]
    assert doubletons == [((-3, 0), (5, 2))]
    assert class_of(L92, (5, 2)) == classes[0] and classes[0].rep == (-3, 0)
    s3 = IntersectionForm(PlumbingTree.path(-1))
    assert len(spinc_classes(s3)) == 1


def test_conjugate():
    assert conjugate(class_of(L92, (-3, 0))).rep == (3, 0)
    s0 = class_of(L92, (-1, 2))
    assert conjugate(s0) == s0
    for s in spinc_classes(L92):
        assert conjugate(conjugate(s)) == s
        assert conjugate(s).d == s.d


def _square(f, kappa):
    """kappa^T Q^{-1} kappa through the integer inverse, checked against solve_exact."""
    value = linalg.pair(f.qinv, kappa, kappa)
    assert value == sum(k * x for k, x in zip(kappa, solve_exact(f.q, kappa)))
    return value


def test_square_and_d_candidate():
    assert _square(L92, (-3, 0)) == -2
    assert _square(L41, (-2,)) == -1
    even = IntersectionForm(PlumbingTree.path(-2))
    assert _square(even, (0,)) == 0
    # d = (kappa^2 + n)/4 for the vectors that attain it
    assert class_of(L92, (-3, 0)).d == 0 and (-3, 0) in class_of(L92, (-3, 0)).realizing
    assert class_of(L41, (-2,)).d == 0 and class_of(L41, (-2,)).realizing == ((-2,),)
    assert class_of(L41, (0,)).d == Fraction(1, 4) and class_of(L41, (0,)).realizing == ((0,),)
    assert (_square(L92, (5, 2)) + 2) / 4 == -2
    assert (5, 2) not in class_of(L92, (5, 2)).realizing


def test_d_invariant():
    assert class_of(L41, (4,)).d == Fraction(-3, 4)
    for rep in [(-3, 0), (3, 0), (-1, 2)]:
        assert class_of(L92, rep).d == 0
    zeros_41 = [s for s in spinc_classes(L41) if s.d == 0]
    assert len(zeros_41) == 2
    zeros_92 = [s for s in spinc_classes(L92) if s.d == 0]
    assert len(zeros_92) == 3


def test_d_realizing_reps_picks_the_max_square():
    s = class_of(L92, (-3, 0))
    assert ((-3, 0), ((-3, 0), (5, 2)), 0, ((-3, 0),)) in fraction_classes(L92)
    assert s.realizing == ((-3, 0),) and s.d == 0


def test_solve_square():
    assert solve_square(L92, -2) == [(-3, 0), (-1, 2), (1, -2), (3, 0)]
    assert solve_square(L41, -1) == [(-2,), (2,)]
    assert solve_square(L92, 1) == []
    # an indefinite form is refused before any target is read, a positive one too
    indefinite = IntersectionForm(PlumbingTree.path(-2, 1))
    for target in (-2, 1, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="^intersection form is not negative definite$"):
            solve_square(indefinite, target)


def test_solve_square_matches_a_brute_force_search():
    # every characteristic kappa with kappa Q^-1 kappa = target, found in a box
    # two wider than solve_square's bound, and by a Fraction solve: a boundary
    # value of the box and the target 0 (kappa = 0 on an even form) included
    assert solve_square(L41, 0) == [(0,)] and solve_square(L92, 0) == []
    rng = random.Random(property_seed())
    reach, forms, zeros, on_edge = 4, 0, 0, 0
    while forms < 40:
        f = IntersectionForm(random_tree(rng, rng.randint(1, 3), -6, -1))
        if not f.negative_definite:
            continue
        forms += 1
        weights = [f.q[i][i] for i in range(f.n)]
        squares = {}
        for k in itertools.product(*(range(-math.isqrt(reach * -a) - 2, math.isqrt(reach * -a) + 3)
                                     for a in weights)):
            if all((k_i - a) % 2 == 0 for k_i, a in zip(k, weights)):
                square = sum(map(Fraction.__mul__, map(Fraction, k), solve_exact(f.q, list(k))))
                if square >= -reach:
                    squares.setdefault(square, []).append(k)
        for target in {0, -reach, Fraction(-1, 3), *rng.sample(sorted(squares), min(3, len(squares)))}:
            want = sorted(squares.get(target, []))
            assert solve_square(f, target) == want, (f.tree, target)
            zeros += target == 0 and want != []
            on_edge += any(k_i * k_i == -target * -a for k in want for k_i, a in zip(k, weights))
    assert zeros and on_edge, (zeros, on_edge)


def test_explicit_markings_are_honoured():
    # a marking given for a vertex is the one it has, "unmarked_leaf" on a leaf
    # included; only a vertex of degree > 1 refuses "unmarked_leaf", and only an
    # unmarked leaf carries strands
    from plumbtau.tau import leaf_link

    vertices, edges = (("v1", -2), ("v2", -3), ("v3", -4)), (("v1", "v2"), ("v2", "v3"))
    defaults = {"v1": "unmarked_leaf", "v2": "internal", "v3": "unmarked_leaf"}
    for v in defaults:
        for kind in plumbing.MARKINGS:
            if kind == "unmarked_leaf" and v == "v2":
                with pytest.raises(ValueError, match="'v2' has degree > 1"):
                    PlumbingTree(vertices, edges, {v: kind})
                continue
            tree = PlumbingTree(vertices, edges, {v: kind})
            assert {u: tree.marking(u) for u in defaults} == {**defaults, v: kind}
            f = IntersectionForm(tree)
            if kind == "unmarked_leaf":
                assert leaf_link(f, {v: 2}).m == tuple(2 * (u == v) for u in defaults)
            else:
                with pytest.raises(ValueError, match=f"vertex '{v}' is not an unmarked leaf"):
                    leaf_link(f, {v: 2})
    single = PlumbingTree((("v1", -2),), (), {"v1": "unmarked_leaf"})
    assert single.marking("v1") == "unmarked_leaf"


def test_spinc_translate():
    assert spinc_translate(class_of(L41, (-2,)), [2]).rep == (2,)
    # translating by a vector in Q·Z^n fixes the class
    s = class_of(L92, (1, 0))
    q_elem = mat_vec(L92.q, [1, 1])
    assert spinc_translate(s, q_elem) == s
    hit = {spinc_translate(class_of(L92, (-3, 0)), [a, 0]).rep for a in (0, 3, 6)}
    assert hit == {(-3, 0), (-1, 2), (3, 0)}


def test_spinc_translate_refuses_a_bad_vector():
    s = class_of(L41, (-2,))
    refusals = [
        ([1, 0], "translation vector has wrong length"),
        ([Fraction(1, 2)], "translation vector must be integral"),
        ([0.5], "translation vector must be integral"),
    ]
    for alpha, message in refusals:
        with pytest.raises(ValueError) as caught:
            spinc_translate(s, alpha)
        assert str(caught.value) == message, alpha
    # an integral entry of another type translates as its int
    assert spinc_translate(s, [Fraction(2)]).rep == spinc_translate(s, [2.0]).rep == (2,)


def test_conjugate_and_translate_read_keys(monkeypatch):
    # conjugate and spinc_translate reach their classes by key arithmetic,
    # with no _image product, on a form that holds its index and on a fresh
    # form's looked-up class alike
    rng = random.Random(property_seed())
    image, calls = plumbing._image, Counter()

    def counted_image(f, kappa):
        calls["image"] += 1
        return image(f, kappa)

    monkeypatch.setattr(plumbing, "_image", counted_image)
    trees = 0
    while trees < 20:
        tree = random_tree(rng, rng.randint(1, 5), -6, -1)
        f = IntersectionForm(tree)
        if not f.negative_definite or prod(-w for _, w in tree.vertices) > 2000:
            continue
        trees += 1
        for s in spinc_classes(f):
            alpha = [rng.randint(-3, 3) for _ in range(f.n)]
            fresh = IntersectionForm(tree)
            found = class_of(fresh, s.rep)
            before = calls["image"]
            got = [conjugate(s), spinc_translate(s, alpha)]
            got_fresh = [conjugate(found), spinc_translate(found, alpha)]
            assert calls["image"] == before, tree
            assert [t.rep for t in got_fresh] == [t.rep for t in got], tree
            assert "_class_index" not in fresh.__dict__
            negated, shifted = [-k for k in s.rep], [k + 2 * a for k, a in zip(s.rep, alpha)]
            assert got == [class_of(f, negated), class_of(f, shifted)], tree  # the _image route


def test_classes_partition_the_box():
    for f in (L41, L92):
        oracle = fraction_classes(f)
        assert sorted(k for _, reps, _, _ in oracle for k in reps) == short_char_vectors(f)
        assert [s.rep for s in spinc_classes(f)] == [rep for rep, _, _, _ in oracle]
        for rep, reps, _, _ in oracle:
            assert all(class_of(f, k).rep == rep for k in reps)


def test_class_hash_reads_the_rep_alone():
    # equal classes hash equal, and hashing a class hashes no Fraction d
    rng = random.Random(property_seed())
    forms = [L41, L92] + [IntersectionForm(random_tree(rng, 4, -5, -2)) for _ in range(4)]
    for f in forms:
        classes = spinc_classes(f)
        assert all(hash(s) == hash(s.rep) for s in classes)
        assert len(set(classes)) == len(classes)


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


def _star(center, *arms):
    ids = [f"v{i}" for i in range(len(arms) + 1)]
    return PlumbingTree(
        vertices=tuple(zip(ids, (center, *arms))), edges=tuple(("v0", v) for v in ids[1:])
    )


def test_tree_definiteness_matches_dense_elimination():
    rng = random.Random(property_seed())
    trees = [random_tree(rng, rng.randint(1, 8), -5, 1) for _ in range(400)]
    trees += [
        _star(-2, -2, -2, -2),  # D4: definite
        _star(-2, -2, -2, -2, -2),  # affine D4: semidefinite
        _star(-1, -2, -3, -7),  # bounded by Sigma(2,3,7): definite, |det| = 1
        _star(-1, -2, -3, -6),  # semidefinite
        _star(-1, -2, -2, -2),  # indefinite
        PlumbingTree.path(-1, -1),  # semidefinite
        PlumbingTree.path(-2, -2, 0),  # indefinite, with a zero weight
    ]
    kinds = Counter()
    for t in trees:
        f = IntersectionForm(t)
        assert f.negative_definite == is_negative_definite(f.q), t
        kinds[(f.negative_definite, det(f.q) == 0)] += 1
    # definite, semidefinite or singular, and nonsingular indefinite all occur
    assert kinds[(True, False)] and kinds[(False, True)] and kinds[(False, False)]


def test_tree_inverse_matches_path_deleted_minors():
    # Eisenbud-Neumann: on a tree, (-Q)^-1_uv = det(-Q off the path [u, v]) /
    # det(-Q), and the minor is positive because -Q is positive definite
    rng = random.Random(property_seed())
    trees = entries = 0
    while trees < 1000:
        f = IntersectionForm(random_tree(rng, rng.randint(1, 8), -5, -1))
        if not f.negative_definite:
            continue
        trees += 1
        a, p = f.qinv
        minus_q = [[-x for x in row] for row in f.q]
        assert p == det(minus_q)
        for u in range(f.n):
            parent = {u: None}  # the tree hung from u
            stack = [u]
            while stack:
                x = stack.pop()
                for y in range(f.n):
                    if y != x and f.q[x][y] and y not in parent:
                        parent[y] = x
                        stack.append(y)
            for v in range(f.n):
                path, w = {v}, v
                while parent[w] is not None:
                    w = parent[w]
                    path.add(w)
                rest = [i for i in range(f.n) if i not in path]
                minor = det([[minus_q[i][j] for j in rest] for i in rest])
                assert -a[u][v] == minor > 0, (f.tree, u, v)
                entries += 1
    assert entries > 10_000


def test_d_candidate_symmetry_and_class_count_property():
    rng = random.Random(29)
    # lazily, so that each tree is drawn right after the previous one's checks
    trees = (random_tree(rng, rng.randint(1, 4), -7, -1) for _ in range(12))
    for tree in itertools.chain(trees, [_star(-2, -2, -3, -5)]):  # a vertex of degree 3
        n = len(tree.vertices)
        f = IntersectionForm(tree)
        if not f.negative_definite:
            continue
        classes = spinc_classes(f)
        assert len(classes) == abs(det(f.q)) == f.qinv[1]
        oracle = fraction_classes(f)
        assert [(s.rep, s.d, s.realizing) for s in classes] == [
            (rep, d, realizing) for rep, _, d, realizing in oracle
        ]
        for s, (_, reps, _, _) in zip(classes, oracle):
            assert conjugate(s).d == s.d
            for k in reps:
                assert _square(f, k) == _square(f, [-x for x in k])
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


def _split(f, head_cost):
    """The walk's s: the number of coordinates in a head."""
    return f.n - len(_walk(f, head_cost)[1][0][0])


def test_box_walk_matches_the_image_oracle():
    # the walk keys, orders and weighs the box as one _image per vector does,
    # on trees whose vertices come in any order, so that -1 coordinates and
    # ranging ones fall into both halves of the walk; one keyed meet per tree
    # finds a class and its conjugate as the oracle does, with heads that
    # hold only -1 coordinates, none at all (s = 0) or the whole vector (s = n)
    rng = random.Random(property_seed())
    trees = [PlumbingTree.path(w) for w in range(-6, 0)]
    trees += [_star(-50, *[-1] * 20), _star(-7, -1, -2, -1, -3), _star(-2, -2, -3, -5)]
    trees += [random_tree(rng, rng.randint(1, 7), -6, -1) for _ in range(600)]
    kinds = Counter()
    for tree in trees:
        vertices = list(tree.vertices)
        rng.shuffle(vertices)
        tree = PlumbingTree(vertices=tuple(vertices), edges=tree.edges)
        f = IntersectionForm(tree)
        if not f.negative_definite or prod(-w for _, w in vertices) > 1000:
            continue
        walked, oracle = _scan(f), box_classes(f)
        assert list(walked) == list(oracle), tree
        assert [(s.rep, s.d, s.realizing) for s in walked.values()] == [
            (s.rep, s.d, s.realizing) for s in oracle.values()
        ], tree
        for key, s in walked.items():
            assert s.key == key
            assert all(_image(f, k) == key for k in (s.rep, *s.realizing))
        key = rng.choice(list(oracle))
        keys = {key, tuple(-t % (2 * f.qinv[1]) for t in key)}
        met = _scan(f, keys)
        assert sorted(met) == sorted(keys), tree
        assert [(s.rep, s.d_num, s.realizing, s.key) for s in map(met.get, keys)] == [
            (s.rep, s.d_num, s.realizing, s.key) for s in map(oracle.get, keys)
        ], tree
        for split in (_split(f, 1), _split(f, 1 + len(keys))):  # the walk's and the meet's
            kinds["s = 0"] += split == 0
            kinds["s = n"] += split == f.n
            kinds["-1 head"] += split > 0 and all(f.q[i][i] == -1 for i in range(split))
        degree = max(map(tree.degree, (v for v, _ in vertices)))
        kinds["n = 1" if f.n == 1 else "chain" if degree <= 2 else "degree >= 3"] += 1
        kinds["-1 leaf"] += any(w == -1 and tree.degree(v) == 1 for v, w in vertices)
        kinds["-1 inside"] += any(w == -1 and tree.degree(v) > 1 for v, w in vertices)
    assert min(kinds.values()) >= 10 and len(kinds) == 8, kinds


def test_classes_build_no_fraction_until_d_is_read(monkeypatch):
    # a class holds d as an integer over 4|det Q|: definiteness, the walk, the
    # meet, conjugation and the d = 0 subset build no Fraction, and reading d
    # builds one
    from plumbtau.tau import d_zero_subset

    made = count_fractions(monkeypatch)
    rng = random.Random(property_seed())
    trees = [PlumbingTree.path(-5, -2), _star(-2, -2, -3, -5), _star(-50, *[-1] * 20)]
    trees += [random_tree(rng, rng.randint(1, 6), -6, -1) for _ in range(40)]
    for tree in trees:
        f, fresh = IntersectionForm(tree), IntersectionForm(tree)
        if not f.negative_definite or prod(-w for _, w in tree.vertices) > 2000:
            continue
        classes = spinc_classes(f)
        zero = d_zero_subset(f)
        found = class_of(fresh, rng.choice(classes).rep)
        sbar = conjugate(found)
        assert made == [], tree
        # each read of d makes its own Fraction
        assert sbar.d == sbar.d == Fraction(sbar.d_num, 4 * f.qinv[1])
        assert made == [(sbar.d_num, 4 * f.qinv[1])] * 2, tree
        assert zero == [s for s in classes if s.d == 0]
        with pytest.raises(AttributeError):
            sbar.d = 0  # read-only, as every field of the record
        made.clear()


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
        f = IntersectionForm(PlumbingTree.path(*weights))
        got = Counter(s.d for s in spinc_classes(f))
        assert got == Counter(-_lens_d(p, q, i) for i in range(p)), weights


def test_sum_of_d_matches_the_tree_formula():
    # Summed over the classes, d has a closed form in Q alone (the
    # Casson-Walker invariant of an L-space, Lescop's formula on the graph):
    #   sum_s d(s) = (p/12)(sum e_v + 3|V| + sum (2 - deg v)(Q^-1)_vv),  p = |det Q|.
    # A bad vertex (degree > -weight) lets reduced Floer homology in, and
    # the sum then falls short of the formula by an even integer.
    rng = random.Random(property_seed())
    good = bad = short = 0
    while good + bad < 400:
        tree = random_tree(rng, rng.randint(1, 6), -7, -1)
        f = IntersectionForm(tree)
        weights = [w for _, w in tree.vertices]
        if not f.negative_definite or prod(-w for w in weights) > plumbing.MAX_BOX:
            continue
        a, p = f.qinv
        degrees = [tree.degree(v) for v, _ in tree.vertices]
        total = sum(Fraction(s.d_num, 4 * p) for s in spinc_classes(f))
        diagonal = sum(Fraction((2 - deg) * a[i][i], p) for i, deg in enumerate(degrees))
        gap = total - Fraction(p, 12) * (sum(weights) + 3 * len(weights) + diagonal)
        if any(deg > -w for deg, w in zip(degrees, weights)):
            bad += 1
            short += gap != 0
            assert gap.denominator == 1 and gap % 2 == 0 and gap <= 0, (tree, gap)
        else:
            good += 1
            assert gap == 0, (tree, gap)
    assert good >= 100 and bad >= 10 and short >= 1, (good, bad, short)


def _sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2, and 0 at the integers."""
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def test_sum_of_d_on_chains_is_a_dedekind_sum():
    # On the chain of p/q, which bounds -L(p, q), the sum of d over the
    # classes is -p * s(q, p), with the Dedekind sum
    #   s(q, p) = sum_{i=1}^{p-1} ((i/p)) ((q i/p)):
    # every lens space with p < 40 whose box is within MAX_BOX
    checked = skipped = 0
    for p in range(2, 40):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            tree = lens_chain(p, q)
            if prod(-w for _, w in tree.vertices) > plumbing.MAX_BOX:
                skipped += 1
                continue
            f = IntersectionForm(tree)
            assert f.qinv[1] == p, (p, q)
            total = sum(Fraction(s.d_num, 4 * p) for s in spinc_classes(f))
            dedekind = sum(
                _sawtooth(Fraction(i, p)) * _sawtooth(Fraction(q * i, p)) for i in range(1, p)
            )
            assert total == -p * dedekind, (p, q, total, dedekind)
            checked += 1
    assert checked >= 400 and checked + skipped == 473, (checked, skipped)


def test_class_lookup_meets_the_indexed_class():
    # on a fresh form, class_of meets the box's heads and tails at one key and
    # at its conjugate: each class, reached from rep + 2Qx for an arbitrary x,
    # must be the indexed class in rep, d and realizing, and no index is built
    rng = random.Random(property_seed())
    kinds, trees, classes = Counter(), 0, 0
    while trees < 40 or min(kinds["-1 leaf"], kinds["-1 inside"]) < 5:
        tree = random_tree(rng, rng.randint(1, 7), -6, -1)
        vertices = list(tree.vertices)
        rng.shuffle(vertices)
        tree = PlumbingTree(vertices=tuple(vertices), edges=tree.edges)
        f = IntersectionForm(tree)
        if not f.negative_definite or prod(-w for _, w in vertices) > 2000:
            continue
        trees += 1
        for s in spinc_classes(f):
            fresh = IntersectionForm(tree)
            x = [rng.randint(-3, 3) for _ in range(f.n)]
            kappa = [k + 2 * sum(q * y for q, y in zip(row, x)) for k, row in zip(s.rep, f.q)]
            found = class_of(fresh, kappa)
            assert (found.rep, found.d, found.realizing) == (s.rep, s.d, s.realizing), tree
            sbar, want = conjugate(found), conjugate(s)
            assert (sbar.rep, sbar.d, sbar.realizing) == (want.rep, want.d, want.realizing), tree
            assert "_class_index" not in fresh.__dict__ and len(fresh._looked_up) <= 2
            classes += 1
        kinds["-1 leaf"] += any(w == -1 and tree.degree(v) == 1 for v, w in vertices)
        kinds["-1 inside"] += any(w == -1 and tree.degree(v) > 1 for v, w in vertices)
    assert classes > 2_000, classes

import ast
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from conftest import (
    blow_up,
    det,
    pairing,
    pairing_tau_detail,
    property_seed,
    random_tree,
    sigma_square,
    tau,
    tau_detail,
    tau_table,
)
from plumbtau import linalg, plumbing
from plumbtau.obstruct import metaboliser_candidates
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import (
    IntersectionForm,
    PlumbingTree,
    class_of,
    conjugate,
    spinc_classes,
    spinc_translate,
)
from plumbtau.tau import LeafLink, TauProfile, d_zero_subset, leaf_link

L41, L92 = form_41(), form_92()


def test_leaf_link_validation():
    link = leaf_link(L92, {"v1": 3})
    assert link.m == (3, 0) and link.ell == 3
    with pytest.raises(ValueError):
        leaf_link(L92, {"v1": -1})
    # v2 of a longer chain is internal, no strands allowed there
    chain = IntersectionForm(PlumbingTree.path(-2, -3, -2))
    with pytest.raises(ValueError):
        leaf_link(chain, {"v2": 1})


def test_a_zero_strand_count_is_allowed_on_any_vertex():
    # no strand is no strand: a zero count on an internal or marked vertex is
    # accepted and gives the link without it
    chain = IntersectionForm(PlumbingTree.path(-2, -3, -2))
    assert leaf_link(chain, {"v2": 0}).m == (0, 0, 0)
    assert leaf_link(chain, {"v1": 1, "v2": 0}) == leaf_link(chain, {"v1": 1}) == LeafLink((1, 0, 0))
    marked = IntersectionForm(PlumbingTree(chain.tree.vertices, chain.tree.edges, {"v3": "marked"}))
    assert leaf_link(marked, {"v3": 0, "v1": 2}).m == (2, 0, 0)


def test_sigma_square():
    for d in range(1, 6):
        assert sigma_square(L41, LeafLink((2 * d,))) == -d * d
    for k in range(1, 6):
        assert sigma_square(L92, LeafLink((k, 0))) == Fraction(-2 * k * k, 9)
    assert sigma_square(L92, LeafLink((0, 0))) == 0


def test_pairing():
    for k in range(1, 6):
        link = LeafLink((k, 0))
        assert pairing(L92, (-3, 0), link) == Fraction(2 * k, 3)
        assert pairing(L92, (-1, 2), link) == 0
    assert pairing(L92, (5, 2), LeafLink((0, 0))) == 0


def test_tau_m3():
    link = leaf_link(L92, {"v1": 3})
    values = [tau(L92, link, class_of(L92, rep)) for rep in [(-3, 0), (-1, 2), (3, 0)]]
    assert values == [2, 1, 0]


def test_tau_nk_formulas():
    for k in range(1, 12):
        link = LeafLink((k, 0))
        assert tau(L92, link, class_of(L92, (-3, 0))) == Fraction(k * k + 3 * k, 9)
        assert tau(L92, link, class_of(L92, (-1, 2))) == Fraction(k * k, 9)
        assert tau(L92, link, class_of(L92, (3, 0))) == Fraction(k * k - 3 * k, 9)


def test_tau_l2d_formulas():
    for d in range(1, 8):
        link = LeafLink((2 * d,))
        assert tau(L41, link, class_of(L41, (-2,))) == Fraction(d * (d + 1), 2)
        assert tau(L41, link, class_of(L41, (2,))) == Fraction(d * (d - 1), 2)


def test_tau_minimizer_reported():
    link = LeafLink((3, 0))
    value, minimizer = tau_detail(L92, link, class_of(L92, (-3, 0)))
    assert value == 2 and minimizer == (-3, 0)


def test_tau_zero_link_vanishes():
    empty_92 = LeafLink((0, 0))
    assert all(v == 0 for v in tau_table(L92, empty_92, spinc_classes(L92)).values())
    d0 = tau_table(L92, empty_92, d_zero_subset(L92)).values()
    assert (max(d0), min(d0)) == (0, 0)


def test_tau_conjugation_symmetry():
    for k in range(1, 6):
        link = LeafLink((k, 0))
        table = tau_table(L92, link, spinc_classes(L92))
        mirrored = sorted(table[conjugate(s)] for s in table)
        assert mirrored == sorted(table.values())


def test_tau_scaling_regression():
    base = tau_table(L92, LeafLink((1, 0)), spinc_classes(L92))
    for c in range(1, 6):
        scaled = tau_table(L92, LeafLink((c, 0)), spinc_classes(L92))
        for s in base:
            direct = scaled[s]
            recomputed = tau(L92, LeafLink((c, 0)), s)
            assert direct == recomputed


def test_tau_denominator_bounded_by_det():
    for k in range(1, 8):
        link = LeafLink((k, 0))
        for v in tau_table(L92, link, spinc_classes(L92)).values():
            assert (2 * abs(det(L92.q)) * v).denominator == 1


def test_tau_extrema_and_subset():
    link = LeafLink((6,))  # L_2d with d = 3
    d0 = tau_table(L41, link, d_zero_subset(L41)).values()
    hi, lo = max(d0), min(d0)
    assert (hi, lo) == (6, 3)
    assert hi - lo == 3
    assert tau_table(L41, link, []) == {}
    assert [s.rep for s in d_zero_subset(L41)] == [(-2,), (2,)]


def test_tau_checks_run_in_order():
    indefinite = IntersectionForm(PlumbingTree.path(-1, -1, -1))
    other = IntersectionForm(PlumbingTree.path(-2, -5))
    s = class_of(L92, (-3, 0))
    with pytest.raises(ValueError, match="not negative definite"):
        tau_table(indefinite, LeafLink((1,)), [s])
    with pytest.raises(ValueError, match="wrong length"):
        tau_table(L92, LeafLink((1,)), [s])
    with pytest.raises(ValueError, match="different form"):
        tau_detail(other, LeafLink((1, 0)), s)
    # the table checks each class before it yields the class's value
    with pytest.raises(ValueError, match="different form"):
        tau_table(other, LeafLink((1, 0)), [spinc_classes(other)[0], s])


def _definite_forms(rng, count):
    """``count`` seeded random definite trees, then the definite stars
    (-1; a, b, c) with arms in [-6, -2]: a centre of weight -1 gives a
    class with several d-realizing vectors, which random trees rarely do."""
    forms = []
    while len(forms) < count:
        f = IntersectionForm(random_tree(rng, rng.randint(1, 5), -6, -1))
        if f.negative_definite:
            forms.append(f)
    for arms in itertools.combinations_with_replacement(range(-6, -1), 3):
        ids = ("v0", "v1", "v2", "v3")
        star = PlumbingTree(
            vertices=tuple(zip(ids, (-1, *arms))), edges=tuple(("v0", v) for v in ids[1:])
        )
        f = IntersectionForm(star)
        if f.negative_definite:
            forms.append(f)
    return forms


def test_tau_matches_pairing_oracle():
    # value and lex-least minimizer at every class, with strands on random
    # unmarked leaves
    rng = random.Random(property_seed())
    classes = ties = 0
    for f in _definite_forms(rng, 200):
        leaves = [v for v, _ in f.tree.vertices if f.tree.marking(v) == "unmarked_leaf"]
        link = leaf_link(f, {v: rng.randint(0, 4) for v in leaves})
        everything = spinc_classes(f)
        table = tau_table(f, link, everything)
        assert list(table) == everything
        for s in everything:
            want = pairing_tau_detail(f, link, s)
            assert tau_detail(f, link, s) == want, (f.tree, link, s)
            assert table[s] == tau(f, link, s) == want[0]
            classes += 1
            ties += len(s.realizing) > 1
    assert classes > 10_000 and ties >= 10


def test_short_box_attains_every_class_maximum():
    # the reflection argument of the tau docstring: every maximiser of a class
    # lies in a_i <= kappa_i <= -a_i, and the short box, a step narrower at the
    # bottom, loses no d and no least pairing.  The box a step wider on both
    # sides, a_i <= kappa_i <= -a_i + 2, gives each class the same d_num and
    # the same tau numerator as the package, on random trees and leaf links
    rng = random.Random(property_seed())
    classes = reflected = 0
    for _ in range(400):
        tree = random_tree(rng, rng.randint(1, 4), -5, -1)
        weights = [w for _, w in tree.vertices]
        f = IntersectionForm(tree)
        if math.prod(2 - w for w in weights) > 3000 or not f.negative_definite:
            continue
        leaves = [v for v, _ in tree.vertices if tree.marking(v) == "unmarked_leaf"]
        link = leaf_link(f, {v: rng.randint(0, 4) for v in leaves})
        profile = TauProfile(f, link)
        a, p = f.qinv
        w = [sum(map(mul, row, link.m)) for row in a]
        found = {s: [] for s in spinc_classes(f)}  # (square, pairing, kappa) per class
        for kappa in itertools.product(*(range(x, 3 - x, 2) for x in weights)):
            square = sum(map(mul, kappa, [sum(map(mul, row, kappa)) for row in a]))
            found[class_of(f, kappa)].append((square, sum(map(mul, kappa, w)), kappa))
        for s, vectors in found.items():
            top = max(square for square, _, _ in vectors)
            maximisers = [(pairing, kappa) for square, pairing, kappa in vectors if square == top]
            assert s.d_num == top + f.n * p, (tree, s)
            least = min(pairing for pairing, _ in maximisers)
            assert profile.row(s)[0] == least - sum(map(mul, link.m, w)), (tree, link, s)
            classes += 1
            # a maximiser on the box's lower face, which the short box leaves out
            reflected += any(k == x for _, kappa in maximisers for k, x in zip(kappa, weights))
    assert classes > 5000 and reflected > 1000, (classes, reflected)


def test_blow_ups_keep_every_class():
    # a blow-up (conftest.blow_up) keeps the boundary, so the classes, d and
    # tau must agree class by class through phi, though the new tree has its
    # own box, Q^-1 and -1 vertex; the links are the 2-strand ones on the
    # leaves the move leaves alone.  It keeps H_1 and its linking form too, so
    # a square order has as many metaboliser candidates on both trees
    rng = random.Random(property_seed())
    classes = pairs = squares = 0
    for _ in range(300):
        tree = random_tree(rng, rng.randint(1, 5), -6, -1)
        f = IntersectionForm(tree)
        if not f.negative_definite:
            continue
        grown, phi = blow_up(tree, rng)
        g = IntersectionForm(grown)
        before, after = spinc_classes(f), spinc_classes(g)
        image = [class_of(g, phi(s.rep)) for s in before]
        # equal counts and every class met: phi is a bijection of the classes
        assert len(before) == len(after) and set(image) == set(after), (tree, grown)
        for s, t in zip(before, image):
            assert s.d_num == t.d_num, (tree, grown, s)
        classes += len(before)
        if math.isqrt(len(before)) ** 2 == len(before):  # |H_1|, one class per element
            candidates = len(metaboliser_candidates(f))
            assert candidates == len(metaboliser_candidates(g)), (tree, grown)
            squares += 1
        weights = dict(grown.vertices)
        untouched = [
            v for v, a in tree.vertices if tree.marking(v) == "unmarked_leaf" and weights[v] == a
        ]
        for leaves in itertools.combinations_with_replacement(untouched, 2):
            strands = Counter(leaves)
            profile = TauProfile(f, leaf_link(f, strands))
            grown_profile = TauProfile(g, leaf_link(g, strands))
            for s, t in zip(before, image):
                assert profile.tau_at(s) == grown_profile.tau_at(t), (tree, grown, strands, s)
            pairs += len(before)
    assert classes > 10000 and pairs > 20000 and squares > 20, (classes, pairs, squares)
    # the seeded trees of square order have one candidate each; these stars of
    # -2 arms have 2-torsion in H_1, and 3 or 15 candidates
    for center, arms in ((-2, 3), (-3, 5), (-4, 6), (-6, 4)):
        ids = [f"a{i}" for i in range(arms)]
        star = PlumbingTree(
            vertices=(("c", center), *((v, -2) for v in ids)), edges=tuple(("c", v) for v in ids)
        )
        candidates = len(metaboliser_candidates(IntersectionForm(star)))
        assert candidates > 1, star
        for _ in range(5):
            grown, _ = blow_up(star, rng)
            assert len(metaboliser_candidates(IntersectionForm(grown))) == candidates, grown


def test_profile_takes_no_pairing(monkeypatch):
    # (-3)x4 has 55 classes; with the one pairing vector w = a·m every
    # candidate is an integer dot product, so no linalg.pair call is made.
    # Q^-1 is taken once, from the tree's branches and not by linalg.inverse
    f = IntersectionForm(PlumbingTree.path(-3, -3, -3, -3))
    calls = Counter()
    for module, name in ((linalg, "inverse"), (linalg, "pair"), (plumbing, "_tree_inverse")):
        def counted(*args, _name=name, _f=getattr(module, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    row = TauProfile.row

    def counted_row(self, s):
        calls["row"] += 1
        return row(self, s)

    monkeypatch.setattr(TauProfile, "row", counted_row)
    profile = TauProfile(f, leaf_link(f, {"v1": 2, "v4": 1}))
    assert len([profile.tau_at(s) for s in spinc_classes(profile.form)]) == 55
    assert calls == {"_tree_inverse": 1, "row": 55}


def test_tau_of_a_leaf_fibre_from_d():
    # A second route to tau.  The fibre K over a leaf v is Floer-simple in an
    # L-space, so tau(K, s) = (d(s) - d(s - [K])) / 2 (Rasmussen; Ni-Wu;
    # Raoux), and [K] = e_v acts as translation by -e_v.  With l strands
    # only the bound holds: for a realiser kappa of s, kappa - 2m lies in
    # s - [L], so d(s - [L]) >= d(s) - 2 tau, and the gap is an integer.
    rng = random.Random(property_seed())
    seen = {"chain": 0, "star": 0}
    for k in range(120):
        if k < 60:
            tree = PlumbingTree.path(*(rng.randint(-6, -2) for _ in range(rng.randint(1, 5))))
        else:
            ids = [f"v{i}" for i in range(rng.randint(4, 5))]
            weights = [rng.randint(-6, -2) for _ in ids]
            tree = PlumbingTree(tuple(zip(ids, weights)), tuple(("v0", v) for v in ids[1:]))
        f = IntersectionForm(tree)
        if not f.negative_definite:
            continue
        v = rng.choice([v for v, _ in tree.vertices if tree.marking(v) == "unmarked_leaf"])
        classes = spinc_classes(f)
        for ell in (1, rng.randint(2, 4)):
            table = tau_table(f, leaf_link(f, {v: ell}), classes)
            shift = tuple(-ell if u == v else 0 for u, _ in tree.vertices)
            for s in classes:
                gap = table[s] - (s.d - spinc_translate(s, shift).d) / 2
                if ell == 1:
                    assert gap == 0, (tree, v, s.rep)
                else:
                    assert gap >= 0 and gap.denominator == 1, (tree, v, ell, s.rep, gap)
        seen["chain" if k < 60 else "star"] += len(classes)
    assert seen["chain"] > 2000 and seen["star"] > 2000, seen


def test_readme_library_block_runs():
    # the README's Library example runs as shown, and each expression line
    # gives the value its comment states
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.lineno - 1].split("#", 1)[1]
            assert repr(value) in comment, (value, comment)
            shown.append(value)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert shown == [["2", "1", "0"], 9, "fires"]

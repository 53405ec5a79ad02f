import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    det,
    pairing,
    pairing_tau_detail,
    property_seed,
    random_tree,
    sigma_square,
    tau,
    tau_detail,
)
from plumbtau import linalg
from plumbtau.obstruct import profile_from_link
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import (
    PlumbingTree,
    class_of,
    conjugate,
    form_from_tree,
    spinc_classes,
    spinc_translate,
)
from plumbtau.tau import LeafLink, d_zero_subset, leaf_link, tau_table

L41, L92 = form_41(), form_92()


def test_leaf_link_validation():
    link = leaf_link(L92, {"v1": 3})
    assert link.m == (3, 0) and link.ell == 3
    with pytest.raises(ValueError):
        leaf_link(L92, {"v1": -1})
    with pytest.raises(ValueError):
        LeafLink(m=(2, 0), ell=1)
    # v2 of a longer chain is internal, no strands allowed there
    chain = form_from_tree(PlumbingTree.path(-2, -3, -2))
    with pytest.raises(ValueError):
        leaf_link(chain, {"v2": 1})


def test_sigma_square():
    for d in range(1, 6):
        assert sigma_square(L41, LeafLink((2 * d,), 2 * d)) == -d * d
    for k in range(1, 6):
        assert sigma_square(L92, LeafLink((k, 0), k)) == Fraction(-2 * k * k, 9)
    assert sigma_square(L92, LeafLink((0, 0), 0)) == 0


def test_pairing():
    for k in range(1, 6):
        link = LeafLink((k, 0), k)
        assert pairing(L92, (-3, 0), link) == Fraction(2 * k, 3)
        assert pairing(L92, (-1, 2), link) == 0
    assert pairing(L92, (5, 2), LeafLink((0, 0), 0)) == 0


def test_tau_m3():
    link = leaf_link(L92, {"v1": 3})
    values = [tau(L92, link, class_of(L92, rep)) for rep in [(-3, 0), (-1, 2), (3, 0)]]
    assert values == [2, 1, 0]


def test_tau_nk_formulas():
    for k in range(1, 12):
        link = LeafLink((k, 0), k)
        assert tau(L92, link, class_of(L92, (-3, 0))) == Fraction(k * k + 3 * k, 9)
        assert tau(L92, link, class_of(L92, (-1, 2))) == Fraction(k * k, 9)
        assert tau(L92, link, class_of(L92, (3, 0))) == Fraction(k * k - 3 * k, 9)


def test_tau_l2d_formulas():
    for d in range(1, 8):
        link = LeafLink((2 * d,), 2 * d)
        assert tau(L41, link, class_of(L41, (-2,))) == Fraction(d * (d + 1), 2)
        assert tau(L41, link, class_of(L41, (2,))) == Fraction(d * (d - 1), 2)


def test_tau_minimizer_reported():
    link = LeafLink((3, 0), 3)
    value, minimizer = tau_detail(L92, link, class_of(L92, (-3, 0)))
    assert value == 2 and minimizer == (-3, 0)


def test_tau_zero_link_vanishes():
    empty_92 = LeafLink((0, 0), 0)
    assert all(v == 0 for v in tau_table(L92, empty_92, spinc_classes(L92)).values())
    d0 = tau_table(L92, empty_92, d_zero_subset(L92)).values()
    assert (max(d0), min(d0)) == (0, 0)


def test_tau_conjugation_symmetry():
    for k in range(1, 6):
        link = LeafLink((k, 0), k)
        table = tau_table(L92, link, spinc_classes(L92))
        mirrored = sorted(table[conjugate(s)] for s in table)
        assert mirrored == sorted(table.values())


def test_tau_scaling_regression():
    base = tau_table(L92, LeafLink((1, 0), 1), spinc_classes(L92))
    for c in range(1, 6):
        scaled = tau_table(L92, LeafLink((c, 0), c), spinc_classes(L92))
        for s in base:
            direct = scaled[s]
            recomputed = tau(L92, LeafLink((c, 0), c), s)
            assert direct == recomputed


def test_tau_denominator_bounded_by_det():
    for k in range(1, 8):
        link = LeafLink((k, 0), k)
        for v in tau_table(L92, link, spinc_classes(L92)).values():
            assert (2 * abs(det(L92.q)) * v).denominator == 1


def test_tau_extrema_and_subset():
    link = LeafLink((6,), 6)  # L_2d with d = 3
    d0 = tau_table(L41, link, d_zero_subset(L41)).values()
    hi, lo = max(d0), min(d0)
    assert (hi, lo) == (6, 3)
    assert hi - lo == 3
    assert tau_table(L41, link, []) == {}
    assert [s.rep for s in d_zero_subset(L41)] == [(-2,), (2,)]


def test_tau_checks_run_in_order():
    indefinite = form_from_tree(PlumbingTree.path(-1, -1, -1))
    other = form_from_tree(PlumbingTree.path(-2, -5))
    s = class_of(L92, (-3, 0))
    with pytest.raises(ValueError, match="not negative definite"):
        tau_table(indefinite, LeafLink((1,), 1), [s])
    with pytest.raises(ValueError, match="wrong length"):
        tau_table(L92, LeafLink((1,), 1), [s])
    with pytest.raises(ValueError, match="different form"):
        tau_detail(other, LeafLink((1, 0), 1), s)
    # the table checks each class before it yields the class's value
    with pytest.raises(ValueError, match="different form"):
        tau_table(other, LeafLink((1, 0), 1), [spinc_classes(other)[0], s])


def _definite_forms(rng, count):
    """``count`` seeded random definite trees, then the definite stars
    (-1; a, b, c) with arms in [-6, -2]: a centre of weight -1 gives a
    class with several d-realizing vectors, which random trees rarely do."""
    forms = []
    while len(forms) < count:
        f = form_from_tree(random_tree(rng, rng.randint(1, 5), -6, -1))
        if f.negative_definite:
            forms.append(f)
    for arms in itertools.combinations_with_replacement(range(-6, -1), 3):
        ids = ("v0", "v1", "v2", "v3")
        star = PlumbingTree(
            vertices=tuple(zip(ids, (-1, *arms))), edges=tuple(("v0", v) for v in ids[1:])
        )
        f = form_from_tree(star)
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


def test_profile_takes_no_pairing(monkeypatch):
    # (-3)x4 has 55 classes; with the one pairing vector w = a·m every
    # candidate is an integer dot product, so no linalg.pair call is made
    f = form_from_tree(PlumbingTree.path(-3, -3, -3, -3))
    calls = Counter()
    for name in ("inverse", "pair"):
        def counted(*args, _name=name, _f=getattr(linalg, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(linalg, name, counted)
    profile = profile_from_link(f, leaf_link(f, {"v1": 2, "v4": 1}))
    assert len(profile.tau) == 55
    assert calls == {"inverse": 1}


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
        f = form_from_tree(tree)
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

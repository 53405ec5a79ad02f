from fractions import Fraction

import pytest

from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import PlumbingTree, class_of, conjugate, form_from_tree, spinc_classes
from plumbtau.tau import (
    LeafLink,
    d_zero_subset,
    leaf_link,
    pairing,
    sigma_square,
    tau,
    tau_detail,
    tau_extrema,
    tau_table,
)

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
    assert all(v == 0 for v in tau_table(L92, empty_92).values())
    assert tau_extrema(L92, empty_92) == (0, 0)


def test_tau_conjugation_symmetry():
    for k in range(1, 6):
        link = LeafLink((k, 0), k)
        table = tau_table(L92, link)
        mirrored = sorted(table[conjugate(s)] for s in table)
        assert mirrored == sorted(table.values())


def test_tau_scaling_regression():
    base = tau_table(L92, LeafLink((1, 0), 1))
    for c in range(1, 6):
        scaled = tau_table(L92, LeafLink((c, 0), c))
        for s in base:
            direct = scaled[s]
            recomputed = tau(L92, LeafLink((c, 0), c), s)
            assert direct == recomputed


def test_tau_denominator_bounded_by_det():
    for k in range(1, 8):
        link = LeafLink((k, 0), k)
        for v in tau_table(L92, link).values():
            assert (2 * abs(L92.det()) * v).denominator == 1


def test_tau_extrema_and_subset():
    link = LeafLink((6,), 6)  # L_2d with d = 3
    hi, lo = tau_extrema(L41, link)
    assert (hi, lo) == (6, 3)
    assert hi - lo == 3
    with pytest.raises(ValueError):
        tau_extrema(L41, link, subset=[])
    assert [s.rep for s in d_zero_subset(L41)] == [(-2,), (2,)]

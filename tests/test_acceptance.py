"""End-to-end checks of the published numeric tables and identities.

One test per headline table or identity; each asserts exact values, so a
single `pytest -v tests/test_acceptance.py` reads as a pass/fail scorecard.
"""

import random
from fractions import Fraction

from conftest import (
    bordered_self_intersection,
    dualize,
    homology_minus,
    image_classes,
    is_theta_supported,
    property_seed,
    random_braid,
    random_complex,
    random_presentation,
    random_tree,
    tau,
    tau_table,
)
from test_floer import predicted_dims, truncated_dims

from plumbtau.floer import (
    AlexanderFiltration,
    FloerComplex,
    correction_term,
    tau_alpha,
    tau_bot,
    tau_top,
    verify_axioms,
)
from plumbtau.obstruct import (
    FIRES,
    conjugation_obstruction,
    integrality_obstruction,
    metaboliser_candidates,
    metaboliser_obstruction,
    pl_genus_lower_bound,
)
from plumbtau.paper import form_41, form_92, l2d_presentation, m3d_presentation
from plumbtau.plumbing import IntersectionForm, PlumbingTree, class_of, solve_square, spinc_classes
from plumbtau.surgery import (
    CurveDatum,
    SurgeryComponent,
    SurgeryPresentation,
    bennequin_euler,
    chern_evaluation,
    self_intersection,
    self_linking_braid,
    tau_from_curve,
    tau_qp_braid,
)
from plumbtau.tau import TauProfile, d_zero_subset, leaf_link

L41, L92 = form_41(), form_92()


def test_three_chain_tau_values():
    link = leaf_link(L92, {"v1": 3})
    assert [tau(L92, link, s) for s in d_zero_subset(L92)] == [2, 1, 0]


def test_chain_link_family_tau_formulas():
    for k in range(1, 31):
        link = leaf_link(L92, {"v1": k})
        got = [tau(L92, link, s) for s in d_zero_subset(L92)]
        assert got == [
            Fraction(k * k + 3 * k, 9),
            Fraction(k * k, 9),
            Fraction(k * k - 3 * k, 9),
        ]


def test_torus_link_family_tau_and_genus_bound():
    for d in range(1, 11):
        link = leaf_link(L41, {"v1": 2 * d})
        got = [tau(L41, link, s) for s in d_zero_subset(L41)]
        assert got == [Fraction(d * (d + 1), 2), Fraction(d * (d - 1), 2)]
        d0 = tau_table(L41, link, d_zero_subset(L41)).values()
        hi, lo = max(d0), min(d0)
        assert hi - lo == d
        bound = pl_genus_lower_bound(TauProfile(L41, link), d_zero_subset(L41))
        assert bound.genus == (d + 1) // 2 and bound.raw == Fraction(d, 2)


def test_square_minus_two_solutions():
    got = solve_square(L92, -2)
    assert set(got) == {(-3, 0), (-1, 2), (1, -2), (3, 0)}


def test_zero_d_class_counts():
    assert len(spinc_classes(L41)) == 4
    assert len(d_zero_subset(L41)) == 2
    assert len(spinc_classes(L92)) == 9
    assert len(d_zero_subset(L92)) == 3


def test_presentation_self_intersection_and_chern():
    for d in range(1, 11):
        for sign in (1, -1):
            lens = l2d_presentation(d, 2 * sign)
            assert self_intersection(lens) == Fraction(-d * d)
            assert chern_evaluation(lens) == Fraction(sign * d)
            bridge = m3d_presentation(d, 3 * sign)
            assert self_intersection(bridge) == Fraction(-2 * d * d)
            assert chern_evaluation(bridge) == Fraction(2 * sign * d)


def test_self_intersection_routes_agree():
    rng = random.Random(property_seed())
    for _ in range(100):
        p = random_presentation(rng, max_components=4)
        assert self_intersection(p) == bordered_self_intersection(p)


def test_curve_route_matches_lattice_route():
    for k in range(1, 10):
        link = leaf_link(L92, {"v1": k})
        for rot in (-3, 3):
            base = m3d_presentation(1, rot)
            p = SurgeryPresentation(base.components, base.linking, ((1, 0),) * k)
            datum = CurveDatum(
                chi=k,
                chern=chern_evaluation(p),
                self_int=self_intersection(p),
                boundary=k,
            )
            assert tau_from_curve(datum) == tau(L92, link, class_of(L92, (rot, 0)))


def stein_tau(f, rot, m) -> Fraction:
    """tau_xi of the Stein structure with rotation vector ``rot`` on the plumbing of ``f``,
    from the curve route: m_v push-offs of the core of each vertex v, each bounding a disk.

    A tree with weights <= -2 is Legendrian surgery on unknots with tb = a_v + 1,
    linked once along each edge, and c1 = rot (Gompf 1998).
    """
    components = tuple(SurgeryComponent("surgery", f.q[i][i] + 1, rot[i]) for i in range(f.n))
    linking = tuple(tuple(0 if i == j else f.q[i][j] for j in range(f.n)) for i in range(f.n))
    vectors = tuple(tuple(int(j == i) for j in range(f.n)) for i in range(f.n) for _ in range(m[i]))
    p = SurgeryPresentation(components, linking, vectors)
    ell = sum(m)
    datum = CurveDatum(chi=ell, chern=chern_evaluation(p), self_int=self_intersection(p), boundary=ell)
    return tau_from_curve(datum)


def test_stein_vectors_realise_d_and_the_curve_gives_lattice_tau():
    # the contact class of rot is class_of(f, rot); rot realises d there, and
    # where it is the class's minimiser tau_xi from the curve is the lattice tau
    rng = random.Random(property_seed())
    pairs = minimisers = 0
    while pairs < 1_500:
        f = IntersectionForm(random_tree(rng, rng.randint(1, 5), -6, -2))
        if not f.negative_definite:  # the star (-2; -2, -2, -2, -2) is not
            continue
        leaves = [v for v, _ in f.tree.vertices if f.tree.marking(v) == "unmarked_leaf"]
        link = leaf_link(f, {v: rng.randint(0, 3) for v in leaves})
        if link.ell == 0:
            continue
        profile = TauProfile(f, link)
        for _ in range(3):
            rot = tuple(rng.randrange(a + 2, -a - 1, 2) for a in (f.q[i][i] for i in range(f.n)))
            s = class_of(f, rot)
            assert rot in s.realizing, (f.tree, rot)
            tau_xi, (_, minimiser) = stein_tau(f, rot, link.m), profile.row(s)
            assert tau_xi >= profile.tau_at(s), (f.tree, rot, link)
            if minimiser == rot:
                assert tau_xi == profile.tau_at(s), (f.tree, rot, link)
                minimisers += 1
            pairs += 1
    assert minimisers > pairs // 2
    # the star (-2; -3, -2, -2, -2) with one strand on the -3 leaf: its two
    # Stein vectors realise d in one class, and only one is the minimiser
    ids = ("v0", "v1", "v2", "v3", "v4")
    star = IntersectionForm(
        PlumbingTree(tuple(zip(ids, (-2, -3, -2, -2, -2))), tuple(("v0", v) for v in ids[1:]))
    )
    link = leaf_link(star, {"v1": 1})
    down, up = (0, -1, 0, 0, 0), (0, 1, 0, 0, 0)
    s = class_of(star, down)
    assert s == class_of(star, up) and {down, up} <= set(s.realizing)
    assert TauProfile(star, link).row(s) == (0, up)
    assert (stein_tau(star, down, link.m), stein_tau(star, up, link.m)) == (1, 0)


def test_filtered_complex_suite():
    c = FloerComplex(
        gradings={"a": 0, "b": -1, "c": -2},
        entries={("b", "a"): 1, ("b", "c"): 0},
    )
    filt = AlexanderFiltration({"a": 1, "b": 0, "c": -1})
    assert verify_axioms(c).ok
    assert correction_term(c) == 0
    assert tau_top(c, filt) == 1
    dual, dfilt = dualize(c, filt)
    assert tau_bot(dual, dfilt) == -1

    rng = random.Random(property_seed())
    for _ in range(200):
        rc, rfilt = random_complex(rng)
        assert verify_axioms(rc).ok
        top, _, _ = image_classes(rc)
        assert is_theta_supported(rc, top)
        assert tau_top(rc, rfilt) <= tau_alpha(rc, rfilt, top)
        rdual, rdfilt = dualize(rc, rfilt)
        assert tau_top(rc, rfilt) == -tau_bot(rdual, rdfilt)
        if len(rc.generators) <= 5:
            assert truncated_dims(rc) == predicted_dims(homology_minus(rc))


def test_obstruction_verdicts_on_chain_links():
    down = class_of(L92, (3, 0))
    candidates = metaboliser_candidates(L92)
    for k in range(1, 31):
        profile = TauProfile(L92, leaf_link(L92, {"v1": k}))
        assert metaboliser_obstruction(profile, down, candidates).verdict == FIRES
        fires = integrality_obstruction(profile.tau_at(down)).verdict == FIRES
        assert fires == (k % 3 != 0)
    m3 = TauProfile(L92, leaf_link(L92, {"v1": 3}))
    assert conjugation_obstruction(m3, class_of(L92, (-3, 0))).verdict == FIRES


def test_quasi_positive_tau_chain():
    rng = random.Random(property_seed())
    for _ in range(50):
        b = random_braid(rng)
        value = tau_qp_braid(b)
        assert value == Fraction(self_linking_braid(b) + b.components, 2)
        datum = CurveDatum(
            chi=bennequin_euler(b.strands, b.writhe),
            chern=Fraction(0),
            self_int=Fraction(0),
            boundary=b.components,
        )
        assert value == tau_from_curve(datum)

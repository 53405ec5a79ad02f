import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    _close_subgroup,
    adjunction_bound,
    closure_metaboliser_candidates,
    det,
    fraction_concordance_obstruction,
    fraction_conjugation_obstruction,
    fraction_integrality_obstruction,
    fraction_metaboliser_obstruction,
    fraction_pl_genus_lower_bound,
    genus_bounds_check,
    h1_residues,
    property_seed,
    random_tree,
    recursive_verdict_json,
    tau_table,
    three_matrix_smith_normal_form,
    two_branch_filling_obstruction,
)

from plumbtau import cli, linalg, obstruct
from plumbtau.obstruct import (
    CLEAR,
    FIRES,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    Quotient,
    TauProfile,
    _h1_decomposition,
    concordance_obstruction,
    conjugation_obstruction,
    integrality_obstruction,
    metaboliser_candidates,
    metaboliser_obstruction,
    pl_genus_lower_bound,
    qhb4_filling_obstruction,
    slice_bennequin_check,
)
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import (
    IntersectionForm,
    PlumbingTree,
    class_of,
    spinc_classes,
    spinc_translate,
)
from plumbtau.tau import LeafLink, d_zero_subset, leaf_link

L41, L92 = form_41(), form_92()


def chain(*weights: int):
    return IntersectionForm(PlumbingTree.path(*weights))


def star(center: int, *leaves: int):
    ids = [f"v{i + 1}" for i in range(len(leaves))]
    return IntersectionForm(
        PlumbingTree(
            vertices=(("c", center),) + tuple(zip(ids, leaves)),
            edges=tuple(("c", v) for v in ids),
        )
    )


def nk_profile(k: int) -> TauProfile:
    return TauProfile(L92, LeafLink((k, 0)))


def l2d_profile(d: int) -> TauProfile:
    return TauProfile(L41, LeafLink((2 * d,)))


def test_profile_validation():
    p = nk_profile(3)
    assert p.ell == 3 and p.den == 18 and len(spinc_classes(p.form)) == 9
    assert [s.rep for s in spinc_classes(p.form) if s.d_num == 0] == [(-3, 0), (-1, 2), (3, 0)]
    assert [p.num(s) for s in d_zero_subset(L92)] == [36, 18, 0]  # tau = 2, 1, 0 over 18
    # the link's checks run once, when the profile is built, in this order
    indefinite = IntersectionForm(PlumbingTree.path(-1, -1, -1))
    with pytest.raises(ValueError, match="not negative definite"):
        TauProfile(indefinite, LeafLink((1,)))
    with pytest.raises(ValueError, match="wrong length"):
        TauProfile(L92, LeafLink((1,)))
    with pytest.raises(ValueError, match="different form"):
        p.tau_at(class_of(L41, (-2,)))


def test_profile_computes_tau_when_read(monkeypatch):
    # a profile from a link evaluates tau at a class when the class is first
    # read, from one pairing vector, and as a whole it is tau_table over
    # every class, in spinc_classes order
    rng = random.Random(property_seed())
    made, row = Counter(), TauProfile.row

    def counted_row(self, s):
        made[self] += 1
        return row(self, s)

    monkeypatch.setattr(TauProfile, "row", counted_row)
    profiles = 0
    while profiles < 30:
        tree = random_tree(rng, rng.randint(1, 5), -6, -1)
        f = IntersectionForm(tree)
        if not f.negative_definite:
            continue
        profiles += 1
        leaves = [v for v, _ in tree.vertices if tree.marking(v) == "unmarked_leaf"]
        link = leaf_link(f, {v: rng.randint(0, 4) for v in leaves})
        fresh = IntersectionForm(tree)
        p = TauProfile(fresh, link)
        s = class_of(fresh, [2 * rng.randint(-3, 3) - w for _, w in tree.vertices])
        value = p.tau_at(s)
        assert made[p] == 1 and "_class_index" not in fresh.__dict__
        assert p.tau_at(s) == value and made[p] == 1
        table = tau_table(f, link, spinc_classes(f))
        assert [(t, p.tau_at(t)) for t in spinc_classes(p.form)] == list(table.items())
        assert made[p] == len(table)  # one row per class, s not read again


def test_traced_benchmark_hook_counts_tau_at(monkeypatch):
    # perfbench's tracer wraps obstruct.TauProfile.tau_at by that name; a
    # rename would crash only the traced benchmark run, so check it here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from spans import Tracer

    import plumbtau
    from plumbtau import obstruct

    tracer = Tracer(plumbtau)
    tracer.install()
    try:
        value = obstruct.TauProfile(L92, LeafLink((3, 0))).tau_at(class_of(L92, (-3, 0)))
    finally:
        tracer.uninstall()
    assert value == 2
    assert tracer.stats["obstruct.TauProfile.tau_at"].calls == 1
    assert tracer.reads == {(-3, 0)}


def test_slice_bennequin_check():
    sharp = slice_bennequin_check(1, Fraction(1), 1)  # right-trefoil numbers
    assert sharp.verdict == SATISFIED and sharp.slack == 0
    unknot = slice_bennequin_check(-1, Fraction(0), 1)
    assert unknot.verdict == SATISFIED and unknot.slack == 0
    bad = slice_bennequin_check(2, Fraction(0), 1)
    assert bad.verdict == VIOLATED and bad.slack == -3
    rational = slice_bennequin_check(Fraction(-1, 2), Fraction(1, 4), 1)
    assert rational.slack == 0


def test_qhb4_filling_obstruction():
    for d in range(1, 6):
        p = l2d_profile(d)
        contact = class_of(L41, (-2,))
        sl_sharp = d * d - d  # 2 tau - ell at the contact class
        ok = qhb4_filling_obstruction(p, [sl_sharp], contact_class=contact)
        assert ok.verdict == CLEAR and ok.slack == 0
        wrong = qhb4_filling_obstruction(p, [sl_sharp], contact_class=class_of(L41, (2,)))
        assert wrong.verdict == FIRES
        # without a contact class the sharp value keeps one class alive
        open_ok = qhb4_filling_obstruction(p, [sl_sharp])
        assert open_ok.verdict == CLEAR
        assert open_ok.witness["surviving_class"] == [-2]
        fired = qhb4_filling_obstruction(p, [sl_sharp, sl_sharp + 1])
        assert fired.verdict == FIRES and fired.slack == -1
    empty = qhb4_filling_obstruction(l2d_profile(2), [])
    assert empty.verdict == INCONCLUSIVE and empty.slack is None


def test_filling_obstruction_matches_two_branch_oracle():
    # one class is read, the contact one or else the one of greatest (tau, rep),
    # and one bound and one verdict made: the same verdict, witness and slack
    # as the oracle's two branches
    rng = random.Random(property_seed())
    seen = Counter()
    for f in _oracle_forms(rng):
        leaves = [v for v, _ in f.tree.vertices if f.tree.marking(v) == "unmarked_leaf"]
        profile = TauProfile(f, leaf_link(f, {v: rng.randint(0, 4) for v in leaves}))
        classes = spinc_classes(f)
        taus = Counter(profile.num(s) for s in classes)
        seen["tie at the greatest tau"] += taus[max(taus)] > 1
        for contact in [None, *rng.sample(classes, min(len(classes), 3))]:
            for size in (0, 1, rng.randint(2, 5)):
                sl = [Fraction(rng.randint(-16, 8), rng.choice((1, 2))) for _ in range(size)]
                got = qhb4_filling_obstruction(profile, sl, contact)
                want = two_branch_filling_obstruction(profile, sl, contact)
                assert got == want and got.to_json() == want.to_json(), (f.tree, sl, contact)
                assert got.slack == want.slack and type(got.slack) is type(want.slack)
                seen[got.verdict, contact is None] += 1
    # three verdicts with and without a contact class, and the ties
    assert min(seen.values()) >= 5 and len(seen) == 7, seen


def test_metaboliser_candidates_l92():
    cands = metaboliser_candidates(L92)
    assert len(cands) == 1
    cand = cands[0]
    assert cand.order == 3
    assert set(cand.residues) == {(0, 0), (0, 3), (0, 6)}
    assert {h1_residues(L92, e) for e in cand.elements} == set(cand.residues)
    s2 = class_of(L92, (3, 0))
    translated = {spinc_translate(s2, e).rep for e in cand.elements}
    assert translated == {(-3, 0), (-1, 2), (3, 0)}


def test_metaboliser_candidates_l41_and_nonsquare():
    cands = metaboliser_candidates(L41)
    assert len(cands) == 1 and cands[0].order == 2
    assert set(cands[0].residues) == {(0,), (2,)}
    half = IntersectionForm(PlumbingTree.path(-2))  # |H_1| = 2 is not a square
    assert metaboliser_candidates(half) == []
    verdict = metaboliser_obstruction(
        TauProfile(half, LeafLink((0,))), class_of(half, (0,)), []
    )
    assert verdict.verdict == FIRES
    assert verdict.witness == "no metaboliser exists in a group of order 2"
    # H_1 of a singular form is infinite: no order to take a square root of
    singular = IntersectionForm(PlumbingTree.path(-1, -1))
    with pytest.raises(ValueError):
        metaboliser_candidates(singular)


def test_metaboliser_search_matches_closure_oracle():
    d4 = star(-2, -2, -2, -2)
    fixed = [L92, L41, chain(-4, -4), d4, chain(-16), chain(-25), chain(-36)]
    assert metaboliser_candidates(chain(-4, -4)) == []
    assert len(metaboliser_candidates(d4)) == 3
    rng = random.Random(property_seed())
    drawn = {}
    while len(drawn) < 10:
        if rng.random() < 0.5:
            f = chain(*[rng.randint(-6, -1) for _ in range(rng.randint(1, 4))])
        else:
            f = star(*[rng.randint(-6, -1) for _ in range(4)])
        order = abs(det(f.q))
        if f.negative_definite and 4 <= order <= 36 and math.isqrt(order) ** 2 == order:
            drawn[f.q] = f
    for f in fixed + list(drawn.values()):
        assert metaboliser_candidates(f) == closure_metaboliser_candidates(f), f.q


def test_metaboliser_search_on_order_144():
    # (-3)x5 has |H_1| = 144, past what the closure oracle can search
    f = chain(-3, -3, -3, -3, -3)
    [cand] = metaboliser_candidates(f)
    assert cand.order == 12 and len(set(cand.residues)) == 12
    for a, b in itertools.combinations_with_replacement(cand.elements, 2):
        assert linalg.pair(f.qinv, a, b).denominator == 1


def test_metaboliser_search_on_order_256():
    # the (-5; -2 x 8) star: |H_1| = 256 with 2-rank 8 has 135 metabolisers,
    # each reached once along its greedy generators within MAX_SEARCH_STEPS;
    # the generators are checked against a greedy walk by closures
    f = star(-5, *[-2] * 8)
    cands = metaboliser_candidates(f)
    assert len(cands) == 135 and {c.order for c in cands} == {16}
    assert [c.residues for c in cands] == sorted(c.residues for c in cands)
    assert len({frozenset(c.residues) for c in cands}) == 135
    diag, s, _ = _h1_decomposition(f)

    def residue(v):  # h1_residues(f, v) with one Smith form
        return tuple(sum(a * x for a, x in zip(row, v)) % m for row, m in zip(s, diag))

    rng = random.Random(property_seed())
    for cand in cands:
        assert list(cand.residues) == sorted(set(cand.residues))
        assert [residue(e) for e in cand.elements] == list(cand.residues)
        greedy, closed = [], frozenset({cand.residues[0]})
        for r in cand.residues:
            if r not in closed:
                greedy.append(r)
                closed = _close_subgroup(diag, closed | {r})
        assert closed == frozenset(cand.residues)
        assert [residue(g) for g in cand.generators] == greedy
        for a, b in (rng.sample(cand.elements, 2) for _ in range(4)):
            assert linalg.pair(f.qinv, a, b).denominator == 1
            assert linalg.pair(f.qinv, a, a).denominator == 1


def test_metaboliser_obstruction_nk():
    s1 = class_of(L92, (-3, 0))
    s2 = class_of(L92, (3, 0))
    for k in range(1, 13):
        p = nk_profile(k)
        fired = metaboliser_obstruction(p, s2, metaboliser_candidates(L92))
        assert fired.verdict == FIRES and fired.slack < 0
        # the class carrying the curve has maximal tau, so it always survives
        quiet = metaboliser_obstruction(p, s1, metaboliser_candidates(L92))
        assert quiet.verdict == CLEAR and quiet.slack >= 0
    zero = metaboliser_obstruction(nk_profile(0), s2, metaboliser_candidates(L92))
    assert zero.verdict == CLEAR and zero.slack == 0


def test_metaboliser_obstruction_curve_side():
    for d in range(1, 6):
        p = l2d_profile(d)
        quiet = metaboliser_obstruction(p, class_of(L41, (-2,)), metaboliser_candidates(L41))
        assert quiet.verdict == CLEAR
        fired = metaboliser_obstruction(p, class_of(L41, (2,)), metaboliser_candidates(L41))
        assert fired.verdict == FIRES


def test_conjugation_obstruction():
    p = nk_profile(3)  # tau = (2, 1, 0) at the three d = 0 classes
    s0 = class_of(L92, (-1, 2))
    s1 = class_of(L92, (-3, 0))
    fired = conjugation_obstruction(p, s1)
    assert fired.verdict == FIRES and fired.slack == 2
    assert fired.witness["conjugate"] == [3, 0]
    self_conj = conjugation_obstruction(p, s0)
    assert self_conj.verdict == CLEAR and self_conj.slack == 0
    flat = conjugation_obstruction(nk_profile(0), s1)
    assert flat.verdict == CLEAR


def test_pl_genus_lower_bound():
    for d in range(1, 7):
        bound = pl_genus_lower_bound(l2d_profile(d), d_zero_subset(L41))
        assert Fraction(*bound) == Fraction(d, 2)
        assert bound.ceil == (d + 1) // 2
    bound = pl_genus_lower_bound(nk_profile(3), d_zero_subset(L92))
    assert (bound.ceil, Fraction(*bound)) == (1, 1)
    bound = pl_genus_lower_bound(nk_profile(0), d_zero_subset(L92))
    assert (bound.ceil, Fraction(*bound)) == (0, 0)
    with pytest.raises(ValueError):
        pl_genus_lower_bound(nk_profile(1), subset=[])


def test_genus_bounds_check():
    ok = genus_bounds_check(0, 0, 0, 1, 1, unlink=False)
    assert ok.verdict == SATISFIED and ok.slack == 0
    bad = genus_bounds_check(5, 0, 2, 1, 1, unlink=False)
    assert bad.verdict == VIOLATED and bad.slack == -3
    # unlink branch: -g <= tau <= g + ell - |F|
    tight = genus_bounds_check(3, None, 1, 6, 4, unlink=True)
    assert tight.verdict == SATISFIED and tight.slack == 0
    below = genus_bounds_check(-2, None, 1, 6, 4, unlink=True)
    assert below.verdict == VIOLATED and below.slack == -1
    # a genus-g surface from the unknot must absorb the whole tau spread
    for d in range(1, 6):
        p = l2d_profile(d)
        hi = max(p.tau_at(s) for s in spinc_classes(p.form))
        lo = min(p.tau_at(s) for s in d_zero_subset(L41))
        g = (hi - lo + 1) // 2
        assert genus_bounds_check(hi - lo, 0, g, 1, 1, unlink=False).verdict == (
            SATISFIED if g >= hi - lo else VIOLATED
        )


def test_adjunction_bound():
    assert adjunction_bound(Fraction(5, 2), 0, 4, 4, 0, 0) == Fraction(5, 2)
    assert adjunction_bound(Fraction(5, 2), 1, 4, 4, 0, 0) == Fraction(7, 2)
    for d in range(1, 9):
        genus = (d - 1) * (d - 2) // 2
        upper = adjunction_bound(
            0, genus, 3 * d, 2 * d + 1, Fraction(2 * d), Fraction(-2 * d * d)
        )
        assert upper == Fraction(3 * d * (d - 1), 2)
        # window width is twice the filtered degree g + ell - |F|
        lower = upper - 2 * (genus + 3 * d - (2 * d + 1))
        assert lower == Fraction(d * (d - 1), 2)
        value = nk_profile(3 * d).tau_at(class_of(L92, (3, 0)))
        assert lower <= value <= upper


def test_integrality_obstruction():
    for k in range(1, 13):
        v = integrality_obstruction(Quotient(k * k + 3 * k, 9))
        assert v.verdict == (FIRES if k % 3 else CLEAR)
    assert integrality_obstruction(Quotient(0, 1)).verdict == CLEAR
    assert integrality_obstruction(Quotient(4, 9)).verdict == FIRES
    assert integrality_obstruction(Quotient(2, 1)).verdict == CLEAR
    # a quotient not in lowest terms is read by its value and written reduced
    assert integrality_obstruction(Quotient(18, 9)).verdict == CLEAR
    negative = integrality_obstruction(Quotient(-8, 18))
    assert negative.verdict == FIRES and negative.to_json()["witness"] == {"tau": "-4/9"}


def test_quotient_ceil_matches_fraction():
    rng = random.Random(property_seed())
    signs = Counter()
    for _ in range(2000):
        num = rng.randint(-20, 20) * rng.choice((1, rng.randint(1, 10**8)))
        den = rng.randint(1, rng.choice((6, 10**4)))
        assert Quotient(num, den).ceil == math.ceil(Fraction(num, den)), (num, den)
        signs[(num > 0) - (num < 0)] += 1
    assert min(signs[-1], signs[0], signs[1]) >= 10, signs


def test_quotient_compares_and_hashes_by_value():
    # a Quotient is its value, not the pair (num, den) it is written from
    assert Quotient(18, 9) == Quotient(2, 1) and hash(Quotient(18, 9)) == hash(Quotient(2, 1))
    assert not Quotient(18, 9) != Quotient(2, 1)
    rng = random.Random(property_seed())
    equal = 0
    for _ in range(2000):
        num, den = rng.randint(-12, 12), rng.randint(1, 12)
        k = rng.randint(1, 10**6)
        q, scaled = Quotient(num, den), Quotient(k * num, k * den)
        assert q == scaled and not q != scaled and hash(q) == hash(scaled), (num, den, k)
        assert str(q) == str(scaled)
        other = Quotient(rng.randint(-12, 12), rng.randint(1, 12))
        same = Fraction(*q) == Fraction(*other)
        assert (q == other, q != other) == (same, not same), (q, other)
        equal += same
    assert equal >= 10, equal
    assert len({Quotient(k, 3 * k) for k in range(1, 50)} | {Quotient(-1, 3)}) == 2


def test_quotient_orders_by_value_and_equals_no_tuple():
    # <, <=, > and >= compare num/den as Fraction does, not the pair (num, den)
    assert Quotient(2, 4) < Quotient(1, 1)
    assert sorted([Quotient(1, 1), Quotient(2, 4)]) == [Quotient(1, 2), Quotient(1, 1)]
    rng = random.Random(property_seed())
    orders = Counter()
    for _ in range(2000):
        u = Quotient(rng.randint(-30, 30) * rng.choice((1, 10**9)), rng.randint(1, 40))
        v = Quotient(rng.randint(-30, 30) * rng.choice((1, 10**9)), rng.randint(1, 40))
        if rng.random() < 0.2:  # the same value, written over another denominator
            k = rng.randint(1, 7)
            v = Quotient(k * u.num, k * u.den)
        x, y = Fraction(*u), Fraction(*v)
        assert (u < v, u <= v, u > v, u >= v) == (x < y, x <= y, x > y, x >= y), (u, v)
        assert (u == v, u != v) == (x == y, x != y), (u, v)
        orders[(x > y) - (x < y)] += 1
        # the tuple order disagrees with the value order on some pairs
        orders["tuple differs"] += (tuple(u) < tuple(v)) != (x < y)
    assert min(orders[-1], orders[0], orders[1], orders["tuple differs"]) >= 20, orders
    values = [Quotient(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(200)]
    assert [Fraction(*q) for q in sorted(values)] == sorted(Fraction(*q) for q in values)
    # a Quotient is not the plain pair it is written from, from either side
    for pair in ((2, 1), (1, 2), (0, 1)):
        assert Quotient(*pair) != pair and pair != Quotient(*pair)
        assert not Quotient(*pair) == pair and not pair == Quotient(*pair)
        for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b,
                        lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(Quotient(*pair), pair)
            with pytest.raises(TypeError):
                compare(pair, Quotient(*pair))
    assert {Quotient(2, 1), (2, 1)} == {Quotient(4, 2), (2, 1)} and len({Quotient(2, 1), (2, 1)}) == 2


def test_metaboliser_ties_go_to_the_first_candidate():
    # of the candidates with the best margin, the first in the order
    # metaboliser_candidates gives them is the witness
    def star(centre, arms):
        return IntersectionForm(PlumbingTree(
            (("c", centre),) + tuple((f"a{i}", w) for i, w in enumerate(arms)),
            tuple(("c", f"a{i}") for i in range(len(arms))),
        ))

    ties = Counter()
    for f in (star(-2, [-2] * 3), star(-6, [-2] * 4)):
        candidates = metaboliser_candidates(f)
        profile = TauProfile(f, leaf_link(f, {"a0": 1}))
        for s in spinc_classes(f):
            base = profile.num(s)
            margins = [
                min(base - abs(profile.num(spinc_translate(s, a))) for a in cand.elements)
                for cand in candidates
            ]
            first = margins.index(max(margins))
            witness = metaboliser_obstruction(profile, s, candidates).witness
            assert witness["metaboliser"] == [list(g) for g in candidates[first].generators], s.rep
            ties[margins.count(max(margins)) > 1] += 1
    # (-2; -2 x 3) at the class (0, 0, 0, 0): all three candidates tie at margin 0
    f = star(-2, [-2] * 3)
    v = metaboliser_obstruction(TauProfile(f, leaf_link(f, {"a0": 1})), class_of(f, (0, 0, 0, 0)),
                                metaboliser_candidates(f))
    assert v.witness["metaboliser"] == [[0, 0, 0, -1]] and v.verdict == CLEAR
    assert ties[True] >= 5, ties


def test_metaboliser_verdict_reads_each_translate_once(monkeypatch):
    # the 135 candidates of the (-5; -2 x 8) star hold 2,160 elements, 128 of
    # them distinct: each distinct element is translated once
    f = star(-5, *[-2] * 8)
    candidates = metaboliser_candidates(f)
    profile = TauProfile(f, leaf_link(f, {"v1": 1}))
    s = spinc_classes(f)[0]
    want = fraction_metaboliser_obstruction(profile, s, candidates)
    calls = Counter()

    def counted(s, alpha):
        calls[alpha] += 1
        return spinc_translate(s, alpha)

    monkeypatch.setattr(obstruct, "spinc_translate", counted)
    got = metaboliser_obstruction(profile, s, candidates)
    assert sum(len(c.elements) for c in candidates) == 2160
    assert len(calls) == 128 and set(calls.values()) == {1}
    assert calls.keys() == {a for c in candidates for a in c.elements}
    assert got.to_json() == want.to_json() and got.slack == want.slack


def test_concordance_obstruction():
    for d in range(1, 7):
        assert concordance_obstruction(l2d_profile(d), d_zero_subset(L41)).verdict == FIRES
    for d in (1, 2):
        v = concordance_obstruction(nk_profile(3 * d), d_zero_subset(L92))
        # exact spread 2d dominates the adjunction-window estimate 3d - d^2
        assert v.verdict == FIRES and v.slack == 2 * d >= 3 * d - d * d
    assert concordance_obstruction(nk_profile(0), d_zero_subset(L92)).verdict == CLEAR
    single = concordance_obstruction(nk_profile(5), subset=[class_of(L92, (3, 0))])
    assert single.verdict == CLEAR
    assert concordance_obstruction(nk_profile(1), subset=[]).verdict == INCONCLUSIVE


def test_verdict_json():
    p = nk_profile(1)
    verdicts = [
        slice_bennequin_check(1, Fraction(1), 1),
        qhb4_filling_obstruction(p, []),
        metaboliser_obstruction(p, class_of(L92, (3, 0)), metaboliser_candidates(L92)),
        conjugation_obstruction(p, class_of(L92, (-3, 0))),
        integrality_obstruction(Quotient(4, 9)),
        concordance_obstruction(p, d_zero_subset(L92)),
    ]
    for v in verdicts:
        doc = v.to_json()
        assert set(doc) == {"check", "verdict", "witness", "slack"}
        assert doc == json.loads(json.dumps(doc))
    fired = verdicts[3].to_json()
    assert fired["witness"]["tau"] == "4/9"
    assert fired["slack"] == "2/3"


def _oracle_forms(rng):
    """Seeded random definite trees, 40 of them with a square |det Q|, so that
    metabolisers exist, and 120 more."""
    forms = {True: [], False: []}
    while len(forms[True]) < 40 or len(forms[False]) < 120:
        f = IntersectionForm(random_tree(rng, rng.randint(1, 4), -6, -1))
        if f.negative_definite:
            forms[math.isqrt(f.qinv[1]) ** 2 == f.qinv[1]].append(f)
    return forms[True][:40] + forms[False][:120]


def test_integer_checks_match_fraction_oracles():
    # the five checks keep their values as integers over a known denominator;
    # the Fraction bodies they replaced must give the same verdicts and numbers
    rng = random.Random(property_seed())
    seen = Counter()
    for f in _oracle_forms(rng):
        leaves = [v for v, _ in f.tree.vertices if f.tree.marking(v) == "unmarked_leaf"]
        profile = TauProfile(f, leaf_link(f, {v: rng.randint(0, 4) for v in leaves}))
        classes = spinc_classes(f)
        candidates = metaboliser_candidates(f)
        for s in rng.sample(classes, min(len(classes), 6)):
            tau = profile.tau_at(s)
            for got, want in (
                (metaboliser_obstruction(profile, s, candidates),
                 fraction_metaboliser_obstruction(profile, s, candidates)),
                (conjugation_obstruction(profile, s), fraction_conjugation_obstruction(profile, s)),
                (integrality_obstruction(Quotient(profile.num(s), profile.den)),
                 fraction_integrality_obstruction(tau)),
                (integrality_obstruction(Quotient(tau.numerator, tau.denominator)),
                 fraction_integrality_obstruction(tau)),
            ):
                assert got.to_json() == want.to_json(), (f.tree, s)
                assert got.slack == want.slack and type(got.slack) is type(want.slack)
                seen["negative slack"] += got.slack is not None and got.slack < 0
            seen["negative non-integral tau"] += tau < 0 and tau.denominator != 1
        for subset in ([], d_zero_subset(f), classes, rng.sample(classes, rng.randint(1, len(classes)))):
            got, want = concordance_obstruction(profile, subset), fraction_concordance_obstruction(profile, subset)
            assert got.to_json() == want.to_json() and got.slack == want.slack, (f.tree, subset)
            if not subset:
                with pytest.raises(ValueError):
                    pl_genus_lower_bound(profile, subset)
                continue
            bound, want = pl_genus_lower_bound(profile, subset), fraction_pl_genus_lower_bound(profile, subset)
            raw = Fraction(*bound)
            assert (bound.ceil, raw) == tuple(want) and str(bound) == str(want.raw), (f.tree, subset)
            seen["odd raw denominator"] += raw.denominator % 2 == 1 and raw.denominator > 1
    assert min(seen.values()) >= 5, seen


def _smith_inputs(rng):
    """Seeded matrices of at most 5 x 5 with entries in -12..12: the empty one,
    r x 0 shapes, zero matrices, and random ones, some with a row or a column
    repeated (negated or not) or zeroed, which makes them rank-deficient."""
    yield []
    for r in range(1, 6):
        yield [[] for _ in range(r)]
        c = rng.randint(1, 5)
        yield [[0] * c for _ in range(r)]
    for _ in range(400):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        kind = rng.randrange(4)
        if kind == 1 and r > 1:
            i, j = rng.sample(range(r), 2)
            m[j] = [rng.choice((1, -1)) * x for x in m[i]]
        elif kind == 2 and c > 1:
            i, j = rng.sample(range(c), 2)
            for row in m:
                row[j] = row[i]
        elif kind == 3:
            m[rng.randrange(r)] = [0] * c
        yield m


def _smith_forms(rng):
    """Seeded definite trees of at most 9 vertices that ``require_box`` accepts,
    25 with a square |det Q| and 50 without: random trees, and stars whose
    equal leaves give H_1 more than one invariant factor."""
    forms = {True: [], False: []}
    while len(forms[True]) < 25 or len(forms[False]) < 50:
        if rng.random() < 0.5:
            f = IntersectionForm(random_tree(rng, rng.randint(1, 7), -9, -1))
        else:
            f = star(rng.randint(-9, -1), *rng.choices((-2, -3, -4), k=rng.randint(2, 8)))
        try:
            f.require_box()
        except ValueError:
            continue
        forms[math.isqrt(f.qinv[1]) ** 2 == f.qinv[1]].append(f)
    return forms[True][:25] + forms[False][:50]


def test_smith_form_on_one_matrix_matches_three():
    # the elimination on [m | I] over [I | 0] runs the integer operations of
    # the three lock-step matrices in their order, so (s, d, t) is the same;
    # s^-1 read off s·Q·t = D is the inverse of s.  Dense matrices of 6 x 6
    # and more, and trees past MAX_BOX, are left out: the entries of this
    # elimination can grow for minutes there
    rng = random.Random(property_seed())
    seen = Counter()
    for m in _smith_inputs(rng):
        got = linalg.smith_normal_form(m)
        assert got == three_matrix_smith_normal_form(m), m
        short = min(len(m), len(m[0]) if m else 0)
        rank = sum(1 for i in range(short) if got[1][i][i])
        seen["rank-deficient" if rank < short else "full rank"] += 1
    for f in _smith_forms(rng):
        assert linalg.smith_normal_form(f.q) == three_matrix_smith_normal_form(f.q), f.tree
        diag, s, sinv = _h1_decomposition(f)
        assert linalg.inverse(s) == (sinv, 1), f.tree
        seen["non-cyclic H_1"] += sum(x > 1 for x in diag) > 1
    assert min(seen.values()) >= 5, seen


def test_verdict_json_matches_the_recursive_writer():
    # to_json writes each exact value of a dict witness as its string in one
    # pass; the recursive writer it replaced walks every value, and the CLI's
    # writer must write the result as json.dumps writes the oracle's
    rng = random.Random(property_seed())
    seen = Counter()
    for f in _oracle_forms(rng)[::4]:
        leaves = [v for v, _ in f.tree.vertices if f.tree.marking(v) == "unmarked_leaf"]
        profile = TauProfile(f, leaf_link(f, {v: rng.randint(0, 4) for v in leaves}))
        classes = spinc_classes(f)
        candidates = metaboliser_candidates(f)
        sl = [Fraction(rng.randint(-16, 8), rng.choice((1, 2))) for _ in range(rng.randint(1, 3))]
        s = rng.choice(classes)
        verdicts = [
            slice_bennequin_check(sl[0], profile.tau_at(s), profile.ell),
            qhb4_filling_obstruction(profile, sl),
            qhb4_filling_obstruction(profile, sl, s),
            qhb4_filling_obstruction(profile, []),
            metaboliser_obstruction(profile, s, candidates),
            conjugation_obstruction(profile, s),
            integrality_obstruction(Quotient(profile.num(s), profile.den)),
            concordance_obstruction(profile, classes),
            concordance_obstruction(profile, []),
            genus_bounds_check(profile.tau_at(s), sl[0], 2, profile.ell, 1, rng.random() < 0.5),
        ]
        for v in verdicts:
            got, want = v.to_json(), recursive_verdict_json(v)
            assert got == want, (f.tree, v)
            assert cli._json(got, "") == json.dumps(want, indent=2), (f.tree, v)
            shape = sorted(v.witness) if isinstance(v.witness, dict) else type(v.witness).__name__
            seen[v.check, str(shape)] += 1
    # both filling witnesses and its refusal, and the metaboliser with and
    # without candidates
    assert seen["qhb4_filling", str(["bound", "class", "sl"])] >= 5, seen
    assert seen["qhb4_filling", str(["sl", "surviving_class"])] >= 5, seen
    assert seen["metaboliser", str(["class", "metaboliser", "subgroup_order"])] >= 5, seen
    assert seen["metaboliser", "str"] >= 5 and seen["concordance", "str"] >= 5, seen
    assert len(seen) == 11, seen

import inspect
import random
from fractions import Fraction

import time
from collections import Counter

import pytest

from conftest import (
    bordered_matrix,
    bordered_self_intersection,
    det,
    property_seed,
    random_presentation,
)
from plumbtau import linalg
from plumbtau.paper import l2d_presentation, m3d_presentation
from plumbtau.surgery import (
    BraidDatum,
    CurveDatum,
    SurgeryComponent,
    SurgeryPresentation,
    bennequin_euler,
    chern_evaluation,
    linking_matrix,
    self_intersection,
    self_linking_braid,
    self_linking_shift,
    tau_from_curve,
    tau_qp_braid,
)


def test_linking_matrices():
    assert linking_matrix(l2d_presentation(1, 2)) == [[-4]]
    assert linking_matrix(m3d_presentation(1, 3)) == [[-5, 1], [1, -2]]
    empty = SurgeryPresentation(components=(), linking=(), link_vectors=())
    assert linking_matrix(empty) == []
    assert det(linking_matrix(empty)) == 1
    # lists are taken as tuples: the presentation is hashable and equals a tupled one
    listed = SurgeryPresentation([SurgeryComponent("surgery", -3, 2)], [[0]], [[1], [1]])
    assert listed == l2d_presentation(1, 2) and self_intersection(listed) == -1


def test_component_validation():
    with pytest.raises(ValueError):
        SurgeryComponent(kind="rational", tb=-2)
    with pytest.raises(ValueError):
        SurgeryComponent(kind="handle", rot=1)
    with pytest.raises(linalg.SingularMatrixError):
        SurgeryPresentation(
            components=(SurgeryComponent(kind="surgery", tb=1),),
            linking=((0,),),
            link_vectors=(),
        )


def test_bordered_matrix():
    p = m3d_presentation(1, 3)
    assert bordered_matrix(p, 0) == [[0, 1, 0], [1, -5, 1], [0, 1, -2]]


def test_self_intersection_tables():
    for d in range(1, 11):
        assert self_intersection(l2d_presentation(d, 2)) == -d * d
        assert self_intersection(m3d_presentation(d, 3)) == -2 * d * d
    # 2,000 link components: one pairing of the total vector, against the oracle
    many = l2d_presentation(1000, 2)
    assert self_intersection(many) == bordered_self_intersection(many) == -(1000**2)
    none = SurgeryPresentation(
        components=(SurgeryComponent(kind="surgery", tb=-3),),
        linking=((0,),),
        link_vectors=(),
    )
    assert self_intersection(none) == 0


def test_chern_evaluation_tables():
    for d in range(1, 11):
        assert chern_evaluation(l2d_presentation(d, rot=2)) == d
        assert chern_evaluation(l2d_presentation(d, rot=-2)) == -d
        assert chern_evaluation(m3d_presentation(d, rot=3)) == 2 * d
        assert chern_evaluation(m3d_presentation(d, rot=-3)) == -2 * d
    flat = l2d_presentation(3, rot=0)
    assert chern_evaluation(flat) == 0


def test_self_intersection_cross_check_random():
    rng = random.Random(101)
    for _ in range(100):
        p = random_presentation(rng)
        assert self_intersection(p) == bordered_self_intersection(p)


def test_surgery_terms_take_one_inverse_and_one_pairing(monkeypatch):
    # the presentation inverts Q once, when it checks singularity, and each
    # term then takes one pairing; every public linalg route is counted, so
    # a determinant taken on the way would show
    calls = Counter()
    for name, fn in vars(linalg).items():
        if inspect.isfunction(fn) and not name.startswith("_"):
            def counted(*args, _name=name, _f=fn):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(linalg, name, counted)
    p = SurgeryPresentation(
        components=(
            SurgeryComponent(kind="surgery", tb=-2, rot=1),
            SurgeryComponent(kind="handle"),
            SurgeryComponent(kind="surgery", tb=0, rot=-1),
        ),
        linking=((0, 1, 2), (1, 0, 1), (2, 1, 0)),
        link_vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, -1, 3)),
    )
    assert calls == {"inverse": 1}
    for name, term in (
        ("self_intersection", self_intersection),
        ("chern_evaluation", chern_evaluation),
        ("self_linking_shift", lambda p: self_linking_shift(3, p)),
    ):
        calls.clear()
        term(p)
        assert calls == {"pair": 1}, name


def test_presentation_keeps_its_own_inverse(monkeypatch):
    # Q^-1 is taken once, when a presentation is built, and kept on it: a
    # presentation built in between does not make the first invert again
    a = l2d_presentation(2, 2)
    b = m3d_presentation(1, 3)
    assert a != b
    calls = Counter()

    def counted(m, _f=linalg.inverse):
        calls["inverse"] += 1
        return _f(m)

    monkeypatch.setattr(linalg, "inverse", counted)
    assert self_intersection(a) == -4 and chern_evaluation(a) == 2
    assert self_linking_shift(0, a) == 2
    assert calls["inverse"] == 0
    assert a.qinv == ([[-1]], 4) and b.qinv == ([[-2, -1], [-1, -5]], 9)
    with pytest.raises(AttributeError):
        a.qinv = b.qinv
    with pytest.raises(AttributeError):
        del a.qinv
    assert a.qinv == ([[-1]], 4)


def test_self_intersection_long_chain():
    # (-2) chain of 120 surgeries, one meridian per component: -Q is the A_120
    # Cartan matrix, whose inverse has entry sum n(n+1)(n+2)/12
    t = 120
    p = SurgeryPresentation(
        components=tuple(SurgeryComponent(kind="surgery", tb=-1) for _ in range(t)),
        linking=tuple(tuple(int(abs(i - j) == 1) for j in range(t)) for i in range(t)),
        link_vectors=tuple(tuple(int(i == k) for i in range(t)) for k in range(t)),
    )
    start = time.perf_counter()
    assert self_intersection(p) == -t * (t + 1) * (t + 2) // 12
    # one 120 x 120 inverse; the bordered route takes 120 determinants of 121 x 121
    assert time.perf_counter() - start < 2.0


def test_chern_negation_symmetry():
    rng = random.Random(55)
    for _ in range(40):
        p = random_presentation(rng)
        flipped = SurgeryPresentation(
            components=tuple(
                SurgeryComponent(kind=c.kind, tb=c.tb, rot=-c.rot) for c in p.components
            ),
            linking=p.linking,
            link_vectors=p.link_vectors,
        )
        assert chern_evaluation(flipped) == -chern_evaluation(p)
        assert self_intersection(flipped) == self_intersection(p)


def test_self_linking_braid():
    assert self_linking_braid(BraidDatum(1, 0, 1)) == -1
    assert self_linking_braid(BraidDatum(2, 3, 1)) == 1
    for d in range(2, 7):
        assert self_linking_braid(BraidDatum(d, d * (d - 1), d)) == d * d - 2 * d


def test_self_linking_shift():
    empty = SurgeryPresentation(components=(), linking=(), link_vectors=())
    assert self_linking_shift(5, empty) == 5
    for d in range(1, 6):
        p = l2d_presentation(d, rot=2)
        sl_t0 = 7  # arbitrary transverse representative upstairs
        assert self_linking_shift(sl_t0, p) == sl_t0 - d + d * d


def test_self_linking_shift_is_the_two_terms():
    # sl(T0) - c1[C] - [C]^2, with -c1[C] - [C]^2 = <rot - S, Q^-1 S> in one pairing
    rng = random.Random(61)
    for _ in range(300):
        p = random_presentation(rng, max_components=6)
        sl_t0 = rng.randint(-20, 20)
        want = Fraction(sl_t0) - chern_evaluation(p) - self_intersection(p)
        assert repr(self_linking_shift(sl_t0, p)) == repr(want), p


def test_tau_qp_braid():
    assert tau_qp_braid(BraidDatum(1, 0, 1)) == 0
    assert tau_qp_braid(BraidDatum(2, 3, 1)) == 1
    for d in range(2, 7):
        assert tau_qp_braid(BraidDatum(d, d * (d - 1), d)) == Fraction(d * (d - 1), 2)
    # a closure's writhe has the parity of strands - components, so its tau is
    # an int; only a braid that no closure has gets a half-integer Fraction
    rng = random.Random(property_seed())
    closures = halves = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        b = BraidDatum(n, rng.randint(-6, 20), rng.randint(1, n))
        tau = tau_qp_braid(b)
        want = Fraction(b.writhe - b.strands + b.components, 2)
        assert tau == want and str(tau) == str(want), b
        if want.denominator == 2:
            assert type(tau) is Fraction and tau.denominator == 2, b
            with pytest.raises(ValueError):
                b.require_quasi_positive()
            halves += 1
        else:
            assert type(tau) is int, b
            if b.writhe >= b.strands - b.components:
                b.require_quasi_positive()
                closures += 1
    assert closures > 50 and halves > 50, (closures, halves)


def test_tau_qp_equals_sl_identity():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 9)
        b = BraidDatum(n, rng.randint(-6, 12), rng.randint(1, n))
        assert tau_qp_braid(b) == Fraction(self_linking_braid(b) + b.components, 2)


def test_braid_refuses_what_no_quasi_positive_closure_has():
    # the record builds any braid, so surgery --what sl and tau-curve read it;
    # only tau-qp asks it for a quasi-positive closure
    BraidDatum(2, 3, 1).require_quasi_positive()
    refused = [
        # a closure's writhe has the parity of strands - components
        ((2, 2, 1), "writhe 2 and strands - components = 1 differ in parity,"
         " which no braid closure has"),
        # a quasi-positive one's is at least that
        ((5, 0, 1), "writhe 0 is below strands - components = 4,"
         " which no quasi-positive closure has"),
        # below the floor and of the wrong parity: the parity is named first
        ((5, 1, 1), "writhe 1 and strands - components = 4 differ in parity,"
         " which no braid closure has"),
    ]
    for args, message in refused:
        b = BraidDatum(*args)
        with pytest.raises(ValueError) as caught:
            b.require_quasi_positive()
        assert str(caught.value) == message, args


def test_tau_from_curve():
    disk = CurveDatum(chi=1, chern=Fraction(0), self_int=Fraction(0), boundary=1)
    assert tau_from_curve(disk) == 0
    for d in range(1, 8):
        # connected genus-(d-1)(d-2)/2 curve in a rational ball, where the
        # Chern and self-intersection terms vanish
        g = (d - 1) * (d - 2) // 2
        ball = CurveDatum(
            chi=2 - 2 * g - 2 * d,
            chern=Fraction(0),
            self_int=Fraction(0),
            boundary=2 * d,
        )
        assert tau_from_curve(ball) == Fraction(d * (d + 1), 2)
        # same link as 2d meridional disks in the disk bundle: the two Stein
        # structures rot = -2 / rot = +2 give the two tau values
        for rot, expect in ((-2, d * (d + 1) // 2), (2, d * (d - 1) // 2)):
            p = l2d_presentation(d, rot=rot)
            disks = CurveDatum(
                chi=2 * d,
                chern=chern_evaluation(p),
                self_int=self_intersection(p),
                boundary=2 * d,
            )
            assert tau_from_curve(disks) == expect
    with pytest.raises(ValueError):
        CurveDatum(chi=3, chern=Fraction(0), self_int=Fraction(0), boundary=2)


def test_bennequin_euler_and_curve_identity():
    assert bennequin_euler(2, 3) == -1
    assert bennequin_euler(5, 0) == 5
    for d in range(2, 7):
        assert bennequin_euler(d, d * (d - 1)) == d - d * (d - 1)
    rng = random.Random(91)
    for _ in range(50):
        n = rng.randint(1, 8)
        bands = rng.randint(0, 12)
        # a surface built from n disks and `bands` bands has at least
        # n - bands boundary components, so ell below stays realizable
        ell = rng.randint(max(1, n - bands), n)
        b = BraidDatum(n, bands, ell)
        curve = CurveDatum(
            chi=bennequin_euler(n, bands),
            chern=Fraction(0),
            self_int=Fraction(0),
            boundary=ell,
        )
        assert tau_from_curve(curve) == tau_qp_braid(b)

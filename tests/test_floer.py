"""Homology decompositions, theta classes and tau of filtered complexes."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import (
    Tower,
    _apply_basis_change,
    d2_listing,
    dualize,
    entry_slice,
    format_complex,
    hat_complex,
    hat_view,
    homology_minus,
    image_classes,
    is_theta_star_supported,
    is_theta_supported,
    mirror,
    property_seed,
    random_complex,
    scan_decompose,
    sweep_cycle_space,
    sweep_tau_alpha,
    sweep_tau_theta,
    tensor,
    torus_staircase,
)

from plumbtau import floer, surgery
from plumbtau.cli import main
from plumbtau.floer import (
    MAX_LISTED_FAILURES,
    AlexanderFiltration,
    FloerComplex,
    correction_term,
    parse_complex,
    tau_alpha,
    tau_bot,
    tau_top,
    verify_axioms,
)


def staircase():
    # complex of the right-handed trefoil: d = 0, tau = 1
    c = FloerComplex(
        gradings={"a": 0, "b": -1, "c": -2},
        entries={("b", "a"): 1, ("b", "c"): 0},
    )
    return c, AlexanderFiltration({"a": 1, "b": 0, "c": -1})


def two_point_model():
    # two basepoints on an unknot: two free generators one grading apart
    c = FloerComplex(
        gradings={"e0": 0, "e1": -1},
        entries={},
        basepoints=2,
    )
    return c, AlexanderFiltration({"e0": 0, "e1": 0})


def truncated_dims(c, depth=10):
    """Homology of C/U^(depth+1) by plain F2 row reduction, per grading."""
    index = {}
    for g in c.generators:
        for k in range(depth + 1):
            index[(g, k)] = len(index)

    def gr(key):
        g, k = key
        return c.gradings[g] - 2 * k

    images = {}
    for g, k in index:
        v = 0
        for (x, y), m in c.entries.items():
            if x == g and k + m <= depth:
                v ^= 1 << index[(y, k + m)]
        images[(g, k)] = v

    def rank(vectors):
        pivots = {}
        r = 0
        for v in vectors:
            while v:
                h = v.bit_length() - 1
                if h in pivots:
                    v ^= pivots[h]
                else:
                    pivots[h] = v
                    r += 1
                    break
        return r

    grades = sorted({gr(key) for key in index})
    rank_from = {
        g0: rank([images[key] for key in index if gr(key) == g0]) for g0 in grades
    }
    dims = {}
    for g0 in grades:
        n = sum(1 for key in index if gr(key) == g0)
        dim = n - rank_from[g0] - rank_from.get(g0 + 1, 0)
        if dim:
            dims[g0] = dim
    return dims


def predicted_dims(decomposition, depth=10):
    """Truncated homology dimensions implied by towers and torsion."""
    dims = {}

    def bump(g):
        dims[g] = dims.get(g, 0) + 1

    for tower in decomposition.towers:
        for k in range(depth + 1):
            bump(tower.grading - 2 * k)
    for g, a in decomposition.torsion:
        for k in range(a):
            bump(g - 2 * k)
        src = g - 2 * a + 1
        for k in range(depth + 1 - a, depth + 1):
            bump(src - 2 * k)
    return dims


def test_complex_validation():
    with pytest.raises(ValueError):
        FloerComplex({"x": 0}, {("x", "y"): 0})
    with pytest.raises(ValueError):
        FloerComplex({"x": 0, "y": 1}, {("y", "x"): -1})
    with pytest.raises(ValueError):
        FloerComplex({"x": 0}, {}, basepoints=0)
    with pytest.raises(ValueError):
        FloerComplex({"bad name": 0}, {})


def test_records_keep_their_fields_and_stay_frozen():
    c, filt = staircase()
    dec = homology_minus(c)
    records = [
        (c, ("gradings", "entries", "basepoints")),
        (filt, ("levels",)),
        (dec.towers[0], ("grading", "chain")),
        (dec, ("towers", "torsion")),
    ]
    for record, fields in records:
        assert record._fields == fields
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert c == FloerComplex(gradings=c.gradings, entries=c.entries)
    # verify's answer is its failures, a plain tuple: empty on a valid complex
    assert c.basepoints == 1 and dec.rank == 1 and verify_axioms(c) == ()


def test_verify_axioms():
    single = FloerComplex({"x": 3}, {})
    assert verify_axioms(single) == ()
    c, _ = staircase()
    assert verify_axioms(c) == ()

    # two basepoints need 2^1 towers, written as a power when the exponent
    # reaches the bit length of the generator count (1 for one generator)
    # and as a number below it (2 for three)
    lone = FloerComplex({"x": 0}, {}, basepoints=2)
    assert verify_axioms(lone) == ("rank: homology has 1 towers, expected 2^1",)
    two = FloerComplex({"x": 0, "y": 0, "z": 0}, {}, basepoints=2)
    assert verify_axioms(two) == ("rank: homology has 3 towers, expected 2",)

    # acyclic pair: rank 0 instead of 1
    acyclic = FloerComplex({"x": 0, "y": 1}, {("y", "x"): 0})
    failures = verify_axioms(acyclic)
    assert failures
    assert any("rank" in f for f in failures)

    # broken grading: U-power does not match the grading gap
    skew = FloerComplex({"x": 5, "y": 0}, {("y", "x"): 0})
    failures = verify_axioms(skew)
    assert failures
    assert any("grading" in f for f in failures)

    # d^2 != 0 along a length-two chain
    chain = FloerComplex(
        {"a": 2, "b": 1, "c": 0},
        {("a", "b"): 0, ("b", "c"): 0},
    )
    failures = verify_axioms(chain)
    assert failures
    assert any("d_squared" in f for f in failures)


def _star(sources: int, targets: int) -> FloerComplex:
    """a_i -> b -> c_j: every d(d(a_i)) has a surviving c_j term, sources x targets in all."""
    a, cs = [f"a{i}" for i in range(sources)], [f"c{j}" for j in range(targets)]
    return FloerComplex(
        {**dict.fromkeys(a, 2), "b": 1, **dict.fromkeys(cs, 0)},
        {**{(x, "b"): 0 for x in a}, **{("b", z): 0 for z in cs}},
    )


def test_first_failure_stops_the_check():
    # d^2 has 10^6 surviving terms, and the check reports the first one
    # without building the others
    star = _star(1000, 1000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^d_squared: d\(d\(a0\)\) has a surviving c0 term$"):
        correction_term(star)
    assert time.perf_counter() - start < 0.5


def test_verify_lists_at_most_the_cap():
    assert MAX_LISTED_FAILURES == 100
    exact = verify_axioms(_star(10, 10))
    assert len(exact) == 100 and exact[-1] == "d_squared: d(d(a9)) has a surviving c9 term"
    over = verify_axioms(_star(101, 1))
    assert over[:100] == tuple(
        f"d_squared: d(d(a{i})) has a surviving c0 term" for i in sorted(map(str, range(101)))[:100]
    )
    assert over[100:] == ("... and 1 more failures",)
    # 2,000 entries, 10^6 failures: 100 listed and one count
    failures = verify_axioms(_star(1000, 1000))
    assert len(failures) == 101
    assert failures[-1] == "... and 999900 more failures"


def test_each_answer_builds_the_rows_once(monkeypatch):
    # a refused answer lists its failures from the rows it has already built
    rows = floer._rows
    built = []

    def counted(c):
        built.append(c)
        return rows(c)

    monkeypatch.setattr(floer, "_rows", counted)
    valid, filt = staircase()
    ungraded = FloerComplex(valid.gradings, {**valid.entries, ("a", "c"): 0})
    star = _star(3, 2)
    flat = AlexanderFiltration(dict.fromkeys(star.gradings, 0))
    answers = {
        "verify": lambda c, f, alpha: verify_axioms(c),
        "d": lambda c, f, alpha: correction_term(c),
        "tau-top": lambda c, f, alpha: tau_top(c, f),
        "tau-bot": lambda c, f, alpha: tau_bot(c, f),
        "tau-alpha": tau_alpha,
    }
    want = {"verify": (), "d": 0, "tau-top": 1, "tau-bot": 1, "tau-alpha": 1}
    for name, answer in answers.items():
        built.clear()
        assert answer(valid, filt, ["a"]) == want[name]
        assert built == [valid], name
        for c, f, alpha, first in [
            (ungraded, filt, ["a"], "grading: entry a -> c pow 0 has gr -2 - 2*0 != gr 0 - 1"),
            (star, flat, ["a0"], "d_squared: d(d(a0)) has a surviving c0 term"),
        ]:
            built.clear()
            if name == "verify":
                assert answer(c, f, alpha)[0] == first
            else:
                with pytest.raises(ValueError) as refused:
                    answer(c, f, alpha)
                assert str(refused.value) == first
            assert built == [c], name


def test_homology_minus():
    single = FloerComplex({"z": 4}, {})
    dec = homology_minus(single)
    assert dec.rank == 1 and dec.towers[0].grading == 4 and not dec.torsion

    c, _ = staircase()
    dec = homology_minus(c)
    assert dec.rank == 1 and dec.towers[0].grading == 0
    assert dec.torsion == ()

    # one tower plus one U-torsion class
    mixed = FloerComplex(
        {"z": 0, "x": 1, "y": 0},
        {("y", "x"): 1},
    )
    dec = homology_minus(mixed)
    assert [t.grading for t in dec.towers] == [0]
    assert dec.torsion == ((1, 1),)

    # without the extra tower the same pair is pure torsion, rank 0
    pair = FloerComplex({"x": 1, "y": 0}, {("y", "x"): 1})
    dec = homology_minus(pair)
    assert dec.rank == 0 and dec.torsion == ((1, 1),)
    assert verify_axioms(pair)


def test_correction_term():
    assert correction_term(FloerComplex({"z": 7}, {})) == 7
    c, _ = staircase()
    assert correction_term(c) == 0
    shifted = FloerComplex(
        {g: v + 2 for g, v in c.gradings.items()},
        dict(c.entries),
    )
    assert correction_term(shifted) == 2
    with pytest.raises(ValueError):
        correction_term(FloerComplex({"x": 0, "y": 1}, {("y", "x"): 0}))


def test_hat_complex_and_image_classes():
    c, _ = staircase()
    hat = hat_complex(c)
    assert hat.entries == {("b", "c"): 0}

    top, bot, basis = image_classes(c)
    assert top == frozenset({"a"}) and bot == frozenset({"a"})
    assert basis == (frozenset({"a"}),)

    single = FloerComplex({"z": 4}, {})
    top, bot, _ = image_classes(single)
    assert top == bot == frozenset({"z"})

    u, _ = two_point_model()
    top, bot, basis = image_classes(u)
    assert top == frozenset({"e0"}) and bot == frozenset({"e1"})
    assert len(basis) == 2


def test_theta_supported():
    c, _ = staircase()
    assert is_theta_supported(c, ["a"])
    assert not is_theta_supported(c, ["c"])  # cycle in the wrong grading
    assert not is_theta_supported(c, [])
    with pytest.raises(ValueError):
        is_theta_supported(c, ["b"])  # not a cycle
    with pytest.raises(ValueError):
        is_theta_supported(c, ["a", "c"])  # not homogeneous
    with pytest.raises(ValueError):
        is_theta_supported(c, ["nope"])

    u, _ = two_point_model()
    assert is_theta_supported(u, ["e0"])
    assert not is_theta_supported(u, ["e1"])
    assert is_theta_star_supported(u, ["e1"])
    assert not is_theta_star_supported(u, ["e0"])


def test_tau_values():
    single = FloerComplex({"z": 0}, {})
    assert tau_top(single, AlexanderFiltration({"z": -3})) == -3

    c, filt = staircase()
    assert tau_top(c, filt) == 1
    assert tau_bot(c, filt) == 1
    assert tau_alpha(c, filt, ["a"]) == 1

    u, ufilt = two_point_model()
    assert tau_top(u, ufilt) == 0
    assert tau_bot(u, ufilt) == 0

    with pytest.raises(ValueError):
        tau_alpha(c, filt, ["c"])  # boundary, hence the zero class
    with pytest.raises(ValueError):
        tau_alpha(c, filt, [])
    # a name off the basis is a ValueError, not a KeyError, and the least
    # such name is the one named
    for chain, named in ((["zz"], "zz"), (["a", "zz"], "zz"), (["zz", "a", "yy"], "yy")):
        with pytest.raises(ValueError, match=f"^unknown generator {named!r}$"):
            tau_alpha(c, filt, chain)

    # one tower and two basepoints: a top class at d, none at d - 1 for the bottom
    lone = FloerComplex({"z": 0}, {}, basepoints=2)
    for tau in (tau_top, tau_bot):
        with pytest.raises(ValueError, match="^tower gradings do not single out top and bottom"):
            tau(lone, AlexanderFiltration({"z": 0}))


def test_tau_alpha_builds_no_d_squared_mask(monkeypatch):
    # the elimination is tau_alpha's d^2 = 0 check, as it is every other answer's
    def refuse(*_):
        raise AssertionError("a d^2 mask was built")

    monkeypatch.setattr(floer, "_d2_masks", refuse)
    c, filt = staircase()
    assert tau_alpha(c, filt, ["a"]) == 1
    u, ufilt = two_point_model()
    assert tau_alpha(u, ufilt, ["e0"]) == 0


def test_tau_alpha_refuses_a_broken_complex_as_the_elimination_does():
    # one entry breaks the grading law; in the other, d(d(a)) = c survives
    ungraded = FloerComplex({"a": 0, "b": 0}, {("a", "b"): 0})
    unsquared = FloerComplex(
        {"a": 2, "b": 1, "c": 0}, {("a", "b"): 0, ("b", "c"): 0}
    )
    for c in (ungraded, unsquared):
        with pytest.raises(ValueError) as eliminated:
            floer._eliminate(c, floer._rows(c))
        with pytest.raises(ValueError) as answered:
            tau_alpha(c, AlexanderFiltration(dict.fromkeys(c.generators, 0)), ["a"])
        assert str(answered.value) == str(eliminated.value)


def test_tau_respects_class_bound_on_bigger_hat_homology():
    # a second class lives in the top grading here, so the top tau is a
    # minimum over both supported classes
    c = FloerComplex(
        {"t": 0, "x": -1, "y": 0},
        {("x", "y"): 1},
    )
    for a_t, a_y in [(5, 0), (0, 5), (2, 2), (-1, 3)]:
        filt = AlexanderFiltration({"t": a_t, "y": a_y, "x": a_y - 1})
        tt = tau_top(c, filt)
        assert tt <= tau_alpha(c, filt, ["t"])
        assert tt <= tau_alpha(c, filt, ["t", "y"])
        assert tt == min(
            tau_alpha(c, filt, ["t"]), tau_alpha(c, filt, ["t", "y"])
        )


def test_dualize():
    single = FloerComplex({"z": 4}, {})
    dual, dfilt = dualize(single, AlexanderFiltration({"z": 2}))
    assert dual.gradings == {"z": -4} and dfilt.levels == {"z": -2}

    c, filt = staircase()
    dual, dfilt = dualize(c, filt)
    assert dual.entries == {("a", "b"): 1, ("c", "b"): 0}
    assert verify_axioms(dual) == ()
    assert correction_term(dual) == 0
    assert tau_bot(dual, dfilt) == -1
    again, afilt = dualize(dual, dfilt)
    assert again == c and afilt.levels == filt.levels


def test_text_format():
    c, filt = staircase()
    lines = format_complex(c, filt)
    c2, filt2 = parse_complex(lines)
    assert c2 == c and filt2.levels == filt.levels
    c3, _ = parse_complex(["x 0 0", "y 1 0", "y -> x"])
    assert c3.entries == {("y", "x"): 0}
    # "#" starts a comment that runs to the end of its line
    c4, filt4 = parse_complex(["# the pair", "x 0 0  # bottom", "", "y 1 2", "y -> x # d"])
    assert c4 == c3 and filt4.levels == {"x": 0, "y": 2}
    for bad in ["x", "x zero 0", "x -> y pow two", "x -> y pow 1 extra"]:
        with pytest.raises(ValueError):
            parse_complex(["x 0 0", "y 1 0", bad])
    with pytest.raises(ValueError):
        parse_complex(["x 0 0", "x 1 0"])
    with pytest.raises(ValueError, match="^duplicate entry y -> x$"):
        parse_complex(["x 0 0", "y 1 0", "y -> x pow 0", "y -> x pow 0"])


# torus knots T(p, q) and their generator counts: the smaller ones make the sums
TORUS_KNOTS = {(2, 3): 3, (2, 5): 5, (3, 4): 5, (2, 7): 7, (3, 5): 7, (4, 5): 7}
LARGER_TORUS_KNOTS = {(2, 9): 9, (3, 7): 9, (5, 6): 9, (4, 7): 11, (5, 7): 17, (7, 9): 31}


def test_torus_knot_staircases_and_their_sums(tmp_path, capsys):
    # an L-space knot's staircase, read off its Alexander polynomial, has
    # d = 0 and tau = g = (p - 1)(q - 1)/2, the tau of the closure of the
    # p-braid (s_1 ... s_p-1)^q (Ozsvath-Szabo 2003); a connected sum is the
    # tensor product, a mirror the dual, and tau is additive
    c, filt = torus_staircase(2, 3)
    trefoil, levels = staircase()
    assert (list(c.gradings.values()), list(filt.levels.values())) == (
        list(trefoil.gradings.values()), list(levels.levels.values()))
    for (p, q), n in {**TORUS_KNOTS, **LARGER_TORUS_KNOTS}.items():
        c, filt = torus_staircase(p, q)
        filt.check(c)
        g = (p - 1) * (q - 1) // 2
        assert len(c.generators) == n and verify_axioms(c) == () and correction_term(c) == 0
        assert tau_top(c, filt) == tau_bot(c, filt) == g
        assert surgery.tau_qp_braid(surgery.BraidDatum(p, (p - 1) * q, 1)) == g
    rng = random.Random(property_seed())
    signs = set()
    for i in range(60):
        summands = [(rng.choice(list(TORUS_KNOTS)), rng.choice((1, -1))) for _ in range(rng.randint(2, 3))]
        knot = None
        for (p, q), sign in summands:
            k = torus_staircase(p, q) if sign > 0 else mirror(torus_staircase(p, q))
            knot = k if knot is None else tensor(knot, k)
        c, filt = knot
        tau = sum(sign * (p - 1) * (q - 1) // 2 for (p, q), sign in summands)
        signs.add((tau > 0) - (tau < 0))
        assert tau_top(c, filt) == tau_bot(c, filt) == tau, summands
        assert correction_term(c) == 0, summands
        if i < 4:  # and through the CLI
            path = tmp_path / "sum.json"
            path.write_text(json.dumps({"floer_complex": format_complex(c, filt)}), encoding="utf-8")
            assert main(["floer", "--what", "tau-top", "--input", str(path)]) == 0
            assert json.loads(capsys.readouterr().out) == {"command": "floer", "what": "tau-top", "value": str(tau)}
    assert signs == {-1, 0, 1}, signs


def test_random_corpus_properties():
    rng = random.Random(property_seed())
    for _ in range(200):
        c, filt = random_complex(rng)
        assert verify_axioms(c) == ()
        filt.check(c)
        dec = homology_minus(c)
        assert dec.rank == 2 ** (c.basepoints - 1)

        d = correction_term(c)
        top, bot, basis = image_classes(c)
        assert is_theta_supported(c, top)
        assert is_theta_star_supported(c, bot)
        assert len(basis) == dec.rank

        if len(c.generators) <= 5:
            assert truncated_dims(c) == predicted_dims(dec)

        tt = tau_top(c, filt)
        tb = tau_bot(c, filt)
        assert tt <= tau_alpha(c, filt, top)
        assert tb <= tau_alpha(c, filt, bot)

        dual, dfilt = dualize(c, filt)
        assert correction_term(dual) == -(d - c.basepoints + 1)
        assert tau_top(dual, dfilt) == -tb
        assert tau_bot(dual, dfilt) == -tt
        again, afilt = dualize(dual, dfilt)
        assert again == c and afilt.levels == filt.levels

        shift = rng.choice([-2, 2, 4])
        shifted = FloerComplex(
            {g: v + shift for g, v in c.gradings.items()},
            dict(c.entries),
            c.basepoints,
        )
        assert correction_term(shifted) == d + shift
        assert tau_top(shifted, filt) == tt
        assert tau_bot(shifted, filt) == tb


def test_indexed_elimination_matches_scan_oracle():
    rng = random.Random(property_seed())
    sizes = []
    for _ in range(150):
        c, _ = random_complex(rng, max_generators=60, max_basepoints=3, max_changes=400)
        assert floer._eliminate(c, floer._rows(c)) == hat_view(c, scan_decompose(c))
        sizes.append((len(c.generators), len(c.entries)))
    # far past the default draws, which stop at six generators
    assert max(n for n, _ in sizes) > 30
    assert sum(1 for _, e in sizes if e >= 100) >= 20
    # dense two-level complexes a_i -> b_j, each arrow with probability 1/2,
    # plus one tower: every pivot updates many rows, and rows fill in
    for _ in range(6):
        n = rng.randint(30, 40)
        a, b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(n)]
        gens = [*a, *b, "t"]
        rng.shuffle(gens)
        gr = {**dict.fromkeys(a, 1), **dict.fromkeys(b, 0), "t": rng.choice([0, 1])}
        c = FloerComplex(
            {g: gr[g] for g in gens},
            {(x, y): 0 for x in a for y in b if rng.random() < 0.5},
        )
        assert len(c.entries) > n * n / 3
        assert floer._eliminate(c, floer._rows(c)) == hat_view(c, scan_decompose(c))
    # the edges of the pivot key m n^2 + rank(x) n + y: one generator and no
    # entries, so n = 1 and nothing is pushed
    lone = FloerComplex({"z": 3}, {})
    assert floer._eliminate(lone, floer._rows(lone)) == ([(3, 1)], [])
    assert hat_view(lone, scan_decompose(lone)) == ([(3, 1)], [])
    # and U-power 0 throughout, so rank(x) alone orders the pivots, with
    # names numbered from 2 in grading order: g2..g9 take the low gradings
    # and g10.. the high ones, which sort first by name, so the rank of a
    # row and its index disagree
    disagree = 0
    for _ in range(60):
        gr: dict[str, int] = {}
        entries: dict[tuple[str, str], int] = {}
        for j in range(rng.randint(4, 12)):
            gr[f"x{j}"] = rng.randint(1, 3)
            gr[f"y{j}"] = gr[f"x{j}"] - 1
            entries[(f"x{j}", f"y{j}")] = 0
        for j in range(rng.randint(2, 4)):
            gr[f"t{j}"] = rng.randint(0, 3)
        # graded changes e <- e + f within one grading keep every exponent 0
        for _ in range(rng.randint(20, 120)):
            e, f = rng.sample(sorted(gr), 2)
            if gr[e] == gr[f]:
                _apply_basis_change(entries, e, f, 0)
        order = sorted(gr, key=lambda g: (gr[g], rng.random()))
        name = {g: f"g{i + 2}" for i, g in enumerate(order)}
        c = FloerComplex(
            {name[g]: gr[g] for g in rng.sample(order, len(order))},
            {(name[x], name[y]): m for (x, y), m in entries.items()},
        )
        assert set(c.entries.values()) <= {0}
        sources = sorted({x for x, _ in c.entries})
        disagree += sources != sorted(sources, key=lambda g: (c.gradings[g], g))
        assert floer._eliminate(c, floer._rows(c)) == hat_view(c, scan_decompose(c))
    assert disagree >= 40


def test_a_pivot_that_takes_a_row_s_least_entry_offers_the_next():
    # The square v -> a, v -> b, a -> y, b -> y, plus a tower t.  The first
    # pivot a -> y takes a out of v's row, where v -> a was the least entry;
    # v -> b must then be offered, or v and b stay as two false towers.
    c = FloerComplex(
        {"t": 0, "v": 2, "a": 1, "b": 1, "y": 0},
        {("v", "a"): 0, ("v", "b"): 0, ("a", "y"): 0, ("b", "y"): 0},
    )
    got = floer._eliminate(c, floer._rows(c))
    assert got == ([(0, 0b00001)], []) == hat_view(c, scan_decompose(c))
    assert verify_axioms(c) == () and correction_term(c) == 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error is part of the answer
        return type(exc), str(exc)


def test_answers_do_not_follow_the_order_of_gradings():
    # the keys of ``gradings`` give the generators' order; reversed or
    # shuffled, they change no answer
    rng = random.Random(property_seed())
    for draw in range(300):
        c, filt = random_complex(
            rng,
            max_generators=rng.randint(4, 30),
            max_basepoints=3,
            max_changes=rng.randint(0, 60),
            distinguished_pairs=rng.randint(0, 4),
        )
        names = list(c.gradings)
        shuffled = rng.sample(names, len(names))
        answers = [
            (verify_axioms(c), correction_term(c), _outcome(tau_top, c, filt),
             _outcome(tau_bot, c, filt))
        ]
        for order in (names[::-1], shuffled):
            other = FloerComplex({g: c.gradings[g] for g in order}, c.entries, c.basepoints)
            assert other.generators == tuple(order) and other == c
            answers.append(
                (verify_axioms(other), correction_term(other), _outcome(tau_top, other, filt),
                 _outcome(tau_bot, other, filt))
            )
        assert answers[0] == answers[1] == answers[2], draw
        assert answers[0][0] == () and isinstance(answers[0][2], int)


def test_single_pass_tau_matches_per_level_oracle():
    rng = random.Random(property_seed())
    outcomes = []
    top_sizes = []
    for draw in range(1300):
        # the last 300 draws put extra generators into the distinguished gradings
        c, filt = random_complex(
            rng,
            max_generators=rng.randint(4, 30),
            max_basepoints=3,
            max_changes=rng.randint(0, 60),
            distinguished_pairs=0 if draw < 1000 else rng.randint(2, 8),
        )
        if draw >= 1000:
            top_sizes.append(len(floer._HatSlice(floer._rows(c), correction_term(c)).gens))
        if rng.random() < 0.1:
            # a random filtration, often incompatible with the differential
            filt = AlexanderFiltration({g: rng.randint(-3, 3) for g in c.generators})
        for bottom, fn in ((False, tau_top), (True, tau_bot)):
            assert _outcome(fn, c, filt) == _outcome(sweep_tau_theta, c, filt, bottom)
        for grading in sorted(set(c.gradings.values())):
            slice_ = floer._HatSlice(floer._rows(c), grading)
            cycles = sweep_cycle_space(slice_, slice_.gens)
            alphas = [rng.sample(slice_.gens, rng.randint(1, len(slice_.gens)))]
            for _ in range(3 if cycles else 0):
                v = 0
                while not v:
                    for cycle in cycles:
                        v ^= cycle * rng.randint(0, 1)
                alphas.append([g for g in slice_.gens if v >> slice_.bit[g] & 1])
            for alpha in alphas:
                got = _outcome(tau_alpha, c, filt, alpha)
                assert got == _outcome(sweep_tau_alpha, c, filt, alpha)
                outcomes.append(got)
    # every branch is reached: values, non-cycles, zero classes, bad filtrations
    assert sum(isinstance(o, int) for o in outcomes) > 1000
    errors = {o[1] for o in outcomes if isinstance(o, tuple)}
    assert "alpha is not a cycle of the hat complex" in errors
    assert "alpha must be a nonzero class" in errors
    assert any("raises the filtration level" in e for e in errors)
    # most of those draws sweep a top slice of three generators or more
    assert sum(n >= 3 for n in top_sizes) >= 0.75 * len(top_sizes)


def test_row_slice_matches_the_entry_walk():
    # the hat slice is cut from the rows by grading alone; the entry walk
    # picks the U^0 entries of the three gradings, and the two agree by name
    rng = random.Random(property_seed())
    nonempty = 0
    for draw in range(300):
        c, _ = random_complex(
            rng,
            max_generators=rng.randint(4, 30),
            max_basepoints=3,
            max_changes=rng.randint(0, 60),
            distinguished_pairs=rng.randint(0, 4),
        )
        rows = floer._rows(c)
        names = rows[1]

        def named(mask: int) -> frozenset:
            return frozenset(names[i] for i in floer._bits(mask))

        grs = set(c.gradings.values())
        # one grading past each end as well, where the slice is empty
        for grading in range(min(grs) - 1, max(grs) + 2):
            slice_ = floer._HatSlice(rows, grading)
            gens, images, boundaries = entry_slice(c, grading)
            assert list(slice_.gens) == gens, draw
            assert all(names[slice_.bit[g]] == g for g in gens)
            assert {g: named(v) for g, v in slice_.images.items()} == images, draw
            assert [named(v) for v in slice_.boundaries] == boundaries, draw
            nonempty += bool(boundaries) and any(images.values())
    # about 200 slices on each seed tried have both images and boundaries
    assert nonempty >= 150


def test_equal_power_pivots_pop_in_name_order():
    # x -> a and x -> b tie at U^1.  The pivot (1, x, a) comes first and
    # folds b into a's row, so b carries the tower; taking (1, x, b)
    # first, or the entries in insertion order, would leave a instead.
    c = FloerComplex(
        {"x": 0, "b": 1, "a": 1},
        {("x", "b"): 1, ("x", "a"): 1},
    )
    dec = homology_minus(c)
    assert dec.towers == (Tower(1, (("b", 0),)),)
    assert dec.torsion == ((1, 1),)
    # the kernel keeps b's hat reduction: bit 2, as the rows run x, a, b
    assert floer._eliminate(c, floer._rows(c)) == ([(1, 0b100)], [(1, 1)])
    assert floer._eliminate(c, floer._rows(c)) == hat_view(c, scan_decompose(c))


def test_floer_answers_do_not_follow_the_hash_seed(tmp_path):
    # set and dict iteration over generator names follows PYTHONHASHSEED;
    # no answer, and no pivot order, may depend on it
    rng = random.Random(property_seed())
    paths = []
    while len(paths) < 8:
        c, filt = random_complex(rng, max_generators=60, max_basepoints=3, max_changes=400)
        if len(c.entries) >= 100:
            path = tmp_path / f"complex{len(paths)}.json"
            doc = {"floer_complex": format_complex(c, filt), "basepoints": c.basepoints}
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
    # each answer, then the kernel's towers and torsion, which the answers
    # read only in part
    code = (
        "import json, sys; from plumbtau import floer; from plumbtau.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    for what in ('verify', 'd', 'tau-top', 'tau-bot'):\n"
        "        print(main(['floer', '--what', what, '--input', path]))\n"
        "    with open(path, encoding='utf-8') as f:\n"
        "        doc = json.load(f)\n"
        "    c, _ = floer.parse_complex(doc['floer_complex'], doc['basepoints'])\n"
        "    print(floer._eliminate(c, floer._rows(c)))"
    )
    outputs = set()
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(floer.__file__).parents[1]),
            "PYTHONHASHSEED": seed,
        }
        proc = subprocess.run(
            [sys.executable, "-c", code, *paths],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    # every question answers: exit 0 after each of the 32 outputs
    assert out.count('"command": "floer"') == 32
    assert out.splitlines().count("0") == 32


def _toggle_graded_entries(rng, c: FloerComplex, count: int) -> FloerComplex:
    """``c`` with ``count`` random entries x -> y toggled, each at the U-power
    the gradings pin, so the grading law still holds and d^2 may fail."""
    entries = dict(c.entries)
    for _ in range(count):
        x = rng.choice(c.generators)
        # the grading law allows y exactly when gr y = gr x - 1 + 2m, m >= 0
        targets = [
            y for y in c.generators
            if c.gradings[y] >= c.gradings[x] - 1 and (c.gradings[x] - c.gradings[y]) % 2
        ]
        if targets:
            y = rng.choice(targets)
            if entries.pop((x, y), None) is None:
                entries[(x, y)] = (c.gradings[y] - c.gradings[x] + 1) // 2
    return FloerComplex(c.gradings, entries, c.basepoints)


def _check_elimination_against_listing(c: FloerComplex) -> bool:
    """Whether ``c`` fails d^2 = 0, after checking that the elimination
    raises exactly then, naming the first failure the path-parity oracle
    lists, and that ``verify_axioms`` lists and counts what the oracle does."""
    listed = d2_listing(c)
    try:
        floer._eliminate(c, floer._rows(c))
    except ValueError as exc:
        assert listed and str(exc) == listed[0]
        count, listing = floer._failures(c, floer._rows(c))
        assert count == len(listed) and list(listing) == listed
        want = listed[:MAX_LISTED_FAILURES]
        if len(listed) > MAX_LISTED_FAILURES:
            want.append(f"... and {len(listed) - MAX_LISTED_FAILURES} more failures")
        assert verify_axioms(c) == tuple(want)
        return True
    assert not listed
    assert not any(f.startswith("d_squared") for f in verify_axioms(c))
    return False


def test_elimination_is_the_d_squared_check():
    # no d^2 row is built before the elimination: it raises exactly when
    # some row has a survivor
    rng = random.Random(property_seed())
    failing = 0
    for draw in range(1500):
        c, _ = random_complex(
            rng,
            max_generators=12 if draw < 1200 else 60,
            max_basepoints=3,
            max_changes=rng.randint(0, 40),
        )
        failing += _check_elimination_against_listing(
            _toggle_graded_entries(rng, c, rng.randint(1, 3))
        )
    # both outcomes are common
    assert 200 <= failing <= 1300
    # the star a_i -> b -> c_j has 144 failures: 100 listed, 44 counted
    sources, targets = [f"a{i}" for i in range(12)], [f"c{j}" for j in range(12)]
    star = FloerComplex(
        {**dict.fromkeys(sources, 2), "b": 1, **dict.fromkeys(targets, 0)},
        {**{(x, "b"): 0 for x in sources}, **{("b", z): 0 for z in targets}},
    )
    assert _check_elimination_against_listing(star)
    assert verify_axioms(star)[-1] == "... and 44 more failures"

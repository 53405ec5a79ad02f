import argparse
import ast
import atexit
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import plumbtau
from conftest import count_fractions, property_seed, random_tree
from plumbtau import cli, cli_help, floer, obstruct, paper, plumbing
from plumbtau.cli import main

L92_PLUMBING = {
    "vertices": [["v1", -5], ["v2", -2]],
    "edges": [["v1", "v2"]],
}
L41_PLUMBING = {"vertices": [["v1", -4]]}


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_tau_table(tmp_path, capsys):
    path = write_doc(tmp_path, {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}})
    rc, out, _ = run_cli(capsys, "tau", "--input", path, "--spinc", "d0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ell"] == 3
    assert [row["tau"] for row in doc["classes"]] == ["2", "1", "0"]
    assert [row["rep"] for row in doc["classes"]] == [[-3, 0], [-1, 2], [3, 0]]


def test_tau_subset_precedence(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, "subset": [[3, 0]]},
    )
    rc, out, _ = run_cli(capsys, "tau", "--input", path)
    assert rc == 0
    doc = json.loads(out)
    assert [row["tau"] for row in doc["classes"]] == ["-2/9"]
    # the command-line selector overrides the document subset
    rc, out, _ = run_cli(capsys, "tau", "--input", path, "--spinc=-3,0")
    assert json.loads(out)["classes"] == [{"rep": [-3, 0], "tau": "4/9"}]


def test_tau_prints_one_row_per_selected_class(tmp_path, capsys):
    # a subset that names a class twice gets its row twice
    path = write_doc(
        tmp_path,
        {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, "subset": [[-3, 0], [-3, 0]]},
    )
    rc, out, _ = run_cli(capsys, "tau", "--input", path)
    assert rc == 0
    assert json.loads(out)["classes"] == [{"rep": [-3, 0], "tau": "4/9"}] * 2


def test_tau_table_builds_no_fraction(tmp_path, capsys, monkeypatch):
    # a tau row is an integer over 2|det Q|, written with one gcd: CLI tau
    # builds no Fraction, and writes what str of TauProfile.tau_at writes
    from plumbtau import tau
    from plumbtau.plumbing import IntersectionForm, spinc_classes

    made = count_fractions(monkeypatch)
    rng = random.Random(property_seed())
    tables = 0
    while tables < 30:
        tree = random_tree(rng, rng.randint(1, 5), -6, -1)
        f = IntersectionForm(tree)
        if not f.negative_definite:
            continue
        tables += 1
        leaves = [v for v, _ in tree.vertices if tree.marking(v) == "unmarked_leaf"]
        strands = {v: rng.randint(0, 4) for v in leaves}
        doc = {
            "plumbing": {"vertices": [list(v) for v in tree.vertices], "edges": [list(e) for e in tree.edges]},
            "leaf_link": strands,
        }
        rc, out, err = run_cli(capsys, "tau", "--input", write_doc(tmp_path, doc))
        assert rc == 0 and made == [], (tree, err)
        classes = sorted(spinc_classes(f), key=lambda s: s.rep)
        profile = tau.TauProfile(f, tau.leaf_link(f, strands))
        assert json.loads(out)["classes"] == [{"rep": list(s.rep), "tau": str(profile.tau_at(s))} for s in classes]
        assert len(made) == len(classes)  # the library's tau_at makes one per class
        made.clear()


def test_dinv_tables(tmp_path, capsys):
    s3 = write_doc(tmp_path, {"plumbing": {"vertices": [["v1", -1]]}})
    rc, out, _ = run_cli(capsys, "dinv", "--input", s3)
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 1
    assert doc["classes"] == [{"rep": [1], "d": "0"}]
    path = write_doc(tmp_path, {"plumbing": L41_PLUMBING})
    _, out, _ = run_cli(capsys, "dinv", "--input", path)
    doc = json.loads(out)
    assert [row["d"] for row in doc["classes"]] == ["0", "1/4", "0", "-3/4"]


def test_spinc_conjugation(tmp_path, capsys):
    path = write_doc(tmp_path, {"plumbing": L92_PLUMBING})
    rc, out, _ = run_cli(capsys, "spinc", "--input", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 9 and len(doc["classes"]) == 9
    pairing = {tuple(r["rep"]): tuple(r["conjugate"]) for r in doc["classes"]}
    assert pairing[(-3, 0)] == (3, 0)
    assert pairing[(-1, 2)] == (-1, 2)
    # conjugation is an involution on the class list
    assert all(pairing[pairing[rep]] == rep for rep in pairing)


def surgery_doc(d, rot=3, braid=None):
    node = {
        "components": [
            {"kind": "surgery", "tb": -4, "rot": rot},
            {"kind": "surgery", "tb": -1, "rot": 0},
        ],
        "linking": [[0, 1], [1, 0]],
        "link_components": [[1, 0] for _ in range(3 * d)],
    }
    if braid is not None:
        node["braid"] = braid
    return {"surgery": node}


def test_surgery_quantities(tmp_path, capsys):
    path = write_doc(tmp_path, surgery_doc(2))
    rc, out, _ = run_cli(capsys, "surgery", "--input", path, "--what", "self-int")
    assert rc == 0 and json.loads(out)["value"] == "-8"
    _, out, _ = run_cli(capsys, "surgery", "--input", path, "--what", "chern")
    assert json.loads(out)["value"] == "4"
    # six components need six strands: a closure has at most one per strand
    braid = {"strands": 6, "writhe": 8, "components": 6}
    path = write_doc(tmp_path, surgery_doc(2, braid=braid))
    _, out, _ = run_cli(capsys, "surgery", "--input", path, "--what", "sl")
    assert json.loads(out)["value"] == "6"  # (8 - 6) - 4 + 8
    _, out, _ = run_cli(capsys, "surgery", "--input", path, "--what", "tau-curve")
    # chi = -2, boundary = 6, so tau = -(-2 - 6 + 4 - 8)/2
    assert json.loads(out)["value"] == "6"


def test_tau_qp(capsys):
    rc, out, _ = run_cli(
        capsys, "tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"
    )
    assert rc == 0 and json.loads(out)["tau"] == "1"
    rc, _, err = run_cli(
        capsys, "tau-qp", "--strands", "0", "--writhe", "3", "--components", "1"
    )
    assert rc == 3 and "braid" in err
    # an n-strand closure has at most n components
    rc, out, err = run_cli(
        capsys, "tau-qp", "--strands", "1", "--writhe", "0", "--components", "5"
    )
    assert rc == 3 and out == "" and "braid" in err
    # a closure's writhe has the parity of strands - components, and a
    # quasi-positive one's is at least that
    for strands, writhe in (("2", "2"), ("5", "0")):
        rc, out, err = run_cli(
            capsys, "tau-qp", "--strands", strands, "--writhe", writhe, "--components", "1"
        )
        assert rc == 3 and out == "" and err.startswith("plumbtau: braid: "), err


STAIRCASE = ["a 0 1", "b -1 0", "c -2 -1", "b -> a pow 1", "b -> c"]


def test_floer_commands(tmp_path, capsys, monkeypatch):
    # the elimination is the d^2 check: a valid complex builds no d^2 row
    def no_rows(names, out):
        raise AssertionError("d^2 masks built for a valid complex")

    monkeypatch.setattr(floer, "_d2_masks", no_rows)
    path = write_doc(tmp_path, {"floer_complex": STAIRCASE})
    rc, out, _ = run_cli(capsys, "floer", "--input", path, "--what", "verify")
    assert rc == 0 and json.loads(out) == {
        "command": "floer",
        "what": "verify",
        "ok": True,
        "failures": [],
    }
    for what, value in (("d", "0"), ("tau-top", "1"), ("tau-bot", "1")):
        rc, out, _ = run_cli(capsys, "floer", "--input", path, "--what", what)
        assert rc == 0 and json.loads(out)["value"] == value
    monkeypatch.undo()
    acyclic = write_doc(tmp_path, {"floer_complex": ["x 0 0", "y 1 0", "y -> x"]})
    rc, out, _ = run_cli(capsys, "floer", "--input", acyclic, "--what", "verify")
    doc = json.loads(out)
    assert rc == 0 and not doc["ok"] and doc["failures"]
    rc, _, err = run_cli(capsys, "floer", "--input", acyclic, "--what", "d")
    assert rc == 3 and "floer_complex" in err
    # d^2 != 0: every answer names the first failure verify lists
    square = write_doc(
        tmp_path, {"floer_complex": ["a 2 0", "b 1 0", "c 0 0", "a -> b", "b -> c"]}
    )
    failure = "d_squared: d(d(a)) has a surviving c term"
    for what in ("d", "tau-top", "tau-bot"):
        rc, out, err = run_cli(capsys, "floer", "--input", square, "--what", what)
        assert (rc, out, err) == (3, "", f"plumbtau: floer_complex: {failure}\n")
    rc, out, _ = run_cli(capsys, "floer", "--input", square, "--what", "verify")
    assert rc == 0 and json.loads(out)["failures"][0] == failure
    # the expected rank 2^(basepoints - 1) is compared without being built
    for basepoints, want in ((2, "2"), (10**8, "2^99999999"), (10**11, "2^99999999999")):
        path = write_doc(tmp_path, {"floer_complex": STAIRCASE, "basepoints": basepoints})
        start = time.perf_counter()
        rc, out, _ = run_cli(capsys, "floer", "--input", path, "--what", "verify")
        assert rc == 0 and time.perf_counter() - start < 1.0
        doc = json.loads(out)
        assert not doc["ok"] and doc["failures"] == [f"rank: homology has 1 towers, expected {want}"]


def test_floer_verify_counts_what_it_does_not_list(tmp_path, capsys):
    # the star a_i -> b -> c_j of 2,000 entries has 10^6 d^2 failures: the
    # first 100 are listed and the other 999,900 only counted
    sources, targets = [f"a{i}" for i in range(1000)], [f"c{j}" for j in range(1000)]
    lines = (
        [f"{x} 2 0" for x in sources] + ["b 1 0"] + [f"{z} 0 0" for z in targets]
        + [f"{x} -> b" for x in sources] + [f"b -> {z}" for z in targets]
    )
    path = write_doc(tmp_path, {"floer_complex": lines})
    listed = [f"d_squared: d(d(a0)) has a surviving {z} term" for z in sorted(targets)[:100]]
    outputs = {}
    for fmt, sha1 in (
        ("json", "1db15855e23510695c21ff274e9eeead377cfe1f"),
        ("table", "ed75d0a2bae6d36e73ac1e9043b6062f1add56d8"),
    ):
        rc, outputs[fmt], err = run_cli(
            capsys, "floer", "--input", path, "--what", "verify", "--format", fmt
        )
        assert rc == 0 and err == ""
        assert hashlib.sha1(outputs[fmt].encode()).hexdigest() == sha1, fmt
    assert json.loads(outputs["json"]) == {
        "command": "floer",
        "what": "verify",
        "ok": False,
        "failures": listed + ["... and 999900 more failures"],
    }


def test_floer_work_limit(tmp_path, capsys, monkeypatch):
    # 1,000 + 1,000 + 1 generators and 31 arrows a_i -> b_j per source make
    # n^2 + 16 e = 2,001^2 + 16 * 31,000 = 4,500,001, one step past the limit
    assert floer.MAX_WORK == 4_500_000
    lines = [f"a{i} 1 0" for i in range(1000)] + [f"b{j} 0 0" for j in range(1000)]
    lines += ["t 0 0"] + [f"a{i} -> b{(i + k) % 1000}" for i in range(1000) for k in range(31)]

    def never(*args):
        raise AssertionError("eliminated or listed d^2 past the work limit")

    monkeypatch.setattr(floer, "_eliminate", never)
    monkeypatch.setattr(floer, "_d2_masks", never)
    path = write_doc(tmp_path, {"floer_complex": lines})
    refusal = (
        "2001 generators and 31000 entries make n^2 + 16 e = 4500001, above the limit of 4500000"
    )
    for what in ("verify", "d", "tau-top", "tau-bot"):
        rc, out, err = run_cli(capsys, "floer", "--input", path, "--what", what)
        assert (rc, out, err) == (3, "", f"plumbtau: floer_complex: {refusal}\n"), what
    past, filt = floer.parse_complex(lines)
    with pytest.raises(ValueError) as info:
        floer.tau_alpha(past, filt, ["a0"])
    assert str(info.value) == refusal
    # without t and with 250 more arrows, 2,000^2 + 16 * 31,250 is exactly
    # the limit, which passes
    at = [line for line in lines if line != "t 0 0"]
    at += [f"a{i} -> b{(i + 31) % 1000}" for i in range(250)]
    floer._require_size(floer.parse_complex(at)[0])


@pytest.mark.parametrize("what", ["tau-top", "tau-bot"])
def test_tau_of_a_complex_without_a_free_part_exits_3(tmp_path, capsys, what):
    # an acyclic complex has no tower, so no class to read tau from
    path = write_doc(tmp_path, {"floer_complex": ["a 0 0", "b 1 0", "b -> a"]})
    rc, out, err = run_cli(capsys, "floer", "--input", path, "--what", what)
    assert (rc, out, err) == (3, "", "plumbtau: floer_complex: homology has no free part\n")


def test_obstruct_commands(tmp_path, capsys):
    nk = write_doc(
        tmp_path,
        {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[3, 0]]},
    )
    rc, out, _ = run_cli(capsys, "obstruct", "--input", nk, "--check", "metaboliser")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "fires" and doc["witness"]["metaboliser"]
    rc, out, _ = run_cli(capsys, "obstruct", "--input", nk, "--check", "integrality")
    assert json.loads(out)["verdict"] == "fires"

    m3 = write_doc(
        tmp_path,
        {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}, "subset": [[-3, 0]]},
    )
    rc, out, _ = run_cli(capsys, "obstruct", "--input", m3, "--check", "conjugation")
    assert json.loads(out)["verdict"] == "fires"
    rc, out, _ = run_cli(capsys, "obstruct", "--input", m3, "--check", "integrality")
    assert json.loads(out)["verdict"] == "does not fire"

    l2d = write_doc(tmp_path, {"plumbing": L41_PLUMBING, "leaf_link": {"v1": 4}})
    rc, out, _ = run_cli(capsys, "obstruct", "--input", l2d, "--check", "pl-genus")
    assert json.loads(out) == {
        "command": "obstruct",
        "check": "pl_genus",
        "genus": 1,
        "raw": "1",
    }
    rc, out, _ = run_cli(capsys, "obstruct", "--input", l2d, "--check", "concordance")
    assert json.loads(out)["verdict"] == "fires"


def test_metaboliser_witness_keeps_its_integers(tmp_path, capsys):
    # the witness's class, generators and subgroup order are JSON integers, not strings
    path = write_doc(tmp_path, {"plumbing": L41_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[-2]]})
    rc, out, err = run_cli(capsys, "obstruct", "--input", path, "--check", "metaboliser")
    assert (rc, err) == (0, "")
    assert json.loads(out)["witness"] == {"class": [-2], "metaboliser": [[-2]], "subgroup_order": 2}
    assert '\n    "subgroup_order": 2\n' in out


def test_explicit_markings_reach_the_link(tmp_path, capsys):
    # plumbing.markings: an explicit unmarked leaf carries strands as a default
    # one does, and a leaf marked otherwise refuses them
    doc = {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}}
    rc, want, err = run_cli(capsys, "tau", "--input", write_doc(tmp_path, doc))
    assert (rc, err) == (0, "")
    for markings in ({"v1": "unmarked_leaf"}, {"v1": "unmarked_leaf", "v2": "marked"}):
        marked = {**doc, "plumbing": {**L92_PLUMBING, "markings": markings}}
        assert run_cli(capsys, "tau", "--input", write_doc(tmp_path, marked)) == (0, want, "")
    for kind in ("marked", "internal"):
        marked = {**doc, "plumbing": {**L92_PLUMBING, "markings": {"v1": kind}}}
        assert run_cli(capsys, "tau", "--input", write_doc(tmp_path, marked)) == (
            2, "", "plumbtau: leaf_link: vertex 'v1' is not an unmarked leaf\n")


def test_obstruct_slice_bennequin(tmp_path, capsys):
    doc = {
        "plumbing": L41_PLUMBING,
        "leaf_link": {"v1": 2},
        "subset": [[-2]],
        "surgery": {"braid": {"strands": 2, "writhe": 2, "components": 2}},
    }
    path = write_doc(tmp_path, doc)
    rc, out, _ = run_cli(capsys, "obstruct", "--input", path, "--check", "slice-bennequin")
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "satisfied" and verdict["slack"] == "0"


def test_paper_examples(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "paper-examples")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] and set(doc["examples"]) == {"l2d", "m3d", "nk", "m3", "eq72"}
    rc, out, _ = run_cli(capsys, "paper-examples", "m3", "--format", "table")
    assert rc == 0
    assert [line.split()[-1] for line in out.splitlines()[-3:]] == ["2", "1", "0"]


def test_paper_examples_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(paper, "committed_fixture", lambda name: {"tampered": True})
    rc, _, err = run_cli(capsys, "paper-examples", "m3")
    assert rc == 4 and "m3" in err


TAU, DINV, SELF_INT = ["tau"], ["dinv"], ["surgery", "--what", "self-int"]
SL, FLOER_D = ["surgery", "--what", "sl"], ["floer", "--what", "d"]
SLICE = ["obstruct", "--check", "slice-bennequin"]
SLICE_DOC = {"plumbing": L41_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[-2]]}
BRAID = {"strands": 2, "writhe": 2, "components": 2}
REQUIRED = "field is required for this command"
VERTICES = "plumbing.vertices: must be a list of [id, weight] pairs"
TB_ROT = "surgery.components: tb and rot must be integers"
NEEDS_BRAID = "surgery.braid: field is required for this computation"
SELECT = "must be 'all', 'd0', or a non-empty list of integer representatives"
WIDE = {  # the (-40)x4 chain, whose short-vector box is over the limit
    "vertices": [[f"v{i}", -40] for i in range(1, 5)],
    "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"]],
}
BOX = "plumbing: the short-vector box holds 2560000 vectors, above the limit of 100000"
INDEFINITE = {"vertices": [["v1", 5]]}
DEFINITE = "plumbing: intersection form is not negative definite"


def tau_doc(**fields):
    return {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, **fields}


def vertex(**fields):
    return {"plumbing": {"vertices": [["v1", -2]], **fields}}


def surgery(**fields):
    return {"surgery": {**surgery_doc(1)["surgery"], **fields}}


def component(**fields):
    return surgery(components=[{"kind": "surgery", "tb": -2, **fields}])


# (command line, document, exit code, stderr line after "plumbtau: ", or None for none)
SCHEMA_CASES = [
    (DINV, [1], 2, "input: document must be a JSON object"),
    (TAU, tau_doc(extra=1), 2, "input: unknown field 'extra'"),
    (TAU, {"leaf_link": {"v1": 1}}, 2, f"plumbing: {REQUIRED}"),
    (DINV, {"plumbing": None}, 2, f"plumbing: {REQUIRED}"),
    (DINV, {"plumbing": [1]}, 2, "plumbing: must be an object with vertices and edges"),
    (DINV, {"plumbing": {}}, 2, VERTICES),
    (DINV, vertex(vertices=[["v1", True]]), 2, VERTICES),
    (DINV, vertex(edges=[["v1"]]), 2, "plumbing.edges: must be a list of [id, id] pairs"),
    (DINV, vertex(markings=[]), 2, "plumbing.markings: must map vertex ids to marking names"),
    (DINV, vertex(weights=[-2]), 2, "plumbing: unknown field 'weights'"),
    (DINV, vertex(edges=[["v1", "v2"]]), 2, "plumbing: bad edge (v1,v2)"),
    (TAU, {"plumbing": L92_PLUMBING}, 2, f"leaf_link: {REQUIRED}"),
    (TAU, tau_doc(leaf_link={"v1": "3"}), 2, "leaf_link: must map vertex ids to strand counts"),
    (TAU, tau_doc(leaf_link={"v9": 1}), 2, "leaf_link: unknown vertex 'v9'"),
    (SELF_INT, {}, 2, f"surgery: {REQUIRED}"),
    (SELF_INT, {"surgery": [1]}, 2, "surgery: must be an object"),
    (SLICE, {**SLICE_DOC, "surgery": [1]}, 2, "surgery: must be an object"),
    (SELF_INT, surgery(framing=[-5]), 2, "surgery: unknown field 'framing'"),
    (SELF_INT, surgery(components=[1]), 2, "surgery.components: must be a list of objects"),
    (SELF_INT, component(name="K"), 2, "surgery.components: unknown field 'name'"),
    (SELF_INT, surgery(components=[{}]), 2, "surgery.components: each component needs a kind"),
    (SELF_INT, component(tb="-2"), 2, TB_ROT),
    (SELF_INT, component(rot=True), 2, TB_ROT),
    (SELF_INT, component(kind="rational"), 2, "surgery.components: unknown component kind "
     "'rational'; only integral (-1)-surgeries and 1-handles are supported"),
    (SELF_INT, surgery(linking=[["0"]]), 2, "surgery.linking: must be a matrix of integers"),
    (SELF_INT, surgery(link_components=[1]), 2,
     "surgery.link_components: must be a list of integer vectors"),
    (SELF_INT, surgery(linking=[[0, 1]]), 2, "surgery: linking matrix must be t x t"),
    (SELF_INT, surgery(components=[{"kind": "handle"}], linking=[[0]], link_components=[]), 3,
     "surgery.linking: surgery matrix is singular"),
    (SELF_INT, surgery(braid=0), 0, None),  # self-int reads no braid
    (SL, surgery(), 2, NEEDS_BRAID),
    (SLICE, SLICE_DOC, 2, NEEDS_BRAID),
    (SLICE, {**SLICE_DOC, "surgery": None}, 2, NEEDS_BRAID),
    (SL, surgery(braid={}), 2, "surgery.braid: needs exactly strands, writhe and components"),
    (SL, surgery(braid={**BRAID, "writhe": 2.0}), 2,
     "surgery.braid: strands, writhe and components are integers"),
    (SL, surgery(braid={**BRAID, "strands": 0}), 3,
     "surgery.braid: braids need at least one strand and one component"),
    (SL, surgery(braid={**BRAID, "components": 3}), 3,
     "surgery.braid: a braid closure has at most one component per strand"),
    # slice-bennequin reads the whole surgery object, as surgery --what sl does
    (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID, "linking": 0}}, 2,
     "surgery.linking: must be a matrix of integers"),
    (SL, {"surgery": {"braid": BRAID, "linking": 0}}, 2,
     "surgery.linking: must be a matrix of integers"),
    (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID, "extra": 1}}, 2,
     "surgery: unknown field 'extra'"),
    (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID}}, 0, None),
    (FLOER_D, {}, 2, f"floer_complex: {REQUIRED}"),
    (FLOER_D, {"floer_complex": "a 0 1"}, 2, "floer_complex: must be a list of strings"),
    (FLOER_D, {"floer_complex": ["a 0"]}, 2, "floer_complex: bad generator line 'a 0'"),
    (FLOER_D, {"floer_complex": STAIRCASE, "basepoints": "2"}, 2,
     "basepoints: must be an integer >= 1"),
    (FLOER_D, {"floer_complex": STAIRCASE, "basepoints": 0}, 2, "basepoints: must be an integer >= 1"),
    (TAU, tau_doc(subset="x"), 2, "subset: bad class representative 'x'"),
    (TAU, tau_doc(subset=[[3, "0"]]), 2, f"subset: {SELECT}"),
    (TAU + ["--spinc", "[]"], tau_doc(), 2, f"spinc: {SELECT}"),
    # an empty item between commas, or a leading one, is an error; one trailing comma is not
    (TAU + ["--spinc", "1,,2"], tau_doc(), 2, "spinc: bad class representative '1,,2'"),
    (TAU + ["--spinc", ",-3,0"], tau_doc(), 2, "spinc: bad class representative ',-3,0'"),
    (TAU + ["--spinc=-3,0,,"], tau_doc(), 2, "spinc: bad class representative '-3,0,,'"),
    (TAU, tau_doc(subset="1,,2"), 2, "subset: bad class representative '1,,2'"),
    (TAU, tau_doc(subset=",-3,0"), 2, "subset: bad class representative ',-3,0'"),
    (TAU + ["--spinc=-3,0"], tau_doc(), 0, None),
    (TAU + ["--spinc", "[ -3, 0 ]"], tau_doc(), 0, None),
    (TAU, tau_doc(subset="(-3, 0,)"), 0, None),
    (TAU + ["--spinc", "(66,)"], {"plumbing": L41_PLUMBING, "leaf_link": {"v1": 2}}, 0, None),
    (["obstruct", "--check", "integrality"], tau_doc(), 2, f"subset: {SELECT}"),
    (SLICE, {**SLICE_DOC, "subset": "d0", "surgery": {"braid": BRAID}}, 2,
     "subset: the slice-bennequin check needs exactly one spin-c class"),
    # a refused plumbing is reported before the faults above in the rest of the document
    (TAU, {"plumbing": WIDE, "leaf_link": {"v1": "3"}}, 3, BOX),
    (TAU, {"plumbing": WIDE, "leaf_link": {"v9": 1}}, 3, BOX),
    (TAU, {"plumbing": WIDE}, 3, BOX),
    (TAU + ["--spinc", "1,,2"], {"plumbing": WIDE, "leaf_link": {"v1": 1}}, 3, BOX),
    (TAU, {"plumbing": INDEFINITE, "leaf_link": {"v1": 1}, "subset": "x"}, 3, DEFINITE),
    (SLICE, {**SLICE_DOC, "plumbing": INDEFINITE}, 3, DEFINITE),
]


def test_schema_errors(tmp_path, capsys, monkeypatch):
    for argv, doc, code, message in SCHEMA_CASES:
        rc, out, err = run_cli(capsys, argv[0], "--input", write_doc(tmp_path, doc), *argv[1:])
        expected = f"plumbtau: {message}\n" if message else ""
        assert (rc, err, out != "") == (code, expected, code == 0), (argv, doc)
    bad_json = tmp_path / "bad.json"
    # truncated; nested past the recursion limit; an integer of 5,000 digits
    for text in ("{", "[" * 100_000 + "]" * 100_000, '{"basepoints": 1' + "0" * 4_999 + "}"):
        bad_json.write_text(text, encoding="utf-8")
        rc, _, err = run_cli(capsys, "dinv", "--input", str(bad_json))
        assert rc == 2 and err.startswith("plumbtau: input: not valid JSON: "), err[:80]
    rc, _, err = run_cli(capsys, "dinv", "--input", str(tmp_path / "missing.json"))
    assert rc == 2 and err.startswith("plumbtau: input: cannot read ")
    # a byte that is not UTF-8, in a file and on stdin
    bad_json.write_bytes(b'{"plumbing": \xff}')
    rc, _, err = run_cli(capsys, "dinv", "--input", str(bad_json))
    assert rc == 2 and err.startswith("plumbtau: input: not UTF-8 text: "), err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    rc, _, err = run_cli(capsys, "dinv", "--input", "-")
    assert rc == 2 and err.startswith("plumbtau: input: not UTF-8 text: "), err


def _decoded(read, text):
    """What ``read(text)`` gives: the value's repr (NaN equals no NaN), or the error's type and message."""
    try:
        return repr(read(text))
    except (ValueError, RecursionError) as e:
        return type(e), str(e)


# documents like the ones the commands read, and what a mutation inserts
READER_DOCS = [
    {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}, "subset": [[-3, 0]]},
    {"plumbing": {"vertices": [["c", -2], ["a", -3]], "edges": [["c", "a"]],
                  "markings": {"c": "internal"}}, "subset": "d0", "basepoints": 2},
    {"floer_complex": ["a 0 0", "b -1 0", "b a 1"], "surgery": {"braid": BRAID}},
    {"surgery": {"components": [{"kind": "surgery", "tb": -4, "rot": 1}],
                 "linking": [[0]], "link_components": [[10**30]]}},
]
READER_CHARS = '{}[]",:0123456789-+.eE tfnrualsNIy\\/\n\t\r\x00\x0c\x7f\ufeff\u00e9\u2028\ud800'
READER_CASES = [
    "", " \t\n\r", "\ufeff", "\ufeff{}", " \ufeff{}", "\u00a0{}", "{}\x0c", "{} \u2028",
    "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]", '{"a": -Infinity}', "-NaN",
    "1 2", "{} {}", "[] ]", '"\\ud800"', '"\\udc00\\ud800x"', '"a\x01b"', '"tab\there"',
    "[" * 100_000, "[" * 100_000 + "]" * 100_000, "[" * 200 + "]" * 200, '{"a": ' * 200,
    "1" + "0" * 5_000, "01", "-0", "1e400", "tru", "nul", '{"a" 1}', '{"a": 1,}', "[1,]",
]


def test_reader_agrees_with_json_loads():
    # cli._loads stands in for json.loads on every document: the same value,
    # or the same exception with the same message, which input errors quote
    rng = random.Random(property_seed())
    texts = list(READER_CASES)
    for _ in range(3_000):
        text = json.dumps(rng.choice(READER_DOCS), indent=rng.choice([None, 2]))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(READER_CHARS) + text[at:]
            else:
                text = text[:at] + text[at + rng.randint(1, 5):]
        texts.append(text)
    for text in texts:
        assert _decoded(cli._loads, text) == _decoded(json.loads, text), text[:80]


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"plumbing": ', "Expecting value: line 1 column 14 (char 13)"),
        ('{"plumbing": {"vertices": [["v1", -2]', "Expecting ',' delimiter: line 1 column 38 (char 37)"),
        ('{"plumbing": "v1', "Unterminated string starting at: line 1 column 14 (char 13)"),
        ("{} {}", "Extra data: line 1 column 4 (char 3)"),
    ],
    ids=["value", "delimiter", "string", "extra"],
)
def test_malformed_document_names_its_place(text, where):
    # in a new interpreter, where no json module is loaded until the error
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plumbtau.cli", "dinv"],
        input=text, capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"plumbtau: input: not valid JSON: {where}\n"
    )


def test_math_errors(tmp_path, capsys):
    indefinite = write_doc(tmp_path, {"plumbing": {"vertices": [["v1", 5]]}})
    rc, _, err = run_cli(capsys, "dinv", "--input", indefinite)
    assert rc == 3 and "negative definite" in err
    odd = write_doc(
        tmp_path,
        {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, "subset": [[0, 0]]},
    )
    rc, _, err = run_cli(capsys, "tau", "--input", odd)
    assert rc == 3 and "subset" in err


def test_short_vector_box_limit(tmp_path, capsys, monkeypatch):
    chain = {
        "vertices": [[f"v{i}", -40] for i in range(1, 5)],
        "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"]],
    }
    path = write_doc(tmp_path, {"plumbing": chain})
    rc, out, err = run_cli(capsys, "dinv", "--input", path)
    assert rc == 3 and out == ""
    assert "2560000 vectors" in err and f"limit of {plumbing.MAX_BOX}" in err
    # a long chain reaches the limit at once: definiteness is one pass over the tree
    for n in (200, 1000):
        chain = {
            "vertices": [[f"v{i}", -2] for i in range(n)],
            "edges": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)],
        }
        path = write_doc(tmp_path, {"plumbing": chain})
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "dinv", "--input", path)
        assert rc == 3 and out == "" and time.perf_counter() - start < 1.0
        assert err == (
            f"plumbtau: plumbing: the short-vector box holds {2**n} vectors, "
            f"above the limit of {plumbing.MAX_BOX}\n"
        )
    # the limit is inclusive: a box of exactly MAX_BOX vectors passes, one more does not
    assert plumbing.MAX_BOX == 100_000
    plumbing.IntersectionForm(plumbing.PlumbingTree.path(*[-10] * 5)).require_box()
    with pytest.raises(ValueError, match="holds 100001 vectors, above the limit of 100000$"):
        plumbing.IntersectionForm(plumbing.PlumbingTree.path(-11, -9091)).require_box()
    # and a box of exactly MAX_BOX vectors is walked
    monkeypatch.setattr(plumbing, "MAX_BOX", 16)
    square = {"vertices": [["v1", -4], ["v2", -4]], "edges": [["v1", "v2"]]}
    rc, out, _ = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": square}))
    assert rc == 0 and json.loads(out)["order"] == 15
    wider = {"vertices": [["v1", -4], ["v2", -5]], "edges": [["v1", "v2"]]}
    rc, _, err = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": wider}))
    assert rc == 3 and "20 vectors" in err


def test_lattice_work_limit(tmp_path, capsys):
    # stars whose boxes pass but whose walk and Q^-1 would take too long
    def star(center, leaves):
        ids = [f"v{i}" for i in range(len(leaves))]
        return {
            "vertices": [["c", center]] + [[v, w] for v, w in zip(ids, leaves)],
            "edges": [["c", v] for v in ids],
        }

    cases = (
        (-91, [-1] * 80 + [-2] * 10, 93184),
        (-801, [-1] * 800, 801),
        (-100000, [-1] * 16, 100000),  # one vertex past the star at the limit below
        (-118, [-1] * 116, 118),  # likewise on the n^3 side
    )
    for center, leaves, box in cases:
        path = write_doc(tmp_path, {"plumbing": star(center, leaves)})
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "dinv", "--input", path)
        assert rc == 3 and out == "" and time.perf_counter() - start < 1.0
        n = len(leaves) + 1
        assert err == (
            f"plumbtau: plumbing: {n} vertices and a short-vector box of {box} vectors make"
            f" box * n + n^3 = {box * n + n**3}, above the limit of 1604096\n"
        )
    # the limit is the work of a box of MAX_BOX vectors on 16 vertices, and is inclusive
    at_limit = plumbing.PlumbingTree(
        vertices=(("c", -100000), *((f"v{i}", -1) for i in range(15))),
        edges=tuple(("c", f"v{i}") for i in range(15)),
    )
    f = plumbing.IntersectionForm(at_limit)
    f.require_box()
    assert f.n == 16
    below = plumbing.PlumbingTree(  # 117 * 116 + 116^3 = 1,574,468
        vertices=(("c", -117), *((f"v{i}", -1) for i in range(115))),
        edges=tuple(("c", f"v{i}") for i in range(115)),
    )
    f = plumbing.IntersectionForm(below)
    f.require_box()
    assert f.n == 116
    # a tree whose weights are all <= -2 and whose box passes has at most 16
    # vertices, and passes: here the chain (-2)x15, -3, whose box is 98,304
    plumbing.IntersectionForm(plumbing.PlumbingTree.path(*[-2] * 15, -3)).require_box()


def test_box_limit_answers_before_the_matrix(tmp_path, capsys):
    # the (-2) chain of 2,000 vertices: the dense Q alone would be 4 * 10^6 entries
    n = 2000
    chain = {
        "vertices": [[f"v{i}", -2] for i in range(n)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)],
    }
    path = write_doc(tmp_path, {"plumbing": chain})
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "dinv", "--input", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and out == ""
    assert err == (
        f"plumbtau: plumbing: the short-vector box holds {2**n} vectors, "
        f"above the limit of {plumbing.MAX_BOX}\n"
    )
    assert peak < 8 * 2**20, peak  # the n x n tuples would take over 32 MB
    # definiteness is checked before the box size
    chain["vertices"][0][1] = 5
    rc, _, err = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": chain}))
    assert (rc, err) == (3, "plumbtau: plumbing: intersection form is not negative definite\n")


def test_box_size_past_the_digit_limit(tmp_path, capsys):
    # 2^15,000 has 4,516 digits, more than Python converts by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 4516:
        pytest.skip("the interpreter prints 2^15000")
    n = 15_000
    chain = {
        "vertices": [[f"v{i}", -2] for i in range(n)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)],
    }
    rc, out, err = run_cli(capsys, "spinc", "--input", write_doc(tmp_path, {"plumbing": chain}))
    assert rc == 3 and out == ""
    assert err == (
        f"plumbtau: plumbing: the short-vector box holds at least 10^{limit} vectors, "
        f"above the limit of {plumbing.MAX_BOX}\n"
    )


def test_answer_past_the_digit_limit(tmp_path, capsys):
    # one (-5)-framed component and a link vector of 3,000 digits: the
    # self-intersection -v^2/5 has about 6,000
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 5999:
        pytest.skip("the interpreter prints the answer")
    node = {
        "components": [{"kind": "surgery", "tb": -4, "rot": 0}],
        "linking": [[0]],
        "link_components": [[10**2999]],
    }
    path = write_doc(tmp_path, {"surgery": node})
    rc, out, err = run_cli(capsys, *SELF_INT, "--input", path)
    assert rc == 3 and out == ""
    assert err == (
        f"plumbtau: the answer has more than {limit} digits, the most that Python prints; "
        "the environment variable PYTHONINTMAXSTRDIGITS raises that limit\n"
    )
    assert sys.get_int_max_str_digits() == limit  # the interpreter keeps its limit
    # the same vector is fine where the answer is short
    rc, out, _ = run_cli(capsys, "surgery", "--what", "chern", "--input", path)
    assert rc == 0 and json.loads(out)["value"] == "0"


def test_metaboliser_search_limit(tmp_path, capsys):
    # the (-6; -2 x 10) star: |H_1| = 1,024 with 2-rank 10, whose search
    # would run for minutes without the limit
    star = {
        "vertices": [["c", -6]] + [[f"v{i}", -2] for i in range(1, 11)],
        "edges": [["c", f"v{i}"] for i in range(1, 11)],
    }
    path = write_doc(tmp_path, {"plumbing": star, "leaf_link": {"v1": 1}, "subset": [[0] * 11]})
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "obstruct", "--input", path, "--check", "metaboliser")
    assert rc == 3 and out == "" and time.perf_counter() - start < 5.0
    assert err == (
        "plumbtau: the metaboliser search in a group of order 1024 took "
        f"{obstruct.MAX_SEARCH_STEPS + 1} steps (pairing tests and subgroup joins), "
        f"above the limit of {obstruct.MAX_SEARCH_STEPS}\n"
    )


def test_metaboliser_check_selects_its_class_after_the_search(tmp_path, capsys, monkeypatch):
    # a search with candidates walks the box, and the class is then read from
    # the index: no meet; with no candidates the class is met and nothing walked
    scans = []
    scan = plumbing._scan
    monkeypatch.setattr(
        plumbing, "_scan", lambda f, keys=None: scans.append(keys is None) or scan(f, keys)
    )
    for weight, rep, walked in ((-16, 0, [True]), (-15, 1, [False])):
        scans.clear()
        plumbing_ = {"vertices": [["v1", weight]]}
        path = write_doc(tmp_path, {"plumbing": plumbing_, "leaf_link": {"v1": 1}, "subset": [[rep]]})
        rc, _, err = run_cli(capsys, "obstruct", "--input", path, "--check", "metaboliser")
        assert rc == 0 and scans == walked, (weight, err, scans)
    # the walk follows the candidates, not the order: the star (-3; -3, -3, -3, -2)
    # has |H_1| = 81, a square, and no metaboliser, so its class is met once
    scans.clear()
    square = {
        "vertices": [["c", -3], ["v1", -3], ["v2", -3], ["v3", -3], ["v4", -2]],
        "edges": [["c", f"v{i}"] for i in range(1, 5)],
    }
    doc = {"plumbing": square, "leaf_link": {"v1": 1}, "subset": [[1, 1, 1, 1, 0]]}
    rc, out, err = run_cli(capsys, "obstruct", "--input", write_doc(tmp_path, doc),
                           "--check", "metaboliser")
    assert rc == 0 and scans == [False], (err, scans)
    assert json.loads(out)["witness"] == "no metaboliser exists in a group of order 81"
    # a class the subset names badly is refused before a search past its limit
    star = {
        "vertices": [["c", -6]] + [[f"v{i}", -2] for i in range(1, 11)],
        "edges": [["c", f"v{i}"] for i in range(1, 11)],
    }
    path = write_doc(tmp_path, {"plumbing": star, "leaf_link": {"v1": 1}, "subset": [[1] * 11]})
    rc, out, err = run_cli(capsys, "obstruct", "--input", path, "--check", "metaboliser")
    assert (rc, out) == (3, "")
    assert err == f"plumbtau: subset: {(1,) * 11} is not characteristic for this form\n"


def test_internal_error_exit(tmp_path, capsys, monkeypatch):
    def broken(c):
        raise RuntimeError("pivot target y is not a cycle\nsecond line")

    monkeypatch.setattr(floer, "_eliminate", broken)
    path = write_doc(tmp_path, {"floer_complex": STAIRCASE})
    rc, out, err = run_cli(capsys, "floer", "--input", path, "--what", "verify")
    assert rc == cli.INTERNAL_EXIT == 5 and out == ""
    assert err == "plumbtau: internal error: RuntimeError: pivot target y is not a cycle second line\n"


@pytest.mark.parametrize(
    "argv, doc, matrices",
    [
        (DINV, {"plumbing": L92_PLUMBING}, 1),
        (["spinc"], {"plumbing": L92_PLUMBING}, 1),
        (TAU, tau_doc(), 1),
        (["obstruct", "--check", "pl-genus"], tau_doc(), 1),
        # Q and the unimodular transform of its Smith form
        (["obstruct", "--check", "metaboliser"], tau_doc(subset=[[3, 0]]), 2),
        # Q and the surgery matrix, here the empty one
        (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID}}, 2),
        (["surgery", "--what", "tau-curve"],
         surgery_doc(2, braid={"strands": 6, "writhe": 8, "components": 6}), 1),
    ],
)
def test_each_matrix_is_inverted_once(argv, doc, matrices, tmp_path, capsys, monkeypatch):
    # |det Q| is the denominator of Q^-1 and a presentation keeps its inverse
    # for every term, so a command inverts each matrix once; every public
    # linalg route is counted, so a determinant taken on the way would show.
    # A definite plumbing's Q^-1 comes from its tree, counted with linalg.inverse
    from plumbtau import linalg

    calls, inverted = Counter(), Counter()
    for name, fn in vars(linalg).items():
        if inspect.isfunction(fn) and not name.startswith("_"):
            def counted(*args, _name=name, _f=fn):
                calls[_name] += 1
                if _name == "inverse":
                    inverted[tuple(map(tuple, args[0]))] += 1
                return _f(*args)
            monkeypatch.setattr(linalg, name, counted)

    def tree_inverse(f, _f=plumbing._tree_inverse):
        calls["_tree_inverse"] += 1
        inverted[plumbing.IntersectionForm(f.tree).q] += 1
        return _f(f)

    monkeypatch.setattr(plumbing, "_tree_inverse", tree_inverse)
    rc, _, err = run_cli(capsys, argv[0], "--input", write_doc(tmp_path, doc), *argv[1:])
    assert rc == 0, err
    assert calls["det"] == 0, calls
    assert calls["inverse"] + calls["_tree_inverse"] == len(inverted) == matrices, calls
    if "plumbing" in doc:
        assert inverted[cli.build_form(doc).q] == calls["_tree_inverse"] == 1


def test_package_takes_no_determinant():
    # the package's determinants are the denominators p = |det Q| of its
    # inverses: of a plumbing's Q^-1 from the branch determinants of its tree
    # (IntersectionForm.qinv), and of linalg.inverse; Bareiss elimination
    # lives in the tests as their oracle
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.FunctionDef) and node.name == "det"), path.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "det", f"{path.name}:{node.lineno}"


CHAIN_3333 = {
    "vertices": [[f"v{i}", -3] for i in range(1, 5)],
    "edges": [[f"v{i}", f"v{i + 1}"] for i in range(1, 4)],
}


@pytest.mark.parametrize(
    "argv, doc, walks, classes, taus",
    [
        (["tau", "--spinc=7,-5,1,9"], {}, 0, 2, 1),
        (SLICE, {"subset": [[7, -5, 1, 9]], "surgery": {"braid": BRAID}}, 0, 2, 1),
        (["obstruct", "--check", "integrality"], {"subset": [[-1, 3, 1, -1]]}, 0, 2, 1),
        (["obstruct", "--check", "conjugation"], {"subset": [[-1, 3, 1, -1]]}, 0, 2, 2),
        # the whole-table checks walk the box once, and read tau at their classes alone
        (["obstruct", "--check", "pl-genus"], tau_doc(), 1, None, 3),  # 3 of 9 have d = 0
        (["obstruct", "--check", "concordance"], {"subset": "all"}, 1, None, 55),
        (["obstruct", "--check", "metaboliser"],
         {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[3, 0]]}, 1, None, None),
    ],
)
def test_single_class_queries_build_one_class_and_its_conjugate(
    argv, doc, walks, classes, taus, tmp_path, capsys, monkeypatch
):
    # (-3)x4 has 55 classes: a query of one class builds it and its
    # conjugate, not the index, and evaluates tau where its check reads it
    from plumbtau import tau

    counts = Counter()
    scan, init, row = plumbing._scan, plumbing.SpincClass.__init__, tau.TauProfile.row

    def counted_scan(f, keys=None):
        counts["walks"] += keys is None  # a scan without keys walks the whole box
        return scan(f, keys)

    def made(self, *args, **kwargs):
        counts["classes"] += 1
        init(self, *args, **kwargs)

    def counted_row(self, s):
        counts["taus"] += 1
        return row(self, s)

    monkeypatch.setattr(plumbing, "_scan", counted_scan)
    monkeypatch.setattr(plumbing.SpincClass, "__init__", made)
    monkeypatch.setattr(tau.TauProfile, "row", counted_row)
    doc = {"plumbing": CHAIN_3333, "leaf_link": {"v1": 2, "v4": 1}, **doc}
    rc, _, err = run_cli(capsys, argv[0], "--input", write_doc(tmp_path, doc), *argv[1:])
    assert rc == 0, err
    assert counts["walks"] <= walks, counts
    if classes is not None:
        assert counts["classes"] <= classes, counts
    if taus is not None:
        assert counts["taus"] <= taus, counts


def test_class_count_invariant_exit(tmp_path, capsys, monkeypatch):
    # the walk's keys reduced to 0 give one class where |det Q| = 9: a broken
    # invariant of the program, exit 5, not a precondition of the input
    monkeypatch.setattr(plumbing, "mod", lambda y, modulus: 0)
    path = write_doc(tmp_path, {"plumbing": L92_PLUMBING})
    rc, out, err = run_cli(capsys, "dinv", "--input", path)
    assert rc == cli.INTERNAL_EXIT and out == ""
    assert err == "plumbtau: internal error: RuntimeError: class count must equal |det Q|\n"


def test_package_has_no_assert():
    # runtime invariants must survive python -O and must not pass as exit 3
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


# Public names of the package that no code of the package names, each with
# why it stays public
SURFACE_EXEMPT = {
    **{
        f"paper.golden_{name}": "GOLDEN_GENERATORS looks it up by name"
        for name in plumbtau.EXAMPLE_NAMES
    },
    **{
        f"{module}.run_{name.replace('-', '_')}": "the table names its module"
        for name, (module, *_) in cli._TABLE.items()
    },
    "obstruct.qhb4_filling_obstruction": "to be run by obstruct --check qhb4-filling",
    "floer.tau_alpha": "to be run by floer --what tau-alpha",
    "plumbing.SpincClass.d": "the one route to d as a Fraction; the package reads the integer d_num",
    "obstruct.Verdict.slack": "the slack as a number; the package writes its Quotient",
}


def _qualified_uses(package: Path) -> tuple[set, set]:
    """(public, used): dotted names of the public functions, classes and methods, and of the uses.

    A top-level name is used through ``module.name`` on a module imported
    with ``from . import module``, through ``from .module import name``, or
    by name inside its own module.  A method is used through any ``.name``,
    since receivers are not typed here.
    """
    stems = {path.stem for path in package.glob("*.py")}
    public, used, attrs = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(f"{mod}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    public.update(
                        f"{mod}.{node.name}.{m.name}"
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    )
        modules = {}  # local name -> package module, from ``from . import module``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is not None:
                        used.add(f"{node.module}.{alias.name}")
                    elif alias.name in stems:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(f"{mod}.{node.id}")
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    used.add(f"{modules[node.value.id]}.{node.attr}")
    methods = {name for name in public if name.count(".") == 2}
    used |= {name for name in methods if name.rpartition(".")[2] in attrs}
    return public, used


def test_public_surface_is_used():
    # a public function, class or method that only the tests call belongs in the tests
    public, used = _qualified_uses(Path(cli.__file__).parent)
    unused = public - used
    assert unused == set(SURFACE_EXEMPT), sorted(unused ^ set(SURFACE_EXEMPT))


def test_surface_scan_resolves_qualified_names(tmp_path):
    # a bare name that is also a module, a field or a local is not a use of
    # another module's function of that name
    (tmp_path / "a.py").write_text(
        "def tau():\n    pass\n\ndef used():\n    pass\n\n"
        "def local():\n    pass\n\nlocal()\n"
        "class K:\n    def meth(self):\n        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import used\n\n"
        "def f(profile):\n    tau = profile.tau\n    profile.meth()\n    return a.K, tau\n",
        encoding="utf-8",
    )
    public, used = _qualified_uses(tmp_path)
    assert public == {"a.tau", "a.used", "a.local", "a.K", "a.K.meth", "b.f"}
    assert public - used == {"a.tau", "b.f"}


def _random_json(rng, depth=0):
    """A nested document of every kind of value that ``cli._json`` writes."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([0, -1, 7, -(10**30), 2**70, rng.randint(-(10**6), 10**6)])
    if kind <= 5:  # ASCII, Latin-1, U+2028, astral and control characters, quotes and backslashes
        alphabet = 'ab "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u2029\U0001d70f'
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind <= 7:
        items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
        return tuple(items) if rng.random() < 0.3 else items
    keys = ("rep", "d", "\u00e9", "", "a\u2028b", "\x01")
    return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}


ROW_KEYS = ("rep", "d", "%", "%s", "%(d)s", "{}", "{0}", '"', "\u2028", "\u00e9", "\U0001d70f", "")


def _random_row_table(rng):
    """A row table: dicts with one key order, each column of one scalar class or of its lists."""

    def scalar(kind):
        if kind == "str":
            return "".join(rng.choice('ab "\\%{}\n\u00e9\u2028\U0001d70f') for _ in range(rng.randrange(6)))
        if kind == "int":
            return rng.choice([0, -1, 7, -(10**30), 2**70, rng.randint(-(10**6), 10**6)])
        return rng.choice([True, False]) if kind == "bool" else None

    columns = [
        (key, rng.choice(("str", "int", "bool", "null")), rng.random() < 0.5)
        for key in rng.sample(ROW_KEYS, rng.randint(1, 4))
    ]
    return [
        {key: [scalar(kind) for _ in range(rng.randint(1, 4))] if lists else scalar(kind)
         for key, kind, lists in columns}
        for _ in range(rng.randint(1, 6))
    ]


def test_json_rendering_matches_json_dumps(capsys):
    def same(doc):
        assert cli.render(doc, "json") == json.dumps(doc, indent=2) + "\n", doc

    for name in plumbtau.EXAMPLE_NAMES:
        same(paper.committed_fixture(name))
    rc, out, _ = run_cli(capsys, "paper-examples")
    assert rc == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    rng = random.Random(property_seed())
    for _ in range(2000):
        same({"doc": _random_json(rng)})

    class Tag(str):
        pass

    class Count(int):
        pass

    # subclasses of str and int are written as their base class
    for scalar in ([], {}, (), "", True, False, None, -5, 10**40, "\u2028", Tag("\u00e9"), Count(-3)):
        same({"x": scalar, "y": [scalar, [scalar]]})
    # row tables, written from one template per table, alone and as a cell
    # of a row, which is then not a row table
    for _ in range(500):
        table = _random_row_table(rng)
        same({"classes": table})
        same({"rows": [{"rep": [i], "sub": table} for i in range(2)]})
    row = {"rep": [-3, 0], "d": "1/2"}
    for table in (
        [row],
        [row, {"d": "0", "rep": [3, 0]}],  # the same keys in another order
        [row, {"rep": [3, 0], "d": 0}],  # two classes in one column
        [{"n": 1}, {"n": True}],
        [{"n": 1}, {"n": Count(2)}],
        [{"n": Count(2)}],
        [{"s": "a"}, {"s": Tag("b")}],
        [{"rep": [1, True]}],
        [{"rep": [Count(1)]}],
        [{"rep": [Tag("x")]}],
        [row, {"rep": [], "d": "0"}],  # an empty-list cell
        [{"rep": [[1]]}, {"rep": [[2]]}],
        [{"m": {"a": 1}}],
        [{}, {}],
        [{key: key for key in ROW_KEYS}],
        [{key: [len(key)] for key in ROW_KEYS}] * 2,
    ):
        same({"classes": table})
    # a Fraction raises json's TypeError, an int past Python's digit limit its
    # ValueError, also in a row table; a float, which no handler returns, too
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bad = [Fraction(1, 2), [1, Fraction(1, 2)], [row, {"rep": [1, 0], "d": Fraction(1, 2)}]]
    bad += [[{"d": Fraction(1, 2)}, {"d": Fraction(1, 3)}]]
    if limit:
        huge = 10**limit
        bad += [[{"rep": [huge]}, {"rep": [1]}], [{"n": 1}, {"n": huge}], [row, {"rep": [1, 0], "d": huge}]]
    for value in bad:
        with pytest.raises((TypeError, ValueError)) as theirs:
            json.dumps({"x": value}, indent=2)
        with pytest.raises(theirs.type) as ours:
            cli.render({"x": value}, "json")
        assert str(ours.value) == str(theirs.value)
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        cli.render({"x": 0.5}, "json")


def test_class_tables_render_in_calls_independent_of_rows(tmp_path, capsys, monkeypatch):
    # dinv, spinc and tau write their class tables as row tables: as many calls
    # of cli._json for the chain (-3)x5 (144 classes, a box of 243) as for
    # (-3)x2 (8 classes), so a table that falls back to a call per row fails
    json_of, calls = cli._json, []

    def counted(value, pad):
        calls.append(pad)
        return json_of(value, pad)

    monkeypatch.setattr(cli, "_json", counted)
    seen = {}
    for n in (2, 5):
        plumbing = {
            "vertices": [[f"v{i}", -3] for i in range(n)],
            "edges": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)],
        }
        path = write_doc(tmp_path, {"plumbing": plumbing, "leaf_link": {"v0": 1}})
        for command in ("dinv", "spinc", "tau"):
            calls.clear()
            rc, out, err = run_cli(capsys, command, "--input", path)
            assert rc == 0, err
            seen[command, len(json.loads(out)["classes"])] = len(calls)
    # the document and its three fields: command, order or ell, classes
    assert seen == {(command, rows): 4 for command in ("dinv", "spinc", "tau") for rows in (8, 144)}


def test_output_is_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}})
    outputs = set()
    for _ in range(2):
        for fmt in ("json", "table"):
            rc, out, _ = run_cli(capsys, "tau", "--input", path, "--format", fmt)
            assert rc == 0
            outputs.add((fmt, out))
    assert len(outputs) == 2  # one fixed byte string per format
    json_out = next(out for fmt, out in outputs if fmt == "json")
    assert json.loads(json_out)  # emitted JSON re-parses


LAYERS = ("linalg", "plumbing", "tau", "surgery", "floer", "obstruct", "paper", "cli")


def run_python(code: str, *argv: str, stdin: str = "", flags=()) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter on this package,
    started with the interpreter options ``flags``."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, doc, rc",
    [(FLOER_D, {"floer_complex": STAIRCASE}, 0), (DINV, {"plumbing": INDEFINITE}, 3),
     (DINV, {}, 2)],
    ids=["floer", "refused", "schema"],
)
def test_program_run_freezes_the_collector_at_exit(argv, doc, rc, tmp_path, capsys):
    # run as the benchmark launches it; exit hooks run last in, first out, so
    # a probe registered before main reads the collector after main's hook ran
    code = (
        "import atexit, gc, sys\n"
        "frozen = gc.get_freeze_count()\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > frozen, file=sys.stderr))\n"
        "from plumbtau.cli import main\n"
        "sys.exit(main())"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--input", "-"],
        input=json.dumps(doc).encode(), capture_output=True, env=env, timeout=60,
    )
    code, out, err = run_cli(capsys, *argv, "--input", write_doc(tmp_path, doc))
    assert code == rc
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode(), f"{err}True\n".encode())


def _layers(*names):
    return {f"plumbtau.{name}" for name in names}


# the handler modules beside cli, each loaded only by the calls that run it
HANDLERS = tuple(dict.fromkeys(module for module, *_ in cli._TABLE.values() if module != "cli"))
# a call that makes no Fraction imports none of fractions, decimal and numbers
NO_FRACTION = ("fractions", "decimal", "numbers")
# cli reads and writes JSON through _json, the C module under the json package
NO_JSON = ("json", "json.decoder", "json.scanner", "json.encoder")


def _absent(*names, runs=(), also=()):
    # no call builds its records with dataclasses, which imports inspect, no
    # well-formed argv builds the argparse parser, no JSON call loads the help
    # and table module, no call loads a handler module it does not run, and
    # only paper-examples, which reads its fixtures with json and
    # importlib.resources, loads json or importlib
    handlers = [name for name in HANDLERS if name not in runs]
    absent = {"dataclasses", "inspect", "argparse", *also}
    if "cli_paper" not in runs:
        absent.update(NO_JSON)
        absent.add("importlib")
    return _layers(*names, "cli_help", *handlers) | absent


@pytest.mark.parametrize(
    "argv, doc, absent",
    [
        (FLOER_D, {"floer_complex": STAIRCASE},
         _absent("plumbing", "tau", "surgery", "obstruct", "paper", "linalg", runs=["cli_floer"],
                 also=(*NO_FRACTION, "heapq"))),
        # a closure's tau is an integer: no Fraction, and no linalg to invert or pair
        (["tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"], {},
         _absent("plumbing", "tau", "floer", "obstruct", "paper", "linalg", runs=["cli_surgery"],
                 also=NO_FRACTION)),
        (DINV, {"plumbing": L92_PLUMBING},
         _absent("floer", "obstruct", "surgery", "paper", also=NO_FRACTION)),
        (["spinc"], {"plumbing": L92_PLUMBING},
         _absent("floer", "obstruct", "surgery", "paper", also=NO_FRACTION)),
        (TAU, {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}},
         _absent("floer", "obstruct", "surgery", "paper", also=NO_FRACTION)),
        # slice-bennequin reads the presentation and the braid with the surgery builders
        (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID}},
         _absent("floer", "paper", runs=["cli_obstruct", "cli_surgery"])),
        (["obstruct", "--check", "metaboliser"],
         {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[3, 0]]},
         _absent("floer", "surgery", "paper", runs=["cli_obstruct"], also=NO_FRACTION)),
        # the integer checks write each exact value from its integers
        *[
            (["obstruct", "--check", check],
             {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 2}, "subset": subset},
             _absent("floer", "surgery", "paper", runs=["cli_obstruct"], also=NO_FRACTION))
            for check, subset in (("integrality", [[3, 0]]), ("conjugation", [[3, 0]]),
                                  ("pl-genus", "d0"), ("concordance", "d0"))
        ],
        (["surgery", "--what", "chern"], surgery_doc(1),
         _absent("plumbing", "tau", "floer", "obstruct", "paper", runs=["cli_surgery"])),
        (["paper-examples"], {}, _absent("floer", runs=["cli_paper"])),
    ],
)
def test_subcommand_loads_only_its_layers(argv, doc, absent):
    # each CLI call is a new interpreter: what it imports, it compiles and pays for
    rc, modules = _loaded(argv, doc)
    assert rc == "0"
    assert absent.isdisjoint(modules), sorted(absent.intersection(modules))


def _loaded(argv, doc):
    """main's exit code in a fresh interpreter, and the modules the call loaded.

    The interpreter runs with -S: ``site`` preloads a different set of stdlib
    modules on each interpreter (this one's about 70, importlib among them),
    and a module it preloaded would hide that the call itself imports it.
    """
    code = (
        "import sys; before = set(sys.modules); from plumbtau.cli import main\n"
        "try:\n    rc = main(sys.argv[1:])\nexcept SystemExit as e:\n    rc = e.code\n"
        "print(rc, *set(sys.modules) - before)"
    )
    rc, *modules = run_python(code, *argv, stdin=json.dumps(doc), flags=["-S"]).split()
    return rc, modules


@pytest.mark.parametrize(
    "argv, rc", [(["tau-qp", "-h"], "0"), (["floer", "--what", "tau"], "2")],
    ids=["help", "bad-choice"],
)
def test_help_and_errors_load_argparse(argv, rc):
    # argparse prints every help and every error: only then is it, and the
    # module that builds the parser, imported
    code, modules = _loaded(argv, {})
    assert code == rc and {"argparse", "plumbtau.cli_help"}.issubset(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ["surgery", "--what", "chern", "--input", "-"],
        ["floer", "--what", "d", "--input", "-"],
        ["obstruct", "--check", "integrality", "--input", "-"],
        ["tau", "--inp", "-"],  # an abbreviated option goes through argparse
    ],
    ids=["surgery", "floer", "obstruct", "tau-argparse"],
)
def test_module_run_exits_2_on_a_malformed_document(argv):
    # under ``python -m plumbtau.cli`` the handler modules raise the
    # exceptions of plumbtau.cli, which main must catch as its own
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plumbtau.cli", *argv],
        input="{}", capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert "internal error" not in proc.stderr


@pytest.mark.parametrize(
    "argv, doc, readers",
    [
        (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID}}, ("load_document", "build_form", "render")),
        (["surgery", "--what", "sl"], surgery_doc(1, braid=BRAID), ("load_document", "render")),
        (FLOER_D, {"floer_complex": STAIRCASE}, ("load_document", "render")),
    ],
)
def test_handler_modules_read_through_cli(argv, doc, readers, tmp_path, capsys, monkeypatch):
    # perfbench/spans.py times the shared readers by rebinding their names in
    # cli, so a handler in a module of its own must call them through cli; each
    # is imported first, so a name it bound on import would miss the counter
    for name in HANDLERS:
        importlib.import_module(f"plumbtau.{name}")
    calls = Counter()
    for name in ("load_document", "build_form", "render"):
        def counted(*args, _name=name, _f=getattr(cli, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cli, name, counted)
    rc, _, err = run_cli(capsys, *argv, "--input", write_doc(tmp_path, doc))
    assert rc == 0, err
    assert calls == dict.fromkeys(readers, 1)


def test_layers_load_on_first_access():
    code = (
        "import json, sys, plumbtau; loaded = [m for m in sys.modules if m.startswith('plumbtau.')]; "
        "print(json.dumps([loaded, [getattr(plumbtau, n).__name__ for n in sys.argv[1:]]]))"
    )
    loaded, names = json.loads(run_python(code, *LAYERS))
    assert loaded == []
    assert names == [f"plumbtau.{name}" for name in LAYERS]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        plumbtau.nope
    with pytest.raises(ImportError):
        from plumbtau import nope  # noqa: F401


def test_paper_examples_choices():
    parser = cli_help.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    example = next(a for a in sub.choices["paper-examples"]._actions if a.dest == "example")
    assert example.choices == paper.EXAMPLE_NAMES == tuple(paper.GOLDEN_GENERATORS)


# argv that the reader must read as the full parser does, or leave to it
PARSES = (
    [[name, "-h"] for name in cli.COMMANDS]
    + [
        ["surgery"],  # a required flag is missing
        ["tau-qp", "--strands", "2", "--writhe", "3"],
        ["surgery", "--what", "nope"],  # a bad choice
        ["floer", "--what", "tau"],
        ["obstruct", "--check", "genus"],
        ["dinv", "--format", "xml"],
        ["paper-examples", "nope"],
        ["tau-qp", "--strands", "two", "--writhe", "3", "--components", "1"],
        ["tau", "--input", "-", "junk"],  # an unrecognised extra argument
        ["spinc", "--spinc", "d0"],
        [],  # no command, an unknown one, or help first
        ["nope"],
        ["-h", "tau"],
        ["--help"],
        ["tau", "--input", "doc.json", "--spinc=-3,0", "--format", "table"],  # parses
        ["tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"],
        ["paper-examples", paper.EXAMPLE_NAMES[0]],
        ["floer", "--what", "tau-bot"],
    ]
)


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as e:
        result = ("exit", e.code)
    return result, capsys.readouterr()


def _read_as_full_parser(parser, argv, capsys):
    """``cli._read_args(argv)``, checked against the full parser's parse of argv, and that parse."""
    full, _ = _parse(parser, argv, capsys)
    read = cli._read_args(list(argv))
    if read is not None:
        # argv the full parser refuses, or answers with help, is its own to print
        assert not isinstance(full, tuple), (argv, full)
        assert vars(read) == vars(full), argv
    return read, full


@pytest.mark.parametrize("argv", PARSES, ids=" ".join)
def test_one_command_parser_agrees_with_full_parser(argv, capsys):
    # the one-command route is the reader: a call that parses is read from its
    # row of the table, and every other goes to the full parser unchanged
    read, full = _read_as_full_parser(cli_help.build_parser(), argv, capsys)
    assert (read is None) == isinstance(full, tuple)


def _value(rng, options):
    """A value the spec accepts."""
    if "choices" in options:
        return rng.choice(options["choices"])
    if options.get("type") is int:
        return rng.choice(["0", "7", "+3", "-2", " 5 ", "1_000"])
    return rng.choice(["-", "doc.json", "x=y", "a b", "", "d0", "-3,0", "--format"])


def _unit(rng, flag, value):
    """The tokens of ``flag`` with ``value``: spaced, or joined by ``=``."""
    if not flag.startswith("-"):
        return [value]
    if value == "" or (value != "-" and not value.startswith("-") and rng.random() < 0.5):
        return [flag, value]
    return [f"{flag}={value}"]


def _well_formed(rng, specs) -> list:
    """(flag, tokens) of a row's argv that argparse parses: its required and some optional specs."""
    units = [
        (flags[0], _unit(rng, flags[0], _value(rng, options)))
        for flags, options in specs
        if options.get("required") or rng.random() < 0.5
    ]
    rng.shuffle(units)
    return units


def _ill_formed(rng, kind, specs, units) -> list:
    """``units`` made into argv that the reader must leave to argparse, in one of 10 ways."""
    options = {flags[0]: o for flags, o in specs}
    flag = rng.choice([f for f in options if f.startswith("-")])
    units = [u for u in units if u[0] != flag] if 2 <= kind <= 6 else list(units)
    if kind == 0:  # help
        units.insert(rng.randrange(len(units) + 1), ("", [rng.choice(["-h", "--help"])]))
    elif kind == 1:  # the end of the options
        units.insert(rng.randrange(len(units) + 1), ("", ["--"]))
    elif kind == 2:  # an abbreviation, which argparse reads when it is unique
        value = _value(rng, options[flag])
        units.append((flag, _unit(rng, flag[: rng.randrange(3, len(flag))], value)))
    elif kind == 3:  # a repeat
        units += [(flag, _unit(rng, flag, _value(rng, options[flag]))) for _ in range(2)]
    elif kind == 4:  # a value after a space that starts with -
        units.append((flag, [flag, rng.choice(["-3", "-x", "-3,0", "--", "--format"])]))
    elif kind == 5:  # an empty value after =
        units.append((flag, [f"{flag}="]))
    elif kind == 6:  # a flag with no value at the end
        units.append((flag, [flag]))
    elif kind == 7:  # a value that is not a choice, or not an int
        bad = [
            (f, rng.choice(["nope", o["choices"][0].upper(), ""]) if "choices" in o else "two")
            for f, o in options.items()
            if "choices" in o or o.get("type") is int
        ]
        f, value = rng.choice(bad)
        units = [u for u in units if u[0] != f] + [(f, _unit(rng, f, value))]
    elif kind == 8:  # a missing required flag, or an unknown one
        required = [f for f, o in options.items() if o.get("required")]
        if required:
            dropped = rng.choice(required)
            units = [u for u in units if u[0] != dropped]
        else:
            units.append(("", rng.choice([["--nope", "1"], ["--inp"], ["--what", "d"]])))
    else:  # an extra word: a positional the row has no room for
        words = options["example"]["choices"] if "example" in options else ["junk"]
        if "example" in options and all(u[0] != "example" for u in units):
            units.append(("example", [rng.choice(words)]))
        units.append(("", [rng.choice(words)]))
    return [token for _, tokens in units for token in tokens]


def test_reader_agrees_with_full_parser_on_seeded_argv(capsys):
    # the reader reads every well-formed argv as argparse does, and leaves
    # every other to argparse: a reader that took an abbreviation or skipped a
    # choices check would read some of these where it must not
    rng = random.Random(property_seed())
    parser = cli_help.build_parser()
    for name, (_, _, *specs) in cli._TABLE.items():
        for kind in range(10):
            for _ in range(4):
                units = _well_formed(rng, specs)
                argv = [name] + [token for _, tokens in units for token in tokens]
                assert _read_as_full_parser(parser, argv, capsys)[0] is not None, argv
                bad = [name] + _ill_formed(rng, kind, specs, units)
                assert _read_as_full_parser(parser, bad, capsys)[0] is None, (kind, bad)


INPUT_SPEC = (
    "input", ("--input",), None, "-", False, None, None, "input JSON document, - for stdin"
)
FORMAT_SPEC = ("format", ("--format",), ("json", "table"), "json", False, None, None, None)

# name: (help line, handler module, the (dest, option strings, choices,
# default, required, type, nargs, help) of each argument in order), read off
# the actions, not the --help text, whose layout differs between Python versions
ARGUMENTS = {
    "tau": ("per-class tau table of a leaf-fibre link", "cli", [
        INPUT_SPEC, FORMAT_SPEC,
        ("spinc", ("--spinc",), None, None, False, None, None,
         "all | d0 | representative like -3,0"),
    ]),
    "dinv": ("correction-term table of the boundary", "cli", [INPUT_SPEC, FORMAT_SPEC]),
    "spinc": ("spin-c classes and conjugation pairing", "cli", [INPUT_SPEC, FORMAT_SPEC]),
    "surgery": ("linking-matrix quantities of a presentation", "cli_surgery", [
        INPUT_SPEC, FORMAT_SPEC,
        ("what", ("--what",), ("self-int", "chern", "sl", "tau-curve"),
         None, True, None, None, None),
    ]),
    "tau-qp": ("tau of a quasi-positive braid closure", "cli_surgery", [
        ("strands", ("--strands",), None, None, True, "int", None, None),
        ("writhe", ("--writhe",), None, None, True, "int", None, None),
        ("components", ("--components",), None, None, True, "int", None, None),
        FORMAT_SPEC,
    ]),
    "floer": ("invariants of a filtered chain complex", "cli_floer", [
        INPUT_SPEC, FORMAT_SPEC,
        ("what", ("--what",), ("d", "tau-top", "tau-bot", "verify"),
         None, True, None, None, None),
    ]),
    "obstruct": ("obstruction verdicts from the tau profile", "cli_obstruct", [
        INPUT_SPEC, FORMAT_SPEC,
        ("check", ("--check",), ("slice-bennequin", "metaboliser", "conjugation",
                                 "pl-genus", "integrality", "concordance"),
         None, True, None, None, None),
    ]),
    "paper-examples": ("regenerate and diff the golden tables", "cli_paper", [
        ("example", (), ("l2d", "m3d", "nk", "m3", "eq72"), None, False, None, "?", None),
        FORMAT_SPEC,
    ]),
}


def _arguments(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lines = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: (lines[name], cli._TABLE[name][0], [
            (a.dest, tuple(a.option_strings), a.choices and tuple(a.choices), a.default,
             a.required, getattr(a.type, "__name__", a.type), a.nargs, a.help)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for name, p in sub.choices.items()
    }


def test_every_subcommand_keeps_its_arguments(monkeypatch, capsys):
    # a change to the table shows here, in the full parser and in the reader
    assert list(ARGUMENTS) == list(cli.COMMANDS) == list(cli._TABLE)
    assert _arguments(cli_help.build_parser()) == ARGUMENTS
    calls = []
    for name, (_, module, specs) in ARGUMENTS.items():
        # the table names the module, the module has the handler, and main runs
        # the one bound to its name when the call runs
        handlers = importlib.import_module(f"plumbtau.{module}")
        handler = f"run_{name}".replace("-", "_")
        assert callable(getattr(handlers, handler)), name
        monkeypatch.setattr(handlers, handler, lambda args, doc, _name=name: calls.append((_name, doc)) or {})
        # each required flag with its first choice, or 1 for an int
        argv = [name] + [
            token
            for dest, flags, choices, _, required, *_ in specs
            if required
            for token in (flags[0], choices[0] if choices else "1")
        ]
        read = vars(cli._read_args(argv))
        assert list(read) == ["command", *(spec[0] for spec in specs)]
        assert read == vars(cli_help.build_parser().parse_args(argv))
        # main reads the document of a row that takes --input, and names the command
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"subset": "d0"}'))
        doc = {"subset": "d0"} if "input" in (dest for dest, *_ in specs) else None
        assert main(argv) == 0 and calls.pop() == (name, doc)
        assert capsys.readouterr() == (f'{{\n  "command": "{name}"\n}}\n', "")
    assert calls == []


# one well-formed call per row of cli._TABLE: its flags and its document, if it reads one
ROW_CALLS = {
    "tau": (["--spinc", "d0"], {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}}),
    "dinv": ([], {"plumbing": L41_PLUMBING}),
    "spinc": ([], {"plumbing": L92_PLUMBING}),
    "surgery": (["--what", "chern"], surgery_doc(1)),
    "tau-qp": (["--strands", "2", "--writhe", "3", "--components", "1"], None),
    "floer": (["--what", "tau-top"], {"floer_complex": STAIRCASE}),
    "obstruct": (["--check", "integrality"],
                 {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, "subset": [[-3, 0]]}),
    "paper-examples": (["l2d"], None),
}


def test_every_answer_opens_with_its_command(tmp_path, capsys, monkeypatch):
    # main names the command of every answer; a handler returns only its
    # answer's fields, none of them "command"
    assert list(ROW_CALLS) == list(cli._TABLE)
    fields = {}
    for name, (module, *_) in cli._TABLE.items():
        handlers = importlib.import_module(f"plumbtau.{module}")
        handler = "run_" + name.replace("-", "_")

        def recorded(args, doc, _name=name, _run=getattr(handlers, handler)):
            fields[_name] = _run(args, doc)
            return fields[_name]

        monkeypatch.setattr(handlers, handler, recorded)
    for name, (argv, doc) in ROW_CALLS.items():
        document = [] if doc is None else ["--input", write_doc(tmp_path, doc)]
        rc, out, err = run_cli(capsys, name, *argv, *document)
        assert (rc, err) == (0, ""), name
        assert out.startswith(f'{{\n  "command": "{name}",\n'), name
        assert "command" not in fields[name] and list(json.loads(out)) == ["command", *fields[name]]


def test_main_reads_sys_argv(monkeypatch, capsys):
    # main() is the program, so it registers gc.freeze to run at exit; an
    # in-process main(argv) registers nothing, and this process is never frozen
    # (3.12 starts with a few hundred objects already in the permanent generation)
    hooks, frozen = [], gc.get_freeze_count()
    monkeypatch.setattr(atexit, "register", hooks.append)
    argv = ["tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"]
    monkeypatch.setattr(sys, "argv", ["plumbtau", *argv])
    assert (main(), *capsys.readouterr()) == (main(argv), *capsys.readouterr())
    assert hooks == [gc.freeze]  # main()'s alone
    monkeypatch.setattr(sys, "argv", ["plumbtau", "nope"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert hooks == [gc.freeze, gc.freeze] and gc.get_freeze_count() == frozen

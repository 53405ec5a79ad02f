import argparse
import ast
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import plumbtau
from plumbtau import cli, floer, obstruct, paper, plumbing
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
    def no_rows(c):
        raise AssertionError("d^2 rows built for a valid complex")

    monkeypatch.setattr(floer, "_d2_rows", no_rows)
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
    # the limit is inclusive: a box of exactly MAX_BOX vectors is walked
    monkeypatch.setattr(plumbing, "MAX_BOX", 16)
    square = {"vertices": [["v1", -4], ["v2", -4]], "edges": [["v1", "v2"]]}
    rc, out, _ = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": square}))
    assert rc == 0 and json.loads(out)["order"] == 15
    wider = {"vertices": [["v1", -4], ["v2", -5]], "edges": [["v1", "v2"]]}
    rc, _, err = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": wider}))
    assert rc == 3 and "20 vectors" in err


def test_lattice_work_limit(tmp_path, capsys):
    # stars whose boxes pass but whose class keys and Q^-1 would take minutes
    def star(center, leaves):
        ids = [f"v{i}" for i in range(len(leaves))]
        return {
            "vertices": [["c", center]] + [[v, w] for v, w in zip(ids, leaves)],
            "edges": [["c", v] for v in ids],
        }

    for center, leaves, box in ((-91, [-1] * 80 + [-2] * 10, 93184), (-801, [-1] * 800, 801)):
        path = write_doc(tmp_path, {"plumbing": star(center, leaves)})
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "dinv", "--input", path)
        assert rc == 3 and out == "" and time.perf_counter() - start < 1.0
        n = len(leaves) + 1
        assert err == (
            f"plumbtau: plumbing: {n} vertices and a short-vector box of {box} vectors make"
            f" (box + n) * n^2 = {(box + n) * n * n}, above the limit of 25604096\n"
        )
    # a tree whose weights are all <= -2 and whose box passes has at most 16
    # vertices, and passes: here the chain (-2)x15, -3, whose box is 98,304
    plumbing.require_box(plumbing.PlumbingTree.path(*[-2] * 15, -3))


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
    # linalg route is counted, so a determinant taken on the way would show
    from plumbtau import linalg, surgery

    calls, inverted = Counter(), Counter()
    for name, fn in vars(linalg).items():
        if inspect.isfunction(fn) and not name.startswith("_"):
            def counted(*args, _name=name, _f=fn):
                calls[_name] += 1
                if _name == "inverse":
                    inverted[tuple(map(tuple, args[0]))] += 1
                return _f(*args)
            monkeypatch.setattr(linalg, name, counted)
    surgery._inverse.cache_clear()  # an equal presentation built by an earlier test
    rc, _, err = run_cli(capsys, argv[0], "--input", write_doc(tmp_path, doc), *argv[1:])
    assert rc == 0, err
    assert calls["det"] == 0 and calls["inverse"] == len(inverted) == matrices, calls
    if "plumbing" in doc:
        assert inverted[cli.build_form(doc).q] == 1


def test_package_takes_no_determinant():
    # the package's one determinant is the denominator p = |det Q| of
    # linalg.inverse; Bareiss elimination lives in the tests as its oracle
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.FunctionDef) and node.name == "det"), path.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "det", f"{path.name}:{node.lineno}"


def test_class_count_invariant_exit(tmp_path, capsys, monkeypatch):
    # every vector keyed alike gives one class where |det Q| = 9: a broken
    # invariant of the program, exit 5, not a precondition of the input
    monkeypatch.setattr(plumbing, "_image", lambda f, kappa: ((), 0))
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
    "obstruct.qhb4_filling_obstruction": "to be run by obstruct --check qhb4-filling",
    "floer.tau_alpha": "to be run by floer --what tau-alpha",
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


def run_python(code: str, *argv: str, stdin: str = "") -> str:
    """Last stdout line of ``code`` run in a fresh interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _layers(*names):
    return {f"plumbtau.{name}" for name in names}


def _absent(*names, also=()):
    # no call builds its records with dataclasses, which imports inspect
    return _layers(*names) | {"dataclasses", "inspect", *also}


@pytest.mark.parametrize(
    "argv, doc, absent",
    [
        (FLOER_D, {"floer_complex": STAIRCASE},
         _absent("plumbing", "tau", "surgery", "obstruct", "paper", "linalg", also=["fractions"])),
        (["tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"], {},
         _absent("plumbing", "tau", "floer", "obstruct", "paper")),
        (DINV, {"plumbing": L92_PLUMBING}, _absent("floer", "obstruct", "surgery", "paper")),
        (["spinc"], {"plumbing": L92_PLUMBING}, _absent("floer", "obstruct", "surgery", "paper")),
        (TAU, {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 3}},
         _absent("floer", "obstruct", "surgery", "paper")),
        (SLICE, {**SLICE_DOC, "surgery": {"braid": BRAID}}, _absent("floer", "paper")),
        (["obstruct", "--check", "metaboliser"],
         {"plumbing": L92_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[3, 0]]},
         _absent("floer", "surgery", "paper")),
        (["surgery", "--what", "chern"], surgery_doc(1),
         _absent("plumbing", "tau", "floer", "obstruct", "paper")),
        (["paper-examples"], {}, _absent("floer")),
    ],
)
def test_subcommand_loads_only_its_layers(argv, doc, absent):
    # each CLI call is a new interpreter: what it imports, it compiles and pays for
    code = (
        "import sys; before = set(sys.modules); from plumbtau.cli import main; "
        "print(main(sys.argv[1:]), *set(sys.modules) - before)"
    )
    rc, *modules = run_python(code, *argv, stdin=json.dumps(doc)).split()
    assert rc == "0"
    assert absent.isdisjoint(modules), sorted(absent.intersection(modules))


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
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    example = next(a for a in sub.choices["paper-examples"]._actions if a.dest == "example")
    assert example.choices == paper.EXAMPLE_NAMES == tuple(paper.GOLDEN_GENERATORS)


# argv whose parse the one-command parser must repeat byte for byte
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


@pytest.mark.parametrize("argv", PARSES, ids=" ".join)
def test_one_command_parser_agrees_with_full_parser(argv, capsys):
    one = cli.build_parser(argv[0] if argv else None)
    sub = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction))
    named = bool(argv) and argv[0] in cli.COMMANDS
    assert list(sub.choices) == ([argv[0]] if named else list(cli.COMMANDS))
    assert _parse(one, argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["tau-qp", "--strands", "2", "--writhe", "3", "--components", "1"]
    monkeypatch.setattr(sys, "argv", ["plumbtau", *argv])
    assert (main(), *capsys.readouterr()) == (main(argv), *capsys.readouterr())
    monkeypatch.setattr(sys, "argv", ["plumbtau", "nope"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err

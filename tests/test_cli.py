import ast
import json
from pathlib import Path

import pytest

from plumbtau import cli, floer, plumbing
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
    braid = {"strands": 3, "writhe": 5, "components": 6}
    path = write_doc(tmp_path, surgery_doc(2, braid=braid))
    _, out, _ = run_cli(capsys, "surgery", "--input", path, "--what", "sl")
    assert json.loads(out)["value"] == "6"  # (5 - 3) - 4 + 8
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


STAIRCASE = ["a 0 1", "b -1 0", "c -2 -1", "b -> a pow 1", "b -> c"]


def test_floer_commands(tmp_path, capsys):
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
    acyclic = write_doc(tmp_path, {"floer_complex": ["x 0 0", "y 1 0", "y -> x"]})
    rc, out, _ = run_cli(capsys, "floer", "--input", acyclic, "--what", "verify")
    doc = json.loads(out)
    assert rc == 0 and not doc["ok"] and doc["failures"]
    rc, _, err = run_cli(capsys, "floer", "--input", acyclic, "--what", "d")
    assert rc == 3 and "floer_complex" in err
    bad = write_doc(tmp_path, {"floer_complex": ["a 0"]})
    rc, _, err = run_cli(capsys, "floer", "--input", bad, "--what", "d")
    assert rc == 2 and "floer_complex" in err


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
    doc["subset"] = "d0"
    path = write_doc(tmp_path, doc)
    rc, _, err = run_cli(capsys, "obstruct", "--input", path, "--check", "slice-bennequin")
    assert rc == 2 and "subset" in err


def test_paper_examples(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "paper-examples")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] and set(doc["examples"]) == {"l2d", "m3d", "nk", "m3", "eq72"}
    rc, out, _ = run_cli(capsys, "paper-examples", "m3", "--format", "table")
    assert rc == 0
    assert [line.split()[-1] for line in out.splitlines()[-3:]] == ["2", "1", "0"]


def test_paper_examples_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "committed_fixture", lambda name: {"tampered": True})
    rc, _, err = run_cli(capsys, "paper-examples", "m3")
    assert rc == 4 and "m3" in err


def test_schema_errors(tmp_path, capsys):
    cases = [
        ({"plumbing": L92_PLUMBING, "extra": 1}, "tau", "extra"),
        ({"leaf_link": {"v1": 1}}, "tau", "plumbing"),
        ({"plumbing": L92_PLUMBING}, "tau", "leaf_link"),
        ({"plumbing": L92_PLUMBING, "leaf_link": {"v9": 1}}, "tau", "leaf_link"),
        ({"plumbing": L92_PLUMBING, "leaf_link": {"v1": 1}, "subset": "x"}, "tau", "subset"),
        ({"floer_complex": "a 0 1"}, "floer", "floer_complex"),
        (
            {"plumbing": L41_PLUMBING, "leaf_link": {"v1": 2}, "subset": [[-2]], "surgery": [1]},
            "obstruct",
            "surgery: must be an object",
        ),
    ]
    flags = {"floer": ["--what", "d"], "obstruct": ["--check", "slice-bennequin"]}
    for doc, command, field in cases:
        path = write_doc(tmp_path, doc)
        rc, _, err = run_cli(capsys, command, "--input", path, *flags.get(command, []))
        assert rc == 2 and field in err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    rc, _, err = run_cli(capsys, "dinv", "--input", str(bad_json))
    assert rc == 2 and "JSON" in err


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
    # the limit is inclusive: a box of exactly MAX_BOX vectors is walked
    monkeypatch.setattr(plumbing, "MAX_BOX", 16)
    square = {"vertices": [["v1", -4], ["v2", -4]], "edges": [["v1", "v2"]]}
    rc, out, _ = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": square}))
    assert rc == 0 and json.loads(out)["order"] == 15
    wider = {"vertices": [["v1", -4], ["v2", -5]], "edges": [["v1", "v2"]]}
    rc, _, err = run_cli(capsys, "dinv", "--input", write_doc(tmp_path, {"plumbing": wider}))
    assert rc == 3 and "20 vectors" in err


def test_internal_error_exit(tmp_path, capsys, monkeypatch):
    def broken(c):
        raise RuntimeError("pivot target y is not a cycle\nsecond line")

    monkeypatch.setattr(floer, "_eliminate", broken)
    path = write_doc(tmp_path, {"floer_complex": STAIRCASE})
    rc, out, err = run_cli(capsys, "floer", "--input", path, "--what", "verify")
    assert rc == cli.INTERNAL_EXIT == 5 and out == ""
    assert err == "plumbtau: internal error: RuntimeError: pivot target y is not a cycle second line\n"


def test_package_has_no_assert():
    # runtime invariants must survive python -O and must not pass as exit 3
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


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

"""Seeded mutations of input documents, each run through ``cli.main``.

The documents come from the suites' own generators (``random_tree``,
``random_complex``, ``random_presentation``, ``random_braid``) and from
``SCHEMA_CASES``.  Each is edited once to three times, structurally (a value
swapped with another or replaced by one of another kind, a field dropped or
added, a Floer line altered) or numerically (a weight in -12..1, an added
vertex, a strand count, a subset representative).  Every input must answer
within its alarm with exit 0, 2 or 3: output and no stderr on 0, one stderr
line and no internal error otherwise.  ``PLUMBTAU_SEED`` varies the corpus.
The same alarm bounds the build of a plumbing tree of 50,000 marked leaves.
"""

import contextlib
import copy
import io
import json
import random
import signal
import sys

import pytest

from conftest import (
    format_complex,
    property_seed,
    random_braid,
    random_complex,
    random_presentation,
    random_tree,
)
from plumbtau.cli import main
from plumbtau.plumbing import PlumbingTree
from test_cli import SCHEMA_CASES

INPUTS = 500
ALARM_S = 10  # per input; the slowest answer here takes about 0.5 s

CHECKS = ("slice-bennequin", "metaboliser", "conjugation", "pl-genus", "integrality",
          "concordance")
LATTICE = [["tau"], ["dinv"], ["spinc"]] + [["obstruct", "--check", c] for c in CHECKS]
SURGERY = [["surgery", "--what", w] for w in ("self-int", "chern", "sl", "tau-curve")]
FLOER = [["floer", "--what", w] for w in ("d", "tau-top", "tau-bot", "verify")]
# field names the documents know, added where they may not belong
FIELDS = ("plumbing", "leaf_link", "subset", "surgery", "floer_complex", "basepoints",
          "vertices", "edges", "markings", "components", "linking", "link_components",
          "braid", "kind", "tb", "rot", "strands", "writhe", "extra")


class Hung(BaseException):
    """Raised by the alarm; not an ``Exception``, so ``main`` cannot report it as one."""


def _alarm(signum, frame):
    raise Hung()


@contextlib.contextmanager
def alarmed():
    """Raise ``Hung`` in the block once ``ALARM_S`` seconds have passed."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _scalar(rng):
    return rng.choice([None, True, False, 0, -1, 1, 7, -13, 2**70, 1.5, "", "x", "v1", "-3,0",
                       "all", "d0", "a 0 0", "a -> b pow 1"])


def _value(rng):
    """A random JSON value, nested at most twice."""
    r = rng.random()
    if r < 0.6:
        return _scalar(rng)
    if r < 0.8:
        return [_scalar(rng) for _ in range(rng.randint(0, 3))]
    return {rng.choice(FIELDS): _scalar(rng) for _ in range(rng.randint(0, 2))}


def _rep(rng, weights):
    """A characteristic representative in the short box a + 2 <= k <= -a."""
    return [rng.randrange(a + 2, -a + 1, 2) for a in weights]


def lattice_input(rng):
    tree = random_tree(rng, rng.randint(1, 6), -6, -1)
    weights = [a for _, a in tree.vertices]
    leaves = [v for v, _ in tree.vertices if tree.degree(v) <= 1]
    linked = rng.sample(leaves, rng.randint(1, len(leaves)))
    doc = {
        "plumbing": {"vertices": [list(v) for v in tree.vertices],
                     "edges": [list(e) for e in tree.edges]},
        "leaf_link": {v: rng.randint(0, 3) for v in linked},
    }
    argv = rng.choice(LATTICE)
    if argv[-1] in ("slice-bennequin", "metaboliser", "conjugation", "integrality"):
        doc["subset"] = [_rep(rng, weights)]
    elif rng.random() < 0.5:
        doc["subset"] = rng.choice(["all", "d0", [_rep(rng, weights) for _ in range(2)]])
    if argv[-1] == "slice-bennequin":
        doc["surgery"] = {"braid": random_braid(rng)._asdict()}
    return argv, doc


def surgery_input(rng):
    p = random_presentation(rng)
    node = {
        "components": [c._asdict() for c in p.components],
        "linking": [list(row) for row in p.linking],
        "link_components": [list(v) for v in p.link_vectors],
        "braid": random_braid(rng)._asdict(),
    }
    return rng.choice(SURGERY), {"surgery": node}


def floer_input(rng):
    c, filt = random_complex(rng, max_generators=8, distinguished_pairs=rng.randint(0, 2))
    return rng.choice(FLOER), {"floer_complex": format_complex(c, filt), "basepoints": c.basepoints}


def _paths(node, path=()):
    """Every position in the document below its root, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dicts(doc):
    return [p for p in [()] + list(_paths(doc)) if isinstance(_at(doc, p), dict)]


def _edit_floer_line(rng, doc):
    lines = doc.get("floer_complex") if isinstance(doc, dict) else None
    if not isinstance(lines, list) or not lines or not all(isinstance(s, str) for s in lines):
        return False
    i = rng.randrange(len(lines))
    parts = lines[i].split()
    choice = rng.randrange(5)
    if choice == 0:
        del lines[i]
    elif choice == 1:
        lines.insert(i, lines[i])
    elif choice == 2 and parts:
        parts[rng.randrange(len(parts))] = rng.choice(["->", "pow", "-1", "0", "2", "x", "g0", "#"])
        lines[i] = " ".join(parts)
    elif choice == 3:
        names = [s.split()[0] for s in lines if s.split() and "->" not in s]
        lines.append(f"{rng.choice(names or ['g0'])} -> {rng.choice(names or ['g1'])}"
                     f" pow {rng.randint(-1, 2)}")
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return True


def _edit_structure(rng, doc):
    paths = list(_paths(doc))
    recipe = rng.randrange(5)
    if recipe == 4:
        return _edit_floer_line(rng, doc)
    if recipe == 0 and len(paths) >= 2:  # swap two values, neither inside the other
        a, b = rng.sample(paths, 2)
        if a[: len(b)] == b or b[: len(a)] == a:
            return False
        pa, pb = _at(doc, a[:-1]), _at(doc, b[:-1])
        pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
        return True
    if recipe == 1:  # drop a field
        dicts = [p for p in _dicts(doc) if _at(doc, p)]
        if not dicts:
            return False
        node = _at(doc, rng.choice(dicts))
        del node[rng.choice(list(node))]
        return True
    if recipe == 2 and isinstance(doc, dict):  # add a field, known somewhere or not at all
        _at(doc, rng.choice(_dicts(doc)))[rng.choice(FIELDS)] = _value(rng)
        return True
    if paths:  # one value replaced by a value of any kind
        path = rng.choice(paths)
        _at(doc, path[:-1])[path[-1]] = _value(rng)
        return True
    return False


def _edit_numbers(rng, doc):
    if not isinstance(doc, dict):
        return False
    plumbing = doc.get("plumbing")
    vertices = plumbing.get("vertices") if isinstance(plumbing, dict) else None
    recipe = rng.randrange(4)
    if recipe == 0 and isinstance(vertices, list) and vertices:
        vertex = rng.choice(vertices)
        if isinstance(vertex, list) and len(vertex) == 2:
            vertex[1] = rng.randint(-12, 1)
            return True
    if recipe == 1 and isinstance(vertices, list):
        name = f"w{len(vertices)}"
        vertices.append([name, rng.randint(-12, 1)])
        edges = plumbing.get("edges")
        if vertices[:-1] and isinstance(edges, list) and rng.random() < 0.8:
            other = rng.choice(vertices[:-1])
            edges.append([name, other[0] if isinstance(other, list) and other else "v0"])
        return True
    if recipe == 2:  # a strand count of the link, or a field of the braid
        counts = [p for p in _dicts(doc) if p[-1:] in (("leaf_link",), ("braid",))]
        if counts:
            node = _at(doc, rng.choice(counts))
            if node:
                node[rng.choice(list(node))] = rng.randint(-2, 9)
                return True
    subset = doc.get("subset")
    reps = [rep for rep in subset if isinstance(rep, list)] if isinstance(subset, list) else []
    if reps:
        rep = rng.choice(reps)
        if rep and rng.random() < 0.7:
            i = rng.randrange(len(rep))
            rep[i] = (rep[i] if type(rep[i]) is int else 0) + rng.choice([-4, -2, -1, 1, 2, 4])
        elif rng.random() < 0.5:
            rep.append(rng.randint(-3, 3))
        elif rep:
            rep.pop()
        return True
    return False


def mutate(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        edit = _edit_structure if rng.random() < 0.5 else _edit_numbers
        for _ in range(10):  # a recipe may not apply to this document
            if edit(rng, doc):
                break
    return doc


def _tau_qp_argv(rng):
    strands, writhe, components = (rng.randint(-2, 9) for _ in range(3))
    return ["tau-qp", "--strands", str(strands), "--writhe", str(writhe),
            "--components", str(components)]


def corpus(rng, count):
    """``count`` inputs (argv, doc or None), most of them mutated documents."""
    builders = [lattice_input, lattice_input, surgery_input, floer_input]
    schema = [(list(argv), doc) for argv, doc, _, _ in SCHEMA_CASES]
    out = []
    while len(out) < count:
        r = rng.random()
        if r < 0.05:
            out.append((_tau_qp_argv(rng), None))
            continue
        if r < 0.25:
            argv, doc = rng.choice(schema)
        else:
            argv, doc = rng.choice(builders)(rng)
        out.append((argv, mutate(rng, doc) if rng.random() < 0.9 else doc))
    return out


def run(argv, doc, capsys, monkeypatch):
    """(exit code, stdout, stderr) of ``main`` on the document, read from stdin."""
    if doc is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        argv = [argv[0], "--input", "-", *argv[1:]]
    with alarmed():
        rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_mutated_documents_exit_cleanly(capsys, monkeypatch):
    rng = random.Random(property_seed())
    bad = []
    for argv, doc in corpus(rng, INPUTS):
        try:
            rc, out, err = run(argv, doc, capsys, monkeypatch)
        except Hung:
            bad.append((argv, json.dumps(doc)[:300], f"no answer in {ALARM_S} s"))
            continue
        if rc == 0:
            ok = out != "" and err == ""
        else:
            ok = (rc in (2, 3) and out == "" and err.count("\n") == 1 and err.endswith("\n")
                  and err.startswith("plumbtau: ") and "internal error" not in err)
        if not ok:
            bad.append((argv, json.dumps(doc)[:300], rc, err[:300]))
    assert not bad, f"{len(bad)} of {INPUTS} inputs: {bad[:3]}"


def test_marked_star_builds_within_the_alarm():
    # each vertex's degree is counted in the one walk over the edges: one edge
    # scan per marking takes minutes on this star of 50,000 marked leaves
    leaves = [f"a{i}" for i in range(50_000)]
    vertices = (("c", -2), *((v, -2) for v in leaves))
    edges = tuple(("c", v) for v in leaves)
    with alarmed():
        tree = PlumbingTree(vertices, edges, dict.fromkeys(leaves, "unmarked_leaf"))
    assert tree.marking("a0") == "unmarked_leaf" and tree.marking("c") == "internal"
    # a0 gets a second edge, to b: degree 2 refuses its marking, with the same message
    with alarmed(), pytest.raises(ValueError) as refused:
        PlumbingTree((*vertices, ("b", -2)), (*edges, ("a0", "b")),
                     dict.fromkeys(leaves, "unmarked_leaf"))
    assert str(refused.value) == "vertex 'a0' has degree > 1, cannot be an unmarked leaf"

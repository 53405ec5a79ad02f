"""The immutable records of plumbing, tau, surgery, floer and obstruct.

Each row builds one record positionally with its defaults left out and by
keyword with every field spelled out, and lists every check of its
constructor with the exact message.  ``IntersectionForm`` and ``SpincClass``
also leave fields out of equality, hash and repr.
"""

from fractions import Fraction

import pytest

from plumbtau.floer import AxiomReport
from plumbtau.linalg import SingularMatrixError
from plumbtau.obstruct import MetaboliserCandidate, Verdict
from plumbtau.paper import form_41, form_92
from plumbtau.plumbing import IntersectionForm, PlumbingTree, SpincClass, spinc_classes
from plumbtau.surgery import (
    BraidDatum,
    CurveDatum,
    SurgeryComponent,
    SurgeryPresentation,
)
from plumbtau.tau import LeafLink

# two separately built equal forms, and their first classes
F1, F2 = form_92(), form_92()
S1, S2 = spinc_classes(F1)[0], spinc_classes(F2)[0]
V2 = (("v1", -2), ("v2", -2))
V3 = V2 + (("v3", -2),)
E3 = (("v1", "v2"), ("v2", "v3"))
HANDLE = SurgeryComponent("handle")
SURGERY = SurgeryComponent("surgery", -2, 1)


def row(cls, positional, keywords, errors=(), twins=(), shown=None):
    """``twins`` must equal the record, with the same hash; ``shown`` is its repr."""
    return pytest.param(cls, positional, keywords, errors, twins, shown, id=cls.__name__)


RECORDS = [
    row(
        PlumbingTree,
        (V3, E3),
        {"vertices": V3, "edges": E3, "markings": {}},
        [
            ({"vertices": (("v1", -2), ("v1", -3)), "edges": (("v1", "v1"),)},
             "vertex ids must be unique"),
            ({"vertices": V2, "edges": (("v1", "v3"),)}, "bad edge (v1,v3)"),
            ({"vertices": V2, "edges": (("v2", "v2"),)}, "bad edge (v2,v2)"),
            ({"vertices": V2, "edges": ()}, "a tree needs exactly |V| - 1 edges"),
            ({"vertices": (), "edges": ()}, "a tree needs exactly |V| - 1 edges"),
            ({"vertices": V3, "edges": (("v1", "v2"), ("v2", "v1"))},
             "plumbing graph must be connected"),
            # the walk meets a cycle: a triangle and an isolated vertex
            ({"vertices": V3 + (("v4", -2),), "edges": E3 + (("v3", "v1"),)},
             "plumbing graph must be connected"),
            ({"vertices": V3, "edges": E3, "markings": {"v9": "internal"}},
             "marking on unknown vertex 'v9'"),
            ({"vertices": V3, "edges": E3, "markings": {"v1": "leaf"}}, "unknown marking 'leaf'"),
            ({"vertices": V3, "edges": E3, "markings": {"v2": "unmarked_leaf"}},
             "vertex 'v2' has degree > 1, cannot be an unmarked leaf"),
        ],
    ),
    row(
        IntersectionForm,
        (F1.tree,),
        {"tree": F1.tree},
        # the same tree with other markings: equality leaves the tree out
        twins=[F1, F2, IntersectionForm(PlumbingTree(*F1.tree[:2], {"v1": "internal"}))],
        shown="IntersectionForm(q=((-5, 1), (1, -2)), order=('v1', 'v2'), negative_definite=True)",
    ),
    row(
        SpincClass,
        (S1.rep, S1.d_num, S1.realizing, F1, S1.key),
        {"rep": S1.rep, "d_num": S1.d_num, "realizing": S1.realizing, "form": F1, "key": S1.key},
        twins=[S1, S2, SpincClass(S1.rep, S1.d_num, S1.realizing, form_41(), (0,))],
        shown=f"SpincClass{S1.rep}",
    ),
    row(
        LeafLink,
        ((3, 0),),
        {"m": (3, 0)},
        [({"m": (-1, 1)}, "multiplicities must be non-negative")],
    ),
    row(
        SurgeryComponent,
        ("handle",),
        {"kind": "handle", "tb": 0, "rot": 0},
        [
            ({"kind": "surgery2"}, "unknown component kind 'surgery2'; only integral "
             "(-1)-surgeries and 1-handles are supported"),
            ({"kind": "handle", "rot": 1}, "1-handle components carry rot = 0"),
        ],
    ),
    row(
        SurgeryPresentation,
        ((SURGERY,), ((0,),), ((1,), (2,))),
        {"components": (SURGERY,), "linking": ((0,),), "link_vectors": ((1,), (2,))},
        [
            ({"components": (SURGERY,), "linking": ((0, 1),), "link_vectors": ()},
             "linking matrix must be t x t"),
            ({"components": (SURGERY,), "linking": ((1,),), "link_vectors": ()},
             "linking matrix diagonal must be zero"),
            ({"components": (SURGERY, SURGERY), "linking": ((0, 1), (2, 0)), "link_vectors": ()},
             "linking matrix not symmetric at (0,1)"),
            ({"components": (SURGERY,), "linking": ((0,),), "link_vectors": ((1, 0),)},
             "link component vector has wrong length"),
            ({"components": (HANDLE,), "linking": ((0,),), "link_vectors": ()},
             "surgery linking matrix is singular"),
        ],
    ),
    row(
        BraidDatum,
        (2, 3, 1),
        {"strands": 2, "writhe": 3, "components": 1},
        [
            ({"strands": 0, "writhe": 3, "components": 1},
             "braids need at least one strand and one component"),
            ({"strands": 2, "writhe": 3, "components": 0},
             "braids need at least one strand and one component"),
            ({"strands": 1, "writhe": 0, "components": 5},
             "a braid closure has at most one component per strand"),
        ],
    ),
    row(
        CurveDatum,
        (1, Fraction(1, 2), Fraction(-3), 2),
        {"chi": 1, "chern": Fraction(1, 2), "self_int": Fraction(-3), "boundary": 2},
        [
            ({"chi": 0, "chern": 0, "self_int": 0, "boundary": 0},
             "a bounding curve has at least one boundary circle"),
            ({"chi": 3, "chern": 0, "self_int": 0, "boundary": 2},
             "Euler characteristic cannot exceed boundary count"),
        ],
    ),
    # a report is its failures: ``ok`` is a property
    row(AxiomReport, ((),), {"failures": ()}),
    row(
        Verdict,
        ("integrality", "fires"),
        {"check": "integrality", "verdict": "fires", "witness": None, "slack": None},
    ),
    row(
        MetaboliserCandidate,
        (((1,),), ((0,), (1,)), ((0,), (1,))),
        {"generators": ((1,),), "elements": ((0,), (1,)), "residues": ((0,), (1,))},
    ),
]


@pytest.mark.parametrize("cls, positional, keywords, errors, twins, shown", RECORDS)
def test_records(cls, positional, keywords, errors, twins, shown):
    record = cls(**keywords)
    assert cls(*positional) == record and type(cls(*positional)) is cls
    for name, value in keywords.items():
        assert getattr(record, name) == value
    if shown is None:  # every field is compared and shown
        fields = ", ".join(f"{name}={value!r}" for name, value in keywords.items())
        shown = f"{cls.__name__}({fields})"
    assert repr(record) == shown
    for twin in twins:
        assert twin == record and hash(twin) == hash(record)
    for name in keywords:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    for bad, message in errors:
        error = SingularMatrixError if "singular" in message else ValueError
        with pytest.raises(error) as caught:
            cls(**bad)
        assert str(caught.value) == message, bad


def test_tree_markings_are_not_shared():
    a, b = PlumbingTree(V2, (("v1", "v2"),)), PlumbingTree.path(-2, -2)
    assert a == b and a.markings == {} and a.markings is not b.markings
    # equality and hash leave the tree out, but the form keeps it
    assert F1.tree == F2.tree and F1.tree is not F2.tree

"""The paper's worked examples: links in the lens spaces L(9,2) and L(4,1).

L(9,2) bounds the (-5,-2) plumbing and L(4,1) the (-4) plumbing.  The
links are k parallel strands dual to the -5 vertex (nk; m3 is k = 3, m3d
is k = 3d) and 2d strands dual to the -4 vertex (l2d).  The surgery
diagrams below have the same boundaries, with the link drawn as parallel
push-offs of a surgery component.  Each golden generator rebuilds one
committed table of ``fixtures/``; ``plumbtau paper-examples`` diffs the two.
"""

import json
from importlib import resources

from . import EXAMPLE_NAMES, obstruct, surgery
from .plumbing import IntersectionForm, PlumbingTree, solve_square
from .tau import LeafLink, TauProfile, d_zero_subset


def form_92() -> IntersectionForm:
    """The (-5,-2) plumbing, bounded by L(9,2); a new form, with no cached classes."""
    return IntersectionForm(PlumbingTree.path(-5, -2))


def form_41() -> IntersectionForm:
    """The (-4) plumbing, bounded by L(4,1); a new form, with no cached classes."""
    return IntersectionForm(PlumbingTree.path(-4))


def l2d_presentation(d: int, rot: int) -> surgery.SurgeryPresentation:
    """A tb = -3 unknot (boundary L(4,1)) with 2d parallel push-offs."""
    return surgery.SurgeryPresentation(
        components=(surgery.SurgeryComponent(kind="surgery", tb=-3, rot=rot),),
        linking=((0,),),
        link_vectors=((1,),) * (2 * d),
    )


def m3d_presentation(d: int, rot: int) -> surgery.SurgeryPresentation:
    """tb = -4 and tb = -1 unknots linking once (boundary L(9,2)),
    with 3d parallel push-offs of the first."""
    return surgery.SurgeryPresentation(
        components=(
            surgery.SurgeryComponent(kind="surgery", tb=-4, rot=rot),
            surgery.SurgeryComponent(kind="surgery", tb=-1, rot=0),
        ),
        linking=((0, 1), (1, 0)),
        link_vectors=((1, 0),) * (3 * d),
    )


def _taus(profile: TauProfile, subset) -> list[str]:
    return [str(profile.tau_at(s)) for s in subset]


def golden_m3() -> dict:
    f = form_92()
    profile = TauProfile(f, LeafLink((3, 0)))
    return {
        "plumbing": [-5, -2],
        "strands": [3, 0],
        "classes": [
            {"rep": list(s.rep), "tau": str(profile.tau_at(s))} for s in d_zero_subset(f)
        ],
    }


def golden_nk() -> dict:
    f = form_92()
    subset = d_zero_subset(f)
    rows = [
        {"k": k, "taus": _taus(TauProfile(f, LeafLink((k, 0))), subset)} for k in range(1, 13)
    ]
    return {"plumbing": [-5, -2], "classes": [list(s.rep) for s in subset], "rows": rows}


def golden_l2d() -> dict:
    f = form_41()
    subset = d_zero_subset(f)
    rows = []
    for d in range(1, 11):
        profile = TauProfile(f, LeafLink((2 * d,)))
        values = [profile.tau_at(s) for s in subset]
        plus, minus = l2d_presentation(d, 2), l2d_presentation(d, -2)
        rows.append(
            {
                "d": d,
                "taus": [str(v) for v in values],
                "spread": str(max(values) - min(values)),
                "pl_genus": obstruct.pl_genus_lower_bound(profile, subset).genus,
                "self_intersection": str(surgery.self_intersection(plus)),
                "chern": [str(surgery.chern_evaluation(p)) for p in (plus, minus)],
            }
        )
    return {"plumbing": [-4], "classes": [list(s.rep) for s in subset], "rows": rows}


def golden_m3d() -> dict:
    f = form_92()
    subset = d_zero_subset(f)
    rows = []
    for d in range(1, 7):
        plus, minus = m3d_presentation(d, 3), m3d_presentation(d, -3)
        rows.append(
            {
                "d": d,
                "taus": _taus(TauProfile(f, LeafLink((3 * d, 0))), subset),
                "self_intersection": str(surgery.self_intersection(plus)),
                "chern": [str(surgery.chern_evaluation(p)) for p in (plus, minus)],
                "window": [str(d * (d - 1) // 2), str(3 * d * (d - 1) // 2)],
            }
        )
    return {"plumbing": [-5, -2], "classes": [list(s.rep) for s in subset], "rows": rows}


def golden_eq72() -> dict:
    solutions = [list(v) for v in solve_square(form_92(), -2)]
    return {"plumbing": [-5, -2], "target": "-2", "solutions": solutions}


GOLDEN_GENERATORS = {name: globals()[f"golden_{name}"] for name in EXAMPLE_NAMES}


def committed_fixture(name: str) -> dict:
    path = resources.files("plumbtau").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))

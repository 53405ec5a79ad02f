"""The ``surgery`` and ``tau-qp`` handlers, and the surgery builders they share with
``obstruct --check slice-bennequin``; loaded only by those calls (see ``cli``)."""

from __future__ import annotations

from . import cli, linalg, surgery
from .cli import BRAID, SchemaError, _fields, _named, _printing, _value


def build_presentation(doc: dict) -> surgery.SurgeryPresentation:
    node = _value(doc, "surgery")
    raw, linking, vectors = _fields(node, "surgery", "components", "linking", "link_components")
    components = []
    for c in raw:
        kind, tb, rot = _fields(c, "surgery.components", "kind", "tb", "rot")
        with _named("surgery.components"):
            components.append(surgery.SurgeryComponent(kind=kind, tb=tb, rot=rot))
    try:
        return surgery.SurgeryPresentation(
            components=tuple(components),
            linking=tuple(tuple(row) for row in linking),
            link_vectors=tuple(tuple(v) for v in vectors),
        )
    except linalg.SingularMatrixError:
        raise ValueError("surgery.linking: surgery matrix is singular")
    except ValueError as e:
        raise SchemaError(f"surgery: {e}")


def build_braid(doc: dict) -> surgery.BraidDatum:
    # with no surgery object, the braid is what is missing
    node = {} if doc.get("surgery") is None else _value(doc, "surgery")
    braid = _value(node, "surgery.braid")
    strands, writhe, components = _fields(braid, "surgery.braid", *BRAID)
    with _named("surgery.braid", ValueError):
        return surgery.BraidDatum(strands, writhe, components)


def run_surgery(args) -> dict:
    doc = cli.load_document(args.input)
    p = build_presentation(doc)
    if args.what == "self-int":
        value = surgery.self_intersection(p)
    elif args.what == "chern":
        value = surgery.chern_evaluation(p)
    elif args.what == "sl":
        b = build_braid(doc)
        value = surgery.self_linking_shift(surgery.self_linking_braid(b), p)
    else:  # tau-curve
        b = build_braid(doc)
        curve = surgery.CurveDatum(
            chi=surgery.bennequin_euler(b.strands, b.writhe),
            chern=surgery.chern_evaluation(p),
            self_int=surgery.self_intersection(p),
            boundary=b.components,
        )
        value = surgery.tau_from_curve(curve)
    with _printing():
        return {"command": "surgery", "what": args.what, "value": str(value)}


def run_tau_qp(args) -> dict:
    with _named("braid", ValueError):
        b = surgery.BraidDatum(args.strands, args.writhe, args.components)
        # the closure of n strands and l components has writhe congruent to n - l mod 2,
        # and a quasi-positive one has writhe >= n - l
        floor = b.strands - b.components
        if (b.writhe - floor) % 2:
            raise ValueError(
                f"writhe {b.writhe} and strands - components = {floor} differ in parity,"
                " which no braid closure has"
            )
        if b.writhe < floor:
            raise ValueError(
                f"writhe {b.writhe} is below strands - components = {floor},"
                " which no quasi-positive closure has"
            )
    tau = surgery.tau_qp_braid(b)
    with _printing():
        return {
            "command": "tau-qp",
            "strands": b.strands,
            "writhe": b.writhe,
            "components": b.components,
            "tau": str(tau),
        }

"""Command-line front end: JSON documents in, exact rational tables out.

One input document can describe a plumbing tree, a leaf-fibre link, a
contact surgery presentation with an optional braid, a filtered chain
complex (as a string array in the textual format of ``floer``), and a
spin-c subset selector ("all", "d0", or explicit representatives).
Subcommands pick the pieces they need.  All rationals are printed as
canonical fraction strings, never floats, and every table is sorted, so
output is byte-for-byte reproducible.

Exit codes: 0 success, 2 malformed input (schema), 3 mathematical
precondition failure or a work limit exceeded, 4 regenerated golden table
differs from the committed fixture, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional

from . import floer as floer_mod
from . import linalg, obstruct, surgery
from .plumbing import (
    IntersectionForm,
    PlumbingTree,
    class_of,
    conjugate,
    d_invariant,
    form_from_tree,
    solve_square,
    spinc_classes,
)
from .tau import LeafLink, leaf_link, tau as tau_value

SCHEMA_EXIT = 2
MATH_EXIT = 3
GOLDEN_EXIT = 4
INTERNAL_EXIT = 5

DOCUMENT_FIELDS = ("plumbing", "leaf_link", "surgery", "floer_complex", "basepoints", "subset")
EXAMPLE_NAMES = ("l2d", "m3d", "nk", "m3", "eq72")


class SchemaError(ValueError):
    """Input document malformed; the message names the offending field."""


class GoldenMismatchError(Exception):
    """A regenerated table differs from its committed fixture."""


def _fraction_str(x) -> str:
    return str(Fraction(x))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# --- input document -------------------------------------------------------


def load_document(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as e:
            raise SchemaError(f"input: cannot read {path!r}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"input: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SchemaError("input: document must be a JSON object")
    for key in doc:
        if key not in DOCUMENT_FIELDS:
            raise SchemaError(f"input: unknown field {key!r}")
    return doc


def build_form(doc: dict) -> IntersectionForm:
    node = doc.get("plumbing")
    if node is None:
        raise SchemaError("plumbing: field is required for this command")
    if not isinstance(node, dict):
        raise SchemaError("plumbing: must be an object with vertices and edges")
    vertices = node.get("vertices")
    if not isinstance(vertices, list) or not all(
        isinstance(v, list) and len(v) == 2 and isinstance(v[0], str) and _is_int(v[1])
        for v in vertices
    ):
        raise SchemaError("plumbing.vertices: must be a list of [id, weight] pairs")
    edges = node.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        raise SchemaError("plumbing.edges: must be a list of [id, id] pairs")
    markings = node.get("markings", {})
    if not isinstance(markings, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in markings.items()
    ):
        raise SchemaError("plumbing.markings: must map vertex ids to marking names")
    for key in node:
        if key not in ("vertices", "edges", "markings"):
            raise SchemaError(f"plumbing: unknown field {key!r}")
    try:
        tree = PlumbingTree(
            vertices=tuple((v, w) for v, w in vertices),
            edges=tuple((a, b) for a, b in edges),
            markings=dict(markings),
        )
    except ValueError as e:
        raise SchemaError(f"plumbing: {e}")
    return form_from_tree(tree)


def build_link(doc: dict, f: IntersectionForm) -> LeafLink:
    node = doc.get("leaf_link")
    if node is None:
        raise SchemaError("leaf_link: field is required for this command")
    if not isinstance(node, dict) or not all(
        isinstance(k, str) and _is_int(v) for k, v in node.items()
    ):
        raise SchemaError("leaf_link: must map vertex ids to strand counts")
    try:
        return leaf_link(f, node)
    except ValueError as e:
        raise SchemaError(f"leaf_link: {e}")


def _surgery_node(doc: dict) -> dict:
    node = doc.get("surgery")
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise SchemaError("surgery: must be an object")
    return node


def build_presentation(doc: dict) -> surgery.SurgeryPresentation:
    if doc.get("surgery") is None:
        raise SchemaError("surgery: field is required for this command")
    node = _surgery_node(doc)
    for key in node:
        if key not in ("components", "linking", "link_components", "braid"):
            raise SchemaError(f"surgery: unknown field {key!r}")
    raw_components = node.get("components", [])
    if not isinstance(raw_components, list) or not all(
        isinstance(c, dict) for c in raw_components
    ):
        raise SchemaError("surgery.components: must be a list of objects")
    components = []
    for c in raw_components:
        for key in c:
            if key not in ("kind", "tb", "rot"):
                raise SchemaError(f"surgery.components: unknown field {key!r}")
        if not isinstance(c.get("kind"), str):
            raise SchemaError("surgery.components: each component needs a kind")
        if not all(_is_int(c.get(k, 0)) for k in ("tb", "rot")):
            raise SchemaError("surgery.components: tb and rot must be integers")
        try:
            components.append(
                surgery.SurgeryComponent(
                    kind=c["kind"], tb=c.get("tb", 0), rot=c.get("rot", 0)
                )
            )
        except ValueError as e:
            raise SchemaError(f"surgery.components: {e}")
    linking = node.get("linking", [])
    if not isinstance(linking, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in linking
    ):
        raise SchemaError("surgery.linking: must be a matrix of integers")
    vectors = node.get("link_components", [])
    if not isinstance(vectors, list) or not all(
        isinstance(v, list) and all(_is_int(x) for x in v) for v in vectors
    ):
        raise SchemaError("surgery.link_components: must be a list of integer vectors")
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
    braid = _surgery_node(doc).get("braid")
    if braid is None:
        raise SchemaError("surgery.braid: field is required for this computation")
    if not isinstance(braid, dict) or set(braid) != {"strands", "writhe", "components"}:
        raise SchemaError("surgery.braid: needs exactly strands, writhe and components")
    if not all(_is_int(v) for v in braid.values()):
        raise SchemaError("surgery.braid: strands, writhe and components are integers")
    try:
        return surgery.BraidDatum(**braid)
    except ValueError as e:
        raise ValueError(f"surgery.braid: {e}")


def _classes_checked(f: IntersectionForm):
    try:
        return spinc_classes(f)
    except ValueError as e:
        raise ValueError(f"plumbing: {e}")


def _parse_rep_text(text: str, field: str) -> list[int]:
    cleaned = text.strip().strip("()[]")
    try:
        return [int(part.strip()) for part in cleaned.split(",") if part.strip()]
    except ValueError:
        raise SchemaError(f"{field}: bad class representative {text!r}")


def select_classes(
    f: IntersectionForm, doc: dict, flag: Optional[str], default: str
):
    """Resolve the subset selector: flag first, then the document, then default."""
    if flag is not None:
        sel, field = flag, "spinc"
    else:
        sel, field = doc.get("subset", default), "subset"
    if sel == "all":
        return list(_classes_checked(f))
    if sel == "d0":
        return [s for s in _classes_checked(f) if d_invariant(s) == 0]
    if isinstance(sel, str):
        sel = [_parse_rep_text(sel, field)]
    if not (
        isinstance(sel, list)
        and sel
        and all(isinstance(r, list) and r and all(_is_int(x) for x in r) for r in sel)
    ):
        raise SchemaError(
            f"{field}: must be 'all', 'd0', or a non-empty list of integer representatives"
        )
    out = []
    for rep in sel:
        try:
            out.append(class_of(f, rep))
        except ValueError as e:
            raise ValueError(f"{field}: {e}")
    return out


def _single_class(classes, check: str):
    if len(classes) != 1:
        raise SchemaError(f"subset: the {check} check needs exactly one spin-c class")
    return classes[0]


# --- subcommand handlers ---------------------------------------------------


def run_tau(args) -> dict:
    doc = load_document(args.input)
    f = build_form(doc)
    link = build_link(doc, f)
    classes = select_classes(f, doc, args.spinc, "all")
    rows = [
        {"rep": list(s.rep), "tau": _fraction_str(tau_value(f, link, s))}
        for s in sorted(classes, key=lambda s: s.rep)
    ]
    return {"command": "tau", "ell": link.ell, "classes": rows}


def run_dinv(args) -> dict:
    doc = load_document(args.input)
    f = build_form(doc)
    rows = [
        {"rep": list(s.rep), "d": _fraction_str(d_invariant(s))}
        for s in _classes_checked(f)
    ]
    return {"command": "dinv", "order": abs(f.det()), "classes": rows}


def run_spinc(args) -> dict:
    doc = load_document(args.input)
    f = build_form(doc)
    rows = [
        {"rep": list(s.rep), "conjugate": list(conjugate(s).rep)}
        for s in _classes_checked(f)
    ]
    return {"command": "spinc", "order": abs(f.det()), "classes": rows}


def run_surgery(args) -> dict:
    doc = load_document(args.input)
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
    return {"command": "surgery", "what": args.what, "value": _fraction_str(value)}


def run_tau_qp(args) -> dict:
    try:
        b = surgery.BraidDatum(args.strands, args.writhe, args.components)
    except ValueError as e:
        raise ValueError(f"braid: {e}")
    return {
        "command": "tau-qp",
        "strands": b.strands,
        "writhe": b.writhe,
        "components": b.components,
        "tau": _fraction_str(surgery.tau_qp_braid(b)),
    }


def build_floer(doc: dict):
    lines = doc.get("floer_complex")
    if lines is None:
        raise SchemaError("floer_complex: field is required for this command")
    if not isinstance(lines, list) or not all(isinstance(x, str) for x in lines):
        raise SchemaError("floer_complex: must be a list of strings")
    basepoints = doc.get("basepoints", 1)
    if not _is_int(basepoints):
        raise SchemaError("basepoints: must be an integer")
    try:
        return floer_mod.parse_complex(lines, basepoints=basepoints)
    except ValueError as e:
        raise SchemaError(f"floer_complex: {e}")


def run_floer(args) -> dict:
    doc = load_document(args.input)
    c, filt = build_floer(doc)
    if args.what == "verify":
        report = floer_mod.verify_axioms(c)
        return {
            "command": "floer",
            "what": "verify",
            "ok": report.ok,
            "failures": list(report.failures),
        }
    try:
        if args.what == "d":
            value = floer_mod.correction_term(c)
        elif args.what == "tau-top":
            value = floer_mod.tau_top(c, filt)
        else:  # tau-bot
            value = floer_mod.tau_bot(c, filt)
    except ValueError as e:
        raise ValueError(f"floer_complex: {e}")
    return {"command": "floer", "what": args.what, "value": _fraction_str(value)}


def run_obstruct(args) -> dict:
    doc = load_document(args.input)
    f = build_form(doc)
    link = build_link(doc, f)
    profile = obstruct.profile_from_link(f, link)
    check = args.check
    if check == "pl-genus":
        classes = select_classes(f, doc, None, "d0")
        bound = obstruct.pl_genus_lower_bound(profile, classes)
        return {
            "command": "obstruct",
            "check": "pl_genus",
            "genus": bound.genus,
            "raw": _fraction_str(bound.raw),
        }
    if check == "concordance":
        classes = select_classes(f, doc, None, "d0")
        verdict = obstruct.concordance_obstruction(profile, classes)
    elif check == "slice-bennequin":
        s = _single_class(select_classes(f, doc, None, None), check)
        b = build_braid(doc)
        sl = Fraction(surgery.self_linking_braid(b))
        if _surgery_node(doc).get("components") is not None:
            sl = surgery.self_linking_shift(sl, build_presentation(doc))
        verdict = obstruct.slice_bennequin_check(sl, profile.tau_at(s), link.ell)
    elif check == "metaboliser":
        s = _single_class(select_classes(f, doc, None, None), check)
        verdict = obstruct.metaboliser_obstruction(profile, s)
    elif check == "conjugation":
        s = _single_class(select_classes(f, doc, None, None), check)
        verdict = obstruct.conjugation_obstruction(profile, s)
    else:  # integrality
        s = _single_class(select_classes(f, doc, None, None), check)
        verdict = obstruct.integrality_obstruction(profile.tau_at(s))
    return {"command": "obstruct", **verdict.to_json()}


# --- golden tables ---------------------------------------------------------


def _form92() -> IntersectionForm:
    return form_from_tree(PlumbingTree.path(-5, -2))


def _form41() -> IntersectionForm:
    return form_from_tree(PlumbingTree.path(-4))


def _d_zero(f: IntersectionForm):
    return [s for s in spinc_classes(f) if d_invariant(s) == 0]


def _l2d_presentation(d: int, rot: int) -> surgery.SurgeryPresentation:
    return surgery.SurgeryPresentation(
        components=(surgery.SurgeryComponent(kind="surgery", tb=-3, rot=rot),),
        linking=((0,),),
        link_vectors=tuple((1,) for _ in range(2 * d)),
    )


def _m3d_presentation(d: int, rot: int) -> surgery.SurgeryPresentation:
    return surgery.SurgeryPresentation(
        components=(
            surgery.SurgeryComponent(kind="surgery", tb=-4, rot=rot),
            surgery.SurgeryComponent(kind="surgery", tb=-1, rot=0),
        ),
        linking=((0, 1), (1, 0)),
        link_vectors=tuple((1, 0) for _ in range(3 * d)),
    )


def _golden_m3() -> dict:
    f = _form92()
    link = LeafLink((3, 0), 3)
    return {
        "plumbing": [-5, -2],
        "strands": [3, 0],
        "classes": [
            {"rep": list(s.rep), "tau": _fraction_str(tau_value(f, link, s))}
            for s in _d_zero(f)
        ],
    }


def _golden_nk() -> dict:
    f = _form92()
    subset = _d_zero(f)
    rows = []
    for k in range(1, 13):
        link = LeafLink((k, 0), k)
        rows.append(
            {
                "k": k,
                "taus": [_fraction_str(tau_value(f, link, s)) for s in subset],
            }
        )
    return {
        "plumbing": [-5, -2],
        "classes": [list(s.rep) for s in subset],
        "rows": rows,
    }


def _golden_l2d() -> dict:
    f = _form41()
    subset = _d_zero(f)
    rows = []
    for d in range(1, 11):
        link = LeafLink((2 * d,), 2 * d)
        values = [tau_value(f, link, s) for s in subset]
        profile = obstruct.profile_from_link(f, link)
        bound = obstruct.pl_genus_lower_bound(profile, subset)
        rows.append(
            {
                "d": d,
                "taus": [_fraction_str(v) for v in values],
                "spread": _fraction_str(max(values) - min(values)),
                "pl_genus": bound.genus,
                "self_intersection": _fraction_str(
                    surgery.self_intersection(_l2d_presentation(d, 2))
                ),
                "chern": [
                    _fraction_str(surgery.chern_evaluation(_l2d_presentation(d, rot)))
                    for rot in (2, -2)
                ],
            }
        )
    return {
        "plumbing": [-4],
        "classes": [list(s.rep) for s in subset],
        "rows": rows,
    }


def _golden_m3d() -> dict:
    f = _form92()
    subset = _d_zero(f)
    rows = []
    for d in range(1, 7):
        link = LeafLink((3 * d, 0), 3 * d)
        values = [tau_value(f, link, s) for s in subset]
        rows.append(
            {
                "d": d,
                "taus": [_fraction_str(v) for v in values],
                "self_intersection": _fraction_str(
                    surgery.self_intersection(_m3d_presentation(d, 3))
                ),
                "chern": [
                    _fraction_str(surgery.chern_evaluation(_m3d_presentation(d, rot)))
                    for rot in (3, -3)
                ],
                "window": [
                    _fraction_str(Fraction(d * (d - 1), 2)),
                    _fraction_str(Fraction(3 * d * (d - 1), 2)),
                ],
            }
        )
    return {
        "plumbing": [-5, -2],
        "classes": [list(s.rep) for s in subset],
        "rows": rows,
    }


def _golden_eq72() -> dict:
    f = _form92()
    return {
        "plumbing": [-5, -2],
        "target": "-2",
        "solutions": [list(v) for v in solve_square(f, -2)],
    }


GOLDEN_GENERATORS = {
    "l2d": _golden_l2d,
    "m3d": _golden_m3d,
    "nk": _golden_nk,
    "m3": _golden_m3,
    "eq72": _golden_eq72,
}


def committed_fixture(name: str) -> dict:
    path = resources.files("plumbtau").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def run_paper_examples(args) -> dict:
    names = [args.example] if args.example else list(EXAMPLE_NAMES)
    tables = {}
    for name in names:
        generated = GOLDEN_GENERATORS[name]()
        committed = committed_fixture(name)
        if generated != committed:
            raise GoldenMismatchError(
                f"paper-examples: {name}: regenerated table differs from the committed fixture"
            )
        tables[name] = generated
    return {"command": "paper-examples", "ok": True, "examples": tables}


# --- output rendering ------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_cell(x) for x in value) if value else "-"
    return str(value)


def _is_row_table(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(x, dict) for x in value)
        and all(list(x) == list(value[0]) for x in value)
    )


def _emit_block(mapping: dict, indent: int, out: list):
    pad = "  " * indent
    for key, value in mapping.items():
        if isinstance(value, dict):
            out.append(f"{pad}{key}:")
            _emit_block(value, indent + 1, out)
        elif _is_row_table(value):
            out.append(f"{pad}{key}:")
            headers = list(value[0])
            rows = [[_cell(r[h]) for h in headers] for r in value]
            widths = [
                max(len(h), max(len(row[i]) for row in rows))
                for i, h in enumerate(headers)
            ]
            body = [headers] + rows
            for line in body:
                cells = (c.ljust(w) for c, w in zip(line, widths))
                out.append((pad + "  " + "  ".join(cells)).rstrip())
        else:
            out.append(f"{pad}{key}: {_cell(value)}")


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    out: list = []
    _emit_block(doc, 0, out)
    return "\n".join(out) + "\n"


# --- argument parsing ------------------------------------------------------


def _add_io(sub):
    sub.add_argument("--input", default="-", help="input JSON document, - for stdin")
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbtau",
        description="Exact tau-invariants and Stein-filling obstructions "
        "for links in negative-definite plumbed rational homology spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="per-class tau table of a leaf-fibre link")
    _add_io(p)
    p.add_argument("--spinc", default=None, help="all | d0 | representative like -3,0")
    p.set_defaults(handler=run_tau)

    p = sub.add_parser("dinv", help="correction-term table of the boundary")
    _add_io(p)
    p.set_defaults(handler=run_dinv)

    p = sub.add_parser("spinc", help="spin-c classes and conjugation pairing")
    _add_io(p)
    p.set_defaults(handler=run_spinc)

    p = sub.add_parser("surgery", help="linking-matrix quantities of a presentation")
    _add_io(p)
    p.add_argument("--what", choices=("self-int", "chern", "sl", "tau-curve"), required=True)
    p.set_defaults(handler=run_surgery)

    p = sub.add_parser("tau-qp", help="tau of a quasi-positive braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--writhe", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(handler=run_tau_qp)

    p = sub.add_parser("floer", help="invariants of a filtered chain complex")
    _add_io(p)
    p.add_argument("--what", choices=("d", "tau-top", "tau-bot", "verify"), required=True)
    p.set_defaults(handler=run_floer)

    p = sub.add_parser("obstruct", help="obstruction verdicts from the tau profile")
    _add_io(p)
    p.add_argument(
        "--check",
        choices=(
            "slice-bennequin",
            "metaboliser",
            "conjugation",
            "pl-genus",
            "integrality",
            "concordance",
        ),
        required=True,
    )
    p.set_defaults(handler=run_obstruct)

    p = sub.add_parser("paper-examples", help="regenerate and diff the golden tables")
    p.add_argument("example", nargs="?", choices=EXAMPLE_NAMES, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(handler=run_paper_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except SchemaError as e:
        print(f"plumbtau: {e}", file=sys.stderr)
        return SCHEMA_EXIT
    except GoldenMismatchError as e:
        print(f"plumbtau: {e}", file=sys.stderr)
        return GOLDEN_EXIT
    except ValueError as e:
        print(f"plumbtau: {e}", file=sys.stderr)
        return MATH_EXIT
    except Exception as e:
        # a broken internal invariant, not bad input: one line, no traceback
        detail = " ".join(str(e).split())
        print(f"plumbtau: internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return INTERNAL_EXIT
    sys.stdout.write(render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())

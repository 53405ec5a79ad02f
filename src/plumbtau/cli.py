"""Command-line front end: JSON documents in, exact rational tables out.

One input document can describe a plumbing tree, a leaf-fibre link, a
contact surgery presentation with an optional braid, a filtered chain
complex (as a string array in the textual format of ``floer``), and a
spin-c subset selector ("all", "d0", or explicit representatives).
Subcommands pick the pieces they need.  All rationals are printed as
canonical fraction strings, never floats, and every table is sorted, so
output is byte-for-byte reproducible.

A call builds the argument parser of the one subcommand that its first
argument names; ``-h``, an unknown word or no argument at all builds
every subcommand's.  Both parsers give the same namespace, help and
errors for that subcommand, and the one-command parser skips the set-up
of the other seven.

Exit codes: 0 success, 2 malformed input (schema), 3 mathematical
precondition failure or a work limit exceeded, 4 regenerated golden table
differs from the committed fixture, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from . import EXAMPLE_NAMES

# Each handler imports the layers it calls, so a call of one subcommand
# loads no other subcommand's layers (a ``floer`` call loads only floer).
if TYPE_CHECKING:
    from . import surgery
    from .plumbing import IntersectionForm
    from .tau import LeafLink

SCHEMA_EXIT = 2
MATH_EXIT = 3
GOLDEN_EXIT = 4
INTERNAL_EXIT = 5


class SchemaError(ValueError):
    """Input document malformed; the message names the offending field."""


class GoldenMismatchError(Exception):
    """A regenerated table differs from its committed fixture."""


# --- input document -------------------------------------------------------


def _is(kind):
    return lambda x: isinstance(x, kind) and not isinstance(x, bool)


def _list(check, nonempty=False):
    return lambda x: isinstance(x, list) and (bool(x) or not nonempty) and all(map(check, x))


def _pair(first, second):
    return lambda x: isinstance(x, list) and len(x) == 2 and first(x[0]) and second(x[1])


def _map(check):
    return lambda x: isinstance(x, dict) and all(map(check, x.values()))


class _Required(str):
    """The default of a field that may be neither absent nor null: why it is needed."""


INT, STR, OBJECT = _is(int), _is(str), _is(dict)
REQUIRED = _Required("field is required for this command")
BRAID = ("strands", "writhe", "components")
_REPS = _list(_list(INT, nonempty=True), nonempty=True)

# path: (check, message, default) for every field a command may read.  A
# command checks a field when it reads it, and rejects the unknown fields of
# an object when it reads the object.  An error names the first two parts of
# the path, so a field of a component or of the braid is named by its owner.
# ``subset`` also checks the ``--spinc`` flag; its default is the command's.
SCHEMA = {
    "plumbing": (OBJECT, "must be an object with vertices and edges", REQUIRED),
    "plumbing.vertices": (_list(_pair(STR, INT)), "must be a list of [id, weight] pairs", None),
    "plumbing.edges": (_list(_pair(STR, STR)), "must be a list of [id, id] pairs", []),
    "plumbing.markings": (_map(STR), "must map vertex ids to marking names", {}),
    "leaf_link": (_map(INT), "must map vertex ids to strand counts", REQUIRED),
    "surgery": (OBJECT, "must be an object", REQUIRED),
    "surgery.components": (_list(OBJECT), "must be a list of objects", []),
    "surgery.components.kind": (STR, "each component needs a kind", None),
    "surgery.components.tb": (INT, "tb and rot must be integers", 0),
    "surgery.components.rot": (INT, "tb and rot must be integers", 0),
    "surgery.linking": (_list(_list(INT)), "must be a matrix of integers", []),
    "surgery.link_components": (_list(_list(INT)), "must be a list of integer vectors", []),
    "surgery.braid": (
        lambda x: OBJECT(x) and sorted(x) == sorted(BRAID),
        "needs exactly strands, writhe and components",
        _Required("field is required for this computation"),
    ),
    "surgery.braid.strands": (INT, "strands, writhe and components are integers", None),
    "surgery.braid.writhe": (INT, "strands, writhe and components are integers", None),
    "surgery.braid.components": (INT, "strands, writhe and components are integers", None),
    "floer_complex": (_list(STR), "must be a list of strings", REQUIRED),
    "basepoints": (lambda x: INT(x) and x >= 1, "must be an integer >= 1", 1),
    "subset": (
        lambda x: x in ("all", "d0") or _REPS(x),
        "must be 'all', 'd0', or a non-empty list of integer representatives",
        None,
    ),
}


@contextmanager
def _named(field: str, error=SchemaError):
    """Re-raise a ValueError of the block as ``error``, its message prefixed by ``field``."""
    try:
        yield
    except ValueError as e:
        raise error(f"{field}: {e}")


@contextmanager
def _printing():
    """Refuse an answer that Python will not print in plumbtau's words, keeping exit 3.

    The block only turns numbers into text, and ``str`` of an int or a
    Fraction fails only past ``sys.get_int_max_str_digits()``, which stays
    as the interpreter has it.
    """
    try:
        yield
    except ValueError:
        raise ValueError(
            f"the answer has more than {sys.get_int_max_str_digits()} digits, the most that "
            "Python prints; the environment variable PYTHONINTMAXSTRDIGITS raises that limit"
        )


def _checked(value, path: str, label: Optional[str] = None):
    check, message, _ = SCHEMA[path]
    if not check(value):
        raise SchemaError(f"{label or '.'.join(path.split('.')[:2])}: {message}")
    return value


def _value(node: dict, path: str):
    """Field ``path`` of ``node``, checked against its row of ``SCHEMA``."""
    default = SCHEMA[path][2]
    value = node.get(path.rpartition(".")[2], default)
    if isinstance(default, _Required) and (value is None or value is default):
        raise SchemaError(f"{path}: {default}")
    return _checked(value, path)


def _fields(node: dict, path: str, *names: str) -> list:
    """Reject fields of ``node`` that have no row, then read ``names``."""
    known = {p.rpartition(".")[2] for p in SCHEMA if p.rpartition(".")[0] == path}
    for key in node:
        if key not in known:
            raise SchemaError(f"{path or 'input'}: unknown field {key!r}")
    return [_value(node, f"{path}.{name}") for name in names]


def load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"input: not UTF-8 text: {e}")
    except OSError as e:
        raise SchemaError(f"input: cannot read {path!r}: {e}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or an int past 4,300 digits
        raise SchemaError(f"input: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SchemaError("input: document must be a JSON object")
    _fields(doc, "")
    return doc


def build_form(doc: dict) -> IntersectionForm:
    from .plumbing import PlumbingTree, form_from_tree, require_box

    node = _value(doc, "plumbing")
    vertices, edges, markings = _fields(node, "plumbing", "vertices", "edges", "markings")
    with _named("plumbing"):
        tree = PlumbingTree(
            vertices=tuple((v, w) for v, w in vertices),
            edges=tuple((a, b) for a, b in edges),
            markings=dict(markings),
        )
    # every command that reads a plumbing enumerates its short-vector box, so
    # a refused one is reported before the rest of the document is read
    with _named("plumbing", ValueError):
        require_box(tree)
    return form_from_tree(tree)


def build_link(doc: dict, f: IntersectionForm) -> LeafLink:
    from .tau import leaf_link

    node = _value(doc, "leaf_link")
    with _named("leaf_link"):
        return leaf_link(f, node)


def build_presentation(doc: dict) -> surgery.SurgeryPresentation:
    from . import linalg, surgery

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
    from . import surgery

    # with no surgery object, the braid is what is missing
    node = {} if doc.get("surgery") is None else _value(doc, "surgery")
    braid = _value(node, "surgery.braid")
    strands, writhe, components = _fields(braid, "surgery.braid", *BRAID)
    with _named("surgery.braid", ValueError):
        return surgery.BraidDatum(strands, writhe, components)


def build_floer(doc: dict):
    from .floer import parse_complex

    lines = _value(doc, "floer_complex")
    basepoints = _value(doc, "basepoints")
    with _named("floer_complex"):
        return parse_complex(lines, basepoints=basepoints)


def _classes_checked(f: IntersectionForm, select):
    with _named("plumbing", ValueError):
        return select(f)


def _parse_rep_text(text: str, field: str) -> list[int]:
    """The integers of a representative such as ``-3,0``, ``[ -3, 0 ]`` or ``(66,)``.

    One trailing comma is allowed, as in a Python tuple; any other empty item is not.
    """
    cleaned = text.strip().strip("()[]").strip()
    parts = cleaned.split(",") if cleaned else []
    if len(parts) > 1 and not parts[-1].strip():
        parts.pop()
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise SchemaError(f"{field}: bad class representative {text!r}")


def select_classes(f: IntersectionForm, doc: dict, flag: Optional[str], default: Optional[str]):
    """Resolve the subset selector: flag first, then the document, then default."""
    field, sel = ("subset", doc.get("subset", default)) if flag is None else ("spinc", flag)
    if isinstance(sel, str) and sel not in ("all", "d0"):
        sel = [_parse_rep_text(sel, field)]
    _checked(sel, "subset", field)
    if sel == "all":
        from .plumbing import spinc_classes

        return _classes_checked(f, spinc_classes)
    if sel == "d0":
        from .tau import d_zero_subset

        return _classes_checked(f, d_zero_subset)
    from .plumbing import class_of

    with _named(field, ValueError):
        return [class_of(f, rep) for rep in sel]


def _single_class(classes, check: str):
    if len(classes) != 1:
        raise SchemaError(f"subset: the {check} check needs exactly one spin-c class")
    return classes[0]


# --- subcommand handlers ---------------------------------------------------

# Every value a layer returns is an int or a Fraction, and ``str`` of either is
# the canonical fraction string, so cli never imports ``fractions`` itself.


def run_tau(args) -> dict:
    from .tau import tau_table

    doc = load_document(args.input)
    f = build_form(doc)
    link = build_link(doc, f)
    classes = select_classes(f, doc, args.spinc, "all")
    table = tau_table(f, link, classes)
    # one row per selected class: a subset may name a class twice
    with _printing():
        rows = [
            {"rep": list(s.rep), "tau": str(table[s])}
            for s in sorted(classes, key=lambda s: s.rep)
        ]
    return {"command": "tau", "ell": link.ell, "classes": rows}


def run_dinv(args) -> dict:
    from .plumbing import d_invariant, spinc_classes

    doc = load_document(args.input)
    f = build_form(doc)
    rows = [
        {"rep": list(s.rep), "d": str(d_invariant(s))}
        for s in _classes_checked(f, spinc_classes)
    ]
    return {"command": "dinv", "order": f.qinv[1], "classes": rows}


def run_spinc(args) -> dict:
    from .plumbing import conjugate, spinc_classes

    doc = load_document(args.input)
    f = build_form(doc)
    rows = [
        {"rep": list(s.rep), "conjugate": list(conjugate(s).rep)}
        for s in _classes_checked(f, spinc_classes)
    ]
    return {"command": "spinc", "order": f.qinv[1], "classes": rows}


def run_surgery(args) -> dict:
    from . import surgery

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
    with _printing():
        return {"command": "surgery", "what": args.what, "value": str(value)}


def run_tau_qp(args) -> dict:
    from . import surgery

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


def run_floer(args) -> dict:
    from . import floer

    doc = load_document(args.input)
    c, filt = build_floer(doc)
    if args.what == "verify":
        report = floer.verify_axioms(c)
        return {
            "command": "floer",
            "what": "verify",
            "ok": report.ok,
            "failures": list(report.failures),
        }
    with _named("floer_complex", ValueError):
        if args.what == "d":
            value = floer.correction_term(c)
        elif args.what == "tau-top":
            value = floer.tau_top(c, filt)
        else:  # tau-bot
            value = floer.tau_bot(c, filt)
    return {"command": "floer", "what": args.what, "value": str(value)}


def run_obstruct(args) -> dict:
    from . import obstruct

    doc = load_document(args.input)
    f = build_form(doc)
    link = build_link(doc, f)
    profile = obstruct.profile_from_link(f, link)
    check = args.check
    if check == "pl-genus":
        classes = select_classes(f, doc, None, "d0")
        bound = obstruct.pl_genus_lower_bound(profile, classes)
        with _printing():
            return {
                "command": "obstruct",
                "check": "pl_genus",
                "genus": bound.genus,
                "raw": str(bound.raw),
            }
    if check == "concordance":
        classes = select_classes(f, doc, None, "d0")
        verdict = obstruct.concordance_obstruction(profile, classes)
    elif check == "slice-bennequin":
        from . import surgery

        s = _single_class(select_classes(f, doc, None, None), check)
        b = build_braid(doc)
        sl = surgery.self_linking_shift(surgery.self_linking_braid(b), build_presentation(doc))
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
    with _printing():
        return {"command": "obstruct", **verdict.to_json()}


# --- golden tables ---------------------------------------------------------


def run_paper_examples(args) -> dict:
    from . import paper

    names = [args.example] if args.example else list(EXAMPLE_NAMES)
    tables = {}
    for name in names:
        generated = paper.GOLDEN_GENERATORS[name]()
        if generated != paper.committed_fixture(name):
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


COMMANDS = ("tau", "dinv", "spinc", "surgery", "tau-qp", "floer", "obstruct", "paper-examples")


def _add_io(sub):
    sub.add_argument("--input", default="-", help="input JSON document, - for stdin")
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone if it names one.

    A one-command parser reads that command's argv to the same namespace,
    help and errors as the full one, at a fraction of the set-up cost.
    """
    parser = argparse.ArgumentParser(
        prog="plumbtau",
        description="Exact tau-invariants and Stein-filling obstructions "
        "for links in negative-definite plumbed rational homology spheres.",
    )
    if command in COMMANDS:
        # the usage line of an error still lists every command
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
    else:
        # no metavar: errors name the argument "command", as they always have
        command = None
        sub = parser.add_subparsers(dest="command", required=True)

    if command in (None, "tau"):
        p = sub.add_parser("tau", help="per-class tau table of a leaf-fibre link")
        _add_io(p)
        p.add_argument("--spinc", default=None, help="all | d0 | representative like -3,0")
        p.set_defaults(handler=run_tau)

    if command in (None, "dinv"):
        p = sub.add_parser("dinv", help="correction-term table of the boundary")
        _add_io(p)
        p.set_defaults(handler=run_dinv)

    if command in (None, "spinc"):
        p = sub.add_parser("spinc", help="spin-c classes and conjugation pairing")
        _add_io(p)
        p.set_defaults(handler=run_spinc)

    if command in (None, "surgery"):
        p = sub.add_parser("surgery", help="linking-matrix quantities of a presentation")
        _add_io(p)
        p.add_argument("--what", choices=("self-int", "chern", "sl", "tau-curve"), required=True)
        p.set_defaults(handler=run_surgery)

    if command in (None, "tau-qp"):
        p = sub.add_parser("tau-qp", help="tau of a quasi-positive braid closure")
        p.add_argument("--strands", type=int, required=True)
        p.add_argument("--writhe", type=int, required=True)
        p.add_argument("--components", type=int, required=True)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(handler=run_tau_qp)

    if command in (None, "floer"):
        p = sub.add_parser("floer", help="invariants of a filtered chain complex")
        _add_io(p)
        p.add_argument("--what", choices=("d", "tau-top", "tau-bot", "verify"), required=True)
        p.set_defaults(handler=run_floer)

    if command in (None, "obstruct"):
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

    if command in (None, "paper-examples"):
        p = sub.add_parser("paper-examples", help="regenerate and diff the golden tables")
        p.add_argument("example", nargs="?", choices=EXAMPLE_NAMES, default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(handler=run_paper_examples)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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

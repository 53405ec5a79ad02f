"""Command-line front end: JSON documents in, exact rational tables out.

One input document can describe a plumbing tree, a leaf-fibre link, a
contact surgery presentation with an optional braid, a filtered chain
complex (as a string array in the textual format of ``floer``), and a
spin-c subset selector ("all", "d0", or explicit representatives).
Subcommands pick the pieces they need.  All rationals are printed as
canonical fraction strings, never floats, and every table is sorted, so
output is byte-for-byte reproducible.  JSON is read as ``json.loads`` reads
it (``_loads``) and written as ``json.dumps(doc, indent=2)`` writes it, both
through the C functions of ``_json`` that the ``json`` package wraps, so no
call but ``paper-examples`` imports that package.  A row table, such as a
class table whose rows share their keys and each column one kind of value,
is written from one template per table instead of value by value
(``_rows``).

One table, ``_TABLE``, is the only place that says which code runs a
subcommand: it gives each name in ``COMMANDS`` the module of its handler,
its help line and its argument specs.  The handler is that module's
``run_<name>`` (``-`` read as ``_``), looked up when the call runs, so a
wrapper bound to ``cli.run_tau`` is the one run.  Every subcommand takes
the ``_FORMAT`` spec, and each that reads a document the ``_INPUT`` spec.
``main`` owns the frame of every call: it imports the row's module, reads
the document of a row with ``_INPUT`` (``None`` for the others), calls
``run_<name>(args, doc)``, and writes the answer as ``{"command": name,
**fields}``; a handler returns only its answer's fields.
A well-formed call is read straight from its row by ``_read_args``, to the
namespace argparse would give it, so it neither imports nor builds
argparse.  Every other call (help, an error, an abbreviated flag) goes to
``cli_help.build_parser``, the argparse parser of every row, which prints
the help and the errors.

This module holds what every call runs: the reader and ``SCHEMA``, the
argument table, the JSON writer, ``main``, and the ``tau``, ``dinv`` and
``spinc`` handlers.  Every other handler is a module of its own
(``cli_surgery`` for ``surgery`` and ``tau-qp``, ``cli_floer``,
``cli_obstruct``, ``cli_paper``), and the help and ``--format table`` code
is ``cli_help``; each is imported, and compiled where no ``.pyc`` can be
written, only by the calls that run it.  ``main`` reads the document
through this module's ``load_document``, and ``cli_obstruct`` the form
through ``cli.build_form``, so a wrapper bound to one of those names sees
every call.  ``python -m
plumbtau.cli`` runs the ``main`` of ``plumbtau.cli``, not of ``__main__``,
so that it catches the exceptions those modules raise.

Exit codes: 0 success, 2 malformed input (schema), 3 mathematical
precondition failure or a work limit exceeded, 4 regenerated golden table
differs from the committed fixture, 5 internal error.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii, make_scanner
from contextlib import contextmanager
from functools import partial
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from . import EXAMPLE_NAMES

# Each handler imports the layers it calls, so a call of one subcommand
# loads no other subcommand's layers (a ``floer`` call loads only floer).
if TYPE_CHECKING:
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


def _int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list(check, nonempty=False):
    return lambda x: isinstance(x, list) and (bool(x) or not nonempty) and all(map(check, x))


def _pair(first, second):
    return lambda x: isinstance(x, list) and len(x) == 2 and first(x[0]) and second(x[1])


def _map(check):
    return lambda x: isinstance(x, dict) and all(map(check, x.values()))


class _Required(str):
    """The default of a field that may be neither absent nor null: why it is needed."""


# No bool is a str or a dict, so only INT excludes bool.  STR and OBJECT are
# isinstance(x, str) and isinstance(x, dict) as one C call each, with no
# Python frame: a floer_complex document checks one string per line.
INT, STR, OBJECT = _int, str.__instancecheck__, dict.__instancecheck__
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

# object path -> the names of its fields, the object path "" for the document's top level
_KNOWN: dict[str, set] = {}
for _path in SCHEMA:
    _owner, _, _name = _path.rpartition(".")
    _KNOWN.setdefault(_owner, set()).add(_name)


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
    known = _KNOWN.get(path, ())
    for key in node:
        if key not in known:
            raise SchemaError(f"{path or 'input'}: unknown field {key!r}")
    return [_value(node, f"{path}.{name}") for name in names]


# The scanner of ``json.loads``: the C scanner with json's defaults, NaN and
# the infinities read as floats.  Only an error imports ``json.decoder``, for
# its JSONDecodeError, which the C scanner also raises.  Some Pythons (3.11
# among them) look that module up only in ``sys.modules`` and, without it,
# fail with a SystemError; ``_loads`` then imports it and scans again.
_scan = make_scanner(
    SimpleNamespace(
        strict=True,
        object_hook=None,
        object_pairs_hook=None,
        parse_float=float,
        parse_int=int,
        parse_constant={"-Infinity": float("-inf"), "Infinity": float("inf"),
                        "NaN": float("nan")}.__getitem__,
    )
)
_SPACE = " \t\n\r"


def _decode_error(message: str, text: str, pos: int) -> ValueError:
    from json.decoder import JSONDecodeError

    return JSONDecodeError(message, text, pos)


def _loads(text: str):
    """``json.loads(text)`` for a str: the same value, or the same error at the same place.

    As ``JSONDecoder.decode`` does, it refuses a leading BOM, skips JSON
    whitespace, scans one value, and refuses anything after it but whitespace.
    """
    if text.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_SPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration as e:
        raise _decode_error("Expecting value", text, e.value) from None
    except SystemError:
        import json.decoder  # noqa: F401  (the scanner's JSONDecodeError)

        value, end = _scan(text, start)
    end = len(text) - len(text[end:].lstrip(_SPACE))
    if end != len(text):
        raise _decode_error("Extra data", text, end)
    return value


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
        doc = _loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or an int past 4,300 digits
        raise SchemaError(f"input: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SchemaError("input: document must be a JSON object")
    _fields(doc, "")
    return doc


def build_form(doc: dict) -> IntersectionForm:
    from .plumbing import IntersectionForm, PlumbingTree

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
        f = IntersectionForm(tree)
        f.require_box()
    return f


def build_link(doc: dict, f: IntersectionForm) -> LeafLink:
    from .tau import leaf_link

    node = _value(doc, "leaf_link")
    with _named("leaf_link"):
        return leaf_link(f, node)


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

        return spinc_classes(f)
    if sel == "d0":
        from .tau import d_zero_subset

        return d_zero_subset(f)
    from .plumbing import class_of

    with _named(field, ValueError):
        return [class_of(f, rep) for rep in sel]


# --- subcommand handlers ---------------------------------------------------

# Every value a layer returns is an int, a Fraction, or (d and tau) an integer
# over a known denominator; ``str`` or ``linalg._quotient`` writes the
# canonical fraction string, so cli never imports ``fractions`` itself.


def run_tau(args, doc: dict) -> dict:
    from .linalg import _quotient
    from .tau import TauProfile

    f = build_form(doc)
    link = build_link(doc, f)
    classes = select_classes(f, doc, args.spinc, "all")
    profile = TauProfile(f, link)
    # tau = row(s)[0] / den; row keeps nothing, where num would keep a value per class
    row, den = profile.row, profile.den
    # one row per selected class: a subset may name a class twice
    with _printing():
        rows = [
            {"rep": list(s.rep), "tau": _quotient(row(s)[0], den)}
            for s in sorted(classes, key=lambda s: s.rep)
        ]
    return {"ell": link.ell, "classes": rows}


def run_dinv(args, doc: dict) -> dict:
    from .linalg import _quotient
    from .plumbing import spinc_classes

    f = build_form(doc)
    den = 4 * f.qinv[1]  # d = d_num / den
    rows = [{"rep": list(s.rep), "d": _quotient(s.d_num, den)} for s in spinc_classes(f)]
    return {"order": f.qinv[1], "classes": rows}


def run_spinc(args, doc: dict) -> dict:
    from .plumbing import conjugate, spinc_classes

    f = build_form(doc)
    rows = [
        {"rep": list(s.rep), "conjugate": list(conjugate(s).rep)}
        for s in spinc_classes(f)
    ]
    return {"order": f.qinv[1], "classes": rows}


# --- output rendering ------------------------------------------------------


# The text of each value whose class is exactly one of these, as json writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _rows(rows, pad: str) -> Optional[str]:
    """``_json(rows, pad)`` of a row table, each row written from one template; else None.

    A row table is a list of dicts with one key order, each column of one
    class of ``_SCALARS`` or of non-empty lists of one such class.  Each
    column is checked in C-level passes, and each row's text is made in one
    pass by the table's %-template.
    """
    if len(set(map(tuple, rows))) != 1 or not rows[0]:
        return None
    at, cell = pad + "    ", pad + "      "
    template, columns = "{", []
    for key in rows[0]:
        get = itemgetter(key)
        kinds, lists = set(map(type, map(get, rows))), False
        if kinds == {list} and all(map(get, rows)):
            kinds, lists = set(map(type, chain.from_iterable(map(get, rows)))), True
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if write is None:
            return None
        name = encode_basestring_ascii(key).replace("%", "%%")
        if lists:
            template += f"\n{at}{name}: [\n{cell}%s\n{at}],"
            columns.append(map((",\n" + cell).join, map(partial(map, write), map(get, rows))))
        else:
            template += f"\n{at}{name}: %s,"
            columns.append(map(write, map(get, rows)))
    sep = ",\n" + pad + "  "
    template = template[:-1] + sep[1:] + "}"
    return "".join(("[", sep[1:], sep.join(map(template.__mod__, zip(*columns))), "\n", pad, "]"))


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, nested at ``pad``.

    With ``indent`` set, json yields every token through one generator per
    level; this joins each level once, and writes a row table (``_rows``)
    from one template.  It writes str, int, bool, None and lists, tuples
    and str-keyed dicts of them; any other value, a float or a Fraction,
    raises json's TypeError.
    """
    write = _SCALARS.get(value.__class__)
    if write is not None:
        return write(value)
    inner, sep = pad + "  ", ",\n" + pad + "  "
    # each level is one join, so a long table's text is copied once, not once per +
    if isinstance(value, dict) and value:
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "".join(("{\n", inner, sep.join(items), "\n", pad, "}"))
    if isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))  # one class: a rep's ints, or a table's rows
        kind = kinds.pop() if len(kinds) == 1 else None
        table = _rows(value, pad) if kind is dict else None
        if table is not None:
            return table
        write = _SCALARS.get(kind)
        items = map(write, value) if write else [_json(v, inner) for v in value]
        return "".join(("[\n", inner, sep.join(items), "\n", pad, "]"))
    if isinstance(value, (dict, list, tuple)):
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, (str, int)):  # subclasses, which json writes as their base
        return encode_basestring_ascii(value) if isinstance(value, str) else int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc, "") + "\n"
    from .cli_help import table_text
    return table_text(doc)


# --- argument parsing ------------------------------------------------------


def _arg(*flags: str, **options) -> tuple:
    """One argument spec of a subcommand: the flags and keywords of its ``add_argument``."""
    return flags, options


_INPUT = _arg("--input", default="-", help="input JSON document, - for stdin")
_FORMAT = _arg("--format", choices=("json", "table"), default="json")

# name: (module of its handler, help, argument specs in --help order).  A row
# names a module, not a function, so a call imports its own handler's alone.
_TABLE = {
    "tau": ("cli", "per-class tau table of a leaf-fibre link", _INPUT, _FORMAT,
        _arg("--spinc", default=None, help="all | d0 | representative like -3,0")),
    "dinv": ("cli", "correction-term table of the boundary", _INPUT, _FORMAT),
    "spinc": ("cli", "spin-c classes and conjugation pairing", _INPUT, _FORMAT),
    "surgery": ("cli_surgery", "linking-matrix quantities of a presentation", _INPUT, _FORMAT,
        _arg("--what", choices=("self-int", "chern", "sl", "tau-curve"), required=True)),
    "tau-qp": ("cli_surgery", "tau of a quasi-positive braid closure",
        _arg("--strands", type=int, required=True), _arg("--writhe", type=int, required=True),
        _arg("--components", type=int, required=True), _FORMAT),
    "floer": ("cli_floer", "invariants of a filtered chain complex", _INPUT, _FORMAT,
        _arg("--what", choices=("d", "tau-top", "tau-bot", "verify"), required=True)),
    "obstruct": ("cli_obstruct", "obstruction verdicts from the tau profile", _INPUT, _FORMAT,
        _arg("--check", required=True, choices=("slice-bennequin", "metaboliser",
            "conjugation", "pl-genus", "integrality", "concordance"))),
    "paper-examples": ("cli_paper", "regenerate and diff the golden tables",
        _arg("example", nargs="?", choices=EXAMPLE_NAMES, default=None), _FORMAT),
}
COMMANDS = tuple(_TABLE)


def _read_args(argv: list) -> Optional[SimpleNamespace]:
    """The namespace the argparse parser reads from argv, or None to leave argv to it.

    It reads only argv that argparse reads to the same namespace: a name in
    ``COMMANDS``, then flags of that row spelled exactly, as ``--flag value``
    or ``--flag=value`` with a value, each at most once, and the row's
    positional.  A spaced value may start with ``-`` only if it is ``-``.
    Values are converted by the spec's ``type`` and checked against its
    ``choices``, and every required flag must be there.  Anything else (help,
    an abbreviation, a repeat, ``--``, a bad value, a missing or extra
    argument) is argparse's to read or refuse.
    """
    if not argv or argv[0] not in _TABLE:
        return None
    _, _, *specs = _TABLE[argv[0]]
    names = {flags[0] for flags, _ in specs}
    positional = next((name for name in names if not name.startswith("-")), None)
    read = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            if not eq:
                text = next(tokens, None)
                if text is None or (text.startswith("-") and text != "-"):
                    return None
            if name not in names or name in read or (eq and not text):
                return None
        elif positional is not None and positional not in read:
            name, text = positional, token
        else:
            return None
        read[name] = text
    values = {"command": argv[0]}
    for (name, *_), options in specs:
        value = read.get(name)
        if value is None:
            if options.get("required"):
                return None
            value = options.get("default")
        else:
            try:
                value = options.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            choices = options.get("choices")
            if choices is not None and value not in choices:
                return None
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        # main is the program, so the interpreter exits after it: freeze the
        # collector at exit, and the exit-time collections skip every object
        # still alive; an in-process main(argv) touches neither gc nor atexit
        import atexit
        import gc

        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        from .cli_help import build_parser

        args = build_parser().parse_args(argv)
    try:
        # the row's module, imported by this call alone, then the document if
        # the row reads one, and the fields its run_<name> answers
        module, _, *specs = _TABLE[args.command]
        module = f"{__package__}.{module}"
        __import__(module)
        doc = load_document(args.input) if _INPUT in specs else None
        fields = getattr(sys.modules[module], "run_" + args.command.replace("-", "_"))(args, doc)
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
    sys.stdout.write(render({"command": args.command, **fields}, args.format))
    return 0


if __name__ == "__main__":
    # run as ``python -m plumbtau.cli`` this file is ``__main__``, a second
    # module beside the ``plumbtau.cli`` that the handler modules import and
    # whose exception classes they raise: run that module's main
    from .cli import main as package_main

    sys.exit(package_main())

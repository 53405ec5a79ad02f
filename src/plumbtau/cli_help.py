"""What only help, argument errors and ``--format table`` run of the CLI.

``cli`` imports this module on those paths alone, so a well-formed call
that writes JSON never compiles it: ``build_parser`` builds the argparse
parser of every row of ``cli._TABLE``, and ``table_text`` writes a
document as an aligned table.  Only ``build_parser`` imports argparse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import cli

if TYPE_CHECKING:
    import argparse


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, which prints the help and the errors."""
    import argparse  # not on the table path

    parser = argparse.ArgumentParser(
        prog="plumbtau",
        description="Exact tau-invariants and Stein-filling obstructions "
        "for links in negative-definite plumbed rational homology spheres.",
    )
    # with prog given, argparse does not format the top usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog="plumbtau")
    for name, (_, text, *specs) in cli._TABLE.items():
        p = sub.add_parser(name, help=text)
        for flags, options in specs:
            p.add_argument(*flags, **options)
    return parser


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


def table_text(doc: dict) -> str:
    """``doc`` as ``--format table`` writes it: one line per scalar, aligned row tables."""
    out: list = []
    _emit_block(doc, 0, out)
    return "\n".join(out) + "\n"

"""The ``paper-examples`` handler, loaded only by ``paper-examples`` calls (see ``cli``)."""

from __future__ import annotations

from . import EXAMPLE_NAMES, paper
from .cli import GoldenMismatchError


def run_paper_examples(args) -> dict:
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

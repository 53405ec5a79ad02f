"""The ``floer`` handler, loaded only by ``floer`` calls (see ``cli``)."""

from __future__ import annotations

from . import floer
from .cli import _named, _value


def build_floer(doc: dict):
    lines = _value(doc, "floer_complex")
    basepoints = _value(doc, "basepoints")
    with _named("floer_complex"):
        return floer.parse_complex(lines, basepoints=basepoints)


def run_floer(args, doc: dict) -> dict:
    c, filt = build_floer(doc)
    # past floer.MAX_WORK every question, verify too, exits 3 with the counts
    with _named("floer_complex", ValueError):
        if args.what == "verify":
            failures = floer.verify_axioms(c)
            return {"what": "verify", "ok": not failures, "failures": list(failures)}
        if args.what == "d":
            value = floer.correction_term(c)
        elif args.what == "tau-top":
            value = floer.tau_top(c, filt)
        else:  # tau-bot
            value = floer.tau_bot(c, filt)
    return {"what": args.what, "value": str(value)}

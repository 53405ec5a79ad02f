"""The ``obstruct`` handler, loaded only by ``obstruct`` calls (see ``cli``)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import cli, obstruct
from .cli import SchemaError, _printing

if TYPE_CHECKING:
    from .plumbing import IntersectionForm


def _one_class(f: IntersectionForm, doc: dict, check: str):
    classes = cli.select_classes(f, doc, None, None)
    if len(classes) != 1:
        raise SchemaError(f"subset: the {check} check needs exactly one spin-c class")
    return classes[0]


def run_obstruct(args) -> dict:
    doc = cli.load_document(args.input)
    f = cli.build_form(doc)
    link = cli.build_link(doc, f)
    profile = obstruct.TauProfile(f, link)
    check = args.check
    if check == "pl-genus":
        classes = cli.select_classes(f, doc, None, "d0")
        bound = obstruct.pl_genus_lower_bound(profile, classes)
        with _printing():
            return {
                "command": "obstruct",
                "check": "pl_genus",
                "genus": bound.ceil,
                "raw": str(bound),
            }
    if check == "concordance":
        verdict = obstruct.concordance_obstruction(profile, cli.select_classes(f, doc, None, "d0"))
    elif check == "metaboliser":
        # search first, and walk the box only when there are candidates: the
        # walk keys the class and all its translates, read from the index, not
        # met; a class the subset names badly is refused all the same before
        # a search past its limit
        from .plumbing import spinc_classes

        try:
            candidates = obstruct.metaboliser_candidates(f)
            if candidates:
                spinc_classes(f)
        except ValueError:
            _one_class(f, doc, check)
            raise
        verdict = obstruct.metaboliser_obstruction(profile, _one_class(f, doc, check), candidates)
    else:
        # every other check reads one class, checked before the braid
        s = _one_class(f, doc, check)
        if check == "slice-bennequin":
            from . import surgery
            from .cli_surgery import build_braid, build_presentation

            b = build_braid(doc)
            sl = surgery.self_linking_shift(surgery.self_linking_braid(b), build_presentation(doc))
            verdict = obstruct.slice_bennequin_check(sl, profile.tau_at(s), link.ell)
        elif check == "conjugation":
            verdict = obstruct.conjugation_obstruction(profile, s)
        else:  # integrality
            verdict = obstruct.integrality_obstruction(obstruct.Quotient(profile.num(s), profile.den))
    with _printing():
        return {"command": "obstruct", **verdict.to_json()}

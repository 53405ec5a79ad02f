"""Decision procedures built on top of the per-class tau profile.

Every check returns a Verdict.  The obstruction-style checks answer with
"fires" / "does not fire" / "inconclusive" (they are one-directional: a
firing check rules something out, a silent one proves nothing), while the
plain inequality checks answer "satisfied" / "violated".  Each verdict
carries a slack (the exact margin by which the deciding inequality holds
or fails, when one exists) and a JSON-friendly witness.

The metaboliser machinery works in the invariant-factor decomposition of
H_1 = Z^n / Q Z^n obtained from the Smith normal form of Q.  A metaboliser
is a subgroup of order sqrt(|H_1|) on which the linking form
lambda(a, b) = -a^T Q^{-1} b mod Z vanishes.  The candidates are found by
one search that joins one element at a time and visits only isotropic
subgroups of order at most sqrt(|H_1|); it is exhaustive because every
subgroup of a metaboliser is isotropic too.  ``metaboliser_candidates(f)``
runs it, and ``metaboliser_obstruction(profile, s, candidates)`` takes its
result; the CLI walks the short box in between when there are candidates.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .plumbing import IntersectionForm, SpincClass, conjugate, spinc_translate
from .tau import LazyTauTable, LeafLink

FIRES = "fires"
CLEAR = "does not fire"
INCONCLUSIVE = "inconclusive"
SATISFIED = "satisfied"
VIOLATED = "violated"

# Work limit of the metaboliser search, whose cost is exponential in the
# 2-rank of H_1.  A step is a linking-form pairing test or a subgroup join,
# about 11-13 us each on a Xeon server core, so a search that reaches the
# limit stops in 1.1-1.3 s.  Past it the search raises ValueError (exit 3).
MAX_SEARCH_STEPS = 100_000


class IncompleteProfileError(ValueError):
    """A check needed a tau value the profile does not contain."""


class _ProfileFields(NamedTuple):
    tau: Mapping[SpincClass, Fraction]
    ell: int


class TauProfile(_ProfileFields):
    """Tau values of one link over a set of spin-c classes."""

    __slots__ = ()

    def __new__(cls, tau: Mapping[SpincClass, Fraction], ell: int):
        self = super().__new__(cls, tau, ell)
        if self.ell < 0:
            raise ValueError("component count must be non-negative")
        for s, v in self.tau.items():
            if not isinstance(s, SpincClass):
                raise ValueError("profile keys must be spin-c classes")
            if not isinstance(v, (int, Fraction)):
                raise ValueError("profile values must be exact rationals")
        return self

    def tau_at(self, s: SpincClass) -> Fraction:
        try:
            value = self.tau[s]
        except KeyError:
            raise IncompleteProfileError(
                f"profile has no tau value at the spin-c class {s.rep}"
            ) from None
        return value if isinstance(value, Fraction) else Fraction(value)


def profile_from_link(f: IntersectionForm, link: LeafLink) -> TauProfile:
    """Full profile of a leaf-fibre link: tau at every spin-c class, each computed when read."""
    # its checks are the link's and the form's, so it skips those of a caller's dict
    return _ProfileFields.__new__(TauProfile, LazyTauTable(f, link), link.ell)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Verdict(NamedTuple):
    check: str
    verdict: str
    witness: object = None
    slack: Optional[Fraction] = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witness": _jsonable(self.witness),
            "slack": None if self.slack is None else str(Fraction(self.slack)),
        }


def slice_bennequin_check(sl, tau: Fraction, ell: int) -> Verdict:
    """Transverse bound sl <= 2*tau - ell; slack is the difference."""
    slack = 2 * Fraction(tau) - ell - Fraction(sl)
    return Verdict(
        check="slice_bennequin",
        verdict=SATISFIED if slack >= 0 else VIOLATED,
        witness={"sl": Fraction(sl), "tau": Fraction(tau), "ell": ell},
        slack=slack,
    )


def qhb4_filling_obstruction(
    profile: TauProfile,
    sl_values: Sequence,
    contact_class: Optional[SpincClass] = None,
) -> Verdict:
    """Rule out a rational homology ball Stein filling from transverse data.

    Fires when some supplied self-linking number exceeds 2*tau - ell at the
    contact class.  With no contact class given, the verdict fires only if
    every class in the profile is violated: otherwise an unviolated class
    could still be the contact one.
    """
    if not sl_values:
        return Verdict(
            check="qhb4_filling",
            verdict=INCONCLUSIVE,
            witness="no transverse representatives supplied",
        )
    best_sl = max(Fraction(v) for v in sl_values)
    if contact_class is not None:
        bound = 2 * profile.tau_at(contact_class) - profile.ell
        slack = bound - best_sl
        return Verdict(
            check="qhb4_filling",
            verdict=FIRES if slack < 0 else CLEAR,
            witness={
                "class": list(contact_class.rep),
                "sl": best_sl,
                "bound": bound,
            },
            slack=slack,
        )
    if not profile.tau:
        return Verdict(
            check="qhb4_filling",
            verdict=INCONCLUSIVE,
            witness="profile covers no spin-c classes",
        )
    best_class = max(profile.tau, key=lambda s: (profile.tau_at(s), s.rep))
    slack = 2 * profile.tau_at(best_class) - profile.ell - best_sl
    return Verdict(
        check="qhb4_filling",
        verdict=FIRES if slack < 0 else CLEAR,
        witness={
            "sl": best_sl,
            "surviving_class": None if slack < 0 else list(best_class.rep),
        },
        slack=slack,
    )


class _CandidateFields(NamedTuple):
    generators: tuple[tuple[int, ...], ...]
    order: int
    elements: tuple[tuple[int, ...], ...]
    residues: tuple[tuple[int, ...], ...]


class MetaboliserCandidate(_CandidateFields):
    """Subgroup of H_1 of square-root order with integral linking pairings.

    Generators and elements are integer lifts to Z^n; residues are the
    corresponding coordinates in the invariant-factor decomposition.
    """

    __slots__ = ()

    def __new__(
        cls,
        generators: tuple[tuple[int, ...], ...],
        order: int,
        elements: tuple[tuple[int, ...], ...],
        residues: tuple[tuple[int, ...], ...],
    ):
        self = super().__new__(cls, generators, order, elements, residues)
        if self.order < 1 or len(self.elements) != self.order:
            raise ValueError("element list must realize the stated order")
        return self


def _h1_decomposition(f: IntersectionForm):
    """Invariant factors of Z^n / Q Z^n with maps to and from residues.

    Smith form s*Q*t = D gives x in Q*Z^n iff s*x in D*Z^n, so the residue
    map is x -> s*x mod diag(D) and s^{-1} lifts residues back.
    """
    s, dmat, _ = linalg.smith_normal_form(f.q)
    diag = tuple(dmat[i][i] for i in range(f.n))
    sinv, _ = linalg.inverse(s)  # s is unimodular, so the denominator is 1
    return diag, s, sinv


def _join(diag, group, g):
    """The subgroup H + <g>, built coset by coset: H, H + g, H + 2g, ...

    Cosets of H are equal or disjoint and the first one to repeat is H, so
    the loop stops at the first coset whose lead element is already in.
    """
    joined = set(group)
    coset = list(group)
    while True:
        coset = [tuple((x + y) % m for x, y, m in zip(h, g, diag)) for h in coset]
        if coset[0] in joined:
            return frozenset(joined)
        joined.update(coset)


def metaboliser_candidates(f: IntersectionForm) -> list[MetaboliserCandidate]:
    """Order-sqrt(|H_1|) subgroups on which the linking form is integral."""
    order = f.qinv[1]  # |det Q|; a singular form raises SingularMatrixError
    root = math.isqrt(order)
    if root * root != order:
        return []
    diag, _, sinv = _h1_decomposition(f)
    lifts = {  # every residue with its integer lift to Z^n
        r: tuple(sum(sinv[i][j] * r[j] for j in range(f.n)) for i in range(f.n))
        for r in itertools.product(*[range(x) for x in diag])
    }

    steps = 0

    def step():
        nonlocal steps
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise ValueError(
                f"the metaboliser search in a group of order {order} took {steps}"
                f" steps (pairing tests and subgroup joins), above the limit of"
                f" {MAX_SEARCH_STEPS}"
            )

    a, p = f.qinv  # lambda(x, y) = x·a·y / p
    images = {r: [sum(map(operator.mul, row, x)) for row in a] for r, x in lifts.items()}

    def integral(r, t):
        step()
        return sum(map(operator.mul, lifts[r], images[t])) % p == 0

    # Isotropy passes to subgroups, so a metaboliser G is reached from {0}
    # by joining one element at a time through isotropic subgroups of G,
    # none of order above |G|: visiting only those keeps the search
    # exhaustive.  Each subgroup H carries the elements g with lambda(g, g)
    # and every lambda(g, h), h in H, integral; only they may join H, and
    # H + <g> keeps those of them that also pair integrally with g.
    zero = frozenset({tuple(0 for _ in diag)})
    found = {zero}
    frontier = [(zero, [g for g in lifts if integral(g, g)])]
    while frontier:
        h, allowed = frontier.pop()
        for g in allowed:
            if g in h:
                continue
            step()
            k = _join(diag, h, g)
            if len(k) <= root and k not in found:
                found.add(k)
                frontier.append((k, [x for x in allowed if integral(x, g)]))

    out = []
    for group in sorted((h for h in found if len(h) == root), key=sorted):
        residues = tuple(sorted(group))
        gens: list[tuple[int, ...]] = []
        closed = zero
        for r in residues:
            if r not in closed:
                gens.append(r)
                closed = _join(diag, closed, r)
        out.append(
            MetaboliserCandidate(
                generators=tuple(lifts[r] for r in gens),
                order=root,
                elements=tuple(lifts[r] for r in residues),
                residues=residues,
            )
        )
    return out


def metaboliser_obstruction(
    profile: TauProfile, s: SpincClass, candidates: list[MetaboliserCandidate]
) -> Verdict:
    """Rule out bounding a holomorphic curve in a rational-ball filling.

    A candidate metaboliser G survives when |tau(s + a)| <= tau(s) for every
    a in G; the obstruction fires when no candidate survives (in particular
    when no metaboliser exists at all).  Slack is the best margin
    tau(s) - max |tau(s + a)| over the candidates, which are
    ``metaboliser_candidates(s.form)``.
    """
    if not candidates:
        return Verdict(
            check="metaboliser",
            verdict=FIRES,
            witness=f"no metaboliser exists in a group of order {s.form.qinv[1]}",
        )
    base = profile.tau_at(s)
    best = None
    for cand in candidates:
        margin = min(
            base - abs(profile.tau_at(spinc_translate(s, alpha)))
            for alpha in cand.elements
        )
        if best is None or margin > best[0]:
            best = (margin, cand)
    slack, cand = best
    witness = {
        "class": list(s.rep),
        "metaboliser": [list(g) for g in cand.generators],
        "subgroup_order": cand.order,
    }
    return Verdict(
        check="metaboliser",
        verdict=CLEAR if slack >= 0 else FIRES,
        witness=witness,
        slack=slack,
    )


def conjugation_obstruction(profile: TauProfile, s: SpincClass) -> Verdict:
    """Holomorphic curves for both J and -J force tau(s) = tau(conjugate)."""
    sbar = conjugate(s)
    if s not in profile.tau or sbar not in profile.tau:
        missing = sbar if s in profile.tau else s
        return Verdict(
            check="conjugation",
            verdict=INCONCLUSIVE,
            witness=f"profile has no tau value at the spin-c class {missing.rep}",
        )
    gap = Fraction(profile.tau[s]) - Fraction(profile.tau[sbar])
    return Verdict(
        check="conjugation",
        verdict=FIRES if gap != 0 else CLEAR,
        witness={
            "class": list(s.rep),
            "conjugate": list(sbar.rep),
            "tau": Fraction(profile.tau[s]),
            "tau_conjugate": Fraction(profile.tau[sbar]),
        },
        slack=gap,
    )


class PLGenusBound(NamedTuple):
    genus: int
    raw: Fraction


def pl_genus_lower_bound(profile: TauProfile, subset: Sequence[SpincClass]) -> PLGenusBound:
    """Lower bound |tau_max - tau_min| / 2 over ``subset`` for the PL slice genus.

    The raw rational bound comes with its ceiling, since a genus is an
    integer.
    """
    if not subset:
        raise ValueError("subset of spin-c classes must be non-empty")
    values = [profile.tau_at(s) for s in subset]
    raw = abs(max(values) - min(values)) / 2
    return PLGenusBound(genus=math.ceil(raw), raw=raw)


def integrality_obstruction(tau) -> Verdict:
    """A link bounding a curve with the given contact class has integral tau."""
    value = Fraction(tau)
    return Verdict(
        check="integrality",
        verdict=FIRES if value.denominator != 1 else CLEAR,
        witness={"tau": value},
    )


def concordance_obstruction(profile: TauProfile, subset: Sequence[SpincClass]) -> Verdict:
    """Constant tau over ``subset`` is necessary for concordance to a local link."""
    if not subset:
        return Verdict(
            check="concordance",
            verdict=INCONCLUSIVE,
            witness="no spin-c classes supplied",
        )
    values = [profile.tau_at(s) for s in subset]
    spread = max(values) - min(values)
    return Verdict(
        check="concordance",
        verdict=FIRES if spread != 0 else CLEAR,
        witness={"tau_max": max(values), "tau_min": min(values)},
        slack=spread,
    )

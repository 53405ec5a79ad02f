"""Decision procedures built on top of the per-class tau profile.

The profile is ``tau.TauProfile``: the checks compare its integer
numerators over 2|det Q|.  The integrality, conjugation, metaboliser,
pl-genus and concordance checks keep each exact value as an integer over a
known denominator, a ``Quotient``, written by ``plumbtau._quotient``, and
make no Fraction, so an ``obstruct`` call of theirs imports no
``fractions``; a slack becomes a Fraction only when read.  The pl-genus
bound is the raw Quotient, and its ``ceil`` the genus.  The
slice-Bennequin and filling checks take Fractions from ``surgery`` and
import ``fractions`` where they run.  Every check returns a Verdict.  The
obstruction-style checks answer with "fires" / "does not fire" /
"inconclusive" (they are one-directional: a firing check rules something
out, a silent one proves nothing), while the plain inequality checks
answer "satisfied" / "violated".  Each verdict carries a slack (the exact
margin by which the deciding inequality holds or fails, when one exists)
and a JSON-friendly witness.

The metaboliser machinery works in the invariant-factor decomposition of
H_1 = Z^n / Q Z^n obtained from the Smith normal form of Q.  A metaboliser
is a subgroup of order sqrt(|H_1|) on which the linking form
lambda(a, b) = -a^T Q^{-1} b mod Z vanishes.  The candidates are found by
one search that joins one element at a time and visits only isotropic
subgroups of order at most sqrt(|H_1|); it is exhaustive because every
subgroup of a metaboliser is isotropic too, and it reaches each subgroup
once, along its greedy generators.  ``metaboliser_candidates(f)`` runs it,
and ``metaboliser_obstruction(profile, s, candidates)`` takes its result;
the CLI walks the short box in between when there are candidates.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import _quotient
from .plumbing import (
    IntersectionForm,
    SpincClass,
    conjugate,
    spinc_classes,
    spinc_translate,
)
from .tau import TauProfile

# fractions is imported where a Fraction is made: see the note in plumbing
if TYPE_CHECKING:
    from fractions import Fraction

FIRES = "fires"
CLEAR = "does not fire"
INCONCLUSIVE = "inconclusive"
SATISFIED = "satisfied"
VIOLATED = "violated"

# Work limit of the metaboliser search, whose cost is exponential in the
# 2-rank of H_1; past it the search raises ValueError (exit 3).  A step is a
# linking-form pairing test or a subgroup join.  The (-6; -2 x 10) star hits
# the limit in 0.11-0.18 s in-process and exits 3 after 0.21-0.31 s of CLI
# wall time; (-5; -2 x 8) answers in 98,852 steps and 0.75-0.83 s in-process
# (5 runs each, shared two-core Xeon, Python 3.11).
MAX_SEARCH_STEPS = 100_000


class Quotient(NamedTuple):
    """The exact value num/den, den > 0, held as two integers.

    ``str`` writes it as ``str(Fraction(num, den))`` does, with
    ``plumbtau._quotient``, and only when asked, so ``to_json`` writes it
    inside the CLI's guard on over-long numbers.  Two Quotients compare by
    their values, by cross-multiplication, and equal ones hash alike:
    ``Quotient(18, 9) == Quotient(2, 1)`` and ``Quotient(2, 4) < Quotient(1, 1)``.
    A Quotient equals no plain tuple, and orders against none.
    """

    num: int
    den: int

    def __str__(self) -> str:
        return _quotient(self.num, self.den)

    def _compare(self, other, op):
        if isinstance(other, Quotient):
            return op(self.num * other.den, other.num * self.den)  # both den > 0
        if not isinstance(other, tuple):
            return NotImplemented
        # a plain tuple, which would otherwise answer as tuple does
        if op is operator.eq:
            return False
        raise TypeError(f"a Quotient orders against Quotients only, not {type(other).__name__}")

    def __eq__(self, other) -> bool:
        return self._compare(other, operator.eq)

    def __ne__(self, other) -> bool:
        return not self == other

    def __lt__(self, other) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> bool:
        return self._compare(other, operator.ge)

    def __hash__(self) -> int:
        g = math.gcd(self.num, self.den)
        return hash((self.num // g, self.den // g))

    @property
    def ceil(self) -> int:
        """The least integer at or above num/den."""
        return -(-self.num // self.den)


class _VerdictFields(NamedTuple):
    check: str
    verdict: str
    witness: object = None
    slack: object = None


class Verdict(_VerdictFields):
    """A check's verdict, its JSON-friendly witness, and its slack.

    A witness is None, a str, or a str-keyed dict whose values are each
    None, an int, a list of ints, a str or an exact value: a ``Quotient``,
    or a ``Fraction`` from the checks that take surgery's.  ``to_json``
    writes each exact value, the slack too, as its string, in one pass over
    the witness.  The checks that make no Fraction give each exact value,
    in the witness and as the slack, as a ``Quotient``.  ``slack`` reads as
    a number: the one given, or the Fraction of a Quotient, made then, as
    ``TauProfile.tau_at`` makes tau.
    """

    __slots__ = ()

    @property
    def slack(self) -> Optional[Fraction]:
        value = self[3]
        if isinstance(value, Quotient):
            import fractions

            return fractions.Fraction(*value)
        return value

    def to_json(self) -> dict:
        witness = self.witness
        if isinstance(witness, dict):  # each exact value, a Quotient or a Fraction, as its string
            witness = {k: v if v is None or isinstance(v, (int, list, str)) else str(v)
                       for k, v in witness.items()}
        slack = None if self[3] is None else str(self[3])
        return {"check": self.check, "verdict": self.verdict, "witness": witness, "slack": slack}


def slice_bennequin_check(sl, tau: Fraction, ell: int) -> Verdict:
    """Transverse bound sl <= 2*tau - ell; slack is the difference."""
    from fractions import Fraction

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
    every spin-c class of the form is violated: otherwise an unviolated
    class could still be the contact one.  So one class is read: the
    contact class, else the class of greatest (tau, rep), whose bound is the
    loosest.  The witness names the class and its bound when the class was
    given, else the surviving class when there is one.
    """
    from fractions import Fraction

    if not sl_values:
        return Verdict(
            check="qhb4_filling",
            verdict=INCONCLUSIVE,
            witness="no transverse representatives supplied",
        )
    best_sl = max(Fraction(v) for v in sl_values)
    given = contact_class is not None
    if given:
        cls = contact_class
    else:
        cls = max(spinc_classes(profile.form), key=lambda s: (profile.num(s), s.rep))
    bound = Fraction(2 * profile.num(cls) - profile.ell * profile.den, profile.den)  # 2*tau - ell
    slack = bound - best_sl
    if given:
        witness = {"class": list(cls.rep), "sl": best_sl, "bound": bound}
    else:
        witness = {"sl": best_sl, "surviving_class": None if slack < 0 else list(cls.rep)}
    return Verdict(
        check="qhb4_filling", verdict=FIRES if slack < 0 else CLEAR, witness=witness, slack=slack
    )


class MetaboliserCandidate(NamedTuple):
    """Subgroup of H_1 of square-root order with integral linking pairings.

    Generators and elements are integer lifts to Z^n; residues are the
    corresponding coordinates in the invariant-factor decomposition.
    """

    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]
    residues: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _h1_decomposition(f: IntersectionForm):
    """Invariant factors of Z^n / Q Z^n with maps to and from residues.

    Smith form s*Q*t = D gives x in Q*Z^n iff s*x in D*Z^n, so the residue
    map is x -> s*x mod diag(D) and s^{-1} lifts residues back.  s^{-1} is
    read off the same identity, Q*t = s^{-1}*D: column i of Q*t is d_i times
    column i of s^{-1}, and every d_i > 0 because Q is definite.
    """
    # linalg is imported here, its one reader, so that a check other than
    # the metaboliser and slice-Bennequin loads no linear algebra
    from . import linalg

    s, dmat, t = linalg.smith_normal_form(f.q)
    diag = tuple(dmat[i][i] for i in range(f.n))
    columns = list(zip(*t))
    sinv = [[sum(map(operator.mul, row, c)) // d for c, d in zip(columns, diag)] for row in f.q]
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
    order = f.qinv[1]  # |det Q|; a form that is not negative definite is refused
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

    # Each isotropic subgroup K is reached once, along its greedy generators
    # g_i = min(K \ <g_1, ..., g_{i-1}>): H + <g> is kept only when g is its
    # least element outside H, and then only elements above g may join.
    # K's chain <g_1> < <g_1, g_2> < ... < K is kept: each link is isotropic
    # of order at most |K|, its list is a prefix of K's, and g_{i+1} > g_i.
    # No other path is: an element of K below the next generator would be
    # the least new one at a later join, below that join's own generator.
    # The elements that may join pair integrally with every generator.
    zero = frozenset({tuple(0 for _ in diag)})
    found = []
    frontier = [(zero, (), sorted(g for g in lifts if integral(g, g)))]
    while frontier:
        h, gens, allowed = frontier.pop()
        if len(h) == root:
            found.append((tuple(sorted(h)), gens))
            continue
        for i, g in enumerate(allowed):
            if g in h:
                continue
            step()
            k = _join(diag, h, g)
            if len(k) <= root and min(k - h) == g:
                above = [x for x in allowed[i + 1 :] if integral(x, g)]
                frontier.append((k, gens + (g,), above))
    return [
        MetaboliserCandidate(
            generators=tuple(lifts[r] for r in gens),
            elements=tuple(lifts[r] for r in residues),
            residues=residues,
        )
        for residues, gens in sorted(found)
    ]


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
    base = profile.num(s)
    # candidates share elements: each distinct translate is read once
    margins = {
        a: base - abs(profile.num(spinc_translate(s, a)))
        for a in dict.fromkeys(a for c in candidates for a in c.elements)
    }
    best = {c: min(map(margins.__getitem__, c.elements)) for c in candidates}
    cand = max(best, key=best.get)  # the first of the candidates with the best margin
    margin = best[cand]
    witness = {
        "class": list(s.rep),
        "metaboliser": [list(g) for g in cand.generators],
        "subgroup_order": cand.order,
    }
    return Verdict(
        check="metaboliser",
        verdict=CLEAR if margin >= 0 else FIRES,
        witness=witness,
        slack=Quotient(margin, profile.den),
    )


def conjugation_obstruction(profile: TauProfile, s: SpincClass) -> Verdict:
    """Holomorphic curves for both J and -J force tau(s) = tau(conjugate)."""
    sbar = conjugate(s)
    num, num_bar, den = profile.num(s), profile.num(sbar), profile.den
    return Verdict(
        check="conjugation",
        verdict=FIRES if num != num_bar else CLEAR,
        witness={
            "class": list(s.rep),
            "conjugate": list(sbar.rep),
            "tau": Quotient(num, den),
            "tau_conjugate": Quotient(num_bar, den),
        },
        slack=Quotient(num - num_bar, den),
    )


def pl_genus_lower_bound(profile: TauProfile, subset: Sequence[SpincClass]) -> Quotient:
    """Lower bound |tau_max - tau_min| / 2 over ``subset`` for the PL slice genus.

    The bound is the raw Quotient; a genus is an integer, so its ``ceil``
    bounds the genus too.
    """
    if not subset:
        raise ValueError("subset of spin-c classes must be non-empty")
    values = [profile.num(s) for s in subset]
    return Quotient(max(values) - min(values), 2 * profile.den)


def integrality_obstruction(tau: Quotient) -> Verdict:
    """A link bounding a curve with the given contact class has integral tau."""
    num, den = tau
    return Verdict(
        check="integrality",
        verdict=FIRES if num % den else CLEAR,
        witness={"tau": tau},
    )


def concordance_obstruction(profile: TauProfile, subset: Sequence[SpincClass]) -> Verdict:
    """Constant tau over ``subset`` is necessary for concordance to a local link."""
    if not subset:
        return Verdict(
            check="concordance",
            verdict=INCONCLUSIVE,
            witness="no spin-c classes supplied",
        )
    values = [profile.num(s) for s in subset]
    hi, lo, den = max(values), min(values), profile.den
    return Verdict(
        check="concordance",
        verdict=FIRES if hi != lo else CLEAR,
        witness={"tau_max": Quotient(hi, den), "tau_min": Quotient(lo, den)},
        slack=Quotient(hi - lo, den),
    )

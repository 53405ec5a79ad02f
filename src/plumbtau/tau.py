"""Lattice tau-invariants of leaf-fibre links in plumbed manifolds.

A link here is a union of disk-bundle fibres over unmarked leaves of a
negative-definite plumbing tree, recorded by the vector m of strand
multiplicities.  Its tau-invariant in a spin-c class s is

    tau = (min over kappa of kappa^T Q^{-1} m) / 2  -  (m^T Q^{-1} m) / 2,

where kappa runs over the short representatives of s that realize the
correction term d(s) (those of maximal square).  Restricting to the
d-realizing representatives is what reproduces every known table; the
coset class of (-3,0) on the (-5,-2) chain has a second, lower-square
short representative that must not enter the minimum.

With Q^{-1} = a/p (a integral, p = |det Q|) and w = a·m built once per
link, kappa^T Q^{-1} m = (kappa·w)/p and m^T Q^{-1} m = (m·w)/p, so

    tau = (min over kappa of kappa·w  -  m·w) / 2p:

one integer dot product per candidate.  ``TauProfile`` holds tau as
that integer numerator over 2p and makes the Fraction only when asked.

The short box a_v + 2 <= kappa_v <= -a_v (a_v the weight of v, kappa_v =
K·v) gives the minimum over every maximiser of the class, by reflection.
kappa ± 2Q·e_v lies in the class of kappa and has square kappa^2 ±
4·kappa_v + 4·a_v, so a maximiser has a_v <= kappa_v <= -a_v.  One with
kappa_v = a_v reflects to kappa' = kappa - 2Q·e_v, a maximiser with
kappa'_v = -a_v, and kappa^T Q^{-1} m = kappa'^T Q^{-1} m + 2·m_v.
Reflecting while some coordinate sits at a_v walks kappa - 2Q·x with x >= 0
growing, so it never repeats a vector among the finitely many maximisers
and ends in the short box, its pairing never raised since m >= 0
(``LeafLink`` refuses a negative strand).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .plumbing import (
    IntersectionForm,
    SpincClass,
    spinc_classes,
)

# fractions is imported where a Fraction is made: see the note in plumbing
if TYPE_CHECKING:
    from fractions import Fraction


class _LinkFields(NamedTuple):
    m: tuple[int, ...]


class LeafLink(_LinkFields):
    """Fibre multiplicities over the tree vertices; each strand is a component."""

    __slots__ = ()

    def __new__(cls, m: tuple[int, ...]):
        self = super().__new__(cls, m)
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be non-negative")
        return self

    @property
    def ell(self) -> int:
        """The number of components: one per strand."""
        return sum(self.m)


def leaf_link(f: IntersectionForm, strands: Mapping[str, int]) -> LeafLink:
    """Build a LeafLink from vertex-id -> strand-count, checking leaf support."""
    m = [0] * f.n
    for vid, count in strands.items():
        if vid not in f.order:
            raise ValueError(f"unknown vertex {vid!r}")
        if count < 0:
            raise ValueError("strand counts must be non-negative")
        if count > 0 and f.tree.marking(vid) != "unmarked_leaf":
            raise ValueError(f"vertex {vid!r} is not an unmarked leaf")
        m[f.index_of(vid)] = count
    return LeafLink(tuple(m))


class TauProfile:
    """Tau of a link at the spin-c classes of its form, as integers over ``den = 2|det Q|``.

    The link's checks run once, when the profile is built.  ``row(s)`` is
    computed on every call; ``num(s)`` keeps its numerator, so a class read
    twice costs one row; ``tau_at(s)`` makes the Fraction.  The classes are
    ``spinc_classes(profile.form)``.
    """

    __slots__ = ("form", "ell", "den", "_w", "_mw", "_nums")

    def __init__(self, f: IntersectionForm, link: LeafLink):
        f.require_negative_definite()
        if len(link.m) != f.n:
            raise ValueError("link multiplicity vector has wrong length")
        a, p = f.qinv
        self._w = [sum(map(mul, row, link.m)) for row in a]
        self._mw = sum(map(mul, link.m, self._w))
        self.form, self.ell, self.den, self._nums = f, link.ell, 2 * p, {}

    def row(self, s: SpincClass) -> tuple[int, tuple[int, ...]]:
        """(2|det Q|·tau, lex-least minimizer) at the class."""
        if s.form is not self.form and s.form.q != self.form.q:
            raise ValueError("spin-c class belongs to a different form")
        # p > 0, so the integer k·w orders the candidates as k^T Q^{-1} m does
        w = self._w
        best, minimizer = min((sum(map(mul, k, w)), k) for k in s.realizing)
        return best - self._mw, minimizer

    def num(self, s: SpincClass) -> int:
        """2|det Q|·tau at the class, computed when first read."""
        value = self._nums.get(s)
        if value is None:
            value = self._nums[s] = self.row(s)[0]
        return value

    def tau_at(self, s: SpincClass) -> Fraction:
        import fractions

        return fractions.Fraction(self.num(s), self.den)


def d_zero_subset(f: IntersectionForm) -> list[SpincClass]:
    """The spin-c classes with vanishing correction term (the default pl-genus subset)."""
    return [s for s in spinc_classes(f) if s.d_num == 0]  # d = d_num / 4|det Q|

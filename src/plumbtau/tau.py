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

one integer dot product per candidate.  A row holds tau's integer
numerator over 2p; ``tau_table`` and ``LazyTauTable`` make the Fraction.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple

from .plumbing import (
    IntersectionForm,
    SpincClass,
    spinc_classes,
)


class _LinkFields(NamedTuple):
    m: tuple[int, ...]
    ell: int


class LeafLink(_LinkFields):
    """Fibre multiplicities over the tree vertices; each strand is a component."""

    __slots__ = ()

    def __new__(cls, m: tuple[int, ...], ell: int):
        self = super().__new__(cls, m, ell)
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be non-negative")
        if self.ell != sum(self.m):
            raise ValueError("component count must equal total multiplicity")
        return self


def leaf_link(f: IntersectionForm, strands: Mapping[str, int]) -> LeafLink:
    """Build a LeafLink from vertex-id -> strand-count, checking leaf support."""
    m = [0] * f.n
    for vid, count in strands.items():
        if vid not in f.order:
            raise ValueError(f"unknown vertex {vid!r}")
        if count < 0:
            raise ValueError("strand counts must be non-negative")
        if count > 0 and f.tree is not None and f.tree.marking(vid) != "unmarked_leaf":
            raise ValueError(f"vertex {vid!r} is not an unmarked leaf")
        m[f.index_of(vid)] = count
    return LeafLink(m=tuple(m), ell=sum(m))


def _tau_of(f: IntersectionForm, link: LeafLink):
    """The link's checks, then (2|det Q|·tau, lex-least minimizer) at a class, from one w = a·m."""
    f.require_negative_definite()
    if len(link.m) != f.n:
        raise ValueError("link multiplicity vector has wrong length")
    a, p = f.qinv
    w = [sum(map(mul, row, link.m)) for row in a]
    mw = sum(map(mul, link.m, w))

    def row(s: SpincClass) -> tuple[int, tuple[int, ...]]:
        if s.form.q != f.q:
            raise ValueError("spin-c class belongs to a different form")
        # p > 0, so the integer k·w orders the candidates as k^T Q^{-1} m does
        best, minimizer = min((sum(map(mul, k, w)), k) for k in s.realizing)
        return best - mw, minimizer

    return row


def tau_table(
    f: IntersectionForm, link: LeafLink, classes: Iterable[SpincClass]
) -> dict[SpincClass, Fraction]:
    """Tau value of each of the given classes, keyed in their order."""
    row, den = _tau_of(f, link), 2 * f.qinv[1]
    return {s: Fraction(row(s)[0], den) for s in classes}


class LazyTauTable(Mapping):
    """Tau of a link at every spin-c class of its form, each computed when first read.

    It iterates in ``spinc_classes`` order, which builds every class; a
    read builds none.  Its keys are the spin-c classes of forms with this
    matrix.
    """

    def __init__(self, f: IntersectionForm, link: LeafLink):
        f.require_box()  # what spinc_classes and class_of need, before Q^-1
        self._form, self._row, self._values = f, _tau_of(f, link), {}
        self._den = 2 * f.qinv[1]  # tau = row(s)[0] / den

    def __getitem__(self, s: SpincClass) -> Fraction:
        value = self._values.get(s)
        if value is None:
            try:
                value = self._values[s] = Fraction(self._row(s)[0], self._den)
            except (AttributeError, ValueError):  # not a class, or of another form
                raise KeyError(s) from None
        return value

    def __iter__(self):
        return iter(spinc_classes(self._form))

    def __len__(self) -> int:
        return self._form.qinv[1]


def d_zero_subset(f: IntersectionForm) -> list[SpincClass]:
    """The spin-c classes with vanishing correction term (the default pl-genus subset)."""
    return [s for s in spinc_classes(f) if s.d_num == 0]  # d = d_num / 4|det Q|

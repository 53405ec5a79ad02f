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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .plumbing import (
    IntersectionForm,
    SpincClass,
    d_invariant,
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


def sigma_square(f: IntersectionForm, link: LeafLink) -> Fraction:
    """Self-pairing m^T Q^{-1} m of the fibre multiplicity vector."""
    return linalg.pair(f.qinv, link.m, link.m)


def pairing(f: IntersectionForm, kappa: Sequence[int], link: LeafLink) -> Fraction:
    """kappa^T Q^{-1} m, exact."""
    return linalg.pair(f.qinv, kappa, link.m)


def tau_detail(f: IntersectionForm, link: LeafLink, s: SpincClass):
    """Tau value together with its lexicographically least minimizing vector."""
    f.require_negative_definite()
    if len(link.m) != f.n:
        raise ValueError("link multiplicity vector has wrong length")
    if s.form.q != f.q:
        raise ValueError("spin-c class belongs to a different form")
    best, minimizer = min((pairing(f, k, link), k) for k in s.realizing)
    value = best / 2 - sigma_square(f, link) / 2
    return value, minimizer


def tau(f: IntersectionForm, link: LeafLink, s: SpincClass) -> Fraction:
    """Tau-invariant of the leaf-fibre link in the spin-c class s."""
    return tau_detail(f, link, s)[0]


def tau_table(f: IntersectionForm, link: LeafLink) -> dict[SpincClass, Fraction]:
    """Per-class tau values, keyed in canonical-representative order."""
    return {s: tau(f, link, s) for s in spinc_classes(f)}


def d_zero_subset(f: IntersectionForm) -> list[SpincClass]:
    """The spin-c classes with vanishing correction term (default extrema subset)."""
    return [s for s in spinc_classes(f) if d_invariant(s) == 0]


def tau_extrema(
    f: IntersectionForm,
    link: LeafLink,
    subset: Optional[Sequence[SpincClass]] = None,
) -> tuple[Fraction, Fraction]:
    """(tau_max, tau_min) over a subset of classes; defaults to the d = 0 classes."""
    if subset is None:
        subset = d_zero_subset(f)
    if not subset:
        raise ValueError("subset of spin-c classes must be non-empty")
    values = [tau(f, link, s) for s in subset]
    return max(values), min(values)

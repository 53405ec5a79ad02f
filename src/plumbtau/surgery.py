"""Linking-matrix formulas for contact surgery presentations.

A presentation consists of contact (-1)-surgery components (framing
tb - 1) and Stein 1-handles (framing 0), with their pairwise linking
numbers, plus the linking vectors of the transverse link components
with the surgery link.  From the resulting matrix Q the module
evaluates the capped-surface self-intersection [C]^2 = <S, Q^{-1} S>
and the Chern-class evaluation c1[C] = -<rot, Q^{-1} S>, with S the
sum of the link vectors (one pairing each), the self-linking numbers,
and the quasi-positive braid identity tau = (w - n + l)/2.  A presentation
keeps its own Q^{-1} as ``qinv``: it is computed once, when the presentation
checks that Q is nonsingular, and every term reads it.

``linalg`` is imported by the code that inverts or pairs, and ``fractions``
by the code that makes a Fraction, so a ``tau-qp`` call, whose braid has an
integral tau, loads neither: ``cli``, ``cli_surgery`` and this module alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _Checked, _Frozen

# linalg and fractions are imported where they are used: see the note above
if TYPE_CHECKING:
    from fractions import Fraction

KINDS = ("surgery", "handle")


class _ComponentFields(NamedTuple):
    kind: str
    tb: int = 0
    rot: int = 0


class SurgeryComponent(_Checked, _ComponentFields):
    """One component of the surgery diagram.

    kind "surgery" is a contact (-1)-surgery with coefficient tb - 1;
    kind "handle" is a Stein 1-handle with coefficient 0 and rot 0.
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown component kind {self.kind!r}; only integral "
                f"(-1)-surgeries and 1-handles are supported"
            )
        if self.kind == "handle" and self.rot != 0:
            raise ValueError("1-handle components carry rot = 0")

    @property
    def coefficient(self) -> int:
        return self.tb - 1 if self.kind == "surgery" else 0


class _PresentationFields(NamedTuple):
    components: tuple[SurgeryComponent, ...]
    linking: tuple[tuple[int, ...], ...]  # lk(J_i, J_j), zero diagonal
    link_vectors: tuple[tuple[int, ...], ...]  # one vector per transverse component


class SurgeryPresentation(_Frozen, _PresentationFields):
    """A surgery diagram: its components, their linking numbers and the link's vectors.

    ``qinv`` is Q^{-1} of ``linking_matrix`` as (a, p), taken when the
    constructor checks that Q is nonsingular and kept on the record, as
    ``plumbing.IntersectionForm.qinv`` is; equality and hash read the
    fields alone.  The record refuses assignment and deletion.
    """

    # the fields' types are _PresentationFields'
    def __new__(cls, components, linking, link_vectors):
        self = super().__new__(
            cls, tuple(components), tuple(map(tuple, linking)), tuple(map(tuple, link_vectors))
        )
        t = len(self.components)
        if len(self.linking) != t or any(len(row) != t for row in self.linking):
            raise ValueError("linking matrix must be t x t")
        for i in range(t):
            if self.linking[i][i] != 0:
                raise ValueError("linking matrix diagonal must be zero")
            for j in range(i + 1, t):
                if self.linking[i][j] != self.linking[j][i]:
                    raise ValueError(f"linking matrix not symmetric at ({i},{j})")
        for v in self.link_vectors:
            if len(v) != t:
                raise ValueError("link component vector has wrong length")
        from . import linalg

        try:
            self.__dict__["qinv"] = linalg.inverse(linking_matrix(self))
        except linalg.SingularMatrixError:
            raise linalg.SingularMatrixError("surgery linking matrix is singular") from None
        return self

    @property
    def rot_vector(self) -> tuple[int, ...]:
        return tuple(c.rot for c in self.components)


def linking_matrix(p: SurgeryPresentation) -> list[list[int]]:
    """Q with surgery coefficients on the diagonal and linking numbers off it."""
    q = [list(row) for row in p.linking]
    for i, c in enumerate(p.components):
        q[i][i] = c.coefficient
    return q


def _total_link_vector(p: SurgeryPresentation) -> list[int]:
    # not zip(*vs): with no link vectors S is still the zero vector of length t
    vs = p.link_vectors
    return [sum(v[i] for v in vs) for i in range(len(p.components))]


def self_intersection(p: SurgeryPresentation) -> Fraction:
    """Self-intersection of the capped surface, <S, Q^{-1} S> with S = sum_k l_k.

    This is the bordered-determinant formula
    -sum_k det(Q_k)/det(Q) + 2 sum_{a<b} <l_a, Q^{-1} l_b>, where Q_k is Q
    bordered by l_k with top-left entry 0: by the Schur complement,
    det(Q_k) = -det(Q) <l_k, Q^{-1} l_k>, so the sum collapses to one pairing.
    """
    from . import linalg

    s = _total_link_vector(p)
    return linalg.pair(p.qinv, s, s)


def chern_evaluation(p: SurgeryPresentation) -> Fraction:
    """-<rot, Q^{-1} S> = -sum_k <rot, Q^{-1} l_k>, the Chern class on the capped surface."""
    from . import linalg

    return -linalg.pair(p.qinv, p.rot_vector, _total_link_vector(p))


class _BraidFields(NamedTuple):
    strands: int
    writhe: int
    components: int


class BraidDatum(_Checked, _BraidFields):
    """Braid bookkeeping: strand count, writhe (signed band count), components."""

    __slots__ = ()

    def _check(self):
        if self.strands < 1 or self.components < 1:
            raise ValueError("braids need at least one strand and one component")
        if self.components > self.strands:
            # each component of the closure takes at least one strand
            raise ValueError("a braid closure has at most one component per strand")

    def require_quasi_positive(self):
        """Refuse a writhe that no braid closure, or no quasi-positive one, has.

        The closure of n strands and l components has writhe congruent to
        n - l mod 2, and a quasi-positive one has writhe >= n - l.
        """
        floor = self.strands - self.components
        if (self.writhe - floor) % 2:
            raise ValueError(
                f"writhe {self.writhe} and strands - components = {floor} differ in parity,"
                " which no braid closure has"
            )
        if self.writhe < floor:
            raise ValueError(
                f"writhe {self.writhe} is below strands - components = {floor},"
                " which no quasi-positive closure has"
            )


def self_linking_braid(b: BraidDatum) -> int:
    """Self-linking number of a braid closure: writhe minus strand count."""
    return b.writhe - b.strands


def self_linking_shift(sl_t0, p: SurgeryPresentation) -> Fraction:
    """Rational self-linking number of the induced link in the surgered manifold.

    Inverts the shift sl(T) = sl(L) + c1[C'] + [C']^2 along the surgery
    cobordism: sl(L) = sl(T0) - chern_evaluation - self_intersection, and
    -c1[C] - [C]^2 = <rot, Q^{-1} S> - <S, Q^{-1} S> = <rot - S, Q^{-1} S>
    takes one pairing, already a Fraction.
    """
    from . import linalg

    s = _total_link_vector(p)
    rot_minus_s = [r - x for r, x in zip(p.rot_vector, s)]
    return linalg.pair(p.qinv, rot_minus_s, s) + sl_t0


def tau_qp_braid(b: BraidDatum) -> int | Fraction:
    """Tau of a quasi-positive braid closure: (writhe - strands + components)/2.

    A closure of n strands and l components has writhe w = n - l mod 2
    (``BraidDatum.require_quasi_positive`` checks it), so w - n + l is even
    and tau is the int (w - n + l) // 2.  Only a braid that no closure has
    gets a Fraction with denominator 2; ``str`` writes both as
    ``str(Fraction(w - n + l, 2))`` does.
    """
    num = b.writhe - b.strands + b.components
    if num % 2:
        import fractions

        return fractions.Fraction(num, 2)
    return num // 2


class _CurveFields(NamedTuple):
    chi: int
    chern: Fraction
    self_int: Fraction
    boundary: int


class CurveDatum(_Checked, _CurveFields):
    """Caller-supplied invariants of a bounding curve: the geometry stays outside."""

    __slots__ = ()

    def _check(self):
        if self.boundary < 1:
            raise ValueError("a bounding curve has at least one boundary circle")
        if self.chi > self.boundary:
            raise ValueError("Euler characteristic cannot exceed boundary count")


def tau_from_curve(c: CurveDatum) -> Fraction:
    """Tau from curve data: -(chi - |T| + c1[C] + [C]^2) / 2."""
    import fractions

    return -(fractions.Fraction(c.chi - c.boundary) + c.chern + c.self_int) / 2


def bennequin_euler(points: int, bands: int) -> int:
    """Euler characteristic of a banded (Bennequin-type) surface: points - bands."""
    return points - bands

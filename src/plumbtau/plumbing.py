"""Plumbing trees, intersection forms and boundary spin-c structures.

A plumbing tree is a weighted tree describing a 4-manifold made of disk
bundles over spheres; its intersection form Q has the weights on the
diagonal and a 1 for every edge.  When Q is negative definite the
boundary 3-manifold is a rational homology sphere whose spin-c
structures correspond to cosets of characteristic vectors modulo
2Q·Z^n.  Every coset meets the finite box a_i + 2 <= kappa_i <= -a_i,
which makes all the enumerations below finite and exact.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from fractions import Fraction
from math import isqrt, prod
from operator import mul
from typing import Mapping, NamedTuple, Optional, Sequence

from . import linalg

MARKINGS = ("marked", "unmarked_leaf", "internal")
# Most short characteristic vectors an enumeration may walk.  Near the limit
# a call takes seconds: ``dinv`` on the chain (-2)x15, -3, a box of 98,304,
# takes 2.3 s and 33 MB, and on (-3)x10, a box of 59,049, 1.3 s (Intel Xeon,
# Python 3.11).
MAX_BOX = 100_000


class _TreeFields(NamedTuple):
    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    markings: Optional[Mapping[str, str]] = None


class PlumbingTree(_TreeFields):
    """Connected acyclic graph with integer vertex weights.

    ``markings`` flags which vertices may carry link strands
    ("unmarked_leaf", allowed only on vertices of degree <= 1).
    Unspecified markings default to "unmarked_leaf" on leaves and
    "internal" elsewhere.
    """

    __slots__ = ()

    def __new__(
        cls,
        vertices: tuple[tuple[str, int], ...],
        edges: tuple[tuple[str, str], ...],
        markings: Optional[Mapping[str, str]] = None,
    ):
        # a new dict per tree: no default is shared between instances
        self = super().__new__(cls, vertices, edges, {} if markings is None else markings)
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("vertex ids must be unique")
        idset = set(ids)
        for a, b in self.edges:
            if a not in idset or b not in idset or a == b:
                raise ValueError(f"bad edge ({a},{b})")
        if len(self.edges) != len(ids) - 1:
            raise ValueError("a tree needs exactly |V| - 1 edges")
        if not self._connected():
            raise ValueError("plumbing graph must be connected")
        for v, mk in self.markings.items():
            if v not in idset:
                raise ValueError(f"marking on unknown vertex {v!r}")
            if mk not in MARKINGS:
                raise ValueError(f"unknown marking {mk!r}")
            if mk == "unmarked_leaf" and self.degree(v) > 1:
                raise ValueError(f"vertex {v!r} has degree > 1, cannot be an unmarked leaf")
        return self

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        adj = {v: [] for v, _ in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.vertices[0][0]}
        stack = [self.vertices[0][0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def degree(self, v: str) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def marking(self, v: str) -> str:
        if v in self.markings:
            return self.markings[v]
        return "unmarked_leaf" if self.degree(v) <= 1 else "internal"

    @staticmethod
    def path(*weights: int) -> "PlumbingTree":
        """Linear chain with the given weights, ids v1, v2, ..."""
        ids = [f"v{i+1}" for i in range(len(weights))]
        return PlumbingTree(
            vertices=tuple(zip(ids, weights)),
            edges=tuple((ids[i], ids[i + 1]) for i in range(len(weights) - 1)),
        )


class _Frozen:
    """Refuses assignment: ``__init__`` sets the fields with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntersectionForm(_Frozen):
    """Symmetric matrix of a plumbing and whether it is negative definite.

    Equality, hash and repr read ``q``, ``order`` and ``negative_definite``;
    ``tree`` and the cached inverse and classes are left out.
    """

    def __init__(
        self,
        q: tuple[tuple[int, ...], ...],
        order: tuple[str, ...],
        negative_definite: bool,
        tree: Optional[PlumbingTree] = None,
    ):
        # through __dict__, where cached_property keeps the inverse and the classes
        self.__dict__.update(q=q, order=order, negative_definite=negative_definite, tree=tree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.order, self.negative_definite) == (
            other.q,
            other.order,
            other.negative_definite,
        )

    def __hash__(self):
        return hash((self.q, self.order, self.negative_definite))

    def __repr__(self):
        return (
            f"IntersectionForm(q={self.q!r}, order={self.order!r},"
            f" negative_definite={self.negative_definite!r})"
        )

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def qinv(self) -> linalg.Inverse:
        """Q^{-1} as (a, p): one integer matrix over the denominator p = |det Q|."""
        return linalg.inverse(self.q)

    @cached_property
    def _class_index(self) -> dict[tuple[int, ...], "SpincClass"]:
        """Spin-c classes keyed by the key of ``_image``, in order of their reps."""
        return _group_classes(self)

    def index_of(self, vertex_id: str) -> int:
        return self.order.index(vertex_id)

    def require_negative_definite(self):
        _require_definite(self.negative_definite)


def _require_definite(negative_definite: bool) -> None:
    if not negative_definite:
        raise ValueError("intersection form is not negative definite")


def _tree_negative_definite(t: PlumbingTree) -> bool:
    """Negative definiteness of a tree's form, by eliminating leaves toward a root.

    Removing a leaf w with pivot p_w changes only its neighbour's weight,
    to a_v - 1/p_w (edges carry 1), so the pivots are
    p_v = a_v - sum of 1/p_w over the neighbours w eliminated before v,
    and the form is negative definite iff every pivot is negative.
    """
    adj = {v: [] for v, _ in t.vertices}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    root = t.vertices[0][0]
    parent = {root: None}
    order = [root]
    for v in order:  # breadth first: every parent comes before its children
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    pivot = {v: Fraction(a) for v, a in t.vertices}
    for v in reversed(order):
        if pivot[v] >= 0:
            return False
        if parent[v] is not None:
            pivot[parent[v]] -= 1 / pivot[v]
    return True


def require_box(t: PlumbingTree) -> None:
    """Raise what ``short_char_vectors`` would raise on the tree's form, from the tree alone.

    A plumbing refused here costs no n x n matrix.
    """
    _require_box(_tree_negative_definite(t), [w for _, w in t.vertices])


def form_from_tree(t: PlumbingTree) -> IntersectionForm:
    """Intersection form of a plumbing tree: weights on the diagonal, 1 per edge."""
    order = tuple(v for v, _ in t.vertices)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    neighbours = [[] for _ in range(n)]
    for a, b in t.edges:
        neighbours[idx[a]].append(idx[b])
        neighbours[idx[b]].append(idx[a])
    q = []
    for i, (_, w) in enumerate(t.vertices):  # one row at a time: n^2 entries held once
        row = [0] * n
        row[i] = w
        for j in neighbours[i]:
            row[j] = 1
        q.append(tuple(row))
    return IntersectionForm(
        q=tuple(q),
        order=order,
        negative_definite=_tree_negative_definite(t),
        tree=t,
    )


def is_characteristic(f: IntersectionForm, kappa: Sequence[int]) -> bool:
    return len(kappa) == f.n and all(
        (k - f.q[i][i]) % 2 == 0 for i, k in enumerate(kappa)
    )


def _require_box(negative_definite: bool, weights: Sequence[int]) -> None:
    """Refuse an indefinite form, a box of more than ``MAX_BOX`` vectors, then too much work.

    Each of the box's vectors costs an n x n product for its class key, and
    Q^-1 costs O(n^3), so the work is bounded by (box + n) * n^2.  Its
    limit is that of a box of ``MAX_BOX`` vectors on m = floor(log2(MAX_BOX))
    vertices: a tree whose weights are all <= -2 has a box of at least 2^n,
    so every such tree the box limit accepts has n <= m and passes.
    """
    _require_definite(negative_definite)
    size = prod(-a for a in weights)
    if size > MAX_BOX:
        try:
            shown = str(size)
        except ValueError:  # more digits than sys.get_int_max_str_digits() converts
            shown = f"at least 10^{sys.get_int_max_str_digits()}"
        raise ValueError(
            f"the short-vector box holds {shown} vectors, above the limit of {MAX_BOX}"
        )
    n, m = len(weights), MAX_BOX.bit_length() - 1
    work, limit = (size + n) * n * n, (MAX_BOX + m) * m * m
    if work > limit:
        raise ValueError(
            f"{n} vertices and a short-vector box of {size} vectors make"
            f" (box + n) * n^2 = {work}, above the limit of {limit}"
        )


def short_char_vectors(f: IntersectionForm) -> list[tuple[int, ...]]:
    """All characteristic vectors in the box a_i + 2 <= kappa_i <= -a_i, lex order."""
    _require_box(f.negative_definite, [f.q[i][i] for i in range(f.n)])
    ranges = []
    for i in range(f.n):
        a = f.q[i][i]
        ranges.append(range(a + 2, -a + 1, 2))
    return [tuple(k) for k in itertools.product(*ranges)]


class SpincClass(_Frozen):
    """Coset of characteristic vectors mod 2Q·Z^n on a fixed form.

    ``rep`` is the canonical representative (lexicographically least
    short vector), ``d`` the correction term and ``realizing`` the short
    vectors of the coset that attain it, in lex order.  Equality and hash
    read ``rep``, ``d`` and ``realizing``, not ``form``.
    """

    __slots__ = ("rep", "d", "realizing", "form")

    def __init__(
        self,
        rep: tuple[int, ...],
        d: Fraction,
        realizing: tuple[tuple[int, ...], ...],
        form: IntersectionForm,
    ):
        init = object.__setattr__
        init(self, "rep", rep)
        init(self, "d", d)
        init(self, "realizing", realizing)
        init(self, "form", form)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rep, self.d, self.realizing) == (other.rep, other.d, other.realizing)

    def __hash__(self):
        return hash((self.rep, self.d, self.realizing))

    def __repr__(self):
        return f"SpincClass{self.rep}"


def _image(f: IntersectionForm, kappa: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Class key and square numerator of kappa, from y = a·kappa where Q^{-1} = a/p.

    Characteristic u and v lie in the same coset of 2Q·Z^n exactly when
    Q^{-1}(u - v) = (y_u - y_v)/p is in 2Z^n, so the key is y mod 2p;
    and kappa^T Q^{-1} kappa = (kappa·y)/p.
    """
    a, p = f.qinv
    y = [sum(map(mul, row, kappa)) for row in a]
    return tuple(v % (2 * p) for v in y), sum(map(mul, kappa, y))


def _group_classes(f: IntersectionForm) -> dict[tuple[int, ...], SpincClass]:
    """Classes of the short box, each with d = max (kappa^2 + n)/4 over it.

    The box walk checks definiteness and the box limit before Q^{-1} is built.
    """
    box = short_char_vectors(f)
    groups: dict[tuple[int, ...], list] = {}  # key -> [rep, best numerator, its vectors]
    for k in box:  # lex order: a group's first vector is its rep
        key, num = _image(f, k)
        group = groups.get(key)
        if group is None:
            groups[key] = [k, num, [k]]
        elif num > group[1]:
            group[1:] = [num, [k]]
        elif num == group[1]:
            group[2].append(k)
    p = f.qinv[1]  # |det Q|
    if len(groups) != p:
        raise RuntimeError("class count must equal |det Q|")
    # groups were opened in lex order of their reps, so the index is in rep order
    return {
        key: SpincClass(rep=rep, d=Fraction(num + f.n * p, 4 * p), realizing=tuple(best), form=f)
        for key, (rep, num, best) in groups.items()
    }


def spinc_classes(f: IntersectionForm) -> list[SpincClass]:
    """Partition of the short characteristic vectors into cosets mod 2Q·Z^n."""
    return list(f._class_index.values())


def class_of(f: IntersectionForm, kappa: Sequence[int]) -> SpincClass:
    """The spin-c class containing an arbitrary characteristic vector."""
    if not is_characteristic(f, kappa):
        raise ValueError(f"{tuple(kappa)} is not characteristic for this form")
    index = f._class_index  # built first: it checks the form and the box
    return index[_image(f, kappa)[0]]


def conjugate(s: SpincClass) -> SpincClass:
    """Conjugation acts on characteristic vectors by negation."""
    return class_of(s.form, [-k for k in s.rep])


def spinc_translate(s: SpincClass, alpha: Sequence[int]) -> SpincClass:
    """Action of H_1 = Z^n / Q·Z^n: translate the coset by 2·alpha."""
    if len(alpha) != s.form.n:
        raise ValueError("translation vector has wrong length")
    return class_of(s.form, [k + 2 * a for k, a in zip(s.rep, alpha)])


def d_invariant(s: SpincClass) -> Fraction:
    """Correction term of the class: the max of (kappa^2 + n)/4 over its short vectors."""
    return s.d


def solve_square(f: IntersectionForm, target) -> list[tuple[int, ...]]:
    """All characteristic vectors kappa with kappa^T Q^{-1} kappa = target.

    Negative definiteness bounds the search: kappa_i^2 <= (-target)·|a_i|
    because the maximum of x_i^2 on the ellipsoid x^T(-Q^{-1})x <= c is
    c times the i-th diagonal entry of (-Q^{-1})^{-1} = -Q.
    """
    f.require_negative_definite()
    target = Fraction(target)
    if target > 0:
        return []
    c = -target
    ranges = []
    for i in range(f.n):
        a = f.q[i][i]
        bound = isqrt(int(c * abs(a)))  # floor of the real bound
        lo = -bound if (-bound - a) % 2 == 0 else -bound + 1
        ranges.append(range(lo, bound + 1, 2))
    out = [
        k
        for k in itertools.product(*ranges)
        if linalg.pair(f.qinv, k, k) == target
    ]
    return sorted(out)

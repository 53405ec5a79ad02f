"""Plumbing trees, intersection forms and boundary spin-c structures.

A plumbing tree is a weighted tree describing a 4-manifold made of disk
bundles over spheres; its intersection form Q has the weights on the
diagonal and a 1 for every edge.  When Q is negative definite the
boundary 3-manifold is a rational homology sphere whose spin-c
structures correspond to cosets of characteristic vectors modulo
2Q·Z^n.  Every coset meets the finite box a_i + 2 <= kappa_i <= -a_i,
which makes all the enumerations below finite and exact.

A form refuses itself: ``IntersectionForm.require_negative_definite`` and
``require_box`` are its methods, and ``require_box`` reads only the tree's
weights, so every enumeration checks its form before Q^{-1} is built.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from math import isqrt, prod
from operator import add, mod, mul, sub
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from . import linalg

# fractions (with decimal and numbers) is imported in each function that makes
# a Fraction, so a spinc, dinv or tau call, which makes none, never imports it.
# ``import fractions`` there costs about 0.1 us a call, against 0.6 us for
# ``from fractions import Fraction``, which looks up a ``__path__`` it lacks.
if TYPE_CHECKING:
    from fractions import Fraction

MARKINGS = ("marked", "unmarked_leaf", "internal")
# Most short characteristic vectors an enumeration may walk.  Near the limit
# the classes and their output rows, not the walk, set the cost of a call:
# ``dinv`` on the chain (-2)x15, -3, a box of 98,304 with 33 classes, takes
# 0.12-0.21 s and 16 MB; on (-10)x5, a box of 100,000 with 96,030 classes,
# 1.5-1.6 s and 147 MB; on the star (-100000; -1 x 15), 99,985 classes,
# 1.9-3.0 s and 253 MB (CLI wall time and the process's own peak RSS, medians
# of 3-5 runs in two sessions on a shared Intel Xeon, Python 3.11).
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

    def __new__(cls, vertices, edges, markings=None):  # the fields' types are _TreeFields'
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
        if len(_rooted(self)[0]) != len(ids):
            raise ValueError("plumbing graph must be connected")
        for v, mk in self.markings.items():
            if v not in idset:
                raise ValueError(f"marking on unknown vertex {v!r}")
            if mk not in MARKINGS:
                raise ValueError(f"unknown marking {mk!r}")
            if mk == "unmarked_leaf" and self.degree(v) > 1:
                raise ValueError(f"vertex {v!r} has degree > 1, cannot be an unmarked leaf")
        return self

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
    """The intersection form of a plumbing tree: weights on the diagonal, 1 per edge.

    The tree is the one field.  ``order``, ``q`` and ``negative_definite``
    are read from it when first asked for, so a form that ``require_box``
    refuses never holds its n x n matrix, and neither does a definite form's
    ``qinv``.  Equality and hash read ``q`` and ``order``; repr shows
    ``negative_definite`` too, which ``q`` (so the tree) decides.
    ``tree`` and the caches are left out: the inverse, the index of every
    class, and the classes that ``_class_at`` met without the index.
    """

    def __init__(self, tree: PlumbingTree):
        # through __dict__, where cached_property keeps what is read from the tree
        self.__dict__["tree"] = tree

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.order) == (other.q, other.order)

    def __hash__(self):
        return hash((self.q, self.order))

    def __repr__(self):
        return (
            f"IntersectionForm(q={self.q!r}, order={self.order!r},"
            f" negative_definite={self.negative_definite!r})"
        )

    @cached_property
    def order(self) -> tuple[str, ...]:
        """The vertex ids, in the order of the tree's vertices: row i of ``q`` is order[i]."""
        return tuple(v for v, _ in self.tree.vertices)

    @cached_property
    def q(self) -> tuple[tuple[int, ...], ...]:
        """The matrix, built one row at a time: n^2 entries held once."""
        idx = {v: i for i, v in enumerate(self.order)}
        n = len(idx)
        neighbours = [[] for _ in range(n)]
        for a, b in self.tree.edges:
            neighbours[idx[a]].append(idx[b])
            neighbours[idx[b]].append(idx[a])
        q = []
        for i, (_, w) in enumerate(self.tree.vertices):
            row = [0] * n
            row[i] = w
            for j in neighbours[i]:
                row[j] = 1
            q.append(tuple(row))
        return tuple(q)

    @cached_property
    def _branches(self) -> Optional[tuple[list[str], dict, dict[str, tuple[int, int]]]]:
        """The tree hung from its first vertex with each subtree's (D_v, P_v), or None.

        D_v is det(-Q) on the subtree of v, a down-branch, and P_v the product
        of its children's D_w.  Removing a leaf w with pivot D_w / P_w changes
        only its neighbour's diagonal, by -P_w / D_w (edges carry 1), so one
        post-order pass gives D_v / P_v = -a_v - sum of P_w / D_w over the
        children w.  -Q is positive definite iff every pivot is positive, and
        so, by induction on P_v > 0, iff every D_v is: otherwise this is None.
        det(-Q) = |det Q| is the root's D.  ``q`` is never built.
        """
        order, parent = _rooted(self.tree)
        pivot = {v: (-a, 1) for v, a in self.tree.vertices}  # (D_v, P_v) so far
        for v in reversed(order):
            d, p = pivot[v]
            if d <= 0:
                return None
            if (u := parent[v]) is not None:
                pivot[u] = (pivot[u][0] * d - p * pivot[u][1], pivot[u][1] * d)
        return order, parent, pivot

    @property
    def negative_definite(self) -> bool:
        """Negative definiteness, read from the tree's down-branches: see ``_branches``."""
        return self._branches is not None

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def qinv(self) -> linalg.Inverse:
        """Q^{-1} as (a, p): one integer matrix over the denominator p = |det Q|.

        A negative-definite form takes it from its branch determinants in
        O(n^2) steps (``_tree_inverse``), without ``q``; any other form from
        ``linalg.inverse(q)``, which raises ``SingularMatrixError`` on a singular Q.
        """
        return linalg.inverse(self.q) if self._branches is None else _tree_inverse(self)

    @cached_property
    def _class_index(self) -> dict[tuple[int, ...], "SpincClass"]:
        """Spin-c classes keyed by the key of ``_image``, in order of their reps."""
        return _scan(self)

    @cached_property
    def _looked_up(self) -> dict[tuple[int, ...], "SpincClass"]:
        """Classes that ``_class_at`` met without the index, by the same keys."""
        return {}

    def index_of(self, vertex_id: str) -> int:
        return self.order.index(vertex_id)

    def require_negative_definite(self):
        if not self.negative_definite:
            raise ValueError("intersection form is not negative definite")

    def require_box(self):
        """Refuse an indefinite form, a box of more than ``MAX_BOX`` vectors, then too much work.

        Only the tree's weights are read, so a refused form never builds ``q``.
        The walk of ``_scan`` costs O(n) per vector of the box, and Q^-1 of
        a definite tree, from its branch determinants, O(n^2) steps on
        integers of at most about log2|det Q| bits.  The work is still
        bounded by box * n + n^3, the bound of a dense Q^-1.  Its limit is
        that of a box of ``MAX_BOX`` vectors on m = floor(log2(MAX_BOX))
        vertices: a tree whose weights are all <= -2 has a box of at least
        2^n, so every such tree the box limit accepts has n <= m and passes.
        Near the limit, ``spinc_classes`` takes 0.74 s on the star
        (-100000; -1 x 15), nearly all of it for its 99,985 classes, and
        6 ms on the star (-117; -1 x 115), n = 116, 2.5 ms of it for Q^-1
        (in-process, minimum of 3, shared Intel Xeon, Python 3.11).
        """
        self.require_negative_definite()
        size = prod(-a for _, a in self.tree.vertices)
        if size > MAX_BOX:
            try:
                shown = str(size)
            except ValueError:  # more digits than sys.get_int_max_str_digits() converts
                shown = f"at least 10^{sys.get_int_max_str_digits()}"
            raise ValueError(
                f"the short-vector box holds {shown} vectors, above the limit of {MAX_BOX}"
            )
        n, m = len(self.tree.vertices), MAX_BOX.bit_length() - 1
        work, limit = size * n + n**3, MAX_BOX * m + m**3
        if work > limit:
            raise ValueError(
                f"{n} vertices and a short-vector box of {size} vectors make"
                f" box * n + n^3 = {work}, above the limit of {limit}"
            )


def _rooted(t: PlumbingTree) -> tuple[list[str], dict[str, Optional[str]]]:
    """The vertices reached from the first one, breadth first, and each one's parent.

    Every parent comes before its children; the root's parent is None.
    """
    adj = {v: [] for v, _ in t.vertices}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    root = t.vertices[0][0]
    parent = {root: None}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent


def _tree_inverse(f: IntersectionForm) -> linalg.Inverse:
    """Q^{-1} = a/p of a negative-definite form from its branch determinants.

    By Eisenbud–Neumann, -a_uv is det(-Q) off the path [u, v]: the product
    of the branch determinants D(y|x) = det(-Q on the component of T - x
    that holds y), over the path's vertices x and their neighbours y off
    the path.  The down-branches are ``_branches``'; a rerooting pass gives
    each up-branch from the edge expansion det(-Q) = D(u|v)·D(v|u) -
    E(u|v)·E(v|u), where E(y|x) is the product of the branches at y but the
    one holding x.  Then one walk from each u steps from x to y by dividing
    out D(y|x) and multiplying in E(y|x).  Every branch determinant is
    positive, so each division is exact.
    """
    order, parent, pivot = f._branches
    branch = {v: {} for v in order}  # branch[x][y] = D(y|x)
    det = pivot[order[0]][0]
    for v in order[1:]:
        u, (d, p) = parent[v], pivot[v]
        above = branch[u][parent[u]] if parent[u] is not None else 1  # D(parent u|u)
        branch[u][v], branch[v][u] = d, (det + pivot[u][1] // d * above * p) // d
    col = {v: i for i, v in enumerate(f.order)}
    whole = {x: prod(b.values()) for x, b in branch.items()}
    steps = {x: [(y, col[y], d, whole[y] // branch[y][x]) for y, d in b.items()]
             for x, b in branch.items()}
    a = []
    for u in f.order:
        row = [0] * len(col)
        row[col[u]] = -whole[u]
        walk = [(u, None, whole[u])]
        for x, back, off in walk:  # off = det(-Q) off the path [u, x]
            for y, j, d, e in steps[x]:
                if y != back:
                    row[j] = -(rest := off // d * e)
                    walk.append((y, x, rest))
        a.append(row)
    return a, det


def is_characteristic(f: IntersectionForm, kappa: Sequence[int]) -> bool:
    return len(kappa) == f.n and all((k - a) % 2 == 0 for k, (_, a) in zip(kappa, f.tree.vertices))


class SpincClass(_Frozen):
    """Coset of characteristic vectors mod 2Q·Z^n on a fixed form.

    ``rep`` is the canonical representative (lexicographically least short
    vector), ``d_num`` the correction term d over 4·|det Q|, an int (``d``
    makes its Fraction when read), and ``realizing`` the short vectors of
    the coset that attain d, in lex order.  ``key`` is the key of ``_image``
    that the form indexes the class by.  Equality reads ``rep``, ``d_num``
    and ``realizing``, not ``form`` or ``key``; the hash reads ``rep`` alone,
    which decides the class on one form.
    """

    __slots__ = ("rep", "d_num", "realizing", "form", "key")

    def __init__(self, rep: tuple, d_num: int, realizing: tuple, form: IntersectionForm, key):
        init = object.__setattr__
        init(self, "rep", rep)
        init(self, "d_num", d_num)
        init(self, "realizing", realizing)
        init(self, "form", form)
        init(self, "key", key)

    @property
    def d(self) -> Fraction:
        """Correction term of the class: the max of (kappa^2 + n)/4 over its short vectors."""
        import fractions

        return fractions.Fraction(self.d_num, 4 * self.form.qinv[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rep, self.d_num, self.realizing) == (other.rep, other.d_num, other.realizing)

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"SpincClass{self.rep}"


def _image(f: IntersectionForm, kappa: Sequence[int]) -> tuple[int, ...]:
    """Class key of kappa, from y = a·kappa where Q^{-1} = a/p.

    Characteristic u and v lie in the same coset of 2Q·Z^n exactly when
    Q^{-1}(u - v) = (y_u - y_v)/p is in 2Z^n, so the key is y mod 2p.
    """
    a, p = f.qinv
    return tuple(sum(map(mul, row, kappa)) % (2 * p) for row in a)


def _walk(f: IntersectionForm, head_cost: int = 1):
    """The short box a_i + 2 <= kappa_i <= -a_i as (heads, tails, p), unbuilt.

    A vector is a head (its first s coordinates) followed by a tail, and
    y = a·kappa is y_h + y_t, the partial sums of the head and of the tail.
    Each half gives (kappa[lo:hi], its y, its kappa·y) in ``itertools.product``
    order, one list per varying coordinate: the tails in full, the heads up to
    their last varying coordinate, then streamed by O(n) additions each.  A
    coordinate of weight -1 has one value and goes into its half's constant.
    As a is symmetric, kappa·y = head·y_h + tail·y_t + 2·head·y_t, so a vector
    costs O(n) where ``_image`` costs n^2.  Definiteness and the box limit
    are checked before Q^{-1} = a/p is built.
    """
    n = f.n
    f.require_box()
    a, p = f.qinv
    ranges = [range(w + 2, -w + 1, 2) for _, w in f.tree.vertices]
    sizes = list(itertools.accumulate(map(len, ranges), mul, initial=1))
    # least head_cost·heads + tails, and of those the fewest tails: only the tails are held
    s = min(range(n, -1, -1), key=lambda i: head_cost * sizes[i] + sizes[-1] // sizes[i])

    def levels(lo, hi):  # the -1s before the first varying coordinate, then each varying one
        k0, y0, varying = [], [0] * n, []
        for i in range(lo, hi):  # row i of the symmetric a is its column i
            v = ranges[i][0]
            if len(ranges[i]) > 1:
                varying.append((ranges[i], a[i], []))
            else:  # weight -1: one value, and its y goes into the constant
                y0 = [y + v * x for y, x in zip(y0, a[i])]
                (varying[-1][2] if varying else k0).append(v)  # after the last varying one
        # (each value with the -1s after it, the column, the first value)
        return [(tuple(k0), y0)], [([(v, *run) for v in r], c, r[0]) for r, c, run in varying]

    def grow(entries, varying):  # one list per varying coordinate
        for values, col, _ in varying:
            step = [(kv, [kv[0] * x for x in col]) for kv in values]
            entries = [(k + kv, list(map(add, y, c))) for k, y in entries for kv, c in step]
        return entries

    def heads(entries, varying):  # streamed over the last varying coordinate
        values, col, first = varying.pop() if varying else ([()], [0] * n, 0)
        step = [2 * x for x in col]
        for k, y in grow(entries, varying):
            y = [u + first * x for u, x in zip(y, col)]
            for kv in values:
                head = k + kv
                yield head, y, sum(map(mul, head, y))
                y = list(map(add, y, step))

    tails = [(k, y, sum(map(mul, k, y[s:]))) for k, y in grow(*levels(s, n))]
    return heads(*levels(0, s)), tails, p


def _scan(f: IntersectionForm, keys=None) -> dict[tuple[int, ...], SpincClass]:
    """Classes of the short box, or of ``keys`` alone, each with d = max (kappa^2 + n)/4.

    A vector's key is (y_h + y_t) mod 2p, so with ``_walk``'s tails bucketed
    by y_t mod 2p in lex order, a head meets a bucket under one key and its
    members in lex order.  With no keys a head meets every bucket, so the
    whole box is grouped in lex order, one dot product per vector: a group's
    first vector is its rep, and the buckets, met in the order of their first
    tails, open the groups in the order of their reps.  With keys a head
    meets only the bucket of residue (t - y_h) mod 2p for each key t, which
    costs O((heads + tails + members)·n), about sqrt(box)·n, for box·n.
    """
    heads, tails, p = _walk(f, 1 if keys is None else 1 + len(keys))  # a lookup per key
    modulus = itertools.repeat(2 * p)
    buckets: dict[tuple[int, ...], list] = {}
    for tail in tails:
        buckets.setdefault(tuple(map(mod, tail[1], modulus)), []).append(tail)
    pairs = buckets.items() if keys is None else [(t, None) for t in keys]
    groups: dict[tuple[int, ...], list] = {}  # key -> [rep, best numerator, its vectors]
    for head, yh, sh in heads:
        for x, members in pairs:
            if keys is None:  # x is the residue of the bucket
                key = tuple(map(mod, map(add, yh, x), modulus))
            else:  # x is the key, and the bucket is the one that completes it
                key, members = x, buckets.get(tuple(map(mod, map(sub, x, yh), modulus)), ())
            group = groups.get(key)
            for tail, yt, st in members:
                num = sh + st + 2 * sum(map(mul, head, yt))
                if group is None:
                    k = head + tail
                    group = groups[key] = [k, num, [k]]
                elif num > group[1]:
                    group[1:] = [num, [head + tail]]
                elif num == group[1]:
                    group[2].append(head + tail)
    if keys is None and len(groups) != p:  # p = |det Q|
        raise RuntimeError("class count must equal |det Q|")
    shift = f.n * p  # d = (num/p + n)/4 = (num + n·p)/4p
    return {
        key: SpincClass(rep, num + shift, tuple(best), f, key)
        for key, (rep, num, best) in groups.items()
    }


def spinc_classes(f: IntersectionForm) -> list[SpincClass]:
    """Partition of the short characteristic vectors into cosets mod 2Q·Z^n."""
    return list(f._class_index.values())


def _class_at(f: IntersectionForm, key: tuple[int, ...]) -> SpincClass:
    """The class of a key, read from the form's index or ``_looked_up``.

    A form without its index that has not looked the key up meets it and
    its conjugate's in one ``_scan``, and keeps both classes.
    """
    held = f.__dict__.get("_class_index")
    s = (f._looked_up if held is None else held).get(key)
    if s is None and held is None:
        found = _scan(f, {key, tuple(-t % (2 * f.qinv[1]) for t in key)})
        f._looked_up.update(found)
        s = found.get(key)
    if s is None:
        raise RuntimeError(f"the short box misses the class of key {key}")
    return s


def class_of(f: IntersectionForm, kappa: Sequence[int]) -> SpincClass:
    """The spin-c class containing an arbitrary characteristic vector."""
    if not is_characteristic(f, kappa):
        raise ValueError(f"{tuple(kappa)} is not characteristic for this form")
    if "_class_index" not in f.__dict__:
        f.require_box()  # before Q^-1, as the walk checks
    return _class_at(f, _image(f, kappa))


def conjugate(s: SpincClass) -> SpincClass:
    """Conjugation negates characteristic vectors, and so their keys."""
    return _class_at(s.form, tuple(-t % (2 * s.form.qinv[1]) for t in s.key))


def spinc_translate(s: SpincClass, alpha: Sequence[int]) -> SpincClass:
    """Action of H_1 = Z^n / Q·Z^n: translate the coset by 2·alpha, the key by 2·a·alpha."""
    if len(alpha) != s.form.n:
        raise ValueError("translation vector has wrong length")
    if any(x % 1 for x in alpha):
        raise ValueError("translation vector must be integral")
    alpha = list(map(int, alpha))
    a, p = s.form.qinv
    key = tuple((t + 2 * sum(map(mul, row, alpha))) % (2 * p) for t, row in zip(s.key, a))
    return _class_at(s.form, key)


def solve_square(f: IntersectionForm, target) -> list[tuple[int, ...]]:
    """All characteristic vectors kappa with kappa^T Q^{-1} kappa = target.

    Negative definiteness bounds the search: kappa_i^2 <= (-target)·|a_i|
    because the maximum of x_i^2 on the ellipsoid x^T(-Q^{-1})x <= c is
    c times the i-th diagonal entry of (-Q^{-1})^{-1} = -Q.
    """
    import fractions

    f.require_negative_definite()
    target = fractions.Fraction(target)
    if target > 0:
        return []
    c = -target
    ranges = []
    for _, a in f.tree.vertices:
        bound = isqrt(int(c * abs(a)))  # floor of the real bound
        lo = -bound if (-bound - a) % 2 == 0 else -bound + 1
        ranges.append(range(lo, bound + 1, 2))
    out = [
        k
        for k in itertools.product(*ranges)
        if linalg.pair(f.qinv, k, k) == target
    ]
    return sorted(out)

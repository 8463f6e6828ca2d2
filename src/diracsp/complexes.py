"""Simplicial complexes of dimension <= 2 and their signed boundary matrices.

A complex is stored canonically: every link is a pair (i, j) with i < j,
every triangle a triple (i, j, k) with i < j < k, and both lists are sorted
lexicographically.  Orientation is the one induced by ascending node labels;
the column of B2 for triangle (i, j, k) carries signs (+1, -1, +1) on its
faces (i, j), (i, k), (j, k).  Any consistent convention would satisfy
B1 @ B2 = 0; downstream results do not depend on this choice.  Construction
works on int64 arrays, and open triangles are rejected, never filled in.
The complex keeps those arrays: ``links`` and ``triangles`` are read-only
int64 arrays of shape (N1, 2) and (N2, 3).

A complex builds its face rows (the link row of each triangle face), B1 and
B2 and their ranks on first read and keeps them, outside ``==``, ``hash``
and ``to_dict``; each rank is a function of its boundary matrix alone, and
no other module writes one.  ``K.incidence(n)`` is B_n as an
:class:`Incidence`, the one form of B_n a complex keeps: the rows of its
columns, ``links`` for B1 and the face rows for B2, with the products
``B @ X`` and ``B.T @ X`` and the dense Gram matrix in numpy alone, so that
nothing on the run path imports scipy.  :func:`boundary_matrix` builds the
same matrix in scipy csc form, and imports ``scipy.sparse`` on first use;
the complex does not keep it.  Rank B1 is a count of the graph's connected
components.  Rank B2 is, in this order: a
count of components of the triangles' orientation double cover, when every
link bounds at most two triangles; N2, when elementary collapses remove
every triangle; else the gap rank of one eigenvalues-only Gram solve of B2.

Instances are immutable after construction and safe to share across
threads; two threads that first read a kept item at once may each build
it, which is harmless: the two are equal.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from numbers import Integral, Real
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateSimplex,
    EigensolveFailure,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

COMPLEX_FORMAT = "diracsp/complex/1"

# Relative cutoff of the gap test that ranks boundary matrices (gap_rank): a
# Gram eigenvalue (a squared singular value) must sit at roundoff level or
# above RANK_RTOL * w_max.
RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Canonical node/link/triangle arrays; source of all operators.

    Built directly, it takes ``links`` and ``triangles`` as any integer
    sequences of pairs and triples, stores them as read-only int64 arrays in
    the order given, and checks nothing: :func:`build_complex` validates and
    canonicalizes.
    """

    node_count: int
    links: np.ndarray
    triangles: np.ndarray = ()

    def __post_init__(self):
        for name, width in (("links", 2), ("triangles", 3)):
            arr = np.array(getattr(self, name), dtype=np.int64).reshape(-1, width)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setstate__(self, state: dict) -> None:
        # a copy or an unpickled complex keeps its simplices and face rows read-only
        self.__dict__.update(state)
        for name in ("links", "triangles", "face_rows"):
            if name in state:
                state[name].flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.links, other.links)
            and np.array_equal(self.triangles, other.triangles)
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.links.tobytes(), self.triangles.tobytes()))

    @property
    def n0(self) -> int:
        return self.node_count

    @property
    def n1(self) -> int:
        return len(self.links)

    @property
    def n2(self) -> int:
        return len(self.triangles)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.n0, self.n1, self.n2)

    @property
    def spinor_dim(self) -> int:
        """Length of a topological spinor over this complex: N0 + N1 + N2."""
        return self.n0 + self.n1 + self.n2

    @property
    def dimension(self) -> int:
        if self.n2:
            return 2
        if self.n1:
            return 1
        return 0

    # -- boundary matrices and ranks, each built on first read and kept -----

    @cached_property
    def link_codes(self) -> tuple[np.ndarray, np.ndarray]:
        return _link_codes(self.links, self.n0)

    @cached_property
    def face_rows(self) -> np.ndarray:
        """(N2, 3) int64: row t holds the link rows of triangle t's faces
        (i, j), (i, k), (j, k); a face missing from the links raises
        :class:`MissingFace` naming the first one.  Read-only: B2 is read off it."""
        rows = _link_rows(*self.link_codes, self.n0, _faces(self.triangles)).reshape(-1, 3)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _incidence1(self) -> Incidence:
        return signed_incidence(self, 1)

    @cached_property
    def _incidence2(self) -> Incidence:
        return signed_incidence(self, 2)

    def incidence(self, n: int) -> Incidence:
        """B_n as an :class:`Incidence`, built once, for n = 1 or 2."""
        if n == 1:
            return self._incidence1
        if n == 2:
            return self._incidence2
        raise InvalidOrder(f"boundary matrices exist for n in {{1, 2}}, got {n}")

    @cached_property
    def rank1(self) -> int:
        """Exact rank of B1: N0 minus the number of connected components."""
        return self.n0 - _components(self.n0, *self.links.T)[0]

    @cached_property
    def rank2(self) -> int:
        """Rank of B2, from B2 alone: a count, a collapse, or one Gram solve.

        Where every link bounds at most two triangles, ker(B2) has one
        dimension per triangle component (triangles joined by shared links)
        that is closed, with no link on a single triangle, and orientable,
        so rank B2 = N2 minus their number.  Elsewhere rank B2 = N2 when
        elementary collapses remove every triangle (:func:`_collapses`);
        only a complex that does neither pays the :func:`gap_rank` of B2's
        Gram spectrum from one eigenvalues-only solve.
        """
        B2 = self.incidence(2)
        if np.diff(B2.row_entries.indptr).max(initial=0) <= 2:
            return self.n2 - _closed_orientable_components(B2)
        if _collapses(self.face_rows, self.n1):
            return self.n2
        return gap_rank(gram_eigh(B2, vectors=False), RANK_RTOL)

    def link_index(self, i: int, j: int) -> int:
        """Position of link (i, j) in the canonical ordering: one search in the sorted link codes."""
        for node in (i, j):
            if not 0 <= require_int("node", node) < self.n0:
                raise IndexOutOfRange(f"link ({i}, {j}) names node {node} outside range(0, {self.n0})")
        return int(_link_rows(*self.link_codes, self.n0, np.array([[i, j]]))[0])

    def euler_characteristic(self) -> int:
        return self.n0 - self.n1 + self.n2

    def to_dict(self) -> dict:
        return {
            "format": COMPLEX_FORMAT,
            "nodes": self.node_count,
            "links": self.links.tolist(),
            "triangles": self.triangles.tolist(),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1) + "\n")


def require_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless it is an integer (a numpy one counts, a bool not) >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def is_finite_real(value) -> bool:
    """Is value a finite real number (a numpy one counts, a bool, a string or None not)?"""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def require_real(name: str, value, low: float | None = None, *, strict: bool = False) -> float:
    """value as a float; ValueError unless it is a finite real number (a bool is not one)
    at or above ``low``, or above it when ``strict``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or low is not None and (value <= low if strict else value < low):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return float(value)


INT64_MAX = np.iinfo(np.int64).max
MAX_NODES = 3_037_000_499  # isqrt(INT64_MAX): link codes i * N0 + j (_link_codes) fit in int64


def _simplex_array(items: Iterable[Sequence[int]], size: int, kind: str) -> np.ndarray:
    """The simplices as an int64 (count, size) array; ParseError names the first bad one."""
    rows = items if isinstance(items, np.ndarray) else list(items)
    arr = _int_rows(rows, size)
    if arr is None:
        raw = next(s for s in rows if _int_rows([s], size) is None)
        raise ParseError(f"{kind} {raw!r} must have {size} integer vertices within int64")
    return arr


def _int_rows(rows, size: int) -> np.ndarray | None:
    """rows as an int64 (len(rows), size) array, or None unless every row has
    ``size`` integer vertices within int64 (a bool is not one)."""
    try:
        arr = np.asarray(rows) if len(rows) else np.empty((0, size), dtype=np.int64)
    except ValueError:  # rows of different lengths
        return None
    ok = arr.shape[1:] == (size,) and arr.dtype.kind in "iu" and arr.max(initial=0) <= INT64_MAX
    listed = () if isinstance(rows, np.ndarray) else chain.from_iterable(rows)
    ok = ok and {bool, np.bool_}.isdisjoint(map(type, listed))  # np.asarray reads True as 1
    return arr.astype(np.int64, copy=False) if ok else None


def _canonical_simplices(raw: np.ndarray, node_count: int, kind: str) -> np.ndarray:
    """Sort vertices within each simplex, then the simplices; reject a repeated
    vertex or simplex (DuplicateSimplex) and a node outside range(node_count)."""
    arr = np.sort(raw, axis=1)
    repeats = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
    bad = repeats | (arr[:, 0] < 0) | (arr[:, -1] >= node_count)
    if bad.any():
        simplex = tuple(raw[np.argmax(bad)].tolist())
        if repeats[np.argmax(bad)]:
            raise DuplicateSimplex(f"{kind} {simplex} repeats a vertex")
        v = next(v for v in simplex if not 0 <= v < node_count)
        raise IndexOutOfRange(f"{kind} {simplex} references node {v} outside range(0, {node_count})")
    arr = arr[np.lexsort(arr.T[::-1])]
    twice = (arr[1:] == arr[:-1]).all(axis=1)
    if twice.any():
        raise DuplicateSimplex(f"{kind} {tuple(arr[np.argmax(twice)].tolist())} appears twice")
    return arr


def build_complex(
    links: Iterable[Sequence[int]],
    triangles: Iterable[Sequence[int]] = (),
    node_count: int | None = None,
) -> SimplicialComplex:
    """Construct a validated, canonicalized complex.

    Vertices must be integers in range(node_count); no simplex may repeat a
    vertex or appear twice.  Closure is enforced: the first triangle face
    missing from the links raises :class:`MissingFace`; nothing is filled in.
    ``node_count`` defaults to 1 + the largest referenced index.
    """
    tris = _simplex_array(triangles, 3, "triangle")
    lks = _simplex_array(links, 2, "link")
    if node_count is None:
        node_count = 1 + int(max(tris.max(initial=-1), lks.max(initial=-1)))
    node_count = require_int("node_count", node_count)
    if not 0 <= node_count <= MAX_NODES:
        raise IndexOutOfRange(f"node_count must lie in [0, {MAX_NODES}], got {node_count}")
    tris = _canonical_simplices(tris, node_count, "triangle")
    K = SimplicialComplex(node_count, _canonical_simplices(lks, node_count, "link"), tris)
    K.face_rows  # closure: the rows it finds are kept for B2 and rank B2
    return K


def _link_codes(links: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, order): the codes i * N0 + j of the (N1, 2) array ``links``, in any
    order, sorted ascending, and the rows of ``links`` in that sorted order."""
    codes = links[:, 0] * n0 + links[:, 1]
    order = np.argsort(codes, kind="stable")
    return codes[order], order


def _link_rows(codes: np.ndarray, order: np.ndarray, n0: int, pairs: np.ndarray) -> np.ndarray:
    """Rows of the links pairs[f], either way round, found by one search in their
    :func:`_link_codes` (codes, order); a link not among them raises
    :class:`MissingFace` naming the first one."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    want = lo * n0 + hi
    pos = np.searchsorted(codes, want)
    found = pos < codes.size
    found[found] = codes[pos[found]] == want[found]
    if not found.all():
        f = int(np.argmin(found))
        raise MissingFace(f"link {(int(lo[f]), int(hi[f]))} is not part of the complex")
    return order[pos]


def _faces(triangles: np.ndarray) -> np.ndarray:
    """The faces (i, j), (i, k), (j, k) of each triangle (i, j, k), in that order, as rows."""
    return triangles[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)


def signed_incidence(K: SimplicialComplex, n: int) -> Incidence:
    """B_n of K, n = 1 or 2, as an :class:`Incidence`: column c of B1 has -1
    (tail) and +1 (head) in the rows of link c; column t of B2 has signs
    (+1, -1, +1) in the rows of triangle t's faces (i, j), (i, k), (j, k)."""
    if n == 1:
        return Incidence(K.links, (-1, 1), K.n0)
    return Incidence(K.face_rows, (1, -1, 1), K.n1)


def boundary_matrix(K: SimplicialComplex, n: int) -> sp.csc_array:
    """Signed boundary matrix B_n as a sparse integer matrix.

    B1 has shape (N0, N1) with one -1 (tail) and one +1 (head) per column;
    B2 has shape (N1, N2) with signs (+1, -1, +1) on the faces of each
    triangle.  For n=2 on a triangle-free complex this is an (N1, 0) zero
    matrix.  It is the csc form of ``K.incidence(n)``, and imports
    ``scipy.sparse`` on first use.
    """
    import scipy.sparse as sp

    B = K.incidence(n)
    # column c holds row c of ``columns``, ascending in a canonical complex
    count, width = B.columns.shape
    indptr = np.arange(0, width * count + 1, width)
    vals = np.tile(np.array(B.signs, dtype=np.int64), count)
    return sp.csc_array((vals, B.columns.flatten(), indptr), shape=B.shape)


class RowEntries(NamedTuple):
    """The entries of an :class:`Incidence` row by row, as in csr form: row i
    holds ``data[k]`` in column ``indices[k]`` for k in indptr[i] .. indptr[i + 1] - 1,
    its columns ascending."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class Incidence:
    """A signed incidence matrix B (N_{n-1} x N_n) held as the rows of its columns.

    Column c of B holds ``signs[s]`` (each +/-1) in row ``columns[c, s]``;
    no column names a row twice and no two columns share two rows, as two
    links share at most one node and two triangles at most one link.
    ``B @ X`` and ``B.T @ X`` take X of N_n or N_{n-1} rows (a vector, or a
    2-D array of any layout) and return new C-ordered float64 arrays.  Each
    output entry adds its terms in scipy's order, from 0, so no entry is
    -0.0, and the products equal scipy's csc and csr products bit for bit
    when each column lists its rows in ascending order, scipy's order, as
    in every complex :func:`build_complex` makes.  (Otherwise ``B.T @ X``
    adds a column's terms in the order listed.)  Everything beyond
    ``columns`` is built on first use and kept.
    """

    def __init__(self, columns: np.ndarray, signs: tuple[int, ...], rows: int):
        self.columns = columns
        self.signs = signs
        self.shape = (rows, len(columns))

    @cached_property
    def T(self) -> _Transposed:
        return _Transposed(self)

    @cached_property
    def row_entries(self) -> RowEntries:
        flat = self.columns.ravel()
        entry = np.argsort(flat, kind="stable")  # by row; by column within a row
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.shape[0]), out=indptr[1:])
        width = len(self.signs)
        return RowEntries(indptr, entry // width, np.array(self.signs, dtype=float)[entry % width])

    @cached_property
    def _slots(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(back, slots) of ``B @ X``.  Sorted by entry count, most first, row
        ``back[i]`` is row i of B, and slots[s] holds the s-th entry of every
        sorted row that has one, so those rows come first: as row c of
        [X; -X] for a +1 in column c, and row N_n + c for a -1.  There is
        always a slot 0, empty when B is zero."""
        indptr, indices, data = self.row_entries
        count = np.diff(indptr)
        order = np.argsort(-count, kind="stable")
        first, count = indptr[order], count[order]
        signed = np.where(data > 0, indices, indices + self.shape[1])
        slots = [
            signed[first[: np.count_nonzero(count > s)] + s] for s in range(max(count.max(initial=0), 1))
        ]
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        return back, slots

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """B X: each row of the output adds its entries in column order, one slot at a time."""
        X = np.asarray(X, dtype=float)
        back, slots = self._slots
        n, shape = self.shape[1], X.shape[1:]
        # [X; -X] with no -0.0 in it: a sum that starts from one of its rows
        # never ends at -0.0, as none of scipy's, which start from +0.0, does
        signed = np.empty((2 * n,) + shape)
        np.add(X, 0.0, out=signed[:n])
        np.subtract(0.0, X, out=signed[n:])
        out = np.empty((self.shape[0],) + shape)
        head, *rest = slots
        # mode="clip" lets take write into out without a buffer; no index is out of range
        signed.take(head, axis=0, out=out[: len(head)], mode="clip")
        out[len(head) :] = 0.0
        for at in rest:
            out[: len(at)] += signed.take(at, axis=0)
        return out.take(back, axis=0)

    def toarray(self) -> np.ndarray:
        """B as a dense float64 array, filled from ``columns``."""
        A = np.zeros(self.shape)
        A[self.columns, np.arange(self.shape[1])[:, None]] = self.signs
        return A


class _Transposed:
    """B^T of an :class:`Incidence` B: ``B.T @ X`` adds the signed rows of X
    that each column of B names."""

    def __init__(self, B: Incidence):
        self.T = B
        self.shape = B.shape[::-1]

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        # X + 0.0 is a copy of X with no -0.0 in it, so a sum that starts
        # from a positive term never ends at -0.0, as none of scipy's does
        X = np.add(X, 0.0)
        terms = list(zip(self.T.columns.T, self.T.signs))
        if terms[0][1] < 0:
            terms[:2] = terms[1::-1]  # the first two terms commute; B1's second is positive
        out = X.take(terms[0][0], axis=0)
        for rows, sign in terms[1:]:
            (np.add if sign > 0 else np.subtract)(out, X.take(rows, axis=0), out=out)
        return out


def _components(size: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the components of the graph on range(size) with edges (a, b).

    Hook and shortcut (Shiloach and Vishkin, J. Algorithms 3, 1982) on a
    forest ``parent`` with parent[x] <= x, whose roots are the smallest node
    of their tree.  Each round drops the edges inside one tree, hooks every
    root that an edge joins to a smaller root onto the smallest such root,
    and then jumps pointers until every node points at its root.  Hooks only
    go from a root to a smaller root, so no cycle forms; each round with an
    edge left hooks at least one root, so the loop ends; when no edge joins
    two trees, the trees are the components.  Hooking onto the smallest root
    (not any one of them) also bounds the rounds by about 2 log2(size): a
    root that a round leaves alone had only larger roots next to it, and
    each of those hooked elsewhere, onto a smaller root, so the next round
    hooks it.  Labels number the components by their smallest node.
    """
    parent = np.arange(size)
    while True:
        pa, pb = parent[a], parent[b]
        cross = pa != pb
        if not cross.any():
            break
        a, b, pa, pb = a[cross], b[cross], pa[cross], pb[cross]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        grand = parent[parent]
        while (grand != parent).any():
            parent, grand = grand, grand[grand]
    roots = parent == np.arange(size)
    return int(roots.sum()), np.cumsum(roots)[parent] - 1


def _closed_orientable_components(B2: Incidence) -> int:
    """Number of triangle components of B2's complex that carry a 2-cycle.

    Each triangle t gets an orientation o_t = +/-1 so that every link shared
    by t and u cancels in B2 o: o_u = -o_t * sign_t * sign_u.  On the
    orientation double cover node t stands for o_t = +1, node t + N2 for
    o_t = -1, and each shared link joins the two node pairs its rule allows.
    A component carries a cycle when the cover keeps t apart from t + N2
    (orientable) and none of its triangles has a free link (closed); it then
    lifts to two cover components, one per orientation.
    """
    n2 = B2.shape[1]
    rows = B2.row_entries  # row per link: its triangles and signs
    per_link = np.diff(rows.indptr)
    first = rows.indptr[:-1]
    free = np.zeros(n2, dtype=bool)
    free[rows.indices[first[per_link == 1]]] = True
    shared = first[per_link == 2]
    t, u = rows.indices[shared], rows.indices[shared + 1]
    flip = np.where(rows.data[shared] * rows.data[shared + 1] > 0, n2, 0)
    count, labels = _components(2 * n2, np.r_[t, t + n2], np.r_[u + flip, u + n2 - flip])
    open_or_twisted = np.tile(free | (labels[:n2] == labels[n2:]), 2)
    return (count - np.unique(labels[open_or_twisted]).size) // 2


def _collapses(faces: np.ndarray, n1: int) -> bool:
    """Whether elementary collapses remove every triangle; row t of ``faces``
    holds the rows, among ``n1`` links, of triangle t's three faces.

    A link is free when it bounds exactly one live triangle.  Each round
    removes every live triangle that has a free link (Whitehead's elementary
    collapse of the pair; Kaczynski, Mischaikow and Mrozek, Computational
    Homology, 2004), until a round removes none.  A free link belongs to one
    live triangle only, so each removed triangle owns a free link of its
    own, and every triangle removed in the same round or later was live
    then and so is zero on it.  Ordered by removal, the owned links' rows of
    B2 therefore form a triangular N2 x N2 block with +/-1 on its diagonal:
    when no triangle is left, rank B2 = N2.  Every round but the last
    removes a triangle, so there are at most N2 + 1 rounds, each O(N1 + N2).
    """
    live = np.ones(len(faces), dtype=bool)
    while True:
        count = np.bincount(faces[live].ravel(), minlength=n1)
        free = live & (count[faces] == 1).any(axis=1)
        if not free.any():
            return not live.any()
        live &= ~free


def is_wide(B: Incidence) -> bool:
    """Whether B has no more rows than columns, so that B B^T is its smaller Gram matrix.

    The one rule for which Gram matrix :func:`gram_matrix` builds, and so for
    which singular factor of B a spectral basis stores.
    """
    return B.shape[0] <= B.shape[1]


def gram_matrix(B: Incidence) -> np.ndarray:
    """The smaller Gram matrix of B, dense float64 in C order.

    B B^T when B is :func:`is_wide`, else B^T B.  Entry (i, k) off the
    diagonal is the product of the signs that rows i and k (columns, for
    B^T B) have in the one column (row) they share, if any, and the diagonal
    counts each row's (column's) entries; so every entry is set by one
    assignment of a small integer, and G is exact.
    """
    # entries k in indptr[g] .. indptr[g + 1] - 1 form group g: their G index and sign
    if is_wide(B):  # B B^T: the rows of B that share column g
        count, width = B.columns.shape
        indptr = np.arange(0, width * count + 1, width)
        index, sign = B.columns.ravel(), np.tile(np.array(B.signs, dtype=float), count)
    else:  # B^T B: the columns of B that share row g
        indptr, index, sign = B.row_entries
    # every ordered pair (e, f) of entries in one group, e == f included:
    # entry e pairs with the entries start[e] .. start[e] + width[e] - 1
    count = np.diff(indptr)
    start, width = np.repeat(indptr[:-1], count), np.repeat(count, count)
    e = np.repeat(np.arange(index.size), width)
    f = np.repeat(start - np.cumsum(width) + width, width) + np.arange(e.size)
    size = min(B.shape)
    G = np.zeros((size, size))
    G[index[e], index[f]] = sign[e] * sign[f]
    G[np.diag_indices(size)] = np.bincount(index, minlength=size)
    return G


# glibc's mallopt parameters, and the fixed values :func:`steady_heap` gives them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


@cache
def steady_heap() -> bool:
    """Fix glibc's malloc thresholds, once, before the first Gram solve.

    A Gram solve mallocs and frees float64 buffers of m^2 size: the packed
    Householder reflectors, m^2 / 2, and dstedc's workspace, about m^2, and
    G, whose storage the solve overwrites with the eigenvectors, which live
    as long as the basis that keeps them (numpy's ``eigh``, where it runs,
    adds a copy of G, a workspace of about 2 m^2 and its output array).  Left
    to itself glibc adapts its mmap and trim thresholds to the first large
    free; from then on, whether the heap's free top goes back to the system
    after a solve, to be faulted in again by the next one, turns on a few KB
    of unrelated allocations: about 7,300 pages per NGF-1000 set-up.  Fixed
    here, blocks under MMAP_THRESHOLD come from the heap, and freed heap
    memory is kept for the next solve unless TRIM_THRESHOLD of it lies free
    at the top.
    Returns whether the thresholds were set: not on another C library, and
    not when the environment sets glibc's malloc tunables itself.
    """
    tunables = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    if any(name in os.environ for name in tunables) or "glibc.malloc" in os.environ.get(
        "GLIBC_TUNABLES", ""
    ):
        return False
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


# the exported names of a LAPACK routine whose integer width is fixed by
# convention: the ILP64 builds of numpy's wheels suffix 64_, the LP64
# scipy-openblas build none
LAPACK_SYMBOLS = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("scipy_{}_", ctypes.c_int32),
)


class SolvePlan(NamedTuple):
    """What an in-place Gram solve allocates (:meth:`DsyevdStages.plan`): the
    entries of each array beyond G, d, e and tau, and the bytes of every
    array, for eigenvalues alone and with eigenvectors."""

    trd: int
    reflectors: int
    stedc: int
    istedc: int
    ormtr: int
    values_bytes: int
    vectors_bytes: int


class DsyevdStages:
    """The LAPACK stages that dsyevd runs (Anderson et al., LAPACK Users'
    Guide, 3rd ed., 1999), bound through ctypes.  Each reads a C-ordered
    array as the Fortran-ordered transpose it is to LAPACK:

    - ``dsytrd`` reduces the lower triangle of a symmetric A to a
      tridiagonal T, its diagonal in d and subdiagonal in e, and leaves
      the Householder reflectors that reduce it below A's subdiagonal (the
      diagonal's place in each), their scalars in tau;
    - ``dsterf`` overwrites d with T's eigenvalues, ascending;
    - ``dstedc`` does that too and writes T's eigenvectors to Z (divide and
      conquer; Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995);
    - ``dormtr`` multiplies C by the reflectors, which it reads from A.

    Each takes writeable C-ordered arrays of the sizes it states and raises
    :class:`EigensolveFailure` on a nonzero info.  Run in this order with
    the workspaces that :meth:`plan` sizes, they give dsyevd's bits.
    """

    # each routine's arguments before info: C a character, I an integer, A an array
    ARGUMENTS = {
        "dsytrd": "CIAIAAAAI",  # uplo, n, a, lda, d, e, tau, work, lwork
        "dsterf": "IAA",  # n, d, e
        "dstedc": "CIAAAIAIAI",  # compz, n, d, e, z, ldz, work, lwork, iwork, liwork
        "dormtr": "CCCIIAIAAIAI",  # side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    }

    def __init__(self, functions: dict, integer):
        self.integer, self.dtype, self.functions = integer, np.dtype(integer), functions
        types = {"C": ctypes.c_char_p, "I": ctypes.POINTER(integer), "A": ctypes.c_void_p}
        for name, kinds in self.ARGUMENTS.items():
            # info, then the length of each character argument
            argtypes = [types[kind] for kind in kinds + "I"] + [ctypes.c_size_t] * kinds.count("C")
            functions[name].restype, functions[name].argtypes = None, argtypes

    def _call(self, name: str, *args) -> int:
        """LAPACK's info from routine ``name`` on args, each a character
        (bytes), an integer, an array or None."""
        values = [self.integer(arg) if isinstance(arg, Integral) else self._data(arg) for arg in args]
        info = self.integer(0)
        self.functions[name](*values, ctypes.byref(info), *[1] * self.ARGUMENTS[name].count("C"))
        return info.value

    def _data(self, arg):
        if not isinstance(arg, np.ndarray):
            return arg
        if not (arg.dtype in (np.float64, self.dtype) and arg.flags.c_contiguous and arg.flags.writeable):
            raise ValueError("LAPACK takes writeable C-ordered float64 arrays and integer workspaces")
        return arg.ctypes.data

    def _run(self, name: str, *args) -> None:
        info = self._call(name, *args)
        if info:
            raise EigensolveFailure(f"Gram eigensolve failed: {name} returned info={info}")

    @staticmethod
    def _fits(*sized) -> None:
        """ValueError unless each array of the (array, size) pairs holds at least size entries."""
        if any(array.size < size for array, size in sized):
            raise ValueError("a LAPACK stage got an array smaller than it writes")

    def empty(self, size: int, dtype=np.float64) -> np.ndarray:
        """A new array of size entries: a solve allocates every array beyond G here."""
        return np.empty(size, dtype)

    def plan(self, m: int) -> SolvePlan:
        """The sizes of a solve of order m > 0, from one dsytrd workspace query.

        dsytrd gets its optimum, m times its block size, and dstedc its
        documented 1 + 4m + m^2 doubles and 3 + 5m integers: dsyevd lends
        as much or more, which changes nothing.  dormtr gets dsyevd's
        1 + 4m + m^2, or 64m + 4160 where that is less: the dormqr it calls
        picks its block size from its workspace, and the largest, 64, needs
        64m plus the 65 x 64 block of reflector factors that dormtr's own
        optimum leaves out, which would move X by roundoff.  (For m < 14
        dsyevd lends more, but dormqr then runs unblocked either way.)
        """
        query = np.empty(1)
        self._run("dsytrd", b"L", m, None, m, None, None, None, query, -1)
        trd, reflectors, stedc, istedc = int(query[0]), m * (m - 1) // 2, 1 + 4 * m + m * m, 3 + 5 * m
        ormtr = min(stedc, 64 * m + 65 * 64)
        values = 8 * (m * m + 3 * m - 2 + trd)
        vectors = values + 8 * (reflectors + stedc + ormtr) + self.dtype.itemsize * istedc
        return SolvePlan(trd, reflectors, stedc, istedc, ormtr, values, vectors)

    def dsytrd(self, A: np.ndarray, d: np.ndarray, e: np.ndarray, tau: np.ndarray, work: np.ndarray) -> None:
        """Reduce the m x m A, m = len(d), to T: A holds the reflectors after it."""
        m = len(d)
        self._fits((A, m * m), (e, m - 1), (tau, m - 1), (work, 1))
        self._run("dsytrd", b"L", m, A, m, d, e, tau, work, work.size)

    def dsterf(self, d: np.ndarray, e: np.ndarray) -> None:
        """T's eigenvalues, ascending, in d; e is overwritten."""
        self._fits((e, len(d) - 1))
        self._run("dsterf", len(d), d, e)

    def dstedc(self, d: np.ndarray, e: np.ndarray, Z: np.ndarray, work: np.ndarray, iwork: np.ndarray) -> None:
        """T's eigenvalues, ascending, in d and its eigenvectors in the m x m Z; e is overwritten."""
        m = len(d)
        self._fits((e, m - 1), (Z, m * m), (work, 1), (iwork, 1))
        if iwork.dtype != self.dtype:
            raise ValueError("dstedc's integer workspace has LAPACK's integers")
        self._run("dstedc", b"I", m, d, e, Z, m, work, work.size, iwork, iwork.size)

    def dormtr(self, A: np.ndarray, tau: np.ndarray, C: np.ndarray, work: np.ndarray) -> None:
        """C, m x m with m = len(tau) + 1, multiplied from the left by the reflectors in A and tau."""
        m = len(tau) + 1
        self._fits((A, m * m), (C, m * m), (work, m))
        self._run("dormtr", b"L", b"L", b"N", m, m, A, m, tau, C, m, work, work.size)


@cache
def lapack_dsyevd() -> DsyevdStages | None:
    """dsyevd's stages from the OpenBLAS library that numpy's wheel loads, or None.

    The wheel keeps it in ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS); loading it again returns the same library.
    The four routines are bound under the first naming of
    :data:`LAPACK_SYMBOLS` that the library exports for every one, so the
    integer width is never guessed.  None on a numpy that brings no such
    library.
    """
    package = Path(np.__file__).parent
    libraries = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for pattern, integer in LAPACK_SYMBOLS:
            functions = {name: getattr(library, pattern.format(name), None) for name in DsyevdStages.ARGUMENTS}
            if None not in functions.values():
                return DsyevdStages(functions, integer)
    return None


def gram_eigh(B: Incidence, *, vectors: bool = True):
    """Eigenvalues of B's smaller Gram matrix G, descending, and its
    eigenvectors if asked, as the columns of X in that order.

    Returns w, or (w, X) with X in LAPACK's Fortran order.  It builds G
    itself (:func:`gram_matrix`), so no caller sees G overwritten.  Where
    numpy's wheel brings its OpenBLAS (:func:`lapack_dsyevd`), it runs
    dsyevd's own stages (:class:`DsyevdStages`) in G's own storage, each
    array beyond G sized by the solve's one :meth:`~DsyevdStages.plan`.
    dsytrd reduces G's lower triangle (its upper one in G's C order) to a
    tridiagonal T; for eigenvalues alone dsterf solves T.  For eigenvectors
    the reflectors are packed aside (:func:`_move_upper`); dstedc writes T's
    eigenvectors over G; the reflectors are unpacked into dstedc's
    workspace; and dormtr turns T's eigenvectors into G's, ascending, G's
    rows in its C order.  X is ``G.T`` once G's rows are reversed in place
    (:func:`_reverse_rows`).  The solve peaks at G, the reflectors and
    dstedc's workspace, about 20 m^2 bytes (8 m^2 for eigenvalues alone),
    and nothing of m^2 size is allocated after it.  Each stage gets the
    workspace dsyevd lends it, so w and X have dsyevd's bits.  dsyevd would
    first scale a G whose largest entry lies outside about [1e-146, 1e146];
    G's entries are integers no larger than the most entries a row or column
    of B holds, so it never does, and the stages need not.  Elsewhere
    ``numpy.linalg.eigh`` (or ``eigvalsh``) runs dsyevd in a copy of G, with
    the same bits (:func:`_numpy_eigh`).  :func:`steady_heap` keeps these
    buffers in the heap from one solve to the next.  A failed allocation of
    G or a workspace, which names the plan's bytes, or a nonzero info from
    any stage raises :class:`EigensolveFailure`.
    """
    steady_heap()
    m = min(B.shape)
    if m == 0:  # LAPACK would refuse lda = 0
        w = np.empty(0)
        return (w, np.empty((0, 0))) if vectors else w
    lapack = lapack_dsyevd()
    if lapack is None:
        return _numpy_eigh(B, vectors)
    plan, empty = lapack.plan(m), lapack.empty
    with _allocating(m, plan.vectors_bytes if vectors else plan.values_bytes, "G and the solve's workspaces"):
        G = gram_matrix(B)
        w, e, tau = empty(m), empty(m - 1), empty(m - 1)
        lapack.dsytrd(G, w, e, tau, empty(plan.trd))
        if not vectors:
            lapack.dsterf(w, e)
            return w[::-1]
        reflectors = empty(plan.reflectors)
        _move_upper(G, reflectors, pack=True)
        work = empty(plan.stedc)
        lapack.dstedc(w, e, G, work, empty(plan.istedc, lapack.dtype))
        A = work[: m * m].reshape(m, m)
        _move_upper(A, reflectors, pack=False)
        del reflectors
        lapack.dormtr(A, tau, G, empty(plan.ormtr))
        del A, work
    return w[::-1], _reverse_rows(G).T


def _move_upper(A: np.ndarray, packed: np.ndarray, *, pack: bool) -> None:
    """Copy the strict upper triangle of the C-ordered m x m A into
    ``packed``, m(m - 1)/2 entries, or back when not ``pack``.

    64 rows a..b-1 at a time: first the rectangle A[a:b, b:], row by row,
    then their strict upper triangle inside A[a:b, a:b], so that nothing
    larger than 64 x 64 entries is allocated.
    """
    m, block = len(A), 64
    inside = np.triu(np.ones((block, block), dtype=bool), 1)
    at = 0
    for a in range(0, m, block):
        b = min(a + block, m)
        rectangle = packed[at : at + (b - a) * (m - b)].reshape(b - a, m - b)
        at += rectangle.size
        corner, triangle = A[a:b, a:b], inside[: b - a, : b - a]
        size = (b - a) * (b - a - 1) // 2
        if pack:
            rectangle[...] = A[a:b, b:]
            packed[at : at + size] = corner[triangle]
        else:
            A[a:b, b:] = rectangle
            corner[triangle] = packed[at : at + size]
        at += size


def _reverse_rows(A: np.ndarray) -> np.ndarray:
    """A with its rows reversed in its own storage, 64 rows at a time, so
    that nothing larger than 64 rows is allocated; A is C-ordered."""
    m, block = len(A), 64
    for a in range(0, m // 2, block):
        b = min(a + block, m // 2)
        top = A[a:b].copy()
        A[a:b] = A[m - b : m - a][::-1]
        A[m - b : m - a] = top[::-1]
    return A


def _numpy_eigh(B: Incidence, vectors: bool):
    """:func:`gram_eigh` through ``numpy.linalg``, which runs dsyevd in a copy
    of G, with a workspace of about 2 m^2 doubles, and writes the
    eigenvectors to a new array: about 40 m^2 bytes (16 m^2 for eigenvalues
    alone).  G is dropped before the eigenvectors are copied, reversed,
    into X."""
    m = min(B.shape)
    with _allocating(m, 8 * m * m, "G"):
        G = gram_matrix(B)
    with _allocating(m, 8 * m * m * (5 if vectors else 2), "numpy.linalg's solve"):
        try:
            if not vectors:
                return np.linalg.eigvalsh(G)[::-1]
            w, X = np.linalg.eigh(G)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(f"Gram eigensolve failed: {exc}") from exc
        del G
        return w[::-1], np.ascontiguousarray(X.T[::-1]).T


@contextmanager
def _allocating(m: int, need: int, what: str):
    """Raise a MemoryError in the block as an :class:`EigensolveFailure`
    naming the order m of the Gram solve and the ``need`` bytes of ``what``."""
    try:
        yield
    except MemoryError as exc:
        raise EigensolveFailure(
            f"Gram eigensolve of order m={m} could not allocate {need} bytes for {what}"
        ) from exc


def gap_rank(w: np.ndarray, rtol: float) -> int:
    """Rank of a boundary matrix B from the descending spectrum w of its Gram matrix.

    B is an integer matrix, so its Gram matrix is exact and the eigenvalues
    of its null space are pure roundoff, at most size * eps * w_max.  Every
    eigenvalue must lie either at that level or above rtol * w_max; one in
    between leaves the rank undecided and raises :class:`EigensolveFailure`.
    """
    top = w[0] if w.size else 0.0
    if top <= 0.0:
        return 0
    roundoff = w.size * np.finfo(float).eps * top
    cutoff = rtol * top
    undecided = np.count_nonzero((np.abs(w) > roundoff) & (w <= cutoff))
    if undecided:
        raise EigensolveFailure(
            f"no clear gap in the Gram spectrum: {undecided} eigenvalue(s) between "
            f"roundoff {roundoff:.3g} and the cutoff {cutoff:.3g}"
        )
    return int(np.count_nonzero(w > cutoff))


def betti_numbers(K: SimplicialComplex) -> tuple[int, int, int]:
    """(beta_0, beta_1, beta_2) from the ranks of the boundary matrices.

    beta_n = dim ker(L_n) = N_n - rank(B_n) - rank(B_{n+1}), with both ranks
    read from the complex (:attr:`SimplicialComplex.rank1`, ``rank2``).
    """
    r1, r2 = K.rank1, K.rank2
    return (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)


def from_dict(data: dict) -> SimplicialComplex:
    """Build a complex from the documented dict/JSON form, canonicalizing."""
    if not isinstance(data, dict):
        raise ParseError("complex file must contain a JSON object")
    fmt = data.get("format", COMPLEX_FORMAT)
    if not str(fmt).startswith("diracsp/complex/"):
        raise ParseError(f"unrecognized complex format {fmt!r}")
    missing = [k for k in ("nodes", "links") if k not in data]
    if missing:
        raise ParseError(f"complex file is missing fields: {missing}")
    try:
        return build_complex(data["links"], data.get("triangles", ()), data["nodes"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed complex file: {exc}") from exc


def load_complex(path) -> SimplicialComplex:
    """Load a complex file, tolerating unsorted input; returns the canonical form."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(data)

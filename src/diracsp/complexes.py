"""Simplicial complexes of dimension <= 2 and their signed boundary matrices.

A complex is stored canonically: every link is a pair (i, j) with i < j,
every triangle a triple (i, j, k) with i < j < k, and both lists are sorted
lexicographically.  Orientation is the one induced by ascending node labels;
the column of B2 for triangle (i, j, k) carries signs (+1, -1, +1) on its
faces (i, j), (i, k), (j, k).  Any consistent convention would satisfy
B1 @ B2 = 0; downstream results do not depend on this choice.  Construction
works on int64 arrays, and open triangles are rejected, never filled in.

Exact ranks are counts of connected components: of the graph for B1, and
of the triangles' orientation double cover for B2 when every link bounds
at most two triangles.

Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicateSimplex,
    EigensolveFailure,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

COMPLEX_FORMAT = "diracsp/complex/1"

# Relative cutoff of the gap test that ranks boundary matrices (gap_rank): a
# Gram eigenvalue (a squared singular value) must sit at roundoff level or
# above RANK_RTOL * w_max.  On the eigh reference path a singular value at or
# below RANK_RTOL * sigma_max counts as zero.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SimplicialComplex:
    """Canonical node/link/triangle lists; source of all operators."""

    node_count: int
    links: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...] = ()

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

    def link_index(self, i: int, j: int) -> int:
        """Position of link (i, j) in the canonical ordering."""
        return int(_link_rows(_array(self.links, 2), self.n0, np.array([[i, j]]))[0])

    def euler_characteristic(self) -> int:
        return self.n0 - self.n1 + self.n2

    def to_dict(self) -> dict:
        return {
            "format": COMPLEX_FORMAT,
            "nodes": self.node_count,
            "links": [list(lk) for lk in self.links],
            "triangles": [list(tr) for tr in self.triangles],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1) + "\n")


def require_int(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer (a numpy one counts, a bool not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


INT64_MAX = np.iinfo(np.int64).max
MAX_NODES = 3_037_000_499  # isqrt(INT64_MAX): link codes i * N0 + j (_link_rows) fit in int64


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
    lks = _canonical_simplices(lks, node_count, "link")
    _face_rows(lks, tris, node_count)  # closure
    # zip over the columns makes the tuples in about half the time of map(tuple, rows)
    return SimplicialComplex(node_count, *(tuple(zip(*a.T.tolist())) for a in (lks, tris)))


def _array(simplices, width: int) -> np.ndarray:
    return np.array(simplices, dtype=np.int64).reshape(-1, width)


def _link_rows(links: np.ndarray, n0: int, pairs: np.ndarray) -> np.ndarray:
    """Positions in the (N1, 2) array ``links``, in any order, of the links pairs[f],
    either way round, looked up by their codes i * N0 + j; a link not among them
    raises :class:`MissingFace` naming the first one."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    codes = links[:, 0] * n0 + links[:, 1]
    order = np.argsort(codes, kind="stable")
    want = lo * n0 + hi
    pos = np.searchsorted(codes, want, sorter=order)
    found = pos < codes.size
    found[found] = codes[order[pos[found]]] == want[found]
    if not found.all():
        f = int(np.argmin(found))
        raise MissingFace(f"link {(int(lo[f]), int(hi[f]))} is not part of the complex")
    return order[pos]


def _face_rows(links: np.ndarray, triangles: np.ndarray, n0: int) -> np.ndarray:
    """:func:`_link_rows` of the faces (i, j), (i, k), (j, k), triangle by triangle."""
    return _link_rows(links, n0, triangles[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2))


def boundary_matrix(K: SimplicialComplex, n: int) -> sp.csc_array:
    """Signed boundary matrix B_n as a sparse integer matrix.

    B1 has shape (N0, N1) with one -1 (tail) and one +1 (head) per column;
    B2 has shape (N1, N2) with signs (+1, -1, +1) on the faces of each
    triangle.  For n=2 on a triangle-free complex this is an (N1, 0) zero
    matrix.
    """
    if n == 1:
        rows, signs, shape = _array(K.links, 2).ravel(), [-1, 1], (K.n0, K.n1)
    elif n == 2:
        rows = _face_rows(_array(K.links, 2), _array(K.triangles, 3), K.n0)
        signs, shape = [1, -1, 1], (K.n1, K.n2)
    else:
        raise InvalidOrder(f"boundary matrices exist for n in {{1, 2}}, got {n}")
    cols = np.repeat(np.arange(shape[1]), len(signs))
    vals = np.tile(signs, shape[1])
    return sp.csc_array((vals, (rows, cols)), shape=shape, dtype=np.int64)


def _components(size: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the components of the graph on range(size) with edges (a, b)."""
    graph = sp.coo_array((np.ones(a.size), (a, b)), shape=(size, size))
    return connected_components(graph, directed=False)


def graph_rank(K: SimplicialComplex) -> int:
    """Exact rank of B1: N0 minus the number of connected components."""
    ends = _array(K.links, 2)
    return K.n0 - _components(K.n0, ends[:, 0], ends[:, 1])[0]


def triangle_rank(K: SimplicialComplex) -> int:
    """Rank of B2: exact where :func:`combinatorial_rank` decides it, else the
    :func:`gap_rank` of the eigenvalues of B2's smaller Gram matrix.
    """
    B2 = boundary_matrix(K, 2)
    r = combinatorial_rank(B2)
    if r is None:
        r = gap_rank(gram_eigh(gram_matrix(B2)[0], vectors=False), RANK_RTOL)
    return r


def combinatorial_rank(B2: sp.sparray) -> int | None:
    """Exact rank of B2 when every link bounds at most two triangles, else None.

    Then ker(B2) has one dimension per triangle component (triangles joined
    by shared links) that is closed, with no link on a single triangle, and
    orientable, so rank B2 = N2 minus their number.
    """
    if B2.shape[1] == 0:
        return 0
    B2 = B2.tocsr()  # row per link: its triangles and signs
    if np.diff(B2.indptr).max() > 2:
        return None
    return B2.shape[1] - _closed_orientable_components(B2)


def _closed_orientable_components(B2: sp.csr_array) -> int:
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
    per_link = np.diff(B2.indptr)
    first = B2.indptr[:-1]
    free = np.zeros(n2, dtype=bool)
    free[B2.indices[first[per_link == 1]]] = True
    shared = first[per_link == 2]
    t, u = B2.indices[shared], B2.indices[shared + 1]
    flip = np.where(B2.data[shared] * B2.data[shared + 1] > 0, n2, 0)
    count, labels = _components(2 * n2, np.r_[t, t + n2], np.r_[u + flip, u + n2 - flip])
    open_or_twisted = np.tile(free | (labels[:n2] == labels[n2:]), 2)
    return (count - np.unique(labels[open_or_twisted]).size) // 2


def gram_matrix(B: sp.sparray) -> tuple[np.ndarray, bool]:
    """The smaller Gram matrix of B, dense float64 in C order, and whether it is B B^T.

    (B B^T, True) when B has no more rows than columns, else (B^T B, False).
    """
    wide = B.shape[0] <= B.shape[1]
    G = B @ B.T if wide else B.T @ B
    # B @ B.T of a csc array is csc, whose toarray() would be F-ordered
    return G.astype(float, copy=False).toarray(order="C"), wide


def gram_eigh(G: np.ndarray, *, vectors: bool = True):
    """Ascending eigenvalues of the symmetric matrix G, and its eigenvectors if asked.

    The solve happens in G's own buffer: LAPACK dsyevd runs on G.T, which is
    G itself (G is symmetric) as an F-contiguous view, so nothing is copied,
    and with ``vectors`` it writes the eigenvectors, one per column, over G.
    Returns w, or (w, X) where X shares G's memory.  G holds garbage
    afterwards either way.  A LAPACK failure raises :class:`EigensolveFailure`.
    """
    try:
        return sla.eigh(
            G.T, eigvals_only=not vectors, driver="evd", overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"Gram eigensolve failed: {exc}") from exc


def gap_rank(w: np.ndarray, rtol: float) -> int:
    """Rank of a boundary matrix B from the ascending spectrum w of its Gram matrix.

    B is an integer matrix, so its Gram matrix is exact and the eigenvalues
    of its null space are pure roundoff, at most size * eps * w_max.  Every
    eigenvalue must lie either at that level or above rtol * w_max; one in
    between leaves the rank undecided and raises :class:`EigensolveFailure`.
    """
    top = w[-1] if w.size else 0.0
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

    beta_n = dim ker(L_n) = N_n - rank(B_n) - rank(B_{n+1}), with rank(B1)
    from :func:`graph_rank` and rank(B2) from :func:`triangle_rank`.
    """
    r1 = graph_rank(K)
    r2 = triangle_rank(K)
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

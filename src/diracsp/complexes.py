"""Simplicial complexes of dimension <= 2 and their signed boundary matrices.

A complex is stored canonically: every link is a pair (i, j) with i < j,
every triangle a triple (i, j, k) with i < j < k, and both lists are sorted
lexicographically.  Orientation is the one induced by ascending node labels;
the column of B2 for triangle (i, j, k) carries signs (+1, -1, +1) on its
faces (i, j), (i, k), (j, k).  Any consistent convention would satisfy
B1 @ B2 = 0; downstream results do not depend on this choice.

Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicateSimplex,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

COMPLEX_FORMAT = "diracsp/complex/1"

# Singular values below RANK_RTOL * sigma_max count as zero when ranking
# boundary matrices.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SimplicialComplex:
    """Canonical node/link/triangle lists; source of all operators."""

    node_count: int
    links: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...] = ()
    _link_index: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_link_index", {lk: i for i, lk in enumerate(self.links)}
        )

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
        key = (i, j) if i < j else (j, i)
        try:
            return self._link_index[key]
        except KeyError:
            raise MissingFace(f"link {key} is not part of the complex") from None

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


def _canonical_simplices(items: Iterable[Sequence[int]], size: int, node_count: int, kind: str):
    """Sort vertices within each simplex, check ranges, reject duplicates."""
    canon = []
    for raw in items:
        verts = tuple(int(v) for v in raw)
        if len(verts) != size:
            raise ParseError(f"{kind} {raw!r} must have {size} vertices")
        if len(set(verts)) != size:
            raise DuplicateSimplex(f"{kind} {raw!r} repeats a vertex")
        for v in verts:
            if not 0 <= v < node_count:
                raise IndexOutOfRange(
                    f"{kind} {raw!r} references node {v} outside range(0, {node_count})"
                )
        canon.append(tuple(sorted(verts)))
    seen = set()
    for s in canon:
        if s in seen:
            raise DuplicateSimplex(f"{kind} {s} appears more than once")
        seen.add(s)
    return sorted(canon)


def triangle_faces(tri: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The three links (i,j), (i,k), (j,k) of a triangle with i < j < k."""
    i, j, k = tri
    return ((i, j), (i, k), (j, k))


def build_complex(
    links: Iterable[Sequence[int]],
    triangles: Iterable[Sequence[int]] = (),
    node_count: int | None = None,
    *,
    fill_missing_faces: bool = False,
) -> SimplicialComplex:
    """Construct a validated, canonicalized complex.

    Closure is enforced: every triangle's three faces must appear among the
    links.  Missing faces raise :class:`MissingFace` unless
    ``fill_missing_faces=True``, in which case they are inserted.
    ``node_count`` defaults to 1 + the largest referenced index.
    """
    links = [tuple(int(v) for v in lk) for lk in links]
    triangles = [tuple(int(v) for v in tr) for tr in triangles]
    if node_count is None:
        referenced = [v for s in links + triangles for v in s]
        node_count = (max(referenced) + 1) if referenced else 0
    node_count = int(node_count)
    if node_count < 0:
        raise IndexOutOfRange("node_count must be >= 0")

    tris = _canonical_simplices(triangles, 3, node_count, "triangle")
    lks = _canonical_simplices(links, 2, node_count, "link")

    link_set = set(lks)
    missing = []
    for tri in tris:
        for face in triangle_faces(tri):
            if face not in link_set:
                missing.append(face)
    if missing:
        if not fill_missing_faces:
            raise MissingFace(
                f"triangles reference {len(missing)} link(s) not in the complex, "
                f"e.g. {missing[0]}; pass fill_missing_faces=True to insert them"
            )
        link_set.update(missing)
        lks = sorted(link_set)

    return SimplicialComplex(node_count, tuple(lks), tuple(tris))


def boundary_matrix(K: SimplicialComplex, n: int) -> sp.csc_array:
    """Signed boundary matrix B_n as a sparse integer matrix.

    B1 has shape (N0, N1) with one -1 (tail) and one +1 (head) per column;
    B2 has shape (N1, N2) with signs (+1, -1, +1) on the faces of each
    triangle.  For n=2 on a triangle-free complex this is an (N1, 0) zero
    matrix.
    """
    if n == 1:
        rows, cols, vals = [], [], []
        for c, (i, j) in enumerate(K.links):
            rows += [i, j]
            cols += [c, c]
            vals += [-1, 1]
        return sp.csc_array(
            (vals, (rows, cols)), shape=(K.n0, K.n1), dtype=np.int64
        )
    if n == 2:
        rows, cols, vals = [], [], []
        for c, tri in enumerate(K.triangles):
            for face, sign in zip(triangle_faces(tri), (1, -1, 1)):
                rows.append(K.link_index(*face))
                cols.append(c)
                vals.append(sign)
        return sp.csc_array(
            (vals, (rows, cols)), shape=(K.n1, K.n2), dtype=np.int64
        )
    raise InvalidOrder(f"boundary matrices exist for n in {{1, 2}}, got {n}")


def matrix_rank(B: sp.sparray | np.ndarray) -> int:
    """Numerical rank via SVD with relative threshold RANK_RTOL."""
    A = B.toarray() if sp.issparse(B) else np.asarray(B)
    if min(A.shape) == 0:
        return 0
    s = np.linalg.svd(A.astype(float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def graph_rank(K: SimplicialComplex) -> int:
    """Exact rank of B1: N0 minus the number of connected components."""
    if K.n0 == 0:
        return 0
    ends = np.array(K.links, dtype=np.int64).reshape(-1, 2)
    adjacency = sp.coo_array(
        (np.ones(K.n1), (ends[:, 0], ends[:, 1])), shape=(K.n0, K.n0)
    )
    return K.n0 - int(connected_components(adjacency, directed=False, return_labels=False))


def betti_numbers(K: SimplicialComplex) -> tuple[int, int, int]:
    """(beta_0, beta_1, beta_2) from the ranks of the boundary matrices.

    beta_n = dim ker(L_n) = N_n - rank(B_n) - rank(B_{n+1}).  rank(B1) is
    exact (:func:`graph_rank`); only rank(B2) is numerical.
    """
    r1 = graph_rank(K)
    r2 = matrix_rank(boundary_matrix(K, 2)) if K.n2 else 0
    return (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)


def from_dict(data: dict, *, fill_missing_faces: bool = False) -> SimplicialComplex:
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
        return build_complex(
            data["links"],
            data.get("triangles", ()),
            int(data["nodes"]),
            fill_missing_faces=fill_missing_faces,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed complex file: {exc}") from exc


def load_complex(path, *, fill_missing_faces: bool = False) -> SimplicialComplex:
    """Load a complex file, tolerating unsorted input; returns the canonical form."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(data, fill_missing_faces=fill_missing_faces)

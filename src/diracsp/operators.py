"""The Dirac operator, Hodge Laplacians, spectra, and spinor decompositions.

The Dirac operator D couples adjacent dimensions through the boundary
matrices:

    D = | 0    B1   0  |        D = D1 + D2,   D^2 = blockdiag(L0, L1, L2)
        | B1^T 0    B2 |
        | 0    B2^T 0  |

D1 carries only the B1 blocks, D2 only the B2 blocks; they annihilate each
other, which splits spinor space into im(D1) + im(D2) + ker(D).  Nonzero
eigenpairs of D_n come in chiral pairs (+lambda, -lambda) built from the
singular triplets of B_n: if B_n v = sigma u, then (u, +/-v)/sqrt(2) padded
with the zero block are unit eigenvectors of D_n with eigenvalues +/-sigma.

A DiracOperator holds only B1 and B2.  D_n acts through B_n: on the blocks
(a, b) it couples, D_n maps (a, b) to (B_n b, B_n^T a).  The sparse M x M
block matrices of D1, D2 and D are built on first use only.  Everything
spectral about D_n comes from one cached SpectralBasis per boundary matrix,
the triplets of one Gram eigensolve checked against the exact rank:
projections, kernels and harmonic bases read it, and ranks read it only
where no exact count exists.

All operators are immutable after assembly; projections are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .complexes import (
    RANK_RTOL,
    SimplicialComplex,
    boundary_matrix,
    combinatorial_rank,
    gap_rank,
    graph_rank,
    gram_eigh,
    gram_matrix,
)
from .errors import DimensionMismatch, EigensolveFailure, InvalidOrder
from .spinors import TopologicalSpinor, split_blocks

SQRT2 = np.sqrt(2.0)

# Columns per block of the sign pass (_column_peaks).
_PEAK_BLOCK = 64


def _order(n: int) -> int:
    """n itself, if D_n exists (n = 1 or 2); InvalidOrder otherwise."""
    if n not in (1, 2):
        raise InvalidOrder(f"D_n exists for n in {{1, 2}}, got {n}")
    return n


def _block_matrix(Dop: DiracOperator, n: int) -> sp.csr_array:
    """D_n as a sparse M x M matrix: B_n and B_n^T in the blocks it couples."""
    B = Dop.boundary(n)
    rows = [[sp.csr_array((r, c)) for c in Dop.K.counts] for r in Dop.K.counts]
    rows[n - 1][n], rows[n][n - 1] = B, B.T
    return sp.block_array(rows, format="csr")


@dataclass(frozen=True)
class DiracOperator:
    """Symmetric Dirac operator D = D1 + D2 of a complex, held as B1 and B2."""

    K: SimplicialComplex
    B1: sp.csc_array
    B2: sp.csc_array

    @property
    def dim(self) -> int:
        return self.K.spinor_dim

    def boundary(self, n: int) -> sp.csc_array:
        return self.B1 if _order(n) == 1 else self.B2

    # -- block matrices, built on first read ---------------------------------

    @cached_property
    def part1(self) -> sp.csr_array:
        return _block_matrix(self, 1)

    @cached_property
    def part2(self) -> sp.csr_array:
        return _block_matrix(self, 2)

    @cached_property
    def full(self) -> sp.csr_array:
        return self.part1 + self.part2

    def part(self, n: int) -> sp.csr_array:
        return self.part1 if _order(n) == 1 else self.part2

    # -- Laplacians ---------------------------------------------------------

    def laplacian(self, n: int, which: str = "full") -> sp.csr_array:
        """L_n = B_n^T B_n + B_{n+1} B_{n+1}^T, or its up/down part alone."""
        if n not in (0, 1, 2):
            raise InvalidOrder(f"Hodge Laplacians exist for n in {{0, 1, 2}}, got {n}")
        if which not in ("full", "up", "down"):
            raise InvalidOrder(f"which must be full|up|down, got {which!r}")
        zero = sp.csr_array((self.K.counts[n],) * 2)
        down = zero if n == 0 or which == "up" else self.boundary(n).T @ self.boundary(n)
        up = zero if n == 2 or which == "down" else self.boundary(n + 1) @ self.boundary(n + 1).T
        return (down if which == "down" else up if which == "up" else down + up).tocsr()

    @cached_property
    def super_laplacian(self) -> sp.csr_array:
        """blockdiag(L0, L1, L2); equals D^2 up to floating-point roundoff."""
        return sp.block_diag(
            [self.laplacian(0), self.laplacian(1), self.laplacian(2)],
            format="csr",
        )

    # -- spectra of the parts -------------------------------------------------

    # Exact ranks by counting; rank B2 is None where no count decides it.
    @cached_property
    def _rank1(self) -> int:
        return graph_rank(self.K)

    @cached_property
    def _rank2(self) -> int | None:
        return combinatorial_rank(self.B2)

    @cached_property
    def _basis1(self) -> SpectralBasis:
        return SpectralBasis(1, self.K, *_gram_triplets(self.B1, self._rank1))

    @cached_property
    def _basis2(self) -> SpectralBasis:
        return SpectralBasis(2, self.K, *_gram_triplets(self.B2, self._rank2))

    def singular_triplets(self, n: int):
        basis = spectral_basis(self, n)
        return basis.U, basis.sigma, basis.V

    def rank(self, n: int) -> int:
        """rank(B_n): the exact count where one exists, else the spectral basis's."""
        r = self._rank1 if _order(n) == 1 else self._rank2
        return spectral_basis(self, n).rank if r is None else r

    def nonharmonic_dim(self, n: int) -> int:
        """dim im(D_n) = 2 rank(B_n)."""
        return 2 * self.rank(n)

    def _check(self, s: TopologicalSpinor) -> None:
        if len(s) != self.dim:
            raise DimensionMismatch(
                f"spinor has length {len(s)}, operator needs {self.dim}"
            )

    def apply(self, s: TopologicalSpinor, n: int | None = None) -> TopologicalSpinor:
        """D s (n=None) or D_n s, as sparse products with B1 and B2."""
        self._check(s)
        if n is None:
            return self.apply(s, 1) + self.apply(s, 2)
        left, right = _blocks_for(n, s.blocks)
        B = self.boundary(n)
        return _spinor_from_blocks(self.K, n, B @ right, B.T @ left)


def _blocks_for(n: int, blocks):
    """(left-block, right-block) of the (node, link, triangle) blocks that D_n touches."""
    return blocks[_order(n) - 1], blocks[n]


def _spinor_from_blocks(K: SimplicialComplex, n: int, left, right) -> TopologicalSpinor:
    if n == 1:
        return TopologicalSpinor(left, right, np.zeros(K.n2))
    return TopologicalSpinor(np.zeros(K.n0), left, right)


def assemble_dirac(K: SimplicialComplex) -> DiracOperator:
    """The Dirac operator of a complex.  1-dimensional complexes get D2 = 0."""
    return DiracOperator(
        K=K, B1=boundary_matrix(K, 1).astype(float), B2=boundary_matrix(K, 2).astype(float)
    )


def hodge_laplacian(K: SimplicialComplex, n: int, which: str = "full") -> sp.csr_array:
    """L_n of K, or its up/down part alone: see :meth:`DiracOperator.laplacian`."""
    return assemble_dirac(K).laplacian(n, which)


# -- singular triplets --------------------------------------------------------


def _gram_triplets(B: sp.sparray, r: int | None):
    """(U, sigma, V) of the nonzero singular triplets of B, sigma descending
    (to roundoff inside a cluster of equal values).

    One dense eigensolve of the smaller Gram matrix G (B B^T when B has no
    more rows than columns, else B^T B), done in G's own buffer
    (:func:`gram_eigh`), gives one factor: the eigenvectors X of the top
    eigenvalues.  The rank is the :func:`gap_rank` of that spectrum, which
    must equal the exact rank r when one is known (graph_rank,
    combinatorial_rank), or the eigensolve is not trusted.  The top columns
    of X are copied out and G is dropped before the other factor is built:
    each column B^T x (or B x) is divided in place by its own norm, which is
    its sigma.  That norm keeps the small singular values accurate to
    roundoff relative to themselves, where sqrt of the Gram eigenvalue would
    lose digits in proportion to (sigma_max / sigma)^2.  Peak memory stays
    under G + the LAPACK workspace + U + V: G and the workspace during the
    solve, G and the copied columns, then U and V.  U and V are
    C-contiguous, so products with them never copy.
    """
    m, n = B.shape
    G, wide = gram_matrix(B)
    w, X = gram_eigh(G)
    del G
    found = gap_rank(w, RANK_RTOL)
    if r is not None and found != r:
        raise EigensolveFailure(
            f"{found} Gram eigenvalues of a {m}x{n} boundary matrix lie above "
            f"the gap, but its exact rank is {r}"
        )
    X = np.ascontiguousarray(X[:, w.size - found :][:, ::-1])
    Y = B.T @ X if wide else B @ X
    sigma = np.sqrt(np.einsum("ij,ij->j", Y, Y))
    Y /= sigma
    return (X, sigma, Y) if wide else (Y, sigma, X)


def _complement(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of A's orthonormal columns."""
    m, r = A.shape
    if r == 0:
        return np.eye(m)
    return np.linalg.qr(A, mode="complete")[0][:, r:]


def _fix_sign(col: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of a column positive (first on ties)."""
    return -col if col[np.argmax(np.abs(col))] < 0 else col


def _mode_signs(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """+/-1 per nonzero mode, in ``SpectralBasis.nonzero_indices`` order.

    The sign makes the largest-magnitude entry of (u, -v)/sqrt(2) (negative
    modes) or (u, +v)/sqrt(2) (positive modes) positive, the first entry
    winning ties.  |u| and |v| are the same in both columns of a triplet, so
    one argmax per factor decides both.
    """
    r = U.shape[1]
    if r == 0:
        return np.zeros(0)
    cols = np.arange(r)
    iu, au = _column_peaks(U)
    iv, av = _column_peaks(V)
    from_u = au >= av
    su, sv = np.sign(U[iu, cols]), np.sign(V[iv, cols])
    neg = np.where(from_u, su, -sv)
    pos = np.where(from_u, su, sv)
    return np.concatenate([neg, pos[::-1]])


def _column_peaks(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of A: the row of the largest |entry| / sqrt(2) (first on ties) and that value.

    Columns are taken _PEAK_BLOCK at a time, transposed into one reused
    buffer so that each argmax runs along contiguous memory; no array of
    A's size is allocated.
    """
    rows, r = A.shape
    index, peak = np.empty(r, dtype=np.intp), np.empty(r)
    buf = np.empty((min(_PEAK_BLOCK, r), rows))
    for start in range(0, r, _PEAK_BLOCK):
        stop = min(start + _PEAK_BLOCK, r)
        a = buf[: stop - start]
        np.abs(A[:, start:stop].T, out=a)
        a /= SQRT2
        index[start:stop] = a.argmax(axis=1)
        peak[start:stop] = a[np.arange(stop - start), index[start:stop]]
    return index, peak


# -- spectral basis -----------------------------------------------------------


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of D_n, ascending, split into negative / harmonic / positive.

    The basis is factored: it holds the rank-truncated singular triplets
    (U, sigma, V) of B_n, O((N_{n-1} + N_n) r) numbers.  Triplet j gives the
    modes sign * (u_j, -/+v_j)/sqrt(2) for eigenvalues -/+sigma_j, padded
    with the zero block; the sign makes the largest-magnitude entry positive
    (first on ties).  ``signs``, one per nonzero mode, is computed on first
    use, so callers that read only the triplets never pay for it.
    Eigenvalues ascend: -sigma in triplet order, the harmonic zeros, then
    +sigma reversed.

    ``spinor(i)`` builds the unit eigenvector for ``eigenvalues[i]``;
    ``coefficients`` and ``synthesize`` map between spinors and coordinates
    along the nonzero modes (in ``nonzero_indices`` order) through U and V,
    so no dense basis is ever formed.  ``harm_indices`` span ker(D_n), of
    dimension ``kernel_dim``; their columns come from the orthogonal
    complements of U and V, computed on first use.  Together the modes form
    an orthonormal basis of the whole spinor space.
    """

    order: int
    K: SimplicialComplex
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        for name in ("U", "sigma", "V"):
            getattr(self, name).flags.writeable = False

    @cached_property
    def signs(self) -> np.ndarray:
        signs = _mode_signs(self.U, self.V)
        signs.flags.writeable = False
        return signs

    @property
    def rank(self) -> int:
        return self.sigma.size

    @property
    def nonharmonic_dim(self) -> int:
        return 2 * self.rank

    @property
    def kernel_dim(self) -> int:
        return self.K.spinor_dim - self.nonharmonic_dim

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = np.concatenate([-self.sigma, np.zeros(self.kernel_dim), self.sigma[::-1]])
        vals.flags.writeable = False
        return vals

    @property
    def neg_indices(self) -> np.ndarray:
        return np.arange(self.rank)

    @property
    def harm_indices(self) -> np.ndarray:
        return np.arange(self.rank, self.rank + self.kernel_dim)

    @property
    def pos_indices(self) -> np.ndarray:
        return np.arange(self.rank + self.kernel_dim, 2 * self.rank + self.kernel_dim)

    @property
    def nonzero_indices(self) -> np.ndarray:
        return np.concatenate([self.neg_indices, self.pos_indices])

    def classify(self, i: int) -> str:
        r, k = self.rank, self.kernel_dim
        if i < r:
            return "neg"
        if i < r + k:
            return "harm"
        return "pos"

    def check(self, Dop: DiracOperator, n: int) -> None:
        """Refuse to act for D_n of ``Dop`` unless this basis was built for it."""
        if self.order != n:
            raise InvalidOrder(f"basis is for D_{self.order}, filter asks for D_{n}")
        if self.K.counts != Dop.K.counts:
            raise DimensionMismatch(
                f"basis is for a complex of size {self.K.counts}, operator has {Dop.K.counts}"
            )

    def coefficients(self, s: TopologicalSpinor) -> np.ndarray:
        """Coordinates of s along the nonzero modes, in ``nonzero_indices`` order.

        For the blocks (a, b) that D_n couples: sign * (U^T a -/+ V^T b)/sqrt(2).
        """
        if len(s) != self.K.spinor_dim:
            raise DimensionMismatch(
                f"spinor has length {len(s)}, basis needs {self.K.spinor_dim}"
            )
        a, b = _blocks_for(self.order, s.blocks)
        return self._from_projections(self.U.T @ a, self.V.T @ b)

    def coefficient_rows(self, X: np.ndarray) -> np.ndarray:
        """Row k: the coefficients of the spinor whose vector is X[k].

        One product per block for the whole S x M stack, in place of S calls
        to :meth:`coefficients`.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a stack of vectors, got shape {X.shape}")
        A, B = _blocks_for(self.order, split_blocks(self.K, X))
        return self._from_projections(A @ self.U, B @ self.V)

    def _from_projections(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates from x = U^T a and y = V^T b (last axis: triplets)."""
        return np.concatenate([x - y, (x + y)[..., ::-1]], axis=-1) / SQRT2 * self.signs

    def synthesize(self, c: np.ndarray) -> TopologicalSpinor:
        """The spinor sum_i c[i] phi_i over the nonzero modes phi_i."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.nonharmonic_dim,):
            raise DimensionMismatch(
                f"expected {self.nonharmonic_dim} coefficients, got shape {c.shape}"
            )
        c = c * self.signs
        r = self.rank
        neg, pos = c[:r], c[r:][::-1]
        left = self.U @ (pos + neg) / SQRT2
        right = self.V @ (pos - neg) / SQRT2
        return _spinor_from_blocks(self.K, self.order, left, right)

    def spinor(self, i: int) -> TopologicalSpinor:
        """The unit eigenvector for ``eigenvalues[i]``, in full spinor coordinates."""
        r, k = self.rank, self.kernel_dim
        if not 0 <= i < 2 * r + k:
            raise IndexError(f"mode {i} outside 0..{2 * r + k - 1}")
        if r <= i < r + k:
            return self._harmonic_spinor(i - r)
        positive = i >= r + k
        j = 2 * r + k - 1 - i if positive else i  # triplet index
        sign = self.signs[i - k if positive else i]
        left = self.U[:, j] / SQRT2 * sign
        right = self.V[:, j] / SQRT2 * (sign if positive else -sign)
        return _spinor_from_blocks(self.K, self.order, left, right)

    @cached_property
    def _left_kernel(self) -> np.ndarray:
        return _complement(self.U)

    @cached_property
    def _right_kernel(self) -> np.ndarray:
        return _complement(self.V)

    def _harmonic_spinor(self, j: int) -> TopologicalSpinor:
        """Harmonic column j: ker(B_n^T), ker(B_n) and the free block, in block order."""
        n = self.order
        blocks = [np.zeros(size) for size in self.K.counts]
        for b, size in enumerate(self.K.counts):
            free = b not in (n - 1, n)
            width = size if free else size - self.rank
            if j < width:
                if free:
                    blocks[b][j] = 1.0
                else:
                    kernel = self._left_kernel if b == n - 1 else self._right_kernel
                    blocks[b] = _fix_sign(kernel[:, j])
                return TopologicalSpinor(*blocks)
            j -= width
        raise AssertionError("harmonic index outside the kernel")


def spectral_basis(
    Dop: DiracOperator, n: int, *, method: str = "svd"
) -> SpectralBasis:
    """Eigendecomposition of D_n, as a factored basis over the full spinor space.

    method="svd" (default, fast): nonzero eigenpairs are exact chiral pairs
    built from the singular triplets of B_n that ``Dop`` caches; for each
    (u, sigma, v) the modes (u, +v)/sqrt(2) and (u, -v)/sqrt(2), padded with
    the zero block, are unit eigenvectors for +sigma and -sigma.

    method="eigh" (plain reference): dense symmetric eigendecomposition of
    the block of D_n restricted to the two simplex dimensions it couples
    (size N0+N1 for n=1, N1+N2 for n=2).  Its positive half gives the
    triplets, so both methods return the same factored type.  Useful for
    cross-checks and as the unoptimized implementation the runtime
    benchmark times.

    ``Dop`` keeps the svd basis, so every call for the same n returns the
    same object; the eigh basis is built anew on every call.
    """
    _order(n)
    if method == "svd":
        return Dop._basis1 if n == 1 else Dop._basis2
    if method == "eigh":
        return SpectralBasis(n, Dop.K, *_eigh_triplets(Dop.boundary(n)))
    raise ValueError(f"method must be 'svd' or 'eigh', got {method!r}")


def _eigh_triplets(B: sp.sparray):
    """(U, sigma, V) of B, sigma descending, from a dense eigh of [[0, B], [B^T, 0]].

    An eigenvector for +sigma > 0 is (u, v)/sqrt(2); the negative half of
    the spectrum mirrors the positive one and is not read.
    """
    B = B.toarray()
    left, right = B.shape
    R = np.zeros((left + right, left + right))
    R[:left, left:] = B
    R[left:, :left] = B.T
    try:
        vals, vecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"dense eigendecomposition failed: {exc}") from exc
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    pos = np.flatnonzero(vals > RANK_RTOL * scale)[::-1]
    x = vecs[:, pos]
    return SQRT2 * x[:left], vals[pos], SQRT2 * x[left:]


def harmonic_basis(Dop: DiracOperator) -> np.ndarray:
    """Orthonormal basis of ker(D) = ker(L0) + ker(L1) + ker(L2), per block.

    Built from the cached singular triplets: nodes orthogonal to U1, links
    orthogonal to [V1 U2], triangles orthogonal to V2.
    """
    U1, _, V1 = Dop.singular_triplets(1)
    U2, _, V2 = Dop.singular_triplets(2)
    return sla.block_diag(_complement(U1), _complement(np.hstack([V1, U2])), _complement(V2))


# -- chirality and projections ------------------------------------------------


def chirality_map(phi: TopologicalSpinor, n: int) -> TopologicalSpinor:
    """Apply gamma_n: flip the right block of D_n's support, zero the rest.

    gamma_1 = diag(I, -I, 0) and gamma_2 = diag(0, I, -I); both anticommute
    with the matching D_n, so gamma_n maps the +lambda eigenspace onto the
    -lambda eigenspace.
    """
    if _order(n) == 1:
        return TopologicalSpinor(phi.s0, -phi.s1, np.zeros_like(phi.s2))
    return TopologicalSpinor(np.zeros_like(phi.s0), phi.s1, -phi.s2)


def dirac_project(s: TopologicalSpinor, Dop: DiracOperator, n: int) -> TopologicalSpinor:
    """Project onto im(D_n): the component s_n = D_n D_n^+ s.

    Computed blockwise from the singular triplets of B_n, so the projector is
    exactly idempotent up to roundoff.
    """
    Dop._check(s)
    U, _, V = Dop.singular_triplets(n)
    left, right = _blocks_for(n, s.blocks)
    return _spinor_from_blocks(Dop.K, n, U @ (U.T @ left), V @ (V.T @ right))


def harmonic_project(s: TopologicalSpinor, Dop: DiracOperator) -> TopologicalSpinor:
    """The component of s in ker(D): s - s_1 - s_2."""
    return s - dirac_project(s, Dop, 1) - dirac_project(s, Dop, 2)


def dirac_decompose(
    s: TopologicalSpinor, Dop: DiracOperator
) -> tuple[TopologicalSpinor, TopologicalSpinor, TopologicalSpinor]:
    """(s_1, s_2, s_harm) with s = s_1 + s_2 + s_harm."""
    s1 = dirac_project(s, Dop, 1)
    s2 = dirac_project(s, Dop, 2)
    return s1, s2, s - s1 - s2


def export_spectrum(bases, path) -> None:
    """Write eigenvalues as CSV rows (order, index, eigenvalue, class)."""
    lines = ["order,index,eigenvalue,class"]
    for basis in bases:
        for i, lam in enumerate(basis.eigenvalues.tolist()):
            lines.append(f"{basis.order},{i},{lam!r},{basis.classify(i)}")
    Path(path).write_text("\n".join(lines) + "\n")

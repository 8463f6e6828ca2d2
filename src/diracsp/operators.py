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

A DiracOperator holds only its complex, which builds and keeps B1, B2 and
both ranks.  D_n acts through B_n, the complex's
:class:`~diracsp.complexes.Incidence`: on the blocks (a, b) it couples, D_n
maps (a, b) to (B_n b, B_n^T a), products in numpy alone.  The scipy sparse
forms (the operator's ``B1`` and ``B2``, the M x M block matrices of D1, D2
and D, the Laplacians) are built by the operator on first use only, and
import ``scipy.sparse`` then.  Everything spectral about D_n comes from one
cached SpectralBasis per boundary matrix, the triplets of one Gram
eigensolve checked against the rank the complex decides: projections,
kernels and harmonic bases read it, ranks never build it, and it writes
nothing to the complex.  The basis stores the Gram eigenvectors: one
factor of the triplets, with sigma and one sign per mode, and the kernel of
B_n on that side.  The other factor (v = B_n^T u / sigma, or u = B_n v /
sigma) is reached through one product with B_n.  Set-up reads it once, a
block of columns at a time, for sigma and the signs together.  Reading
``U``, ``V`` or ``singular_triplets`` builds it whole, O(N_n r) numbers per
read; the grid commands never do.

All operators are immutable after assembly; projections are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .complexes import (
    RANK_RTOL,
    Incidence,
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    gap_rank,
    gram_eigh,
    is_wide,
)
from .errors import DimensionMismatch, EigensolveFailure, InvalidOrder
from .spinors import TopologicalSpinor, split_blocks

if TYPE_CHECKING:
    import scipy.sparse as sp

SQRT2 = np.sqrt(2.0)

# Columns per block in which the factor a basis does not store is derived.
_BLOCK = 64


def _order(n: int) -> int:
    """n itself, if D_n exists (n = 1 or 2); InvalidOrder otherwise."""
    if n not in (1, 2):
        raise InvalidOrder(f"D_n exists for n in {{1, 2}}, got {n}")
    return n


def _block_matrix(Dop: DiracOperator, n: int) -> sp.csr_array:
    """D_n as a sparse M x M matrix: B_n and B_n^T in the blocks it couples."""
    import scipy.sparse as sp

    B = Dop.boundary(n)
    rows = [[sp.csr_array((r, c)) for c in Dop.K.counts] for r in Dop.K.counts]
    rows[n - 1][n], rows[n][n - 1] = B, B.T
    return sp.block_array(rows, format="csr")


@dataclass(frozen=True, eq=False)
class DiracOperator:
    """Symmetric Dirac operator D = D1 + D2 of a complex, acting through the
    complex's B1 and B2 (:meth:`~SimplicialComplex.incidence`); it compares
    and hashes by identity."""

    K: SimplicialComplex

    @property
    def dim(self) -> int:
        return self.K.spinor_dim

    # -- scipy sparse forms, built on first read --------------------------------

    @cached_property
    def B1(self) -> sp.csc_array:
        return boundary_matrix(self.K, 1).astype(float)

    @cached_property
    def B2(self) -> sp.csc_array:
        return boundary_matrix(self.K, 2).astype(float)

    def boundary(self, n: int) -> sp.csc_array:
        """B_n as float64 csc, for n = 1 or 2."""
        return self.B1 if _order(n) == 1 else self.B2

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
        import scipy.sparse as sp

        zero = sp.csr_array((self.K.counts[n],) * 2)
        down = zero if n == 0 or which == "up" else self.boundary(n).T @ self.boundary(n)
        up = zero if n == 2 or which == "down" else self.boundary(n + 1) @ self.boundary(n + 1).T
        return (down if which == "down" else up if which == "up" else down + up).tocsr()

    @cached_property
    def super_laplacian(self) -> sp.csr_array:
        """blockdiag(L0, L1, L2); equals D^2 up to floating-point roundoff."""
        import scipy.sparse as sp

        return sp.block_diag(
            [self.laplacian(0), self.laplacian(1), self.laplacian(2)],
            format="csr",
        )

    # -- spectra of the parts -------------------------------------------------

    @cached_property
    def _basis1(self) -> SpectralBasis:
        return SpectralBasis(1, self.K, *_gram_triplets(self.K.incidence(1), self.K.rank1))

    @cached_property
    def _basis2(self) -> SpectralBasis:
        return SpectralBasis(2, self.K, *_gram_triplets(self.K.incidence(2), self.K.rank2))

    def singular_triplets(self, n: int):
        """(U, sigma, V) of B_n's nonzero triplets, sigma descending.

        The cached basis stores one factor; each call builds the other whole,
        O(N_n r) numbers.  The grid commands never call it.
        """
        basis = spectral_basis(self, n)
        return basis.U, basis.sigma, basis.V

    def rank(self, n: int) -> int:
        """rank(B_n), read from the complex; no spectral basis is built."""
        return self.K.rank1 if _order(n) == 1 else self.K.rank2

    def nonharmonic_dim(self, n: int) -> int:
        """dim im(D_n) = 2 rank(B_n)."""
        return 2 * self.rank(n)

    def _check(self, s: TopologicalSpinor) -> None:
        if len(s) != self.dim:
            raise DimensionMismatch(
                f"spinor has length {len(s)}, operator needs {self.dim}"
            )

    def apply(self, s: TopologicalSpinor, n: int | None = None) -> TopologicalSpinor:
        """D s (n=None) or D_n s, as products with B1 and B2."""
        self._check(s)
        if n is None:
            return self.apply(s, 1) + self.apply(s, 2)
        left, right = _blocks_for(n, s.blocks)
        B = self.K.incidence(n)
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
    return DiracOperator(K)


def hodge_laplacian(K: SimplicialComplex, n: int, which: str = "full") -> sp.csr_array:
    """L_n of K, or its up/down part alone: see :meth:`DiracOperator.laplacian`."""
    return assemble_dirac(K).laplacian(n, which)


# -- singular triplets --------------------------------------------------------


def _derived_block(F, Q: np.ndarray, start: int) -> np.ndarray:
    """Columns start .. start + _BLOCK - 1 of F Q.

    Q is the stored factor of B and F maps its side onto the other one (B^T
    for a stored U, B for a stored V), so the block over sigma is part of
    the factor the basis does not store.  The products add each output
    entry's terms in the same order whatever the width, so a column has the
    same bits read here, in the whole product or alone.
    """
    return F @ Q[:, start : min(start + _BLOCK, Q.shape[1])]


def _gram_triplets(B: Incidence, r: int):
    """(Q, sigma, signs, null): the stored factor of B's nonzero singular
    triplets, sigma, descending (to roundoff inside a cluster of equal
    values), the mode signs, and the kernel of B on the stored side.

    One dense eigensolve (:func:`gram_eigh`) of the smaller Gram matrix G
    (B B^T when B has no more rows than columns, else B^T B) gives Q: the
    eigenvectors of the top eigenvalues, U for B B^T and V for B^T B.  The
    rank is the :func:`gap_rank` of that spectrum, which must equal the
    complex's rank r (:func:`_checked_rank`).  The solve owns G
    and returns its k x k eigenvector array X in LAPACK's Fortran order,
    columns descending, in G's own storage where it solves in place
    (nothing long-lived is allocated after the solve): Q is a view of its
    leading r columns, ``null`` of the other k - r, G's null eigenvectors,
    ker B^T for a stored U and ker B for a stored V.  One
    :func:`_factor_pass` then takes each sigma_j as the norm of B^T q_j (or
    B q_j), and the signs.  That norm keeps the small singular values
    accurate to roundoff relative to themselves, where sqrt of the Gram
    eigenvalue would lose digits in proportion to (sigma_max / sigma)^2.
    Peak memory is the solve's: G, the packed Householder reflectors and
    dstedc's workspace, about 20 k^2 bytes where it runs in G's storage.
    The basis keeps X whole, and the other factor is never built.
    """
    w, X = gram_eigh(B)
    found = _checked_rank(B, gap_rank(w, RANK_RTOL), r)
    Q = X[:, :found]
    return (Q, *_factor_pass(B, Q), X[:, found:])


def _checked_rank(B, found: int, r: int) -> int:
    """found, B's gap rank from an eigensolve, unless the complex's rank r of B differs:
    then the solve is not trusted, and an :class:`EigensolveFailure` names both counts."""
    if found != r:
        m, n = B.shape
        raise EigensolveFailure(
            f"{found} Gram eigenvalues of a {m}x{n} boundary matrix lie above "
            f"the gap, but the complex's rank of it is {r}"
        )
    return found


def _complement(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of A's orthonormal columns."""
    m, r = A.shape
    if r == 0:
        return np.eye(m)
    return np.linalg.qr(A, mode="complete")[0][:, r:]


def _fix_sign(col: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of a column positive (first on ties)."""
    return -col if col[np.argmax(np.abs(col))] < 0 else col


def _factor_pass(B: Incidence, Q: np.ndarray):
    """(sigma, signs) of the triplets whose stored factor is Q, from one read
    of the factor Q does not hold.

    Q is U when B is :func:`is_wide`, else V.  Each block of the derived
    factor (:func:`_derived_block`) is taken once: sigma_j is the norm of
    its column j; the block is divided by sigma and its column peaks, with
    those of Q, give the signs.

    The signs, one per nonzero mode in ``SpectralBasis.nonzero_indices``
    order, make the largest-magnitude entry of (u, -v)/sqrt(2) (negative
    modes) or (u, +v)/sqrt(2) (positive modes) positive, the first entry
    winning ties.  |u| and |v| are the same in both columns of a triplet, so
    one argmax per factor decides both.
    """
    left = is_wide(B)
    F = B.T if left else B  # onto the side of the factor not stored
    r = Q.shape[1]
    sigma, au, su, av, sv = (np.empty(r) for _ in range(5))
    for start in range(0, r, _BLOCK):
        blk = slice(start, min(start + _BLOCK, r))
        q, y = Q[:, blk], _derived_block(F, Q, start)
        sigma[blk] = np.sqrt(np.einsum("ij,ij->j", y, y))
        y /= sigma[blk]
        u, v = (q, y) if left else (y, q)
        au[blk], su[blk] = _column_peaks(u)
        av[blk], sv[blk] = _column_peaks(v)
    from_u = au >= av
    neg = np.where(from_u, su, -sv)
    pos = np.where(from_u, su, sv)
    return sigma, np.concatenate([neg, pos[::-1]])


def _column_peaks(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of A: its largest |entry| / sqrt(2) and the sign of that entry (first on ties).

    |A| is taken transposed, so that each argmax runs along contiguous memory.
    """
    a = np.abs(A.T, order="C")
    a /= SQRT2
    cols = np.arange(A.shape[1])
    index = a.argmax(axis=1)
    return a[cols, index], np.sign(A[index, cols])


# -- spectral basis -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenpairs of D_n, ascending, split into negative / harmonic / positive.

    The basis is factored over the rank-truncated singular triplets
    (U, sigma, V) of B_n, and it stores one factor of them: ``sigma`` and
    ``Q``, the top eigenvectors of the smaller Gram matrix (U when
    N_{n-1} <= N_n, as for B1; else V), and ``null``, the kernel of B_n on
    that side: min(N_{n-1}, N_n)^2 numbers, in the svd basis the leading
    columns and the rest of the Gram solve's own array.  The other factor
    follows from Q through one product with ``B``, the
    :class:`~diracsp.complexes.Incidence` B_n that ``K`` keeps (shared with
    the operator): v = B_n^T u / sigma, or u = B_n v / sigma.
    Reading ``U`` or ``V`` builds the derived one whole, O(N_n r) numbers
    per read; the products below and the grid commands never do.  Bases
    compare and hash by identity.

    Triplet j gives the modes sign * (u_j, -/+v_j)/sqrt(2) for eigenvalues
    -/+sigma_j, padded with the zero block; the sign makes the
    largest-magnitude entry positive (first on ties).  ``signs`` holds one
    per nonzero mode, taken with sigma in the one pass over the derived
    factor (:func:`_factor_pass`).  Eigenvalues ascend: -sigma in triplet
    order, the harmonic zeros, then +sigma reversed.

    ``spinor(i)`` builds the unit eigenvector for ``eigenvalues[i]``;
    ``coefficients`` and ``synthesize`` map between spinors and coordinates
    along the nonzero modes (in ``nonzero_indices`` order) through Q and
    B_n, so no dense basis is ever formed.  ``harm_indices`` span ker(D_n),
    of dimension ``kernel_dim``; their columns come from ``null`` and the
    complement of the derived factor, computed on first use.  Together the
    modes form an orthonormal basis of the whole spinor space.
    """

    order: int
    K: SimplicialComplex
    Q: np.ndarray
    sigma: np.ndarray
    signs: np.ndarray
    null: np.ndarray

    def __post_init__(self):
        for name in ("Q", "sigma", "signs", "null"):
            getattr(self, name).flags.writeable = False

    @property
    def U(self) -> np.ndarray:
        """The left singular vectors: Q itself, or built from it on each read."""
        return self.Q if self._left else self._derived()

    @property
    def V(self) -> np.ndarray:
        """The right singular vectors: Q itself, or built from it on each read."""
        return self._derived() if self._left else self.Q

    def _derived(self) -> np.ndarray:
        """The factor Q does not hold, built whole in one product."""
        return self._to_derived @ self.Q / self.sigma

    @property
    def B(self) -> Incidence:
        return self.K.incidence(self.order)

    @cached_property
    def _left(self) -> bool:
        """Whether Q is U (B_n is wide) rather than V."""
        return is_wide(self.B)

    # B_n and B_n^T, named by the side each maps onto
    @property
    def _to_derived(self):
        return self.B.T if self._left else self.B

    @property
    def _to_stored(self):
        return self.B if self._left else self.B.T

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

    def _check_mode(self, i: int) -> None:
        if not 0 <= i < self.K.spinor_dim:
            raise IndexError(f"mode {i} outside 0..{self.K.spinor_dim - 1}")

    def classify(self, i: int) -> str:
        """"neg", "harm" or "pos": the class of mode i."""
        self._check_mode(i)
        r, k = self.rank, self.kernel_dim
        if i < r:
            return "neg"
        if i < r + k:
            return "harm"
        return "pos"

    def check(self, Dop: DiracOperator, n: int) -> None:
        """Refuse to act for D_n of ``Dop`` unless this basis was built for it:
        the same order, the same simplex counts and the same B_n, entry for
        entry: the same rows in each column, which are the links for B1 and
        the face rows for B2 (of N1 rows, as the counts are the same)."""
        if self.order != n:
            raise InvalidOrder(f"basis is for D_{self.order}, filter asks for D_{n}")
        if self.K.counts != Dop.K.counts:
            raise DimensionMismatch(
                f"basis is for a complex of size {self.K.counts}, operator has {Dop.K.counts}"
            )
        B = Dop.K.incidence(n)
        if not (self.B is B or np.array_equal(self.B.columns, B.columns)):
            raise DimensionMismatch(
                f"basis is for B_{n} of another complex with the same counts {self.K.counts}"
            )

    def coefficients(self, s: TopologicalSpinor) -> np.ndarray:
        """Coordinates of s along the nonzero modes, in ``nonzero_indices`` order.

        For the blocks (a, b) that D_n couples: sign * (U^T a -/+ V^T b)/sqrt(2).
        """
        if len(s) != self.K.spinor_dim:
            raise DimensionMismatch(
                f"spinor has length {len(s)}, basis needs {self.K.spinor_dim}"
            )
        return self._from_projections(*self._project(*_blocks_for(self.order, s.blocks)))

    def coefficient_rows(self, X: np.ndarray) -> np.ndarray:
        """Row k: the coefficients of the spinor whose vector is X[k].

        One product per block for the whole S x M stack, in place of S calls
        to :meth:`coefficients`.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a stack of vectors, got shape {X.shape}")
        return self._from_projections(*self._project(*_blocks_for(self.order, split_blocks(self.K, X))))

    def _project(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a U, b V) for the blocks (a, b) that D_n couples: vectors, or stacks of rows.

        The derived factor enters through B_n: b V = (B_n b^T)^T Q / sigma
        for a stored U, a U = (B_n^T a^T)^T Q / sigma for a stored V.
        """
        q, d = (a, b) if self._left else (b, a)
        xq = q @ self.Q
        xd = (self._to_stored @ d.T).T @ self.Q / self.sigma
        return (xq, xd) if self._left else (xd, xq)

    def _lift(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(U x, V y) for coordinate vectors x and y along the triplets.

        The derived factor enters through B_n: V y = B_n^T (Q (y / sigma))
        for a stored U, U x = B_n (Q (x / sigma)) for a stored V.
        """
        q, d = (x, y) if self._left else (y, x)
        lq = self.Q @ q
        ld = self._to_derived @ (self.Q @ (d / self.sigma))
        return (lq, ld) if self._left else (ld, lq)

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
        left, right = self._lift((pos + neg) / SQRT2, (pos - neg) / SQRT2)
        return _spinor_from_blocks(self.K, self.order, left, right)

    def spinor(self, i: int) -> TopologicalSpinor:
        """The unit eigenvector for ``eigenvalues[i]``, in full spinor coordinates."""
        self._check_mode(i)
        r, k = self.rank, self.kernel_dim
        if r <= i < r + k:
            return self._harmonic_spinor(i - r)
        positive = i >= r + k
        j = 2 * r + k - 1 - i if positive else i  # triplet index
        sign = self.signs[i - k if positive else i]
        q = self.Q[:, j]
        d = self._to_derived @ q / self.sigma[j]
        u, v = (q, d) if self._left else (d, q)
        left = u / SQRT2 * sign
        right = v / SQRT2 * (sign if positive else -sign)
        return _spinor_from_blocks(self.K, self.order, left, right)

    # ker B_n^T and ker B_n: ``null`` on the stored side, a complement on the other
    @cached_property
    def _left_kernel(self) -> np.ndarray:
        return self.null if self._left else _complement(self.U)

    @cached_property
    def _right_kernel(self) -> np.ndarray:
        return _complement(self.V) if self._left else self.null

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
    (size N0+N1 for n=1, N1+N2 for n=2), :func:`_eigh_triplets`, gives Q,
    and its ``null`` is the complete-QR complement of Q; the rank check
    (:func:`_checked_rank`) and the factor pass are the svd basis's.
    Useful for cross-checks and as the unoptimized implementation the
    runtime benchmark times.

    ``Dop`` keeps the svd basis, so every call for the same n returns the
    same object; the eigh basis is built anew on every call.
    """
    _order(n)
    if method == "svd":
        return Dop._basis1 if n == 1 else Dop._basis2
    if method == "eigh":
        B = Dop.K.incidence(n)
        U, sigma, V = _eigh_triplets(B)
        _checked_rank(B, sigma.size, Dop.rank(n))
        Q = U if is_wide(B) else V
        return SpectralBasis(n, Dop.K, Q, *_factor_pass(B, Q), _complement(Q))
    raise ValueError(f"method must be 'svd' or 'eigh', got {method!r}")


def _eigh_triplets(B: Incidence):
    """(U, sigma, V) of B, sigma descending, from a dense eigh of [[0, B], [B^T, 0]].

    An eigenvector for +sigma > 0 is (u, v)/sqrt(2); the negative half of
    the spectrum mirrors the positive one and is not read.  The squares of
    the top min(N_{n-1}, N_n) eigenvalues are B's Gram spectrum, and the
    rank is its :func:`gap_rank`.
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
    top = vals[::-1][: min(left, right)]
    pos = vals.size - 1 - np.arange(gap_rank(top * top, RANK_RTOL))
    x = vecs[:, pos]
    return SQRT2 * x[:left], vals[pos], SQRT2 * x[left:]


def harmonic_basis(Dop: DiracOperator) -> np.ndarray:
    """Orthonormal basis of ker(D) = ker(L0) + ker(L1) + ker(L2), per block.

    Read from the cached bases: ker(L0) = ker(B1^T) from D_1's and ker(L2) =
    ker(B2) from D_2's, each its basis's ``null`` on the stored side.  The
    link block, the complement of [V1 U2], is built only if beta_1 > 0.
    """
    b1, b2 = spectral_basis(Dop, 1), spectral_basis(Dop, 2)
    links = _complement(np.hstack([b1.V, b2.U])) if betti_numbers(Dop.K)[1] else np.zeros((Dop.K.n1, 0))
    blocks = [b1._left_kernel, links, b2._right_kernel]
    H = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    row = col = 0
    for b in blocks:
        H[row : row + b.shape[0], col : col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return H


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

    Computed blockwise from the singular triplets of B_n, U U^T and V V^T
    through the basis's stored factor and B_n, so the projector is exactly
    idempotent up to roundoff.
    """
    Dop._check(s)
    basis = spectral_basis(Dop, n)
    return _spinor_from_blocks(Dop.K, n, *basis._lift(*basis._project(*_blocks_for(n, s.blocks))))


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

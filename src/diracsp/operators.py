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

All operators are immutable after assembly; projections are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from .complexes import RANK_RTOL, SimplicialComplex, boundary_matrix, graph_rank
from .errors import DimensionMismatch, EigensolveFailure, InvalidOrder
from .spinors import TopologicalSpinor

# Larger side of B_n above which the dense SVD is replaced by a Lanczos
# (iterative) SVD with deflation.  4000 covers every experiment in the
# bundled harness presets.
DENSE_SVD_THRESHOLD = 4000

SQRT2 = np.sqrt(2.0)


def _block_dirac(B1: sp.sparray, B2: sp.sparray, parts: str) -> sp.csr_array:
    """Assemble the symmetric block operator from selected boundary parts."""
    n0, n1 = B1.shape
    n2 = B2.shape[1]
    Z = lambda r, c: sp.csr_array((r, c))
    b1 = B1 if "1" in parts else Z(n0, n1)
    b2 = B2 if "2" in parts else Z(n1, n2)
    rows = [
        [Z(n0, n0), b1, Z(n0, n2)],
        [b1.T, Z(n1, n1), b2],
        [Z(n2, n0), b2.T, Z(n2, n2)],
    ]
    return sp.block_array(rows, format="csr")


@dataclass(frozen=True)
class DiracOperator:
    """Symmetric Dirac operator of a complex, with its parts D1 and D2."""

    K: SimplicialComplex
    B1: sp.csc_array
    B2: sp.csc_array
    full: sp.csr_array
    part1: sp.csr_array
    part2: sp.csr_array

    @property
    def dim(self) -> int:
        return self.K.spinor_dim

    def part(self, n: int) -> sp.csr_array:
        if n == 1:
            return self.part1
        if n == 2:
            return self.part2
        raise InvalidOrder(f"Dirac parts are n in {{1, 2}}, got {n}")

    def boundary(self, n: int) -> sp.csc_array:
        if n == 1:
            return self.B1
        if n == 2:
            return self.B2
        raise InvalidOrder(f"boundary matrices are n in {{1, 2}}, got {n}")

    # -- Laplacians ---------------------------------------------------------

    def laplacian(self, n: int, which: str = "full") -> sp.csr_array:
        return hodge_laplacian(self.K, n, which, _B=(self.B1, self.B2))

    @cached_property
    def super_laplacian(self) -> sp.csr_array:
        """blockdiag(L0, L1, L2); equals D^2 up to floating-point roundoff."""
        return sp.block_diag(
            [self.laplacian(0), self.laplacian(1), self.laplacian(2)],
            format="csr",
        )

    # -- spectra of the parts -------------------------------------------------

    def _svd(self, n: int):
        """Rank-truncated singular triplets (U, sigma, V) of B_n, sigma descending."""
        return _truncated_svd(self.boundary(n))

    @cached_property
    def _svd1(self):
        U, sig, V = self._svd(1)
        exact = graph_rank(self.K)
        if sig.size != exact:
            raise EigensolveFailure(
                f"numerical rank of B1 is {sig.size}, but N0 - #components = {exact}"
            )
        return U, sig, V

    @cached_property
    def _svd2(self):
        return self._svd(2)

    def singular_triplets(self, n: int):
        if n == 1:
            return self._svd1
        if n == 2:
            return self._svd2
        raise InvalidOrder(f"n must be 1 or 2, got {n}")

    def rank(self, n: int) -> int:
        return self.singular_triplets(n)[1].size

    def nonharmonic_dim(self, n: int) -> int:
        """dim im(D_n) = 2 rank(B_n)."""
        return 2 * self.rank(n)

    def _check(self, s: TopologicalSpinor) -> None:
        if len(s) != self.dim:
            raise DimensionMismatch(
                f"spinor has length {len(s)}, operator needs {self.dim}"
            )

    def apply(self, s: TopologicalSpinor, n: int | None = None) -> TopologicalSpinor:
        """D s (n=None) or D_n s."""
        self._check(s)
        op = self.full if n is None else self.part(n)
        return TopologicalSpinor.from_vector(self.K, op @ s.vector)


def _blocks_for(n: int, s: TopologicalSpinor):
    """(left-block, right-block) of the spinor that D_n actually touches."""
    if n == 1:
        return s.s0, s.s1
    if n == 2:
        return s.s1, s.s2
    raise InvalidOrder(f"n must be 1 or 2, got {n}")


def _spinor_from_blocks(K: SimplicialComplex, n: int, left, right) -> TopologicalSpinor:
    if n == 1:
        return TopologicalSpinor(left, right, np.zeros(K.n2))
    return TopologicalSpinor(np.zeros(K.n0), left, right)


def assemble_dirac(K: SimplicialComplex) -> DiracOperator:
    """Build D, D1, D2 for a complex.  1-dimensional complexes get D2 = 0."""
    B1 = boundary_matrix(K, 1).astype(float)
    B2 = boundary_matrix(K, 2).astype(float)
    return DiracOperator(
        K=K,
        B1=B1,
        B2=B2,
        full=_block_dirac(B1, B2, "12"),
        part1=_block_dirac(B1, B2, "1"),
        part2=_block_dirac(B1, B2, "2"),
    )


def hodge_laplacian(
    K: SimplicialComplex, n: int, which: str = "full", _B=None
) -> sp.csr_array:
    """L_n = B_n^T B_n + B_{n+1} B_{n+1}^T, or its up/down part alone."""
    if n not in (0, 1, 2):
        raise InvalidOrder(f"Hodge Laplacians exist for n in {{0, 1, 2}}, got {n}")
    if which not in ("full", "up", "down"):
        raise InvalidOrder(f"which must be full|up|down, got {which!r}")
    if _B is None:
        _B = (boundary_matrix(K, 1).astype(float), boundary_matrix(K, 2).astype(float))
    B1, B2 = _B

    sizes = {0: K.n0, 1: K.n1, 2: K.n2}
    down = {0: None, 1: lambda: B1.T @ B1, 2: lambda: B2.T @ B2}[n]
    up = {0: lambda: B1 @ B1.T, 1: lambda: B2 @ B2.T, 2: None}[n]

    zero = sp.csr_array((sizes[n], sizes[n]))
    d = down().tocsr() if (down and which in ("full", "down")) else zero
    u = up().tocsr() if (up and which in ("full", "up")) else zero
    if which == "down":
        return d
    if which == "up":
        return u
    return (d + u).tocsr()


# -- SVD machinery ------------------------------------------------------------


def _truncated_svd(B: sp.sparray):
    """(U, sigma, V) of B keeping sigma > RANK_RTOL * sigma_max, descending."""
    m, n = B.shape
    if m == 0 or n == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    if max(m, n) <= DENSE_SVD_THRESHOLD:
        try:
            U, s, Vt = np.linalg.svd(B.toarray(), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(f"dense SVD failed: {exc}") from exc
    else:
        U, s, Vt = _lanczos_svd(B.astype(float))
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    r = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return U[:, :r], s[:r], Vt[:r].T


def _lanczos_svd(B: sp.sparray):
    """Iterative SVD capturing the whole nonzero spectrum.

    svds() returns at most min(shape)-1 triplets; when B has full minimal
    rank the last direction is recovered by deflation against the computed
    singular vectors.
    """
    m, n = B.shape
    k = min(m, n) - 1
    if k < 1:
        U, s, Vt = np.linalg.svd(B.toarray(), full_matrices=False)
        return U, s, Vt
    try:
        U, s, Vt = svds(B, k=k)
    except Exception as exc:  # ARPACK non-convergence
        raise EigensolveFailure(f"iterative SVD failed: {exc}") from exc
    order = np.argsort(s)[::-1]
    U, s, Vt = U[:, order], s[order], Vt[order]

    # Deflate on the short side to find the possibly-missed triplet.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    if n <= m:
        v = rng.standard_normal(n)
        v -= Vt.T @ (Vt @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            v /= nv
            Bv = B @ v
            extra = np.linalg.norm(Bv)
            if extra > RANK_RTOL * max(s[0], 1.0):
                U = np.column_stack([U, Bv / extra])
                s = np.append(s, extra)
                Vt = np.vstack([Vt, v])
    else:
        u = rng.standard_normal(m)
        u -= U @ (U.T @ u)
        nu = np.linalg.norm(u)
        if nu > 1e-8:
            u /= nu
            Btu = B.T @ u
            extra = np.linalg.norm(Btu)
            if extra > RANK_RTOL * max(s[0], 1.0):
                U = np.column_stack([U, u])
                s = np.append(s, extra)
                Vt = np.vstack([Vt, Btu / extra])
    order = np.argsort(s)[::-1]
    return U[:, order], s[order], Vt[order]


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
    one argmax per block decides both.
    """
    r = U.shape[1]
    if r == 0:
        return np.zeros(0)
    cols = np.arange(r)
    au, av = np.abs(U) / SQRT2, np.abs(V) / SQRT2
    iu, iv = np.argmax(au, axis=0), np.argmax(av, axis=0)
    from_u = au[iu, cols] >= av[iv, cols]
    su, sv = np.sign(U[iu, cols]), np.sign(V[iv, cols])
    neg = np.where(from_u, su, -sv)
    pos = np.where(from_u, su, sv)
    return np.concatenate([neg, pos[::-1]])


# -- spectral basis -----------------------------------------------------------


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of D_n, ascending, split into negative / harmonic / positive.

    The basis is factored: it holds the rank-truncated singular triplets
    (U, sigma, V) of B_n, O((N_{n-1} + N_n) r) numbers, and one +/-1 sign per
    nonzero mode.  Triplet j gives the modes sign * (u_j, -/+v_j)/sqrt(2) for
    eigenvalues -/+sigma_j, padded with the zero block; the sign makes the
    largest-magnitude entry positive (first on ties).  Eigenvalues ascend:
    -sigma in triplet order, the harmonic zeros, then +sigma reversed.

    ``spinor(i)`` builds the unit eigenvector for ``eigenvalues[i]``;
    ``coefficients`` and ``synthesize`` map between spinors and coordinates
    along the nonzero modes (in ``nonzero_indices`` order) through U and V,
    so no dense basis is ever formed.  ``harm_indices`` span ker(D_n) (empty
    when the basis was built with ``include_kernel=False``); their columns
    come from the orthogonal complements of U and V, computed on first use.
    ``nonharmonic_dim`` is dim im(D_n) regardless.
    """

    order: int
    K: SimplicialComplex
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    signs: np.ndarray
    kernel_dim: int

    def __post_init__(self):
        for name in ("U", "sigma", "V", "signs"):
            getattr(self, name).flags.writeable = False

    @property
    def rank(self) -> int:
        return self.sigma.size

    @property
    def nonharmonic_dim(self) -> int:
        return 2 * self.rank

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
        a, b = _blocks_for(self.order, s)
        x, y = self.U.T @ a, self.V.T @ b
        return np.concatenate([x - y, (x + y)[::-1]]) / SQRT2 * self.signs

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
    Dop: DiracOperator, n: int, *, include_kernel: bool = True, method: str = "svd"
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

    With ``include_kernel`` the basis is completed to an orthonormal basis
    of the whole spinor space by a basis of ker(D_n).
    """
    if n not in (1, 2):
        raise InvalidOrder(f"spectral bases exist for n in {{1, 2}}, got {n}")
    if method == "svd":
        U, sig, V = Dop.singular_triplets(n)
    elif method == "eigh":
        U, sig, V = _eigh_triplets(Dop.boundary(n))
    else:
        raise ValueError(f"method must be 'svd' or 'eigh', got {method!r}")
    return SpectralBasis(
        order=n,
        K=Dop.K,
        U=U,
        sigma=sig,
        V=V,
        signs=_mode_signs(U, V),
        kernel_dim=Dop.dim - 2 * sig.size if include_kernel else 0,
    )


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
    blocks = (_complement(U1), _complement(np.hstack([V1, U2])), _complement(V2))
    out = np.zeros((Dop.dim, sum(b.shape[1] for b in blocks)))
    row = col = 0
    for block in blocks:
        h, w = block.shape
        out[row : row + h, col : col + w] = block
        row += h
        col += w
    return out


# -- chirality and projections ------------------------------------------------


def chirality_map(phi: TopologicalSpinor, n: int) -> TopologicalSpinor:
    """Apply gamma_n: flip the right block of D_n's support, zero the rest.

    gamma_1 = diag(I, -I, 0) and gamma_2 = diag(0, I, -I); both anticommute
    with the matching D_n, so gamma_n maps the +lambda eigenspace onto the
    -lambda eigenspace.
    """
    if n == 1:
        return TopologicalSpinor(phi.s0, -phi.s1, np.zeros_like(phi.s2))
    if n == 2:
        return TopologicalSpinor(np.zeros_like(phi.s0), phi.s1, -phi.s2)
    raise InvalidOrder(f"chirality matrices are n in {{1, 2}}, got {n}")


def dirac_project(s: TopologicalSpinor, Dop: DiracOperator, n: int) -> TopologicalSpinor:
    """Project onto im(D_n): the component s_n = D_n D_n^+ s.

    Computed blockwise from the truncated SVD of B_n, so the projector is
    exactly idempotent up to roundoff.
    """
    Dop._check(s)
    U, _, V = Dop.singular_triplets(n)
    left, right = _blocks_for(n, s)
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
        for i, lam in enumerate(basis.eigenvalues):
            lines.append(f"{basis.order},{i},{lam!r},{basis.classify(i)}")
    Path(path).write_text("\n".join(lines) + "\n")

"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: exact ranks come from
Gaussian elimination over the rationals, spectral facts from dense numpy
eigendecompositions of matrices assembled straight from the definitions.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp

from diracsp.complexes import SimplicialComplex
from diracsp.errors import DuplicateSimplex, IndexOutOfRange, MissingFace, ParseError


def exact_rank(M) -> int:
    """Rank over Q by Gaussian elimination with exact Fraction arithmetic."""
    A = [[Fraction(int(v)) for v in row] for row in np.asarray(M.toarray() if hasattr(M, "toarray") else M, dtype=np.int64)]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    pivot_row = 0
    for c in range(cols):
        pr = next((r for r in range(pivot_row, rows) if A[r][c] != 0), None)
        if pr is None:
            continue
        A[pivot_row], A[pr] = A[pr], A[pivot_row]
        pv = A[pivot_row][c]
        for r in range(pivot_row + 1, rows):
            if A[r][c] != 0:
                f = A[r][c] / pv
                A[r] = [a - f * b for a, b in zip(A[r], A[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def loop_boundary_matrix(K, n):
    """B_n built one simplex at a time, each face found in a dict of link positions."""
    rows, cols, vals = [], [], []
    if n == 1:
        for c, (i, j) in enumerate(K.links):
            rows += [i, j]
            cols += [c, c]
            vals += [-1, 1]
        return sp.csc_array((vals, (rows, cols)), shape=(K.n0, K.n1), dtype=np.int64)
    link_pos = {lk: p for p, lk in enumerate(K.links)}
    for c, (i, j, k) in enumerate(K.triangles):
        for face, sign in zip(((i, j), (i, k), (j, k)), (1, -1, 1)):
            rows.append(link_pos[tuple(sorted(face))])
            cols.append(c)
            vals.append(sign)
    return sp.csc_array((vals, (rows, cols)), shape=(K.n1, K.n2), dtype=np.int64)


def _loop_canonical_simplices(items, size, node_count, kind):
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


def loop_build_complex(links, triangles=(), node_count=None):
    """build_complex one simplex at a time, closure checked in a set of links."""
    links = [tuple(int(v) for v in lk) for lk in links]
    triangles = [tuple(int(v) for v in tr) for tr in triangles]
    if node_count is None:
        referenced = [v for s in links + triangles for v in s]
        node_count = (max(referenced) + 1) if referenced else 0
    tris = _loop_canonical_simplices(triangles, 3, node_count, "triangle")
    lks = _loop_canonical_simplices(links, 2, node_count, "link")
    link_set = set(lks)
    for i, j, k in tris:
        for face in ((i, j), (i, k), (j, k)):
            if face not in link_set:
                raise MissingFace(f"link {face} is not part of the complex")
    return SimplicialComplex(node_count, tuple(lks), tuple(tris))


def matrix_rank(B, rtol=1e-10) -> int:
    """Numerical rank from a dense SVD: singular values above rtol * sigma_max."""
    A = B.toarray() if hasattr(B, "toarray") else np.asarray(B)
    if min(A.shape) == 0:
        return 0
    s = np.linalg.svd(A.astype(float), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def dense_eigh(M):
    """Sorted eigenvalues and eigenvectors of a (sparse or dense) symmetric matrix."""
    A = M.toarray() if hasattr(M, "toarray") else np.asarray(M, dtype=float)
    return np.linalg.eigh(A)


def eig_multiset(M, tol=1e-8):
    """Sorted nonzero eigenvalues of a symmetric matrix."""
    vals = dense_eigh(M)[0]
    return np.sort(vals[np.abs(vals) > tol])


def brute_dirac(K):
    """Assemble D, D1, D2 densely straight from the definition."""
    n0, n1, n2 = K.n0, K.n1, K.n2
    M = n0 + n1 + n2
    B1 = np.zeros((n0, n1))
    for c, (i, j) in enumerate(K.links):
        B1[i, c] = -1.0
        B1[j, c] = 1.0
    B2 = np.zeros((n1, n2))
    link_pos = {lk: p for p, lk in enumerate(K.links)}
    for c, (i, j, k) in enumerate(K.triangles):
        B2[link_pos[(i, j)], c] = 1.0
        B2[link_pos[(i, k)], c] = -1.0
        B2[link_pos[(j, k)], c] = 1.0
    D1 = np.zeros((M, M))
    D1[:n0, n0 : n0 + n1] = B1
    D1[n0 : n0 + n1, :n0] = B1.T
    D2 = np.zeros((M, M))
    D2[n0 : n0 + n1, n0 + n1 :] = B2
    D2[n0 + n1 :, n0 : n0 + n1] = B2.T
    return D1 + D2, D1, D2


def eigenbasis_projection(M_dense, vec, keep):
    """Project ``vec`` onto the span of eigenvectors selected by ``keep(lam)``."""
    vals, vecs = np.linalg.eigh(M_dense)
    cols = vecs[:, [i for i, v in enumerate(vals) if keep(v)]]
    return cols @ (cols.T @ vec)


# -- dense spectral basis -----------------------------------------------------
# The construction the library used before its basis was factored: every
# eigenvector of D_n as a column of a dense M x M matrix.


def null_basis(A, rtol=1e-10):
    """Orthonormal basis of ker(A) from a full SVD, relative cutoff ``rtol``."""
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0))
    if m == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    r = int(np.count_nonzero(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return Vt[r:].T


def fix_signs(cols):
    """Make the largest-magnitude entry of each column positive (first on ties)."""
    if cols.size == 0:
        return cols
    idx = np.argmax(np.abs(cols), axis=0)
    signs = np.sign(cols[idx, np.arange(cols.shape[1])])
    signs[signs == 0] = 1.0
    return cols * signs


def dense_mode_signs(U, V):
    """+/-1 per nonzero mode from whole-array |U| and |V|: the sign pass as first written.

    The sign makes the largest-magnitude entry of (u, -v)/sqrt(2) (negative
    modes) or (u, +v)/sqrt(2) (positive modes) positive, the first entry
    winning ties.
    """
    r = U.shape[1]
    if r == 0:
        return np.zeros(0)
    cols = np.arange(r)
    au, av = np.abs(U) / np.sqrt(2.0), np.abs(V) / np.sqrt(2.0)
    iu, iv = np.argmax(au, axis=0), np.argmax(av, axis=0)
    from_u = au[iu, cols] >= av[iv, cols]
    su, sv = np.sign(U[iu, cols]), np.sign(V[iv, cols])
    neg = np.where(from_u, su, -sv)
    pos = np.where(from_u, su, sv)
    return np.concatenate([neg, pos[::-1]])


def dense_spectral_basis(Dop, n):
    """(eigenvalues, M x M eigenvectors) of D_n from Dop's singular triplets of B_n.

    Columns ascend: (u, -v)/sqrt(2) for -sigma in triplet order, then ker(D_n)
    (ker(B_n^T), ker(B_n) from full SVDs, and the free block, in block
    order), then (u, +v)/sqrt(2) for +sigma with sigma ascending.  Each is
    zero-padded to spinor coordinates and sign-fixed.
    """
    K = Dop.K
    M = Dop.dim
    U, sig, V = Dop.singular_triplets(n)
    offset = 0 if n == 1 else K.n0
    left, right = U.shape[0], V.shape[0]

    def embed(cols, at):
        out = np.zeros((M, cols.shape[1]))
        out[at : at + cols.shape[0]] = cols
        return out

    plus = (embed(U, offset) + embed(V, offset + left)) / np.sqrt(2.0)
    minus = (embed(U, offset) - embed(V, offset + left)) / np.sqrt(2.0)
    B = Dop.boundary(n).toarray()
    free_at, free_size = (K.n0 + K.n1, K.n2) if n == 1 else (0, K.n0)
    kernel_blocks = [
        (offset, null_basis(B.T)),
        (offset + left, null_basis(B)),
        (free_at, np.eye(free_size)),
    ]
    kernel = [embed(cols, at) for at, cols in sorted(kernel_blocks, key=lambda b: b[0])]
    vals = np.concatenate([-sig, np.zeros(M - 2 * sig.size), sig[::-1]])
    vecs = fix_signs(np.hstack([minus, *kernel, plus[:, ::-1]]))
    return vals, vecs


# -- the grid commands' draws, one spinor at a time -----------------------------


def _draws(plan, setup, alpha, cell_index):
    """Yield the plan.seeds noisy observations of grid cell `cell_index` as spinors.

    Draw k is the truth plus the projected noise keyed by (plan.seed,
    cell_index, k); at alpha = 0 every draw is the clean signal itself.  The
    harness takes the same draws as basis coordinates (``_draw_coords``).
    """
    from diracsp.harness import _noise

    for k in range(plan.seeds):
        if alpha > 0:
            yield setup.s_true + _noise(plan, setup.Dop, setup.n, alpha, cell_index, k)
        else:
            yield setup.s_true


# -- sweep-m, one filter call per (draw, m) -------------------------------------


def loop_sweep_errors(plan):
    """sweep-m's error of every draw at every m, filtered one spinor at a time.

    Returns (ms, {(tau, alpha): S x |ms| errors}) with ms in the column order
    of ``cmd_sweep_m`` (the m = 0 baseline first unless the plan lists it).
    Each entry is ``reconstruction_error(dirac_filter(draw, ..., tau, m), s_true)``
    on the same draws, taken in spinor space.
    """
    from diracsp.filtering import dirac_filter, reconstruction_error
    from diracsp.harness import _prepare

    setup = _prepare(plan)
    ms = list(plan.ms)
    if 0.0 not in ms:
        ms = [0.0] + ms
    errors = {}
    for c, (tau, alpha) in enumerate(product(plan.taus, plan.alphas)):
        errs = np.empty((plan.seeds, len(ms)))
        for k, s_tilde in enumerate(_draws(plan, setup, alpha, c)):
            for j, m in enumerate(ms):
                s_hat = dirac_filter(s_tilde, setup.Dop, setup.n, tau, m, basis=setup.basis)
                errs[k, j] = reconstruction_error(s_hat, setup.s_true)
        errors[tau, alpha] = errs
    return ms, errors


def _mean_std(x):
    return float(x.mean()), float(x.std(ddof=1)) if x.size > 1 else 0.0


def loop_sweep_rows(plan):
    """sweep-m's data rows as CSV strings, from one filter and one error call per m.

    The loop ``cmd_sweep_m`` ran before it took a cell's whole m grid at
    once, kept as written: an S x |ms| error matrix filled one column at a
    time, then a mean and standard deviation per column.
    """
    from diracsp.filtering import _delta_s, _filter_coords
    from diracsp.harness import _draw_coords, _fmt, _prepare

    setup = _prepare(plan)
    ms = list(plan.ms)
    if 0.0 not in ms:
        ms = [0.0] + ms
    lam = setup.basis.eigenvalues[setup.basis.nonzero_indices]
    rows = []
    for c, (tau, alpha) in enumerate(product(plan.taus, plan.alphas)):
        C = _draw_coords(plan, setup, alpha, c)
        errs = np.empty((plan.seeds, len(ms)))
        for j, m in enumerate(ms):
            errs[:, j] = _delta_s(_filter_coords(lam, C, tau, np.array([m])), setup.c_true)
        base = errs[:, ms.index(0.0)]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(base[:, None] > 0, errs / base[:, None], 1.0)
        for j, m in enumerate(ms):
            row = (tau, alpha, m, *_mean_std(rel[:, j]), *_mean_std(errs[:, j]))
            rows.append([_fmt(x) for x in row])
    return rows


# -- learn, heatmap and basin, one scalar loop per draw ---------------------------


def _attenuation(lam, tau, m):
    return 1.0 / (1.0 + tau * (lam - m) ** 2)


def loop_learn_coords(lam, c0, c_true, config):
    """The adaptive loop on one draw's coordinates: (final c_hat, RunTrace).

    The scalar loop the library ran one draw at a time before its learner
    was batched, kept as written: ``lam`` holds the eigenvalues of the
    nonzero modes, ``c0`` the noisy input's coordinates along them and
    ``c_true`` the truth's (None when no truth is measured).
    """
    import warnings

    from diracsp.errors import ZeroSignal
    from diracsp.filtering import RunTrace, TraceRow

    tau = config.tau

    def filt(m):
        return c0 * _attenuation(lam, tau, m)

    def ray(c):
        denom = c @ c
        if denom <= 0.0:
            raise ZeroSignal("filtered signal collapsed to zero")
        return float((lam * c**2).sum() / denom)

    def err(c):
        return float(np.linalg.norm(c - c_true))

    norm_c0 = float(np.linalg.norm(c0))
    if norm_c0 == 0.0:
        raise ZeroSignal("observed signal has no component in im(D_n)")

    # Rule of thumb: with unit-norm truth, ||s_tilde_n||^2 ~ 1 + alpha^2, so
    # an observed power above 2 suggests snr < 1, where the initial guess
    # matters a lot.
    if norm_c0**2 - 1.0 > 1.0:
        warnings.warn(
            "estimated snr < 1; convergence is sensitive to the initial m0",
            RuntimeWarning,
            stacklevel=3,  # the caller of learn
        )

    if config.m0 == "auto":
        m_hat = ray(c0)
    else:
        m_hat = float(config.m0)

    trace = RunTrace()
    if c_true is not None:
        trace.noisy_error = err(c0)
        trace.baseline_error = err(filt(0.0))
    trace.rows.append(
        TraceRow(
            0,
            m_hat,
            trace.noisy_error,
            None
            if c_true is None or not trace.baseline_error
            else trace.noisy_error / trace.baseline_error,
        )
    )

    c_hat = c0
    converged = False
    t = 0
    while t < config.max_iters:
        t += 1
        c_hat = filt(m_hat)
        m_new = (1.0 - config.eta) * m_hat + config.eta * ray(c_hat)
        delta_s = err(c_hat) if c_true is not None else None
        rel = (
            delta_s / trace.baseline_error
            if delta_s is not None and trace.baseline_error
            else None
        )
        trace.rows.append(TraceRow(t, m_new, delta_s, rel))
        moved = abs(m_new - m_hat)
        m_hat = m_new
        if moved < config.delta:
            converged = True
            break

    trace.converged = converged
    trace.iterations = t
    trace.final_m = m_hat
    return c_hat, trace


def loop_learn_traces(plan):
    """The learning commands' run of every draw, one scalar loop at a time.

    Returns (m_true, {(tau, alpha, m0): [RunTrace of each draw]}) with cells
    keyed and seeded in the order of ``cmd_learn`` and ``cmd_basin``; for a
    plan with one m0 that is also the order of ``cmd_heatmap``.  Each draw is
    the spinor of :func:`_draws` (truth plus projected noise), taken to
    coordinates on its own and run through :func:`loop_learn_coords`.
    """
    from diracsp.harness import _prepare

    setup = _prepare(plan)
    basis = setup.basis
    lam = basis.eigenvalues[basis.nonzero_indices]
    c_true = basis.coefficients(setup.s_true)
    traces = {}
    for c, (tau, alpha, m0) in enumerate(product(plan.taus, plan.alphas, plan.m0s)):
        config = plan.config(tau, m0)
        traces[tau, alpha, m0] = [
            loop_learn_coords(lam, basis.coefficients(s_tilde), c_true, config)[1]
            for s_tilde in _draws(plan, setup, alpha, c)
        ]
    return setup.m_true, traces

"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: exact ranks come from
Gaussian elimination over the rationals, spectral facts from dense numpy
eigendecompositions of matrices assembled straight from the definitions.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from diracsp import TopologicalSpinor, dirac_filter, dirac_project, learn, spectral_basis
from diracsp.complexes import SimplicialComplex, build_complex
from diracsp.errors import DuplicateSimplex, IndexOutOfRange, MissingFace, ParseError
from diracsp.signals import rng_stream


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


def csgraph_components(size, a, b):
    """(count, labels) of the components of the graph on range(size) with edges (a, b), by scipy's graph search."""
    graph = sp.coo_array((np.ones(len(a)), (a, b)), shape=(size, size))
    return connected_components(graph, directed=False)


def loop_boundary_matrix(K, n):
    """B_n built one simplex at a time, each face found in a dict of link positions."""
    rows, cols, vals = [], [], []
    if n == 1:
        for c, (i, j) in enumerate(K.links.tolist()):
            rows += [i, j]
            cols += [c, c]
            vals += [-1, 1]
        return sp.csc_array((vals, (rows, cols)), shape=(K.n0, K.n1), dtype=np.int64)
    link_pos = {tuple(lk): p for p, lk in enumerate(K.links.tolist())}
    for c, (i, j, k) in enumerate(K.triangles.tolist()):
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


def loop_ngf_generate(params):
    """ngf_generate as a loop that recomputes every link weight and calls
    rng.uniform for each link's energy as the link is made."""
    rng = rng_stream(params.seed)
    s, beta = params.flavor, params.beta
    nodes = params.target_nodes
    size = 2 * nodes - 3

    ends = np.empty((size, 2), dtype=np.int64)
    ends[:3] = [(0, 1), (0, 2), (1, 2)]
    triangles = np.empty((nodes - 2, 3), dtype=np.int64)
    triangles[0] = (0, 1, 2)
    hits = np.zeros(size)
    decay = np.empty(size)
    decay[:3] = np.exp(-beta * rng.uniform(0.0, 1.0, size=3))

    for new_node in range(3, nodes):
        live = 2 * new_node - 3
        w = (1.0 + s * hits[:live]) * decay[:live]
        total = w.sum()
        if total <= 0.0:
            raise ValueError(f"beta={beta!r} leaves every link weight at 0 (exp(-beta * eps) underflows)")
        # rng.choice(live, p=w / total), step for step
        cdf = np.cumsum(w / total)
        cdf /= cdf[-1]
        choice = int(cdf.searchsorted(rng.random(), side="right"))
        hits[choice] += 1
        i, j = ends[choice]
        ends[live] = (i, new_node)
        ends[live + 1] = (j, new_node)
        decay[live : live + 2] = np.exp(-beta * rng.uniform(0.0, 1.0, size=2))
        triangles[new_node - 2] = (i, j, new_node)

    return build_complex(ends, triangles, nodes)


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
    for c, (i, j) in enumerate(K.links.tolist()):
        B1[i, c] = -1.0
        B1[j, c] = 1.0
    B2 = np.zeros((n1, n2))
    link_pos = {tuple(lk): p for p, lk in enumerate(K.links.tolist())}
    for c, (i, j, k) in enumerate(K.triangles.tolist()):
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


# -- the factored basis with both factors stored --------------------------------
# The products the basis made when it kept U and V whole, taking U, V and the
# mode signs as arrays: coordinates sign * (U^T a -/+ V^T b)/sqrt(2), the
# synthesis U (pos + neg)/sqrt(2), V (pos - neg)/sqrt(2), and the projection
# U (U^T a), V (V^T b).


def _stored_coordinates(x, y, signs):
    """Coordinates from x = U^T a and y = V^T b (last axis: triplets)."""
    return np.concatenate([x - y, (x + y)[..., ::-1]], axis=-1) / np.sqrt(2.0) * signs


def stored_coefficients(U, V, signs, a, b):
    """Coordinates of the spinor with blocks (a, b) along the nonzero modes."""
    return _stored_coordinates(U.T @ a, V.T @ b, signs)


def stored_coefficient_rows(U, V, signs, A, B):
    """Row k: the coordinates of the spinor with blocks (A[k], B[k])."""
    return _stored_coordinates(A @ U, B @ V, signs)


def stored_synthesis(U, V, signs, c):
    """The blocks (left, right) of sum_i c[i] phi_i over the nonzero modes."""
    c = c * signs
    r = U.shape[1]
    neg, pos = c[:r], c[r:][::-1]
    return U @ (pos + neg) / np.sqrt(2.0), V @ (pos - neg) / np.sqrt(2.0)


def stored_mode(U, V, signs, i):
    """The blocks (left, right) of nonzero mode i, in ``nonzero_indices`` order."""
    r = U.shape[1]
    j = 2 * r - 1 - i if i >= r else i  # triplet index
    right = V[:, j] if i >= r else -V[:, j]
    return U[:, j] / np.sqrt(2.0) * signs[i], right / np.sqrt(2.0) * signs[i]


def stored_projection(U, V, a, b):
    """The blocks of the projection onto im(D_n) of the spinor with blocks (a, b)."""
    return U @ (U.T @ a), V @ (V.T @ b)


# -- certificates through the sparse operator ------------------------------------


def certificate_residuals(Dop, n, x, config, m):
    """Check P_n, both filters and the learner's update at D_n of Dop
    against their defining equations.

    Every check goes through ``Dop.apply`` alone, so it costs O(nnz) at any
    size and needs no dense oracle:

    - the projection: ||D_n (x - P_n x)|| <= 1e-13 sigma_max ||x||;
    - the filter equation ||D_n ((I + tau (D_n - m)^2) s_hat - x)|| <=
      1e-10 ||D_n x||, for ``dirac_filter`` at centre m and for ``learn``
      at the centre of its last filter step, ``m_history[-2]``.  The filter
      drops the part of x in ker D_n, which D_n drops too;
    - the learner's last update: |m_T - ((1 - eta) m_{T-1} + eta <s_hat,
      D_n s_hat> / <s_hat, s_hat>)| <= 1e-13 |m_T|.

    The filter and update checks need D_n x != 0.  Returns the residuals,
    relative to sigma_max ||x||, ||D_n x|| and |m_T|: (projection, filter,
    learn, update), the last three None when D_n x = 0.
    """

    def D(s):
        return Dop.apply(s, n)

    sigma_max = spectral_basis(Dop, n).sigma.max(initial=0.0)
    projection = D(x - dirac_project(x, Dop, n)).norm()
    assert projection <= 1e-13 * sigma_max * x.norm(), f"projection residual {projection:.3g}"
    scale = D(x).norm()
    if scale == 0.0:
        return projection, None, None, None

    def filter_residual(s_hat, m):
        shifted = D(s_hat) - s_hat * m
        return D(s_hat + (D(shifted) - shifted * m) * config.tau - x).norm() / scale

    filtered = filter_residual(dirac_filter(x, Dop, n, config.tau, m), m)
    s_hat, trace = learn(x, Dop, n, config)
    learned = filter_residual(s_hat, trace.m_history[-2])
    for name, value in (("dirac_filter", filtered), ("learn", learned)):
        assert value <= 1e-10, f"{name} filter equation residual {value:.3g}"
    *_, m_prev, m_last = trace.m_history
    rayleigh = s_hat.vector @ D(s_hat).vector / (s_hat.vector @ s_hat.vector)
    update = abs(m_last - ((1.0 - config.eta) * m_prev + config.eta * rayleigh)) / abs(m_last)
    assert update <= 1e-13, f"learner's update residual {update:.3g}"
    if sigma_max > 0.0:
        projection /= sigma_max * x.norm()
    return projection, filtered, learned, update


def spectral_certificates(Dop, n, x):
    """Check the cached basis of D_n and ``harmonic_basis`` of Dop against
    their defining equations, through ``Dop.apply`` and the complex's
    Incidence B_n alone, at O(nnz) per vector:

    - triplets, on 16 evenly spaced columns j: the mode for -sigma_j has the
      blocks (u_j, -v_j) / sqrt(2) times its sign, and ||B_n v_j - sigma_j
      u_j||, ||B_n^T u_j - sigma_j v_j|| <= 1e-12 sigma_max;
    - for n = 1, the node block of P_1 x sums to 0 over each component,
      within 1e-12 ||x||: im(B1) is orthogonal to the per-component
      constants;
    - harmonic modes, those of the basis under D_n and the columns H of
      ``harmonic_basis`` under D: ||D h|| <= 1e-13 max(sigma_max, 1) and
      ||H^T H - I|| <= 1e-13, largest entry.

    Returns the worst residuals, relative as above: (triplets, node sums,
    harmonic D h, harmonic orthonormality), node sums None for n = 2.
    """
    from diracsp.complexes import _components
    from diracsp.operators import _blocks_for, harmonic_basis

    K = Dop.K
    basis = spectral_basis(Dop, n)
    B = K.incidence(n)
    sigma_max = basis.sigma.max(initial=0.0)
    triplets = 0.0
    for j in np.unique(np.linspace(0, basis.rank - 1, 16).round().astype(int)) if basis.rank else ():
        left, right = _blocks_for(n, basis.spinor(int(j)).blocks)
        u, v, sigma = np.sqrt(2.0) * left, -np.sqrt(2.0) * right, basis.sigma[j]
        residual = max(np.linalg.norm(B @ v - sigma * u), np.linalg.norm(B.T @ u - sigma * v))
        triplets = max(triplets, residual / sigma_max)
    assert triplets <= 1e-12, f"triplet residual {triplets:.3g}"

    node_sums = None
    if n == 1:
        _, labels = _components(K.n0, *K.links.T)
        p = dirac_project(x, Dop, 1).s0
        node_sums = np.abs(np.bincount(labels, weights=p)).max(initial=0.0)
        assert node_sums <= 1e-12 * x.norm(), f"node block sum {node_sums:.3g}"
        if node_sums:
            node_sums /= x.norm()

    modes = np.zeros((K.spinor_dim, basis.kernel_dim))
    for c, i in enumerate(basis.harm_indices):
        modes[:, c] = basis.spinor(int(i)).vector
    whole = max(1.0, *(spectral_basis(Dop, k).sigma.max(initial=0.0) for k in (1, 2)))
    kernel, orthonormal = 0.0, 0.0
    for H, order, scale in ((modes, n, max(sigma_max, 1.0)), (harmonic_basis(Dop), None, whole)):
        for h in H.T:
            kernel = max(kernel, Dop.apply(TopologicalSpinor.from_vector(K, h), order).norm() / scale)
        orthonormal = max(orthonormal, np.abs(H.T @ H - np.eye(H.shape[1])).max(initial=0.0))
    assert kernel <= 1e-13, f"harmonic residual {kernel:.3g}"
    assert orthonormal <= 1e-13, f"harmonic orthonormality {orthonormal:.3g}"
    return triplets, node_sums, kernel, orthonormal


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


def fmt_cell(x) -> str:
    """One CSV cell formatted by hand: the reference for the harness's rows.

    The harness hands Python scalars to ``csv.writer``; this formats each
    value on its own: ``repr`` of a float (a numpy float too), ``str`` of an
    int (a numpy int too, or a bool as 0 or 1) and the text of anything else.
    """
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def loop_sweep_rows(plan):
    """sweep-m's data rows as CSV strings, from one filter and one error call per m.

    The loop ``cmd_sweep_m`` ran before it took a cell's whole m grid at
    once, kept as written: an S x |ms| error matrix filled one column at a
    time, then a mean and standard deviation per column.
    """
    from diracsp.filtering import _delta_s, _filter_coords
    from diracsp.harness import _draw_coords, _prepare

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
            rows.append([fmt_cell(x) for x in row])
    return rows


def loop_learn_rows(plan):
    """learn's trace and summary rows as CSV strings, one draw's RunTrace at a time.

    The loop ``cmd_learn`` ran before it read its rows off each cell's
    LearnBatch, kept as written: ``batch.trace(k)`` per draw, one row per
    TraceRow and one summary row per trace, each cell through
    :func:`fmt_cell`.  Returns (trace rows, summary rows).
    """
    from diracsp.harness import _learning_cells

    setup, cells = _learning_cells(plan)
    trace_rows, summary_rows = [], []
    for tau, alpha, m0, batch in cells:
        for k in range(plan.seeds):
            tr = batch.trace(k)
            trace_rows.extend(
                (tau, alpha, m0, k, r.t, r.m_hat, r.delta_s, r.rel_error) for r in tr.rows
            )
            final = tr.rows[-1]
            reduction = (
                1.0 - final.delta_s / tr.noisy_error if tr.noisy_error else float("nan")
            )
            summary_rows.append(
                (
                    tau, alpha, m0, k,
                    int(tr.converged), tr.iterations, tr.final_m, setup.m_true,
                    final.delta_s, final.rel_error, tr.noisy_error, reduction,
                )
            )
    return (
        [[fmt_cell(x) for x in row] for row in trace_rows],
        [[fmt_cell(x) for x in row] for row in summary_rows],
    )


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

"""The factored spectral basis against the dense reference construction."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diracsp import (
    FilterConfig,
    NgfParams,
    NoiseModel,
    TopologicalSpinor,
    assemble_dirac,
    build_complex,
    dirac_filter,
    dirac_project,
    gaussian_mix_signal,
    learn,
    ngf_generate,
    sample_noise,
    spectral_basis,
)
from diracsp import complexes, operators
from diracsp.complexes import gram_eigh
from diracsp.errors import DimensionMismatch, EigensolveFailure
from diracsp.datasets import coastal_tessellation, dataset_path
from diracsp.filtering import _learn_batch
from diracsp.harness import ExperimentPlan, cmd_learn, cmd_sweep_m
from diracsp.operators import (
    SpectralBasis,
    _eigh_triplets,
    _factor_pass,
    _gram_triplets,
    harmonic_basis,
)
from diracsp.signals import SignalSpec, noise_coefficients
from diracsp.spinors import split_blocks

from conftest import CERTIFICATE_CASES, HARD_COMPLEXES, random_complex
from oracles import (
    brute_dirac,
    dense_mode_signs,
    dense_spectral_basis,
    eigenbasis_projection,
    exact_rank,
    stored_coefficient_rows,
    stored_coefficients,
    stored_mode,
    stored_projection,
    stored_synthesis,
)
from test_complexes import SURFACES

def _corpus():
    rng = np.random.default_rng(23)
    cases = [(f"random{i}", random_complex(rng)) for i in range(6)]
    return cases + list(HARD_COMPLEXES.items())


CASES = [(name, K, n) for name, K in _corpus() for n in (1, 2)]
IDS = [f"{name}-n{n}" for name, _, n in CASES]


def _columns(basis, indices):
    out = np.zeros((basis.K.spinor_dim, len(indices)))
    for c, i in enumerate(indices):
        out[:, c] = basis.spinor(int(i)).vector
    return out


@pytest.mark.parametrize("name,K,n", CASES, ids=IDS)
def test_factored_basis_matches_dense_reference(name, K, n):
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    vals, vecs = dense_spectral_basis(D, n)
    assert basis.eigenvalues.shape == vals.shape
    assert np.abs(basis.eigenvalues - vals).max(initial=0.0) <= 1e-12

    nz = basis.nonzero_indices
    got = _columns(basis, nz)
    assert np.abs(got - vecs[:, nz]).max(initial=0.0) <= 1e-12  # signs included

    # the kernel basis is another orthonormal basis of the same space
    harm = basis.harm_indices
    H = _columns(basis, harm)
    ref = vecs[:, harm]
    assert np.abs(H @ H.T - ref @ ref.T).max(initial=0.0) <= 1e-10
    for col in H.T:
        assert col[np.argmax(np.abs(col))] > 0


@pytest.mark.parametrize("name,K,n", CASES, ids=IDS)
def test_coefficients_round_trip_is_the_image_projection(name, K, n):
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    x = TopologicalSpinor.from_vector(K, np.random.default_rng(1).standard_normal(D.dim))
    got = basis.synthesize(basis.coefficients(x)).vector
    dn = brute_dirac(K)[n]
    expected = eigenbasis_projection(dn, x.vector, lambda v: abs(v) > 1e-8)
    assert np.abs(got - expected).max(initial=0.0) <= 1e-10


@pytest.mark.parametrize("name,K,n", CASES, ids=IDS)
def test_coefficient_rows_are_the_coefficients_of_each_row(name, K, n):
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    X = np.random.default_rng(2).standard_normal((3, D.dim))
    got = basis.coefficient_rows(X)
    want = [basis.coefficients(TopologicalSpinor.from_vector(K, x)) for x in X]
    assert got.shape == (3, basis.nonharmonic_dim)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for bad in (X[0], np.zeros((3, D.dim + 1))):
        with pytest.raises(DimensionMismatch):
            basis.coefficient_rows(bad)


@pytest.mark.parametrize("name,K,n", CASES, ids=IDS)
def test_harmonic_columns_span_kernel(name, K, n):
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    H = _columns(basis, basis.harm_indices)
    assert np.abs(H.T @ H - np.eye(H.shape[1])).max(initial=0.0) <= 1e-10
    dn = brute_dirac(K)[n]
    assert np.abs(dn @ H).max(initial=0.0) <= 1e-10
    vals = np.linalg.eigvalsh(dn) if D.dim else np.zeros(0)
    assert H.shape[1] == int(np.count_nonzero(np.abs(vals) <= 1e-8))


@pytest.mark.parametrize("name,K,n", CASES, ids=IDS)
def test_eigh_path_agrees_up_to_rotation(name, K, n):
    D = assemble_dirac(K)
    svd = spectral_basis(D, n)
    eigh = spectral_basis(D, n, method="eigh")
    assert np.abs(svd.eigenvalues - eigh.eigenvalues).max(initial=0.0) <= 1e-10
    # the eigh basis stores one factor of the dense solve and derives the
    # other through B_n; both must match the solve's own pair
    U0, _, V0 = _eigh_triplets(D.boundary(n))
    assert np.abs(eigh.U - U0).max(initial=0.0) <= 1e-10
    assert np.abs(eigh.V - V0).max(initial=0.0) <= 1e-10
    # compare the projector onto each cluster of equal eigenvalues
    vals = svd.eigenvalues
    start = 0
    for stop in range(1, vals.size + 1):
        if stop < vals.size and vals[stop] - vals[start] <= 1e-8:
            continue
        idx = np.arange(start, stop)
        A, B = _columns(svd, idx), _columns(eigh, idx)
        assert np.abs(A @ A.T - B @ B.T).max() <= 1e-8
        start = stop


GRAM_CASES = CASES + [("coastal", coastal_tessellation(), n) for n in (1, 2)]


@pytest.mark.parametrize("name,K,n", GRAM_CASES, ids=[f"{c[0]}-n{c[2]}" for c in GRAM_CASES])
def test_gram_triplets_agree_with_eigh_reference(name, K, n):
    B = K.incidence(n)
    r = exact_rank(B)
    U0, sigma0, V0 = _eigh_triplets(B)
    basis = SpectralBasis(n, K, *_gram_triplets(B, r))
    U, sigma, V = basis.U, basis.sigma, basis.V
    assert sigma.size == sigma0.size == r
    # Q is the leading columns of the solve's own eigenvector array, the
    # transpose of the C-ordered array that owns the storage, and null the
    # rest, the kernel of B on the stored side; the factor derived from Q
    # is built C-contiguous
    X = basis.Q.base.T
    assert X.shape == (min(B.shape),) * 2
    assert (basis.Q.ctypes.data, basis.Q.strides) == (X.ctypes.data, X.strides)
    assert (basis.null.ctypes.data, basis.null.strides) == (X[:, r:].ctypes.data, X.strides)
    assert np.array_equal(np.hstack([basis.Q, basis.null]), X)
    assert (V if basis._left else U).flags.c_contiguous
    assert np.abs(sigma - sigma0).max(initial=0.0) <= 1e-12
    eye = np.eye(r)
    assert np.abs(U.T @ U - eye).max(initial=0.0) <= 1e-12
    assert np.abs(V.T @ V - eye).max(initial=0.0) <= 1e-12
    assert np.abs((U * sigma) @ V.T - B.toarray()).max(initial=0.0) <= 1e-12
    # the same image and coimage as the reference
    assert np.abs(U @ U.T - U0 @ U0.T).max(initial=0.0) <= 1e-12
    assert np.abs(V @ V.T - V0 @ V0.T).max(initial=0.0) <= 1e-12
    stored = (B.T if basis._left else B) @ basis.null
    assert np.abs(stored).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("flavor", [-1, 0, 1])
def test_harmonic_columns_read_the_stored_kernels_without_a_complete_qr(monkeypatch, flavor):
    # B1 is wide and B2 tall on an NGF complex, so ker L0 and ker L2 are the
    # null eigenvectors of the two Gram solves, and beta_1 = 0 leaves no link
    # block: neither harmonic_basis nor D_1's first harmonic mode runs a
    # complete QR
    K = ngf_generate(NgfParams(target_nodes=300, flavor=flavor, seed=0))
    D = assemble_dirac(K)
    calls = []
    complement = operators._complement
    monkeypatch.setattr(operators, "_complement", lambda A: calls.append(A.shape) or complement(A))
    H = harmonic_basis(D)
    basis = spectral_basis(D, 1)
    h = basis.spinor(basis.rank)
    assert calls == []
    assert H.shape == (K.spinor_dim, 1)  # beta = (1, 0, 0)
    assert np.array_equal(h.s0, operators._fix_sign(basis.null[:, 0]))
    assert np.array_equal(H[: K.n0, 0], basis.null[:, 0])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(CERTIFICATE_CASES))
def test_stored_kernel_spans_the_eigh_reference_kernel(name, n):
    # the svd basis keeps the Gram solve's null eigenvectors, the eigh basis
    # the complete-QR complement of its stored factor: two constructions of
    # one space, the kernel of B_n on the stored side
    D = assemble_dirac(CERTIFICATE_CASES[name])
    svd, eigh = spectral_basis(D, n), spectral_basis(D, n, method="eigh")
    assert svd.null.shape == eigh.null.shape
    gap = svd.null @ svd.null.T - eigh.null @ eigh.null.T
    assert np.abs(gap).max(initial=0.0) <= 1e-12


def _path(N):
    return build_complex([(i, i + 1) for i in range(N - 1)])


def _cycle(N):
    return build_complex([(i, i + 1) for i in range(N - 1)] + [(0, N - 1)])


# closed forms, k = 1..N-1: P_N has sigma_k = 2 sin(pi k / 2N), C_N has
# 2 |sin(pi k / N)|, evaluated as 2 sin(pi min(k, N - k) / N) because sin
# near pi would lose the digits being checked
CLOSED_FORMS = [
    ("path1500", _path, 1500, lambda k, N: 2 * np.sin(np.pi * k / (2 * N))),
    ("cycle500", _cycle, 500, lambda k, N: 2 * np.sin(np.pi * np.minimum(k, N - k) / N)),
]


@pytest.mark.parametrize("name,build,N,formula", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_small_singular_values_match_closed_forms(name, build, N, formula):
    # sigma is the norm of the derived column, not sqrt of a Gram eigenvalue,
    # whose absolute error eps * sigma_max^2 costs the smallest sigma 4e-11
    # relative on P_1500 and 6e-13 on C_500
    U, sigma, V = assemble_dirac(build(N)).singular_triplets(1)
    exact = np.sort(formula(np.arange(1, N), N))[::-1]
    assert sigma.shape == exact.shape
    assert np.max(np.abs(sigma - exact) / exact) <= 1e-13
    eye = np.eye(sigma.size)
    assert np.abs(U.T @ U - eye).max() <= 1e-12
    assert np.abs(V.T @ V - eye).max() <= 1e-12


NGF300 = [
    (f"ngf300-flavor{flavor}", ngf_generate(NgfParams(target_nodes=300, flavor=flavor, seed=0)), n)
    for flavor in (0, 1)
    for n in (1, 2)
]
SURFACE_CASES = [(name, K, n) for name, (K, _) in SURFACES.items() for n in (1, 2)]
SIGN_CASES = [(*c, "svd") for c in GRAM_CASES + NGF300 + SURFACE_CASES] + [
    (*c, "eigh") for c in GRAM_CASES + SURFACE_CASES
]


@pytest.mark.parametrize(
    "name,K,n,method", SIGN_CASES, ids=[f"{name}-n{n}" + ("-eigh" if m == "eigh" else "") for name, _, n, m in SIGN_CASES]
)
def test_blocked_sign_pass_equals_the_whole_array_pass(name, K, n, method):
    # the sign pass derives the factor the basis does not store one block of
    # columns at a time; reading basis.U and basis.V builds it whole
    basis = spectral_basis(assemble_dirac(K), n, method=method)
    assert np.array_equal(basis.signs, dense_mode_signs(basis.U, basis.V))


@pytest.mark.parametrize("method", ["svd", "eigh"])
@pytest.mark.parametrize("n", [1, 2])
def test_a_basis_reads_the_derived_factor_once(monkeypatch, method, n):
    # sigma and the signs come from one pass over the factor the basis does
    # not store: one derived block per 64 columns, not one for sigma and
    # another for the signs
    K = ngf_generate(NgfParams(target_nodes=300, flavor=0, seed=0))
    D = assemble_dirac(K)
    blocks = []
    derive = operators._derived_block
    monkeypatch.setattr(operators, "_derived_block", lambda *a: blocks.append(a[2]) or derive(*a))
    basis = spectral_basis(D, n, method=method)
    basis.sigma, basis.signs
    r = D.rank(n)
    assert r > 2 * operators._BLOCK and basis.rank == r
    assert blocks == list(range(0, r, operators._BLOCK))


def test_sign_pass_ties_go_to_u_and_to_the_first_entry():
    # the top mode of the 4-cycle, exact in binary: u = (1, -1, 1, -1)/2 and
    # v = B1^T u / 2.  Every |entry| is 1/2, and u[0] = +1/2, v[0] = -1/2, so
    # the signs come out (+1, +1) only if u wins the u/v tie (>=) and the
    # first entry wins within each column
    D = assemble_dirac(_cycle(4))
    U = np.array([[0.5], [-0.5], [0.5], [-0.5]])
    B = D.K.incidence(1)
    V = B.T @ U / 2
    assert np.abs(V).max() == np.abs(U).max() and V[0, 0] == -0.5
    sigma, signs = _factor_pass(B, U)  # sigma = ||B^T u|| = 2, exactly
    assert np.array_equal(sigma, [2.0]) and np.array_equal(signs, [1.0, 1.0])
    assert np.array_equal(dense_mode_signs(U, V), [1.0, 1.0])


ORACLE_CASES = (
    [(name, K, n) for name, K in HARD_COMPLEXES.items() for n in (1, 2)]
    + SURFACE_CASES
    + [("coastal", coastal_tessellation(), n) for n in (1, 2)]
    + NGF300
)


def _close(got, want):
    assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("name,K,n", ORACLE_CASES, ids=[f"{c[0]}-n{c[2]}" for c in ORACLE_CASES])
def test_products_through_b_match_the_stored_factor_formulas(name, K, n):
    # the basis stores one factor and reaches the other through B_n; every
    # product must agree with the formulas that used both factors whole
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    U, V, signs = basis.U, basis.V, basis.signs
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, D.dim))
    s = TopologicalSpinor.from_vector(K, X[0])
    a, b = s.blocks[n - 1], s.blocks[n]
    _close(basis.coefficients(s), stored_coefficients(U, V, signs, a, b))
    A, B = split_blocks(K, X)[n - 1 : n + 1]
    _close(basis.coefficient_rows(X), stored_coefficient_rows(U, V, signs, A, B))
    c = rng.standard_normal(basis.nonharmonic_dim)
    got = basis.synthesize(c)
    _close(np.concatenate([got.blocks[n - 1], got.blocks[n]]), np.concatenate(stored_synthesis(U, V, signs, c)))
    for k, i in enumerate(basis.nonzero_indices):
        got = basis.spinor(int(i))
        _close(np.concatenate([got.blocks[n - 1], got.blocks[n]]), np.concatenate(stored_mode(U, V, signs, k)))
    got = dirac_project(s, D, n)
    _close(np.concatenate([got.blocks[n - 1], got.blocks[n]]), np.concatenate(stored_projection(U, V, a, b)))


@pytest.mark.parametrize("method", ["svd", "eigh"])
@pytest.mark.parametrize("name,K,n", ORACLE_CASES, ids=[f"{c[0]}-n{c[2]}" for c in ORACLE_CASES])
def test_spinor_reads_the_columns_of_u_and_v_bit_for_bit(name, K, n, method):
    # spinor(i) derives its one column alone, U and V a block of columns at
    # a time: both add each entry's terms in the same order, so the mode is
    # the triplet's columns scaled, signed zeros included
    basis = spectral_basis(assemble_dirac(K), n, method=method)
    U, V = basis.U, basis.V
    for k, i in enumerate(basis.nonzero_indices):
        got = basis.spinor(int(i)).blocks[n - 1 : n + 1]
        for block, want in zip(got, stored_mode(U, V, basis.signs, k)):
            assert block.tobytes() == want.tobytes()


def test_spinor_index_out_of_range(ff_basis):
    with pytest.raises(IndexError):
        ff_basis.spinor(ff_basis.eigenvalues.size)


@pytest.mark.parametrize("i", [-5, -1, 35, 10**6])
def test_classify_refuses_a_mode_outside_the_basis(ff_basis, i):
    # the Florentine basis has 15 + 20 = 35 modes, numbered 0 .. 34
    assert ff_basis.eigenvalues.size == 35
    for lookup in (ff_basis.classify, ff_basis.spinor):
        with pytest.raises(IndexError, match=rf"mode {i} outside 0\.\.34"):
            lookup(i)
    assert [ff_basis.classify(j) for j in (0, 34)] == ["neg", "pos"]


def test_foreign_spinor_and_coefficients_rejected(ff_basis, filled_triangle):
    with pytest.raises(DimensionMismatch):
        ff_basis.coefficients(TopologicalSpinor.zeros(filled_triangle))
    with pytest.raises(DimensionMismatch):
        ff_basis.synthesize(np.zeros(ff_basis.nonharmonic_dim + 1))


def test_a_basis_of_another_complex_with_the_same_counts_is_refused():
    K0, K1 = (ngf_generate(NgfParams(target_nodes=60, seed=seed)) for seed in (0, 1))
    assert K0.counts == K1.counts == (60, 117, 58)
    D1 = assemble_dirac(K1)
    s = TopologicalSpinor.from_vector(K1, np.full(D1.dim, 1 / np.sqrt(D1.dim)))
    for call in (
        lambda basis: dirac_filter(s, D1, 1, 2.0, 1.0, basis=basis),
        lambda basis: learn(s, D1, 1, FilterConfig(tau=2.0, m0=1.0), basis=basis),
    ):
        with pytest.raises(DimensionMismatch, match="another complex"):
            call(spectral_basis(assemble_dirac(K0), 1))
    # a basis of another operator over the same complex holds an equal B_n
    got = dirac_filter(s, D1, 1, 2.0, 1.0, basis=spectral_basis(assemble_dirac(K1), 1))
    assert np.array_equal(got.vector, dirac_filter(s, D1, 1, 2.0, 1.0).vector)


def test_operator_keeps_its_svd_basis(coastal, monkeypatch):
    D = assemble_dirac(coastal)
    passes = []
    monkeypatch.setattr(operators, "_factor_pass", lambda *args: passes.append(args[0]) or _factor_pass(*args))
    D.rank(1), D.rank(2)
    assert passes == []  # ranks never build a basis
    s = sample_noise(NoiseModel(alpha=0.5, seed=1), D, 1, 0)
    dirac_project(s, D, 2)
    harmonic_basis(D)
    D.singular_triplets(2)
    for _ in range(2):
        dirac_filter(s, D, 1, 2.0, 1.0)
        learn(s, D, 1, FilterConfig(tau=2.0, m0=1.0))
    assert spectral_basis(D, 1) is spectral_basis(D, 1)
    assert spectral_basis(D, 2) is spectral_basis(D, 2) is not spectral_basis(D, 1)
    # one pass per order, whatever reads the basis and however often
    assert len(passes) == 2 and {id(B) for B in passes} == {id(coastal.incidence(n)) for n in (1, 2)}
    assert spectral_basis(D, 1, method="eigh") is not spectral_basis(D, 1, method="eigh")
    assert len(passes) == 4


def test_basis_and_learning_never_allocate_a_dense_basis():
    K = ngf_generate(NgfParams(target_nodes=400, flavor=-1, seed=0))
    D = assemble_dirac(K)
    dense_bytes = D.dim * D.dim * 8
    config = FilterConfig(tau=7.0, m0=2.0)
    tracemalloc.start()
    try:
        basis = spectral_basis(D, 1)
        s_true = gaussian_mix_signal(basis, 1.0, 0.2)
        for k in range(3):
            noise = sample_noise(NoiseModel(alpha=0.5, seed=3), D, 1, k)
            learn(s_true + noise, D, 1, config, truth=s_true, basis=basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"peak {peak / 1e6:.1f} MB >= one M x M array {dense_bytes / 1e6:.1f} MB"


def test_spectral_setup_holds_no_full_size_temporaries():
    # the Gram matrix is dropped once solved, the derived factor is divided
    # in place and the sign pass works in column blocks, so no step holds a
    # second copy of U or V next to them: building the basis and its signs
    # peaks below U + V plus two Gram-sized arrays (numpy's copy of G and
    # the LAPACK workspace are allocated where tracemalloc does not look)
    K = ngf_generate(NgfParams(target_nodes=400, flavor=-1, seed=0))
    D = assemble_dirac(K)
    tracemalloc.start()
    try:
        basis = spectral_basis(D, 1)
        basis.signs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = basis.U.nbytes + basis.V.nbytes + 2 * 8 * min(D.B1.shape) ** 2
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > bound {bound / 1e6:.2f} MB"


def test_set_up_keeps_one_factor_and_peaks_in_the_eigensolve():
    # the basis stores the Gram-side factor Q and derives the other one, N1 x r
    # here, a block of columns at a time: after the basis and its signs only Q
    # stays live, and no step from the basis through the learner climbs more
    # than one derived block above the eigensolve's own peak (the numpy
    # arrays tracemalloc sees: G and dsyevd's workspace in place, G and the
    # eigenvectors numpy.linalg returns otherwise)
    K = ngf_generate(NgfParams(target_nodes=400, flavor=-1, seed=0))
    D = assemble_dirac(K)
    block = K.n1 * operators._BLOCK * 8
    tracemalloc.start()
    try:
        gram_eigh(K.incidence(1))
        _, eigensolve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        basis = spectral_basis(D, 1)
        basis.signs
        live, _ = tracemalloc.get_traced_memory()
        lam = basis.eigenvalues[basis.nonzero_indices]
        c_true = basis.coefficients(gaussian_mix_signal(basis, 1.0, 0.2))
        C0 = c_true + noise_coefficients(NoiseModel(alpha=0.5, seed=3), basis, range(20))
        _learn_batch(lam, C0, c_true, FilterConfig(tau=7.0, m0=2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < basis.Q.nbytes + block, f"live {live / 1e6:.2f} MB after the basis and its signs"
    assert peak <= eigensolve_peak + block, (
        f"peak {peak / 1e6:.2f} MB > eigensolve {eigensolve_peak / 1e6:.2f} MB + one block {block / 1e6:.2f} MB"
    )


# VmHWM, not ru_maxrss: after fork and exec, ru_maxrss starts from the RSS of
# the process that started the probe, here the whole test session
BASIS_HEAP_PROBE = """
from diracsp import NgfParams, assemble_dirac, complexes, ngf_generate, spectral_basis
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
K = ngf_generate(NgfParams(target_nodes=600, flavor=-1, seed=0))
kept, peaks = [], []
for _ in range(8):
    basis = spectral_basis(assemble_dirac(K), 1)
    kept.append(bytearray(100_000))
    peaks.append(peak())
print(complexes.steady_heap(), min(K.incidence(1).shape), *peaks)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc")
def test_repeated_set_ups_keep_a_steady_peak():
    # each set-up runs while the previous basis is alive, and a small block
    # outlives it.  A Q copied out of the solve's eigenvectors would take
    # G's freed slot, the small block would land after it, and the next G
    # would no longer fit there: peak RSS would climb by one 600 x 600
    # array every few set-ups.  The first three set-ups lay out the heap;
    # after them the peak may grow by the blocks kept and less than half
    # of that array
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BASIS_HEAP_PROBE], env=env, check=True, capture_output=True, text=True
    )
    fixed, size, *peaks = done.stdout.split()
    if fixed != "True":
        pytest.skip("the C library is not glibc")
    peaks = [int(p) for p in peaks]
    kept = 100_000 * (len(peaks) - 3)
    half = 8 * int(size) ** 2 // 2
    assert peaks[-1] - peaks[2] < kept + half, peaks


@pytest.mark.skipif(complexes.lapack_dsyevd() is None, reason="numpy brings no dsyevd to bind")
@pytest.mark.parametrize("name", list(CERTIFICATE_CASES))
def test_the_in_place_solve_gives_numpy_linalgs_bits(name, monkeypatch):
    # numpy.linalg's eigh runs the same dsyevd of the same OpenBLAS on a
    # copy of G, with the workspace the same query asks for: every array of
    # both bases, the eigenvector arrays and the eigenvalues-only spectra
    # are the same bits, and both paths return X in LAPACK's Fortran order
    K = CERTIFICATE_CASES[name]
    in_place = [spectral_basis(assemble_dirac(K), n) for n in (1, 2)]
    spectra = [gram_eigh(K.incidence(n), vectors=False) for n in (1, 2)]
    solves = [gram_eigh(K.incidence(n)) for n in (1, 2)]
    monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    for n, basis, w, (wv, X) in zip((1, 2), in_place, spectra, solves):
        reference = spectral_basis(assemble_dirac(K), n)
        for field in ("Q", "sigma", "signs", "null"):
            assert np.array_equal(getattr(basis, field), getattr(reference, field)), (n, field)
        assert np.array_equal(w, gram_eigh(K.incidence(n), vectors=False))
        w0, X0 = gram_eigh(K.incidence(n))
        assert np.array_equal(wv, w0) and np.array_equal(X, X0)
        assert X.flags.f_contiguous and X0.flags.f_contiguous


# (nodes, n): B_n of NGF-nodes of flavor 0, where m = nodes for n = 1
STAGE_ORDERS = [(25, 1), (26, 1), (79, 1), (80, 1), (81, 1), (100, 1), (101, 1), (102, 1), (300, 1), (300, 2)]


@pytest.mark.skipif(complexes.lapack_dsyevd() is None, reason="numpy brings no dsyevd to bind")
@pytest.mark.parametrize("order", ["one link", "3-node path", *(f"NGF-{k} n={n}" for k, n in STAGE_ORDERS)])
def test_the_stages_give_dsyevds_bits_where_their_blocking_changes(order, monkeypatch):
    # dsyevd's stages, each with the workspace dsyevd lends it, against
    # numpy.linalg's eigh and eigvalsh, which run dsyevd itself: at m = 1 and
    # 2; on both sides of dstedc's switch to divide and conquer above m = 25;
    # where dormtr's 1 + 4m + m^2 reaches dormqr's 32m + 4160 for its full
    # block size (m = 80) and where it passes the 64m + 4160 cap (m = 101)
    if order == "one link":
        B = build_complex([(0, 1)]).incidence(1)
    elif order == "3-node path":
        B = build_complex([(0, 1), (1, 2)]).incidence(1)
    else:
        nodes, n = (int(part.strip("NGF-n=")) for part in order.split())
        B = ngf_generate(NgfParams(target_nodes=nodes, flavor=0, seed=0)).incidence(n)
    w, (wv, X) = gram_eigh(B, vectors=False), gram_eigh(B)
    monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    w0, (wv0, X0) = gram_eigh(B, vectors=False), gram_eigh(B)
    assert np.array_equal(w, w0) and np.array_equal(wv, wv0) and np.array_equal(X, X0)
    assert X.flags.f_contiguous and len(X) == min(B.shape)


@pytest.mark.skipif(complexes.lapack_dsyevd() is None, reason="numpy brings no dsyevd to bind")
@pytest.mark.parametrize("vectors", [False, True])
def test_a_solve_asks_for_dsytrds_workspace_once_and_allocates_its_plan(vectors, monkeypatch):
    # one workspace query (lwork = -1) per solve, and the arrays the solve
    # allocates beyond G add up, with G's 8 m^2, to the bytes of its plan,
    # the figure a failed allocation names
    K = ngf_generate(NgfParams(target_nodes=120, flavor=0, seed=0))
    call, empty = complexes.DsyevdStages._call, complexes.DsyevdStages.empty
    queries, allocated = [], []

    def spy(self, name, *args):
        queries.append(name == "dsytrd" and args[-1] == -1)
        return call(self, name, *args)

    def recording(self, size, dtype=np.float64):
        allocated.append(size * np.dtype(dtype).itemsize)
        return empty(self, size, dtype)

    for n in (1, 2):
        B = K.incidence(n)
        m = min(B.shape)
        queries.clear()
        allocated.clear()
        with monkeypatch.context() as patched:
            patched.setattr(complexes.DsyevdStages, "_call", spy)
            patched.setattr(complexes.DsyevdStages, "empty", recording)
            gram_eigh(B, vectors=vectors)
        assert sum(queries) == 1, (n, queries)
        plan = complexes.lapack_dsyevd().plan(m)
        assert 8 * m * m + sum(allocated) == (plan.vectors_bytes if vectors else plan.values_bytes)


@pytest.mark.skipif(complexes.lapack_dsyevd() is None, reason="numpy brings no dsyevd to bind")
def test_the_in_place_solve_peaks_at_g_the_reflectors_and_dstedcs_workspace():
    # B1 of NGF-400, m = 400: G, the m(m - 1)/2 packed reflectors and
    # dstedc's 1 + 4m + m^2 doubles are 20 m^2 bytes; what else is live then
    # is O(m).  dsyevd called whole would hold G and about 2 m^2 doubles of
    # workspace, 24 m^2
    B = ngf_generate(NgfParams(target_nodes=400, flavor=-1, seed=0)).incidence(1)
    m = min(B.shape)
    tracemalloc.start()
    try:
        gram_eigh(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21 * m * m, f"peak {peak / m**2:.2f} m^2 bytes"


@pytest.mark.skipif(complexes.lapack_dsyevd() is None, reason="numpy brings no dsyevd to bind")
def test_the_grid_commands_write_the_same_bytes_on_both_solver_paths(tmp_path, monkeypatch):
    # a sweep of D_2's eigenmode on coastal and a learn of D_1's gaussian
    # mixture on NGF-300 of flavor 0, in place and through numpy.linalg
    sweep = ExperimentPlan(
        dataset={"kind": "file", "path": dataset_path("coastal_tessellation.json")},
        signal=SignalSpec(mode="eigen", n=2, selector="smallest_positive"),
        ms=(0.5, 1.0, 2.0), seeds=3, seed=5,
    )
    learn_plan = ExperimentPlan(
        dataset={"kind": "ngf", "target_nodes": 300, "flavor": 0, "seed": 0},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
        alphas=(0.5,), taus=(7.0,), m0s=(2.0,), seeds=3, seed=5,
    )

    def outputs(tag):
        learned = cmd_learn(learn_plan, tmp_path / f"learn-{tag}.csv")
        paths = [cmd_sweep_m(sweep, tmp_path / f"sweep-{tag}.csv"), learned, learned.with_suffix(".summary.csv")]
        return [path.read_bytes() for path in paths]

    in_place = outputs("dsyevd")
    monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    assert outputs("numpy") == in_place


def test_the_eigh_reference_refuses_a_rank_the_complex_does_not_have(coastal):
    # the eigh basis ranks by the same gap test as the svd basis and must
    # meet the complex's rank: one more than the components allow is refused
    K = build_complex(coastal.links, coastal.triangles, coastal.n0)
    r = K.rank1
    K.__dict__["rank1"] = r + 1
    with pytest.raises(EigensolveFailure, match=f"^{r} Gram eigenvalues .* rank of it is {r + 1}$"):
        spectral_basis(assemble_dirac(K), 1, method="eigh")


@pytest.mark.parametrize("name", list(CERTIFICATE_CASES))
def test_the_eigh_reference_has_the_complexs_rank(name):
    D = assemble_dirac(CERTIFICATE_CASES[name])
    for n in (1, 2):
        assert spectral_basis(D, n, method="eigh").rank == D.rank(n)


SET_UP_HWM_PROBE = """
import numpy as np
from diracsp import NgfParams, assemble_dirac, complexes, ngf_generate, spectral_basis
def status(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith(key + ":"))
K = ngf_generate(NgfParams(target_nodes=600, flavor=-1, seed=0))
D = assemble_dirac(K)
B = K.incidence(1)
B._slots, B.row_entries, K.rank1
m = min(B.shape)
A = np.ones((m, m))
A @ A  # OpenBLAS's own buffers are faulted in before the measurement
del A
before = status("VmRSS")
spectral_basis(D, 1).signs
print(complexes.lapack_dsyevd() is not None, m, status("VmHWM") - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM in /proc/self/status")
def test_one_set_up_peaks_at_the_in_place_solves_memory():
    # the HWM rise of B1's basis at NGF-600 (m = 600), over the RSS before
    # it: 23.8 m^2 bytes with dsyevd's stages in G's storage (G, the packed
    # reflectors and dstedc's workspace, 20 m^2, plus the factor pass's
    # blocks), 45.0 m^2 through numpy.linalg's eigh (G, its copy, the
    # workspace and the eigenvectors)
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SET_UP_HWM_PROBE], env=env, check=True, capture_output=True, text=True
    )
    bound, m, rise = done.stdout.split()
    if bound != "True":
        pytest.skip("numpy brings no dsyevd to bind")
    m, rise = int(m), int(rise)
    assert rise < 26 * m * m, f"rise {rise / m**2:.1f} m^2 bytes"

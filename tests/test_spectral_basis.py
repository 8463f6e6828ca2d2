"""The factored spectral basis against the dense reference construction."""

import tracemalloc

import numpy as np
import pytest

from diracsp import (
    FilterConfig,
    NgfParams,
    NoiseModel,
    TopologicalSpinor,
    assemble_dirac,
    dirac_filter,
    dirac_project,
    gaussian_mix_signal,
    learn,
    ngf_generate,
    sample_noise,
    spectral_basis,
)
from diracsp import operators
from diracsp.errors import DimensionMismatch
from diracsp.datasets import coastal_tessellation
from diracsp.operators import _eigh_triplets, _gram_triplets, _mode_signs, harmonic_basis

from conftest import HARD_COMPLEXES, random_complex
from oracles import brute_dirac, dense_spectral_basis, eigenbasis_projection, exact_rank

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
    B = assemble_dirac(K).boundary(n)
    r = exact_rank(B)
    U0, sigma0, V0 = _eigh_triplets(B)
    U, sigma, V = _gram_triplets(B, r)
    assert sigma.size == sigma0.size == r
    assert U.flags.c_contiguous and V.flags.c_contiguous
    assert np.abs(sigma - sigma0).max(initial=0.0) <= 1e-12
    eye = np.eye(r)
    assert np.abs(U.T @ U - eye).max(initial=0.0) <= 1e-12
    assert np.abs(V.T @ V - eye).max(initial=0.0) <= 1e-12
    assert np.abs((U * sigma) @ V.T - B.toarray()).max(initial=0.0) <= 1e-12
    # the same image and coimage as the reference
    assert np.abs(U @ U.T - U0 @ U0.T).max(initial=0.0) <= 1e-12
    assert np.abs(V @ V.T - V0 @ V0.T).max(initial=0.0) <= 1e-12


def test_spinor_index_out_of_range(ff_basis):
    with pytest.raises(IndexError):
        ff_basis.spinor(ff_basis.eigenvalues.size)


def test_foreign_spinor_and_coefficients_rejected(ff_basis, filled_triangle):
    with pytest.raises(DimensionMismatch):
        ff_basis.coefficients(TopologicalSpinor.zeros(filled_triangle))
    with pytest.raises(DimensionMismatch):
        ff_basis.synthesize(np.zeros(ff_basis.nonharmonic_dim + 1))


def test_operator_keeps_its_svd_basis(coastal, monkeypatch):
    D = assemble_dirac(coastal)
    signs = []
    monkeypatch.setattr(operators, "_mode_signs", lambda U, V: signs.append(1) or _mode_signs(U, V))
    s = sample_noise(NoiseModel(alpha1=0.5, seed=1), D, 1, 0)
    # callers that need only the triplets never pay for the mode signs
    dirac_project(s, D, 2)
    harmonic_basis(D)
    D.rank(1)
    D.singular_triplets(2)
    assert signs == []
    for _ in range(2):
        dirac_filter(s, D, 1, 2.0, 1.0)
        learn(s, D, 1, FilterConfig(tau=2.0, m0=1.0))
    assert spectral_basis(D, 1) is spectral_basis(D, 1)
    assert len(signs) == 1
    assert spectral_basis(D, 2) is spectral_basis(D, 2) is not spectral_basis(D, 1)
    assert spectral_basis(D, 1, method="eigh") is not spectral_basis(D, 1, method="eigh")


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
            noise = sample_noise(NoiseModel(alpha1=0.5, seed=3), D, 1, k)
            learn(s_true + noise, D, 1, config, truth=s_true, basis=basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"peak {peak / 1e6:.1f} MB >= one M x M array {dense_bytes / 1e6:.1f} MB"

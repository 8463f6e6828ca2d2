import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import (
    FilterConfig,
    NgfParams,
    NoiseModel,
    TopologicalSpinor,
    assemble_dirac,
    dirac_filter,
    dirac_project,
    eigenmode_signal,
    gaussian_mix_signal,
    hodge_filter,
    learn,
    ngf_generate,
    rayleigh_m,
    reconstruction_error,
    sample_noise,
    spectral_basis,
)
from diracsp.errors import DimensionMismatch, InvalidOrder, NonConvergence, ZeroSignal
from diracsp.filtering import _learn_batch, _low_snr
from diracsp.operators import harmonic_basis

from conftest import CERTIFICATE_CASES, HARD_COMPLEXES, random_complex
from oracles import (
    brute_dirac,
    certificate_residuals,
    eigenbasis_projection,
    loop_learn_coords,
    spectral_certificates,
)


def test_hodge_tau_zero_is_identity(ff_dirac, ff_basis):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    out = hodge_filter(s, ff_dirac, 0.0)
    assert np.array_equal(out.vector, s.vector)


def test_hodge_filter_rejects_non_finite_tau(ff_dirac, ff_basis):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    for tau in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            hodge_filter(s, ff_dirac, tau)


def test_hodge_eigenmode_attenuation(two_triangles):
    D = assemble_dirac(two_triangles)
    L = D.super_laplacian.toarray()
    vals, vecs = np.linalg.eigh(L)
    tau = 3.0
    for i in (0, D.dim // 2, D.dim - 1):
        v = TopologicalSpinor.from_vector(two_triangles, vecs[:, i])
        out = hodge_filter(v, D, tau)
        assert (out - v / (1.0 + tau * vals[i])).norm() <= 1e-8


def test_hodge_leaves_harmonics_alone(two_triangles):
    D = assemble_dirac(two_triangles)
    H = harmonic_basis(D)
    h = TopologicalSpinor.from_vector(two_triangles, H[:, 0])
    assert (hodge_filter(h, D, 25.0) - h).norm() <= 1e-8


def test_dirac_filter_diagonal_form(ff_dirac, ff_basis):
    tau, m = 5.0, 0.7
    for i in np.concatenate([ff_basis.pos_indices[:3], ff_basis.neg_indices[:3]]):
        lam = ff_basis.eigenvalues[i]
        phi = ff_basis.spinor(i)
        for use_basis in (None, ff_basis):
            out = dirac_filter(phi, ff_dirac, 1, tau, m, basis=use_basis)
            expected = phi / (1.0 + tau * (lam - m) ** 2)
            assert (out - expected).norm() <= 1e-8


def test_dirac_filter_rejects_non_finite_settings(ff_dirac, ff_basis):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    nan, inf = float("nan"), float("inf")
    for tau, m, match in (
        (nan, 2.0, "tau must be finite and >= 0, got nan"),
        (inf, 2.0, "tau must be finite and >= 0, got inf"),
        (-1.0, 2.0, "tau must be finite and >= 0, got -1.0"),
        (1.0, nan, "m must be finite, got nan"),
        (1.0, -inf, "m must be finite, got -inf"),
    ):
        with pytest.raises(ValueError, match=match):
            dirac_filter(s, ff_dirac, 1, tau, m)


@pytest.mark.parametrize("value", (True, "1", None))
def test_filters_and_config_reject_non_numbers_by_name(ff_dirac, ff_basis, value):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    calls = {
        "tau": [
            lambda: hodge_filter(s, ff_dirac, value),
            lambda: dirac_filter(s, ff_dirac, 1, value, 1.0),
            lambda: FilterConfig(tau=value),
        ],
        "m": [lambda: dirac_filter(s, ff_dirac, 1, 1.0, value)],
        "eta": [lambda: FilterConfig(tau=1.0, eta=value)],
        "delta": [lambda: FilterConfig(tau=1.0, delta=value)],
        "m0": [lambda: FilterConfig(tau=1.0, m0=value)],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
                fn()


def test_dirac_filter_passes_matched_mode(ff_dirac, ff_basis):
    phi = eigenmode_signal(ff_basis, "smallest_positive")
    lam = ff_basis.eigenvalues[ff_basis.pos_indices[0]]
    out = dirac_filter(phi, ff_dirac, 1, 10.0, float(lam))
    assert (out - phi).norm() <= 1e-10


def test_dirac_filter_closed_form_m0(ff_dirac, ff_basis):
    phi = eigenmode_signal(ff_basis, "largest_positive")
    lam = ff_basis.eigenvalues[ff_basis.pos_indices[-1]]
    out = dirac_filter(phi, ff_dirac, 1, 1.0, 0.0)
    assert (out - phi / (1.0 + lam**2)).norm() <= 1e-10


def test_dirac_filter_m0_matches_hodge_on_image(ff_dirac, ff_basis):
    rng = np.random.default_rng(0)
    s = TopologicalSpinor.from_vector(ff_dirac.K, rng.standard_normal(ff_dirac.dim))
    p = dirac_project(s, ff_dirac, 1)
    tau = 4.0
    a = dirac_filter(p, ff_dirac, 1, tau, 0.0)
    b = hodge_filter(p, ff_dirac, tau)
    assert (a - b).norm() <= 1e-8


def test_filter_output_in_image(ff_dirac):
    rng = np.random.default_rng(1)
    s = TopologicalSpinor.from_vector(ff_dirac.K, rng.standard_normal(ff_dirac.dim))
    out = dirac_filter(s, ff_dirac, 1, 2.0, 1.0)
    assert (dirac_project(out, ff_dirac, 1) - out).norm() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0.0, 50.0),
    m=st.floats(-3.0, 3.0),
)
def test_monotone_attenuation(seed, tau, m):
    rng = np.random.default_rng(seed)
    K = random_complex(rng, max_nodes=8)
    D = assemble_dirac(K)
    s = TopologicalSpinor.from_vector(K, rng.standard_normal(D.dim))
    out = dirac_filter(s, D, 1, tau, m)
    assert out.norm() <= s.norm() + 1e-10


def test_rayleigh_pure_mode(ff_dirac, ff_basis):
    for sel in ("smallest_positive", "largest_positive"):
        s = eigenmode_signal(ff_basis, sel)
        lam = rayleigh_m(s, ff_dirac, 1)
        idx = ff_basis.pos_indices[0 if sel == "smallest_positive" else -1]
        assert lam == pytest.approx(float(ff_basis.eigenvalues[idx]), abs=1e-10)


def test_rayleigh_chiral_pair_cancels(ff_dirac, ff_basis):
    phi = eigenmode_signal(ff_basis, "smallest_positive")
    mix = (phi + chirality(phi)) / np.sqrt(2.0)
    assert abs(rayleigh_m(mix, ff_dirac, 1)) <= 1e-10


def chirality(phi):
    from diracsp import chirality_map

    return chirality_map(phi, 1)


def test_rayleigh_zero_signal(ff_dirac, ff_network):
    with pytest.raises(ZeroSignal):
        rayleigh_m(TopologicalSpinor.zeros(ff_network), ff_dirac, 1)


def test_rayleigh_bounds(ff_dirac, ff_basis):
    rng = np.random.default_rng(2)
    lam = ff_basis.eigenvalues
    for _ in range(10):
        s = TopologicalSpinor.from_vector(ff_dirac.K, rng.standard_normal(ff_dirac.dim))
        r = rayleigh_m(s, ff_dirac, 1)
        assert lam.min() - 1e-9 <= r <= lam.max() + 1e-9


def test_error_metric(ff_basis):
    a = eigenmode_signal(ff_basis, "smallest_positive")
    b = eigenmode_signal(ff_basis, "largest_positive")
    assert reconstruction_error(a, a) == 0.0
    assert reconstruction_error(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-9)
    with pytest.raises(DimensionMismatch):
        reconstruction_error(a, TopologicalSpinor(np.zeros(2), np.zeros(1), np.zeros(0)))


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(tau=0.0)
    with pytest.raises(ValueError):
        FilterConfig(tau=float("inf"))
    with pytest.raises(ValueError):
        FilterConfig(tau=1.0, eta=0.0)
    with pytest.raises(ValueError):
        FilterConfig(tau=1.0, eta=1.5)
    with pytest.raises(ValueError):
        FilterConfig(tau=1.0, delta=0.0)
    with pytest.raises(ValueError):
        FilterConfig(tau=1.0, m0="magic")
    with pytest.raises(ValueError):
        FilterConfig(tau=1.0, m0=float("nan"))
    FilterConfig(tau=1.0, m0="auto", eta=1.0)


def test_learn_fixed_point_noiseless(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    lam = float(ff_basis.eigenvalues[ff_basis.pos_indices[0]])
    s_hat, tr = learn(
        s, ff_dirac, 1, FilterConfig(tau=7.0, m0=lam), truth=s, basis=ff_basis
    )
    assert tr.converged
    assert tr.iterations == 1
    assert tr.rows[-1].delta_s <= 1e-10
    assert (s_hat - s).norm() <= 1e-10


def test_learn_converges_to_true_eigenvalue(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    lam = float(ff_basis.eigenvalues[ff_basis.pos_indices[0]])
    eps = sample_noise(NoiseModel(alpha=0.5, seed=21), ff_dirac, 1, 0)
    cfg = FilterConfig(tau=7.0, m0=1.5, eta=0.3, delta=1e-4)
    s_hat, tr = learn(s + eps, ff_dirac, 1, cfg, truth=s, basis=ff_basis)
    assert tr.converged
    assert abs(tr.final_m - lam) < 0.15
    assert tr.rows[-1].rel_error < 0.8
    # reported convergence is a fixed point: one more sweep moves m < delta
    again, tr2 = learn(
        s + eps, ff_dirac, 1,
        FilterConfig(tau=7.0, m0=tr.final_m, eta=0.3, delta=1e-4, max_iters=1),
        basis=ff_basis,
    )
    assert abs(tr2.final_m - tr.final_m) < 1e-4


def test_learn_auto_m0(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.5, seed=4), ff_dirac, 1, 0)
    s_tilde = s + eps
    cfg = FilterConfig(tau=7.0, m0="auto")
    _, tr = learn(s_tilde, ff_dirac, 1, cfg, truth=s, basis=ff_basis)
    assert tr.rows[0].m_hat == pytest.approx(
        rayleigh_m(dirac_project(s_tilde, ff_dirac, 1), ff_dirac, 1)
    )
    assert tr.converged


def test_learn_nonconvergence_returns_partial(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.5, seed=2), ff_dirac, 1, 0)
    cfg = FilterConfig(tau=7.0, m0=1.5, delta=1e-12, max_iters=3)
    _, tr = learn(s + eps, ff_dirac, 1, cfg, basis=ff_basis)
    assert not tr.converged
    assert tr.iterations == 3
    assert len(tr.rows) == 4  # t=0 plus three iterations
    with pytest.raises(NonConvergence) as exc_info:
        learn(s + eps, ff_dirac, 1, cfg, basis=ff_basis, strict=True)
    partial_hat, partial_tr = exc_info.value.result
    assert partial_tr.iterations == 3


def test_learn_warns_at_low_snr(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=2.5, seed=3), ff_dirac, 1, 0)
    with pytest.warns(RuntimeWarning, match="snr"):
        learn(s + eps, ff_dirac, 1, FilterConfig(tau=2.0, m0=1.0), basis=ff_basis)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_learn_m_stays_in_spectral_hull(ff_dirac, ff_basis):
    lam = ff_basis.eigenvalues
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.8, seed=6), ff_dirac, 1, 0)
    cfg = FilterConfig(tau=5.0, m0=float(lam.max()))
    _, tr = learn(s + eps, ff_dirac, 1, cfg, basis=ff_basis)
    assert (tr.m_history >= lam.min() - 1e-9).all()
    assert (tr.m_history <= lam.max() + 1e-9).all()


def test_trace_export(tmp_path, ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.5, seed=1), ff_dirac, 1, 0)
    _, tr = learn(
        s + eps, ff_dirac, 1, FilterConfig(tau=7.0, m0=1.5), truth=s, basis=ff_basis
    )
    path = tmp_path / "trace.csv"
    tr.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# converged=True")
    assert lines[1] == "t,m_hat,delta_s,rel_error"
    assert len(lines) == 2 + len(tr.rows)


@pytest.mark.parametrize("with_basis", [False, True], ids=["no_basis", "ff_basis"])
def test_learn_matches_dense_reference_loop(ff_dirac, ff_basis, with_basis):
    # independent oracle: the adaptive loop written out literally with a
    # dense matrix inverse per iteration
    import numpy.linalg as la

    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.5, seed=77), ff_dirac, 1, 0)
    s_tilde = s + eps
    tau, eta, delta, m0 = 7.0, 0.3, 1e-4, 1.5

    D1 = ff_dirac.part1.toarray()
    M = D1.shape[0]
    proj = dirac_project(s_tilde, ff_dirac, 1).vector
    m_ref = m0
    for _ in range(500):
        A = np.eye(M) + tau * (D1 - m_ref * np.eye(M)) @ (D1 - m_ref * np.eye(M))
        s_hat = la.inv(A) @ proj
        m_new = (1 - eta) * m_ref + eta * (s_hat @ D1 @ s_hat) / (s_hat @ s_hat)
        done = abs(m_new - m_ref) < delta
        m_ref = m_new
        if done:
            break

    got, tr = learn(
        s_tilde, ff_dirac, 1,
        FilterConfig(tau=tau, m0=m0, eta=eta, delta=delta),
        basis=ff_basis if with_basis else None,
    )
    assert tr.converged
    assert tr.final_m == pytest.approx(m_ref, abs=1e-9)
    assert np.abs(got.vector - s_hat).max() <= 1e-9


def test_learn_measures_truth_by_its_projection(coastal_dirac, coastal):
    # a truth with a part outside im(D_1): the triangle block is never reached
    # by the filter, so delta_s is the distance to P_1 truth, not to truth
    basis = spectral_basis(coastal_dirac, 1)
    s = eigenmode_signal(basis, "smallest_positive")
    rng = np.random.default_rng(5)
    off_image = TopologicalSpinor(
        np.zeros(coastal.n0), np.zeros(coastal.n1), 0.1 * rng.standard_normal(coastal.n2)
    )
    truth = s + off_image
    s_tilde = s + sample_noise(NoiseModel(alpha=0.5, seed=9), coastal_dirac, 1, 0)
    D1 = brute_dirac(coastal)[1]
    p_truth = eigenbasis_projection(D1, truth.vector, lambda v: abs(v) > 1e-8)
    p_tilde = eigenbasis_projection(D1, s_tilde.vector, lambda v: abs(v) > 1e-8)
    cfg = FilterConfig(tau=7.0, m0=1.5)
    runs = [
        learn(s_tilde, coastal_dirac, 1, cfg, truth=truth, basis=b) for b in (None, basis)
    ]
    for s_hat, tr in runs:
        assert tr.rows[-1].delta_s == pytest.approx(
            np.linalg.norm(s_hat.vector - p_truth), abs=1e-12
        )
        assert tr.noisy_error == pytest.approx(np.linalg.norm(p_tilde - p_truth), abs=1e-12)
        assert reconstruction_error(s_hat, truth) > tr.rows[-1].delta_s + 0.5
    (_, a), (_, b) = runs
    assert [r.delta_s for r in a.rows] == [r.delta_s for r in b.rows]
    assert a.final_m == b.final_m


def _filter_cases():
    rng = np.random.default_rng(41)
    named = [(f"random{i}", random_complex(rng)) for i in range(6)]
    named += list(HARD_COMPLEXES.items())
    return [(name, K, n) for name, K in named for n in (1, 2)]


FILTER_CASES = _filter_cases()


@pytest.mark.parametrize(
    "name,K,n", FILTER_CASES, ids=[f"{name}-n{n}" for name, _, n in FILTER_CASES]
)
def test_dirac_filter_without_basis_matches_dense_solve(name, K, n):
    tau, m = 3.0, 0.7
    D = assemble_dirac(K)
    Dn = brute_dirac(K)[n]
    rng = np.random.default_rng(len(name) + n)
    x = rng.standard_normal(D.dim)
    p = eigenbasis_projection(Dn, x, lambda v: abs(v) > 1e-8)
    shifted = Dn - m * np.eye(D.dim)
    expected = np.linalg.solve(np.eye(D.dim) + tau * shifted @ shifted, p)
    out = dirac_filter(TopologicalSpinor.from_vector(K, x), D, n, tau, m)
    assert np.abs(out.vector - expected).max(initial=0.0) <= 1e-10


def test_basis_of_the_wrong_order_is_rejected(coastal_dirac):
    basis1 = spectral_basis(coastal_dirac, 1)
    s = eigenmode_signal(spectral_basis(coastal_dirac, 2), "smallest_positive")
    with pytest.raises(InvalidOrder):
        dirac_filter(s, coastal_dirac, 2, 10.0, 1.0, basis=basis1)
    with pytest.raises(InvalidOrder):
        learn(s, coastal_dirac, 2, FilterConfig(tau=10.0), basis=basis1)


def test_basis_of_another_complex_is_rejected(coastal_dirac, coastal, ff_basis):
    s = TopologicalSpinor.zeros(coastal)
    with pytest.raises(DimensionMismatch):
        dirac_filter(s, coastal_dirac, 1, 10.0, 1.0, basis=ff_basis)
    with pytest.raises(DimensionMismatch):
        learn(s, coastal_dirac, 1, FilterConfig(tau=10.0), basis=ff_basis)


# -- the batched learner against the scalar loop, draw by draw ------------------


@pytest.fixture(scope="module")
def coastal_draws(coastal_dirac):
    """(lam, C0, c_true) on the coastal complex, n = 1, gaussian-mix truth.

    Row 0 is the clean signal (alpha = 0); then four draws at alpha = 0.5
    and four at alpha = 2.5, so the rows stop at different iterations.
    """
    basis = spectral_basis(coastal_dirac, 1)
    s = gaussian_mix_signal(basis, 1.0, 0.2)
    rows = [basis.coefficients(s)]
    for alpha in (0.5, 2.5):
        model = NoiseModel(alpha=alpha, seed=11)
        rows += [basis.coefficients(s + sample_noise(model, coastal_dirac, 1, k)) for k in range(4)]
    return basis.eigenvalues[basis.nonzero_indices], np.array(rows), basis.coefficients(s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m0", [0.3, 1.5, "auto"])
@pytest.mark.parametrize("measured", [True, False], ids=["truth", "no_truth"])
def test_learn_batch_matches_the_scalar_loop(coastal_draws, m0, measured):
    lam, C0, c_true = coastal_draws
    if not measured:
        c_true = None
    config = FilterConfig(tau=2.0, m0=m0, max_iters=36)
    batch = _learn_batch(lam, C0, c_true, config)
    want = [loop_learn_coords(lam, c0, c_true, config) for c0 in C0]

    iterations = [tr.iterations for _, tr in want]
    assert batch.iterations.tolist() == iterations
    assert batch.converged.tolist() == [tr.converged for _, tr in want]
    # the rows stop at different iterations, and some hit max_iters
    assert len(set(iterations)) > 1
    assert not all(tr.converged for _, tr in want)

    for k, (c_hat, tr) in enumerate(want):
        got = batch.trace(k)
        np.testing.assert_allclose(batch.coords[k], c_hat, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.m_history, tr.m_history, rtol=1e-12, atol=0)
        assert got.final_m == batch.final_m[k]
        np.testing.assert_allclose(got.final_m, tr.final_m, rtol=1e-12, atol=0)
        assert (got.iterations, got.converged) == (tr.iterations, tr.converged)
        assert np.isnan(batch.m_hat[tr.iterations + 1 :, k]).all()
        if c_true is None:
            assert batch.delta_s is None and batch.noisy_error is None
            assert all(r.delta_s is None and r.rel_error is None for r in got.rows)
            continue
        for name in ("delta_s", "rel_error"):
            np.testing.assert_allclose(
                [getattr(r, name) for r in got.rows], [getattr(r, name) for r in tr.rows],
                rtol=1e-12, atol=0, err_msg=name,
            )
        np.testing.assert_allclose(
            [got.noisy_error, got.baseline_error], [tr.noisy_error, tr.baseline_error],
            rtol=1e-12, atol=0,
        )
    # the clean row has no noisy error to reduce
    if c_true is not None:
        assert batch.noisy_error[0] == 0.0


@pytest.mark.parametrize("m0", [1.5, "auto"])
def test_learn_batch_rows_do_not_depend_on_the_batch(coastal_draws, m0):
    # each row is the one-draw run of that row, bit for bit, whatever else
    # shares the batch and whenever the other rows stop
    lam, C0, c_true = coastal_draws
    config = FilterConfig(tau=2.0, m0=m0, max_iters=36)
    batch = _learn_batch(lam, C0, c_true, config)
    for k in range(C0.shape[0]):
        one = _learn_batch(lam, C0[k : k + 1], c_true, config)
        its = one.iterations[0]
        assert batch.iterations[k] == its
        assert np.array_equal(batch.coords[k], one.coords[0])
        assert np.array_equal(batch.m_hat[: its + 1, k], one.m_hat[:, 0])
        assert np.array_equal(batch.delta_s[: its + 1, k], one.delta_s[:, 0])
        assert batch.baseline_error[k] == one.baseline_error[0]


def test_learn_batch_rejects_a_zero_row(coastal_draws):
    lam, C0, c_true = coastal_draws
    C0 = C0.copy()
    C0[3] = 0.0
    for m0 in (1.5, "auto"):
        with pytest.raises(ZeroSignal, match="no component in im"):
            _learn_batch(lam, C0, c_true, FilterConfig(tau=2.0, m0=m0))
        with pytest.raises(ZeroSignal, match="no component in im"):
            loop_learn_coords(lam, C0[3], c_true, FilterConfig(tau=2.0, m0=m0))


def test_low_snr_means_observed_power_above_two():
    # unit truth plus noise of power alpha^2: above 2 the noise outweighs it
    C = np.array([[1.0, 0.0], [1.0, 0.99], [1.0, 1.01], [0.0, 0.0]])
    assert _low_snr(C).tolist() == [False, False, True, False]


# the certificate corpus and one complex at the benchmark's size
CERTIFIED = {
    **CERTIFICATE_CASES,
    "ngf1000-flavor1": ngf_generate(NgfParams(target_nodes=1000, flavor=1, seed=0)),
}


def _certificate_input(K, n):
    """(D, m, x): a Gaussian mixture around the median singular value m of
    B_n, plus noise of norm about 0.5 spread over all blocks, so x also has
    a part in ker D_n."""
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    noise = np.random.default_rng(11).standard_normal(K.spinor_dim)
    x = TopologicalSpinor.from_vector(K, 0.5 * noise / np.sqrt(max(K.spinor_dim, 1)))
    m = float(np.median(basis.sigma)) if basis.rank else 0.0
    if basis.rank:
        x = x + gaussian_mix_signal(basis, m, 0.5)
    return D, m, x


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(CERTIFIED))
def test_projection_and_filters_pass_their_sparse_certificates(name, n):
    D, m, x = _certificate_input(CERTIFIED[name], n)
    residuals = certificate_residuals(D, n, x, FilterConfig(tau=2.0), m)
    assert (residuals[1] is None) == (D.rank(n) == 0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(CERTIFIED))
def test_triplets_node_sums_and_harmonic_modes_pass_their_sparse_certificates(name, n):
    D, _, x = _certificate_input(CERTIFIED[name], n)
    residuals = spectral_certificates(D, n, x)
    assert (residuals[1] is None) == (n == 2)

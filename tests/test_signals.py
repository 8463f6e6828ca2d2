import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from diracsp import (
    NoiseModel,
    SignalSpec,
    TopologicalSpinor,
    assemble_dirac,
    build_complex,
    chirality_map,
    dirac_project,
    eigenmode_signal,
    gaussian_mix_signal,
    lift_signal,
    load_signal,
    sample_noise,
    save_signal,
    snr,
    spectral_basis,
)
from diracsp.datasets import coastal_flow
from diracsp.errors import (
    DegenerateSelection,
    DimensionMismatch,
    EmptyImage,
    NoSuchEigenvalue,
    ParseError,
    ZeroAfterProjection,
    ZeroNoise,
)
from diracsp.filtering import rayleigh_m
from diracsp.signals import SELECTORS, select_eigenvalue

SQ2 = np.sqrt(2.0)


def test_eigenmode_is_eigenpair(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    lam = ff_basis.eigenvalues[ff_basis.pos_indices[0]]
    assert abs(s.norm() - 1.0) <= 1e-12
    assert (ff_dirac.apply(s, 1) - lam * s).norm() <= 1e-8


def test_eigenmode_selector_by_value():
    K = build_complex([(0, 1)], node_count=2)
    D = assemble_dirac(K)
    basis = spectral_basis(D, 1)
    plus = eigenmode_signal(basis, SQ2)
    minus = eigenmode_signal(basis, -SQ2)
    flipped = chirality_map(plus, 1)
    # the -sqrt(2) mode is the chirality image of the +sqrt(2) mode, up to sign
    agreement = min((minus - flipped).norm(), (minus + flipped).norm())
    assert agreement <= 1e-10


def test_eigenmode_selector_errors(ff_basis):
    with pytest.raises(NoSuchEigenvalue):
        eigenmode_signal(ff_basis, 123456.0)
    with pytest.raises(NoSuchEigenvalue):
        eigenmode_signal(ff_basis, "sideways_positive")
    with pytest.raises(NoSuchEigenvalue):
        eigenmode_signal(ff_basis, 10_000)
    # every distance to a NaN target is NaN: unchecked, argmin picks the most negative mode
    for target in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NoSuchEigenvalue, match=re.escape(f"selector must be finite, got {target!r}")):
            eigenmode_signal(ff_basis, target)


@pytest.mark.parametrize("selector", [True, False, np.True_, None, 1j, [1], b"smallest_positive"])
def test_a_bool_or_a_non_number_selects_no_eigenvalue(selector):
    # on the path 0-1-2, eigenvalues +/-1 and +/-sqrt(3), True must not read
    # as the target +1: a selector is an integer, a name or a finite real, as
    # SignalSpec takes it, and a bool is none
    basis = spectral_basis(assemble_dirac(build_complex([(0, 1), (1, 2)])), 1)
    for select in (select_eigenvalue, eigenmode_signal):
        with pytest.raises(NoSuchEigenvalue, match=re.escape(f"got {selector!r}")):
            select(basis, selector)
    assert select_eigenvalue(basis, 1.0) == select_eigenvalue(basis, np.float32(1.0)) == select_eigenvalue(basis, np.int64(3)) == 3


def _selectors(basis):
    """Selectors of every kind: Python and numpy ints, bools, floats, names and
    None.  The indices are in range and the finite targets are eigenvalues, so
    that select_eigenvalue's own index and tolerance checks pass."""
    indices = st.integers(0, basis.eigenvalues.size - 1)
    targets = st.sampled_from(basis.eigenvalues[basis.nonzero_indices].tolist())
    floats = targets | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    return st.one_of(
        indices, indices.map(np.int64), indices.map(np.int32),
        st.booleans(), st.booleans().map(np.bool_),
        floats, floats.map(np.float64),
        st.sampled_from([*SELECTORS, "middle"]), st.none(),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_signal_spec_and_select_eigenvalue_accept_the_same_selectors(ff_basis, data):
    # SignalSpec refuses a selector with the ValueError that select_eigenvalue
    # raises as a NoSuchEigenvalue; one SignalSpec takes resolves as it is given
    selector = data.draw(_selectors(ff_basis))
    try:
        spec = SignalSpec(mode="eigen", selector=selector)
    except ValueError as exc:
        with pytest.raises(NoSuchEigenvalue) as refused:
            select_eigenvalue(ff_basis, selector)
        assert str(refused.value) == str(exc)
    else:
        assert select_eigenvalue(ff_basis, spec.selector) == select_eigenvalue(ff_basis, selector)


@pytest.mark.parametrize("complex_", ["one_link", "ff_network"])
def test_a_target_eigenvalue_matches_within_a_millionth_of_the_spectrum(complex_, request):
    # the tolerance is 1e-6 * max(max |lambda|, 1), not the degeneracy
    # tolerance: a target just inside it resolves to the nearest mode, one
    # just outside it is refused, on either side of the eigenvalue
    K = build_complex([(0, 1)], node_count=2) if complex_ == "one_link" else request.getfixturevalue(complex_)
    basis = spectral_basis(assemble_dirac(K), 1)
    lam = basis.eigenvalues[basis.pos_indices[0]]
    tol = 1e-6 * max(np.abs(basis.eigenvalues).max(), 1.0)
    for side in (-1.0, 1.0):
        assert select_eigenvalue(basis, lam + side * 0.99 * tol) == basis.pos_indices[0]
        with pytest.raises(NoSuchEigenvalue, match="within tolerance"):
            select_eigenvalue(basis, lam + side * 1.01 * tol)


def test_gaussian_mix_rejects_non_finite_lambda_bar(ff_basis):
    for lambda_bar in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda_bar must be finite"):
            gaussian_mix_signal(ff_basis, lambda_bar, 0.2)


def test_gaussian_mix_rejects_non_finite_or_non_positive_sigma_hat(ff_basis):
    for sigma_hat in (float("nan"), float("inf"), 0.0, -0.2):
        with pytest.raises(ValueError, match="sigma_hat must be finite and > 0"):
            gaussian_mix_signal(ff_basis, 1.0, sigma_hat)


def test_degenerate_selection_rejected(filled_triangle):
    D = assemble_dirac(filled_triangle)
    basis = spectral_basis(D, 1)
    with pytest.raises(DegenerateSelection):
        eigenmode_signal(basis, "smallest_positive")


def test_gaussian_mix_unit_norm(ff_basis):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    assert abs(s.norm() - 1.0) <= 1e-12


def test_gaussian_mix_rayleigh_in_hull(ff_dirac, ff_basis):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    r = rayleigh_m(s, ff_dirac, 1)
    lam = ff_basis.eigenvalues[ff_basis.nonzero_indices]
    assert lam.min() <= r <= lam.max()
    # oracle: the quotient is the c^2-weighted average of the eigenvalues
    d2 = (lam - 1.0) ** 2
    w = np.exp(-(d2 - d2.min()) / (2 * 0.2))
    w /= np.linalg.norm(w)
    assert abs(r - (lam * w**2).sum()) <= 1e-8


def test_gaussian_mix_sharp_limit(ff_basis):
    lam = ff_basis.eigenvalues[ff_basis.pos_indices[2]]
    s = gaussian_mix_signal(ff_basis, lam, 1e-6)
    mode = eigenmode_signal(ff_basis, float(lam))
    assert min((s - mode).norm(), (s + mode).norm()) <= 1e-6


def test_gaussian_mix_variance_convention(ff_basis):
    lin = gaussian_mix_signal(ff_basis, 1.0, 0.2, variance_convention="linear")
    sq = gaussian_mix_signal(ff_basis, 1.0, 0.2, variance_convention="squared")
    # sigma=0.2: squared convention divides by 0.08 instead of 0.4, so the
    # mixture concentrates harder and the two signals must differ
    assert (lin - sq).norm() > 1e-3
    with pytest.raises(ValueError):
        gaussian_mix_signal(ff_basis, 1.0, 0.2, variance_convention="cubed")
    with pytest.raises(ValueError):
        gaussian_mix_signal(ff_basis, 1.0, -0.1)


def test_signals_live_in_image(ff_dirac, ff_basis):
    for s in (
        eigenmode_signal(ff_basis, "smallest_positive"),
        gaussian_mix_signal(ff_basis, 1.0, 0.2),
    ):
        assert (dirac_project(s, ff_dirac, 1) - s).norm() <= 1e-8


def test_lift_spreads_support(coastal, coastal_dirac):
    sigma = coastal_flow(coastal)
    assert np.abs(sigma.s0).max() == 0.0 and np.abs(sigma.s2).max() == 0.0
    s1 = lift_signal(sigma, coastal_dirac, 1)
    s2 = lift_signal(sigma, coastal_dirac, 2)
    for s, n in ((s1, 1), (s2, 2)):
        assert abs(s.norm() - 1.0) <= 1e-12
        assert (dirac_project(s, coastal_dirac, n) - s).norm() <= 1e-8
    # n=1 spreads onto nodes, n=2 onto triangles
    assert np.abs(s1.s0).max() > 1e-6
    assert np.abs(s2.s2).max() > 1e-6


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000))
def test_lift_of_a_power_of_two_multiple_is_the_same_bits(coastal, coastal_dirac, k):
    # the flow's entries are multiples of 1/8 up to 1.375, so 2**k * flow is exact
    sigma = coastal_flow(coastal)
    s = lift_signal(sigma * 2.0**k, coastal_dirac, 1)
    ref = lift_signal(sigma, coastal_dirac, 1)
    assert s.vector.tobytes() == ref.vector.tobytes()


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 2.0**-565, 2.0**1000])
def test_norms_and_quotients_hold_at_any_finite_scale(coastal, coastal_dirac, scale):
    sigma = coastal_flow(coastal)
    s = lift_signal(sigma * scale, coastal_dirac, 1)
    assert abs(s.norm() - 1.0) <= 1e-12
    assert np.abs(s.vector - lift_signal(sigma, coastal_dirac, 1).vector).max() <= 1e-14
    assert abs((sigma * scale).norm() / scale - sigma.norm()) <= 1e-12 * sigma.norm()
    m = rayleigh_m(s, coastal_dirac, 1)
    assert abs(rayleigh_m(s * scale, coastal_dirac, 1) - m) <= 1e-12 * max(abs(m), 1.0)
    assert snr(s * scale, s * (2.0 * scale)) == pytest.approx(0.25, rel=1e-12)


def test_in_range_spinors_keep_their_arithmetic(coastal):
    # between 2**-500 and 2**500 the norm is sqrt(s . s) as it always was
    sigma = coastal_flow(coastal)
    for scale in (2.0**-500, 1.0, 2.0**499):  # the largest entry is 1.375
        s = sigma * scale
        same, e = s._in_range()
        assert same is s and e == 0
        assert s.norm() == float(np.sqrt(s.dot(s)))
    assert TopologicalSpinor.zeros(coastal)._in_range()[1] == 0
    assert (sigma * 2.0**600)._in_range()[1] == 601


def test_lift_harmonic_source_fails(ff_dirac, ff_network):
    const = TopologicalSpinor(np.ones(15), np.zeros(20), np.zeros(0))
    with pytest.raises(ZeroAfterProjection):
        lift_signal(const, ff_dirac, 1)
    with pytest.raises(ZeroAfterProjection):
        lift_signal(TopologicalSpinor.zeros(ff_network), ff_dirac, 1)


def test_noise_is_deterministic(ff_dirac):
    model = NoiseModel(alpha=0.6, seed=123)
    a = sample_noise(model, ff_dirac, 1, 5)
    b = sample_noise(model, ff_dirac, 1, 5)
    assert np.array_equal(a.vector, b.vector)
    c = sample_noise(model, ff_dirac, 1, 6)
    assert not np.array_equal(a.vector, c.vector)


def test_noise_model_rejects_bad_amplitudes():
    for value in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=f"alpha must be finite and >= 0, got {value!r}"):
            NoiseModel(alpha=value, seed=1)
    NoiseModel(alpha=0.0, seed=1)


@pytest.mark.parametrize("value", (True, "1", None))
def test_noise_model_and_signal_spec_reject_non_numbers_by_name(value):
    for name, make in (
        ("alpha", lambda: NoiseModel(alpha=value, seed=1)),
        ("lambda_bar", lambda: SignalSpec(mode="gaussian_mix", lambda_bar=value)),
        ("sigma_hat", lambda: SignalSpec(mode="gaussian_mix", sigma_hat=value)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
            make()


def test_noise_model_rejects_a_seed_that_is_not_an_integer():
    # rng_stream would read 1.5 and True as seed 1
    for seed in (1.5, True, None):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            NoiseModel(alpha=0.5, seed=seed)


def test_noise_model_rejects_a_negative_seed():
    # numpy's SeedSequence would refuse it only at the first draw, naming no field
    for seed in (-1, -3):
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0")):
            NoiseModel(alpha=0.5, seed=seed)
    NoiseModel(alpha=0.5, seed=0)


def test_signal_spec_checks_gaussian_parameters_in_any_mode():
    for mode in ("gaussian_mix", "eigen"):
        for kw, match in (
            ({"sigma_hat": -1.0}, "sigma_hat must be finite and > 0, got -1.0"),
            ({"lambda_bar": float("nan")}, "lambda_bar must be finite, got nan"),
            ({"variance_convention": "cubed"}, "variance_convention must be one of linear, squared, got 'cubed'"),
        ):
            with pytest.raises(ValueError, match=re.escape(match)):
                SignalSpec(mode=mode, **kw)


def test_noise_is_orthogonal_to_kernel(ff_dirac):
    model = NoiseModel(alpha=0.6, seed=9)
    eps = sample_noise(model, ff_dirac, 1, 0)
    assert (dirac_project(eps, ff_dirac, 1) - eps).norm() <= 1e-8


def test_noise_requires_image(ff_dirac):
    with pytest.raises(EmptyImage):
        sample_noise(NoiseModel(alpha=1.0, seed=1), ff_dirac, 2, 0)


def test_noise_calibration(ff_dirac):
    # mean ||eps||^2 over many draws approaches alpha^2
    model = NoiseModel(alpha=0.6, seed=77)
    sq = [sample_noise(model, ff_dirac, 1, k).norm() ** 2 for k in range(2000)]
    assert abs(np.mean(sq) - 0.36) <= 0.05 * 0.36


def test_noise_draws_uncorrelated(ff_dirac):
    model = NoiseModel(alpha=1.0, seed=31)
    draws = np.array(
        [sample_noise(model, ff_dirac, 1, k).vector for k in range(400)]
    )
    # successive draws: rank correlation per coordinate should be ~0
    rho = stats.spearmanr(draws[:-1].ravel(), draws[1:].ravel()).statistic
    assert abs(rho) < 0.05


def test_snr_basics(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    eps = sample_noise(NoiseModel(alpha=0.6, seed=5), ff_dirac, 1, 0)
    assert snr(s, eps) > 0
    assert snr(s, s) == pytest.approx(1.0)
    with pytest.raises(ZeroNoise):
        snr(s, TopologicalSpinor.zeros(ff_dirac.K))


def test_snr_expectation(ff_dirac, ff_basis):
    s = eigenmode_signal(ff_basis, "smallest_positive")
    model = NoiseModel(alpha=0.6, seed=13)
    vals = [snr(s, sample_noise(model, ff_dirac, 1, k)) for k in range(2000)]
    assert np.mean(vals) == pytest.approx(1 / 0.36, rel=0.1)


def test_signal_roundtrip(tmp_path, ff_basis, ff_network):
    s = gaussian_mix_signal(ff_basis, 1.0, 0.2)
    path = tmp_path / "sig.csv"
    save_signal(s, path)
    back = load_signal(path, ff_network)
    assert np.array_equal(back.vector, s.vector)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_signal_load_rejects_non_finite_values(tmp_path, ff_network, value):
    path = tmp_path / "sig.csv"
    path.write_text(f"block,index,value\nlink,0,1.0\nlink,1,{value}\n")
    with pytest.raises(ParseError, match=rf"sig.csv:3: value '{value}' is not finite"):
        load_signal(path, ff_network)


def test_signal_load_rejects_a_repeated_entry(tmp_path, ff_network):
    path = tmp_path / "sig.csv"
    path.write_text("block,index,value\nlink,0,1.0\nnode,0,2.0\nlink,0,5.0\n")
    with pytest.raises(ParseError, match=r"sig.csv:4: link 0 was already given on line 2"):
        load_signal(path, ff_network)


def test_signal_load_errors_name_the_line_of_the_file(tmp_path, coastal):
    # comment lines count toward the line numbers
    path = tmp_path / "cm.csv"
    path.write_text("block,index,value\n# note\nlink,0,1.0\nlink,99999,5.0\n")
    with pytest.raises(DimensionMismatch, match=r"cm.csv:4: link index 99999 outside complex"):
        load_signal(path, coastal)
    path.write_text("# note\nblock,index,value\nlink,0,1.0\n# note\nlink,0,5.0\n")
    with pytest.raises(ParseError, match=r"cm.csv:5: link 0 was already given on line 3"):
        load_signal(path, coastal)


def test_signal_load_rejects_bad_index(tmp_path, ff_network):
    path = tmp_path / "sig.csv"
    path.write_text("block,index,value\nlink,999,1.0\n")
    with pytest.raises(DimensionMismatch):
        load_signal(path, ff_network)

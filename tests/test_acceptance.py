"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) after all its assertions hold.  Criteria with runtime
budgets assert the measured wall time of their checks as well.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
import warnings

import numpy as np
import pytest

from diracsp import (
    ExperimentPlan,
    NgfParams,
    NoiseModel,
    SignalSpec,
    assemble_dirac,
    betti_numbers,
    boundary_matrix,
    dirac_filter,
    eigenmode_signal,
    hodge_filter,
    ngf_generate,
    sample_noise,
    snr,
    spectral_basis,
)
from diracsp.datasets import coastal_tessellation, dataset_path, florentine_marriage
from diracsp.harness import (
    cmd_basin,
    cmd_bench,
    cmd_heatmap,
    cmd_learn,
    cmd_sweep_m,
    read_csv,
)
from diracsp.operators import dirac_project

from oracles import exact_rank

FF_PATH = dataset_path("florentine_marriage.json")
FF_LAMBDA_MIN = 0.5881523311806464  # smallest positive eigenvalue of D_1 on the marriage network


def report(num, name, **stats):
    detail = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in stats.items())
    print(f"\n[criterion {num:02d}] PASS {name}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    """50 random NGF complexes (20..200 nodes) plus the two bundled fixtures."""
    rng = np.random.default_rng(20250810)
    complexes = [florentine_marriage(), coastal_tessellation()]
    for i in range(50):
        nodes = int(rng.integers(20, 201))
        complexes.append(
            ngf_generate(NgfParams(target_nodes=nodes, flavor=-1, beta=0.0, seed=1000 + i))
        )
    return complexes


def test_criterion_01_operator_identities(corpus):
    t0 = time.perf_counter()
    worst_sq, worst_anti = 0.0, 0.0
    for K in corpus:
        D = assemble_dirac(K)
        dd = D.full.toarray()
        sq_err = np.abs(dd @ dd - D.super_laplacian.toarray()).max()
        worst_sq = max(worst_sq, sq_err)
        assert sq_err <= 1e-10
        B1, B2 = boundary_matrix(K, 1), boundary_matrix(K, 2)
        assert np.count_nonzero((B1 @ B2).toarray()) == 0
        n0, n1, n2 = K.counts
        g1 = np.diag(np.concatenate([np.ones(n0), -np.ones(n1), np.zeros(n2)]))
        g2 = np.diag(np.concatenate([np.zeros(n0), np.ones(n1), -np.ones(n2)]))
        for n, g in ((1, g1), (2, g2)):
            Dn = D.part(n).toarray()
            anti = np.abs(Dn @ g + g @ Dn).max()
            worst_anti = max(worst_anti, anti)
            assert anti <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(1, "operator identities", complexes=len(corpus),
           worst_square_err=worst_sq, worst_anticommute=worst_anti, seconds=elapsed)


def test_criterion_02_kernel_dimension(corpus):
    checked_exact = 0
    for K in corpus:
        D = assemble_dirac(K)
        vals = np.linalg.eigvalsh(D.full.toarray())
        near_zero = int(np.count_nonzero(np.abs(vals) <= 1e-8))
        betti = betti_numbers(K)
        assert near_zero == sum(betti), f"kernel {near_zero} != betti sum {sum(betti)}"
        if K.spinor_dim <= 200:
            B1, B2 = boundary_matrix(K, 1), boundary_matrix(K, 2)
            r1, r2 = exact_rank(B1), exact_rank(B2)
            assert betti == (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)
            checked_exact += 1
    # the 35-simplex marriage network always qualifies, plus every NGF draw
    # small enough to stay under 200 simplices (10 instances at this seed)
    assert checked_exact >= 2
    report(2, "kernel dimension = betti sum", complexes=len(corpus),
           exact_rank_checked=checked_exact)


def test_criterion_03_spectrum_relation(corpus):
    from diracsp import hodge_laplacian

    worst = 0.0
    for K in corpus:
        D = assemble_dirac(K)
        for n in (1, 2):
            B = D.boundary(n).toarray()
            l, r = B.shape
            if min(l, r) == 0:
                continue
            R = np.zeros((l + r, l + r))
            R[:l, l:] = B
            R[l:, :l] = B.T
            dn = np.linalg.eigvalsh(R)
            dn = np.sort(dn[np.abs(dn) > 1e-8])
            mu = np.linalg.eigvalsh(hodge_laplacian(K, n - 1, "up").toarray())
            mu = mu[mu > 1e-8]
            expected = np.sort(np.concatenate([-np.sqrt(mu), np.sqrt(mu)]))
            assert dn.size == expected.size
            if dn.size:
                worst = max(worst, float(np.abs(dn - expected).max()))
                assert np.allclose(dn, expected, atol=1e-8)
    report(3, "Dirac spectrum = +/- sqrt(up-Laplacian spectrum)", worst_gap=worst)


def test_criterion_04_filter_diagonal_form():
    tau, m = 10.0, 0.5
    worst_att, worst_hodge = 0.0, 0.0
    for K in (florentine_marriage(), coastal_tessellation()):
        D = assemble_dirac(K)
        rng = np.random.default_rng(4)
        for n in (1, 2):
            basis = spectral_basis(D, n)
            if basis.nonharmonic_dim == 0:
                continue
            for i in basis.nonzero_indices:
                lam = basis.eigenvalues[i]
                phi = basis.spinor(i)
                out = dirac_filter(phi, D, n, tau, m)
                expected = phi / (1.0 + tau * (lam - m) ** 2)
                gap = (out - expected).norm()
                worst_att = max(worst_att, gap)
                assert gap <= 1e-8
            # m = 0 agrees with the Hodge filter on im(D_n)
            from diracsp import TopologicalSpinor

            s = TopologicalSpinor.from_vector(K, rng.standard_normal(D.dim))
            p = dirac_project(s, D, n)
            gap = (dirac_filter(p, D, n, tau, 0.0) - hodge_filter(p, D, tau)).norm()
            worst_hodge = max(worst_hodge, gap)
            assert gap <= 1e-8
    report(4, "filter diagonal form", worst_attenuation_gap=worst_att,
           worst_hodge_gap=worst_hodge)


def test_criterion_05_m_sweep_dip(tmp_path):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        dataset={"kind": "file", "path": FF_PATH},
        signal=SignalSpec(mode="eigen", n=1, selector="smallest_positive"),
        alphas=(0.6,),
        taus=(10.0,),
        ms=tuple(round(x, 2) for x in np.arange(0.0, 3.001, 0.05)),
        seeds=150,
        seed=2025,
    )
    out = cmd_sweep_m(plan, tmp_path / "sweep_m.csv")
    rel = {float(r[2]): float(r[3]) for r in read_csv(out)[1]}
    best_m = min(rel, key=rel.get)
    elapsed = time.perf_counter() - t0
    assert abs(best_m - FF_LAMBDA_MIN) <= 0.1
    assert rel[best_m] < 0.7
    assert elapsed < 120.0
    report(5, "m-sweep dip at true eigenvalue", argmin_m=best_m,
           lambda_true=FF_LAMBDA_MIN, min_ratio=rel[best_m], seconds=elapsed)


def _learn_summary(plan, out_dir, out_name):
    out = cmd_learn(plan, out_dir / f"{out_name}.csv")
    rows = read_csv(out.with_name(f"{out_name}.summary.csv"))[1]
    m_final = np.array([float(r[6]) for r in rows])
    m_true = float(rows[0][7])
    rel = np.array([float(r[9]) for r in rows])
    red = np.array([float(r[11]) for r in rows])
    return m_final, m_true, rel, red


def test_criterion_06_learning_convergence(tmp_path):
    t0 = time.perf_counter()
    seeds = 60

    def plan_for(signal, tau, m0):
        return ExperimentPlan(
            dataset={"kind": "file", "path": FF_PATH},
            signal=signal,
            alphas=(0.5,), taus=(tau,), m0s=(m0,),
            eta=0.3, delta=1e-4, seeds=seeds, seed=606,
        )

    # pure eigenmodes at the reference parameters (tau=7; m0=1.5 and 3)
    stats = {}
    for name, sel, m0 in (("smallest", "smallest_positive", 1.5),
                          ("largest", "largest_positive", 3.0)):
        spec = SignalSpec(mode="eigen", n=1, selector=sel)
        m_final, m_true, rel, red = _learn_summary(plan_for(spec, 7.0, m0), tmp_path, f"acc6_{name}")
        assert np.abs(m_final - m_true).mean() < 0.15
        assert rel.mean() < 0.8
        assert red.mean() >= 0.5
        stats[name] = (float(np.abs(m_final - m_true).mean()), float(rel.mean()), float(red.mean()))

    # Gaussian mixture at its reference parameters (tau=2, m0=3); the squared
    # variance reading reaches the reduction target robustly, the literal one
    # plateaus near the threshold (see the variance-convention flag).
    spec = SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2,
                      variance_convention="squared")
    _, _, rel_g, red_g = _learn_summary(plan_for(spec, 2.0, 3.0), tmp_path, "acc6_gauss")
    assert red_g.mean() >= 0.4

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(6, "learning convergence", seeds=seeds,
           smallest_abs_dm=stats["smallest"][0], smallest_reduction=stats["smallest"][2],
           largest_reduction=stats["largest"][2], gaussian_reduction=float(red_g.mean()),
           seconds=elapsed)


def test_criterion_07_noise_calibration():
    draws = 10_000
    cases = [
        (florentine_marriage(), 1),
        (coastal_tessellation(), 1),
        (coastal_tessellation(), 2),
    ]
    worst_sq, worst_snr = 0.0, 0.0
    for K, n in cases:
        D = assemble_dirac(K)
        basis = spectral_basis(D, n)
        s = eigenmode_signal(basis, "smallest_positive")
        for alpha in (0.5, 0.6, 1.0):
            model = NoiseModel(alpha=alpha, seed=700 + n)
            sq = np.empty(draws)
            ratios = np.empty(draws)
            for k in range(draws):
                eps = sample_noise(model, D, n, k)
                sq[k] = eps.norm() ** 2
                ratios[k] = snr(s, eps)
            sq_dev = abs(sq.mean() - alpha**2) / alpha**2
            snr_dev = abs(ratios.mean() - 1.0 / alpha**2) * alpha**2
            worst_sq, worst_snr = max(worst_sq, sq_dev), max(worst_snr, snr_dev)
            assert sq_dev <= 0.05
            assert snr_dev <= 0.10
    report(7, "noise calibration", draws=draws, worst_power_dev=worst_sq,
           worst_snr_dev=worst_snr)


def test_criterion_08_heatmap_regime(tmp_path):
    t0 = time.perf_counter()
    taus = (0.5, 1.0, 2.0, 5.0, 10.0)  # preset grid; 10 is the largest
    alphas = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5)
    presets = []
    for n in (1, 2):
        presets += [
            (f"n{n}-smallest", SignalSpec(mode="eigen", n=n, selector="smallest_positive"), 1.0),
            (f"n{n}-largest", SignalSpec(mode="eigen", n=n, selector="largest_positive"), 3.0),
            (f"n{n}-gaussian", SignalSpec(mode="gaussian_mix", n=n, lambda_bar=1.0,
                                          sigma_hat=0.2, variance_convention="squared"), 2.0),
        ]
    worst = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, spec, m0 in presets:
            plan = ExperimentPlan(
                dataset={"kind": "ngf", "target_nodes": 50, "flavor": -1, "beta": 0.0, "seed": 0},
                signal=spec,
                alphas=alphas, taus=taus, m0s=(m0,),
                eta=0.3, delta=1e-4, seeds=10, seed=808,
            )
            out = cmd_heatmap(plan, tmp_path / f"acc8_{name}.csv")
            rows = read_csv(out)[1]
            cells = [
                float(r[2])
                for r in rows
                if float(r[0]) == 10.0 and float(r[1]) <= 0.7
            ]
            worst[name] = max(cells)
            assert worst[name] <= 0.35, f"{name}: worst large-tau cell {worst[name]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, "heatmap large-tau regime", worst_cell=max(worst.values()),
           presets=len(presets), seconds=elapsed)


def test_criterion_09_basin_ordering(tmp_path):
    plan = ExperimentPlan(
        dataset={"kind": "ngf", "target_nodes": 50, "flavor": -1, "beta": 0.0, "seed": 0},
        signal=SignalSpec(mode="eigen", n=1, selector="smallest_positive"),
        alphas=(0.6, 1.5),
        taus=(2.0, 7.0),
        m0s=tuple(np.round(np.arange(0.0, 3.01, 0.25), 2)),
        eta=0.3, delta=1e-4, seeds=20, seed=909,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = cmd_basin(plan, tmp_path / "basin.csv")
    rows = read_csv(out)[1]
    min_gap = np.inf
    for tau in plan.taus:
        low = np.array([float(r[4]) for r in rows if float(r[0]) == tau and float(r[1]) == 0.6])
        high = np.array([float(r[4]) for r in rows if float(r[0]) == tau and float(r[1]) == 1.5])
        assert low.size == high.size == len(plan.m0s)
        gaps = high - low
        min_gap = min(min_gap, float(gaps.min()))
        assert (gaps >= 0.0).all(), f"tau={tau}: alpha=0.6 curve not below alpha=1.5"
    report(9, "basin ordering (low alpha below high alpha)", min_gap=min_gap)


def test_criterion_10_scaling_benchmark(tmp_path):
    plan = ExperimentPlan(
        dataset={"kind": "ngf", "flavor": -1, "beta": 0.0},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
        alphas=(0.5,), taus=(2.0,), m0s=("auto",),
        sizes=(68, 134, 267, 534, 1068),  # N+L from ~200 to ~3200
        runs=2, seed=101,
    )
    out, exponent, stderr = cmd_bench(plan, tmp_path / "bench.csv")
    rows = read_csv(out)[1]
    per_run = [float(r[3]) for r in rows]
    assert max(per_run) < 120.0  # each run under two minutes
    assert 2.0 <= exponent <= 3.5
    report(10, "runtime scaling", exponent=exponent, stderr=stderr,
           largest_mean_seconds=max(per_run))


def test_criterion_11_determinism(tmp_path):
    sweep_plan = ExperimentPlan(
        dataset={"kind": "file", "path": FF_PATH},
        signal=SignalSpec(mode="eigen", n=1, selector="smallest_positive"),
        alphas=(0.6,), taus=(10.0,), ms=(0.0, 0.5, 1.0), seeds=5, seed=111,
    )
    a = cmd_sweep_m(sweep_plan, tmp_path / "a.csv").read_bytes()
    b = cmd_sweep_m(sweep_plan, tmp_path / "b.csv").read_bytes()
    assert a == b

    learn_plan = ExperimentPlan(
        dataset={"kind": "ngf", "target_nodes": 30, "flavor": -1, "beta": 0.0, "seed": 2},
        signal=SignalSpec(mode="eigen", n=2, selector="smallest_positive"),
        alphas=(0.5,), taus=(7.0,), m0s=("auto",), seeds=5, seed=112,
    )
    c = cmd_learn(learn_plan, tmp_path / "c.csv").read_bytes()
    d = cmd_learn(learn_plan, tmp_path / "d.csv").read_bytes()
    assert c == d

    # bench rows are deterministic except for the wall-time columns
    bench_plan = ExperimentPlan(
        dataset={"kind": "ngf", "flavor": -1, "beta": 0.0},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
        alphas=(0.5,), taus=(2.0,), m0s=("auto",),
        sizes=(20, 40), runs=1, seed=113,
    )
    e = read_csv(cmd_bench(bench_plan, tmp_path / "e.csv")[0])[1]
    f = read_csv(cmd_bench(bench_plan, tmp_path / "f.csv")[0])[1]
    assert [r[:3] for r in e] == [r[:3] for r in f]
    report(11, "byte-identical reruns", files_compared=3)

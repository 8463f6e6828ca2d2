import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import (
    ExperimentPlan,
    FilterConfig,
    NgfParams,
    SignalSpec,
    TopologicalSpinor,
    assemble_dirac,
    betti_numbers,
    complexes,
    gaussian_mix_signal,
    harness,
    learn,
    ngf_generate,
    operators,
    signals,
    spectral_basis,
)
from diracsp.datasets import coastal_tessellation, dataset_path
from diracsp.errors import EmptyImage, ParseError
from diracsp.harness import (
    _Setup,
    _draw_coords,
    _mean_std,
    _noise,
    _prepare,
    cmd_basin,
    cmd_bench,
    cmd_heatmap,
    cmd_learn,
    cmd_sweep_m,
    load_plan,
    make_signal,
    plan_from_dict,
    read_csv,
    resolve_dataset,
)

from conftest import HARD_COMPLEXES
from oracles import fmt_cell, loop_learn_rows, loop_learn_traces, loop_sweep_errors, loop_sweep_rows

FF = dataset_path("florentine_marriage.json")
COASTAL = dataset_path("coastal_tessellation.json")
FLOW = dataset_path("coastal_tessellation_flow.csv")


def ff_plan(**kw):
    base = dict(
        dataset={"kind": "file", "path": FF},
        signal=SignalSpec(mode="eigen", n=1, selector="smallest_positive"),
        alphas=(0.6,),
        taus=(10.0,),
        seeds=5,
        seed=42,
    )
    base.update(kw)
    return ExperimentPlan(**base)


def data_rows(path):
    return read_csv(path)[1]


def test_resolve_dataset_kinds():
    K = resolve_dataset(ff_plan())
    assert K.counts == (15, 20, 0)
    K2 = resolve_dataset(ff_plan(dataset={"kind": "ngf", "target_nodes": 12, "seed": 3}))
    assert K2.counts == (12, 21, 10)
    with pytest.raises(ParseError):
        resolve_dataset(ff_plan(dataset={"kind": "nope"}))


def test_commands_never_build_a_block_matrix(tmp_path, monkeypatch):
    def refuse(Dop, n):
        raise AssertionError(f"the block matrix of D_{n} was built")

    monkeypatch.setattr(operators, "_block_matrix", refuse)
    coastal = {"kind": "file", "path": COASTAL}
    # the gaussian signal's m_true is a Rayleigh quotient, so it goes through apply
    cmd_learn(
        ExperimentPlan(
            dataset=coastal,
            signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
            alphas=(0.5,), taus=(7.0,), m0s=(2.0,), seeds=2, seed=3,
        ),
        tmp_path / "learn.csv",
    )
    cmd_sweep_m(
        ExperimentPlan(
            dataset=coastal,
            signal=SignalSpec(mode="eigen", n=2, selector="largest_positive"),
            ms=(0.5, 1.0), seeds=2, seed=3,
        ),
        tmp_path / "sweep.csv",
    )
    D = assemble_dirac(resolve_dataset(ff_plan(dataset=coastal)))
    basis = spectral_basis(D, 1)
    s = gaussian_mix_signal(basis, 1.0, 0.2)
    learn(s, D, 1, FilterConfig(tau=7.0), truth=s, basis=basis)
    assert not {"full", "part1", "part2"} & D.__dict__.keys()


def test_a_grid_run_builds_the_boundary_matrix_of_its_order_only(tmp_path, monkeypatch):
    # D_n acts through B_n and its transpose alone, so an n = 1 learn never
    # builds B2 and an n = 2 sweep-m never builds B1
    built = []
    signed_incidence = complexes.signed_incidence
    monkeypatch.setattr(complexes, "signed_incidence", lambda K, n: built.append(n) or signed_incidence(K, n))
    ngf = tmp_path / "ngf.json"
    ngf_generate(NgfParams(target_nodes=60, seed=0)).save(ngf)
    cmd_learn(
        ExperimentPlan(
            dataset={"kind": "file", "path": str(ngf)},
            signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
            alphas=(0.5,), taus=(7.0,), m0s=(2.0,), seeds=2, seed=3,
        ),
        tmp_path / "learn.csv",
    )
    assert built == [1]
    built.clear()
    cmd_sweep_m(
        ExperimentPlan(
            dataset={"kind": "file", "path": COASTAL},
            signal=SignalSpec(mode="eigen", n=2, selector="smallest_positive"),
            alphas=(0.6,), taus=(10.0,), ms=(0.5, 1.0), seeds=2, seed=3,
        ),
        tmp_path / "sweep.csv",
    )
    assert built == [2]


def test_resolve_dataset_rejects_non_integer_counts_and_bad_beta():
    good = {"kind": "ngf", "target_nodes": 12, "flavor": 0, "beta": 0.5, "seed": 3}
    bad = [
        ({"target_nodes": 30.9}, "target_nodes must be an integer, got 30.9"),
        ({"target_nodes": True}, "target_nodes must be an integer, got True"),
        ({"flavor": 0.5}, "flavor must be an integer, got 0.5"),
        ({"seed": 3.0}, "seed must be an integer, got 3.0"),
        ({"beta": float("nan")}, "beta must be finite and >= 0, got nan"),
        ({"beta": float("inf")}, "beta must be finite and >= 0, got inf"),
        ({"flavor": 2}, "flavor must be one of -1, 0, 1, got 2"),
    ]
    for kw, match in bad:
        with pytest.raises(ParseError, match=f"malformed dataset: {match}"):
            resolve_dataset(ff_plan(dataset={**good, **kw}))
    # without its own seed the dataset takes the plan's
    no_seed = {k: v for k, v in good.items() if k != "seed"}
    assert resolve_dataset(ff_plan(dataset=no_seed, seed=3)).to_dict() == resolve_dataset(
        ff_plan(dataset=good)
    ).to_dict()


def _rows_from_errors(ms, errors):
    """sweep-m's rows, aggregated from per-draw errors the way cmd_sweep_m does."""
    rows = []
    for (tau, alpha), errs in errors.items():
        base = errs[:, ms.index(0.0)]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(base[:, None] > 0, errs / base[:, None], 1.0)
        for j, m in enumerate(ms):
            rows.append([tau, alpha, m, *_mean_std(rel[:, j]), *_mean_std(errs[:, j])])
    return np.array(rows)


SWEEP_CASES = {
    "coastal-n1": dict(
        dataset={"kind": "file", "path": COASTAL},
        signal=SignalSpec(mode="eigen", n=1, selector="smallest_positive"),
        alphas=(0.6,), taus=(10.0,),
    ),
    "coastal-n2": dict(
        dataset={"kind": "file", "path": COASTAL},
        signal=SignalSpec(mode="eigen", n=2, selector="largest_positive"),
        alphas=(0.3,), taus=(2.0,),
    ),
    # flavor 0: links bound three or more triangles
    "ngf300-flavor0": dict(
        dataset={"kind": "ngf", "target_nodes": 300, "flavor": 0, "seed": 5},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
        alphas=(0.5,), taus=(7.0,),
    ),
    "ff-n1": dict(alphas=(0.0, 0.6), taus=(0.0, 10.0)),
    # the lifted truth has a roundoff-level part outside im(D_n)
    "coastal-lifted-n2": dict(
        dataset={"kind": "file", "path": COASTAL},
        signal=SignalSpec(mode="lifted", n=2, source=FLOW),
        alphas=(0.6,), taus=(1.5,),
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_m_matches_the_per_draw_filter_loop(case, tmp_path):
    plan = ff_plan(ms=(0.0, 0.3, 0.6, 1.0, 1.7, 2.5, 4.0), seeds=4, **SWEEP_CASES[case])
    got = np.array(data_rows(cmd_sweep_m(plan, tmp_path / "s.csv")), dtype=float)
    want = _rows_from_errors(*loop_sweep_errors(plan))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    if case == "coastal-lifted-n2":
        setup = _prepare(plan)
        c_true = setup.basis.coefficients(setup.s_true)
        rest = (setup.s_true - setup.basis.synthesize(c_true)).norm()
        assert 0.0 < rest < 1e-10


@pytest.mark.parametrize("ms", [(0.0, 0.3, 0.6, 1.0, 1.7, 2.5, 4.0), (0.45, 1.2, 3.0)])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_m_rows_are_those_of_the_per_m_loop(case, ms, tmp_path):
    # as strings: the grid at once rounds every row as the loop over m did
    plan = ff_plan(ms=ms, seeds=6, **SWEEP_CASES[case])
    assert data_rows(cmd_sweep_m(plan, tmp_path / "s.csv")) == loop_sweep_rows(plan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_m_edge_cells(tmp_path):
    plan = ff_plan(alphas=(0.0, 0.6), taus=(0.0, 10.0), ms=(0.5, 1.5), seeds=1)
    rows = data_rows(cmd_sweep_m(plan, tmp_path / "s.csv"))
    assert rows == loop_sweep_rows(plan)
    # one draw: both standard deviations are exactly zero
    assert {r[4] for r in rows} == {r[6] for r in rows} == {"0.0"}
    # tau = 0 and alpha = 0: the baseline error is zero, and rel_error reads one
    clean = [r for r in rows if r[:2] == ["0.0", "0.0"]]
    assert len(clean) == 3
    assert all(r[3] == "1.0" and r[5] == "0.0" for r in clean)


LEARN_CASES = {
    "coastal-n1-gaussian": dict(
        dataset={"kind": "file", "path": COASTAL},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
    ),
    "ff-n1": dict(),
    "ngf300-flavor0-n2": dict(
        dataset={"kind": "ngf", "target_nodes": 300, "flavor": 0, "seed": 5},
        signal=SignalSpec(mode="eigen", n=2, selector="largest_positive"),
    ),
}
# Columns that are counts, flags or plan values must match exactly.
EXACT_COLUMNS = {"tau", "alpha", "m0", "draw", "t", "converged", "iterations"}


def _assert_rows(path, want):
    header, got = read_csv(path)
    assert len(got) == len(want)
    for name, got_col, want_col in zip(header, zip(*got), zip(*want)):
        if name in EXACT_COLUMNS:
            assert list(got_col) == [fmt_cell(x) for x in want_col], name
        else:
            np.testing.assert_allclose(
                np.array(got_col, dtype=float), np.array(want_col, dtype=float),
                rtol=1e-12, atol=1e-13, err_msg=name,
            )


@pytest.mark.parametrize("case", sorted(LEARN_CASES))
def test_learning_commands_match_the_per_draw_learn_loop(case, tmp_path):
    plan = ff_plan(alphas=(0.0, 0.5), taus=(2.0, 7.0), m0s=(1.5, "auto"), seeds=4, **LEARN_CASES[case])
    m_true, traces = loop_learn_traces(plan)

    out = cmd_learn(plan, tmp_path / "l.csv")
    _assert_rows(out, [
        (tau, alpha, m0, k, r.t, r.m_hat, r.delta_s, r.rel_error)
        for (tau, alpha, m0), runs in traces.items()
        for k, tr in enumerate(runs)
        for r in tr.rows
    ])
    _assert_rows(tmp_path / "l.summary.csv", [
        (
            tau, alpha, m0, k, int(tr.converged), tr.iterations, tr.final_m, m_true,
            tr.rows[-1].delta_s, tr.rows[-1].rel_error, tr.noisy_error,
            1.0 - tr.rows[-1].delta_s / tr.noisy_error if tr.noisy_error else float("nan"),
        )
        for (tau, alpha, m0), runs in traces.items()
        for k, tr in enumerate(runs)
    ])
    _assert_rows(cmd_basin(plan, tmp_path / "b.csv"), [
        (tau, alpha, m0, m_true, *_mean_std([abs(tr.final_m - m_true) for tr in runs]))
        for (tau, alpha, m0), runs in traces.items()
    ])
    # heatmap takes one m0, and numbers its cells over (tau, alpha) alone
    for m0 in plan.m0s:
        single = replace(plan, m0s=(m0,))
        _assert_rows(cmd_heatmap(single, tmp_path / "h.csv"), [
            (
                tau, alpha, *_mean_std([tr.rows[-1].delta_s for tr in runs]),
                float(np.mean([tr.converged for tr in runs])),
            )
            for (tau, alpha, _), runs in loop_learn_traces(single)[1].items()
        ])


def test_learn_rows_are_those_of_the_per_draw_trace_loop(tmp_path):
    # alpha = 0 makes the noisy error 0, so its summary rows read reduction nan
    plan = ff_plan(alphas=(0.0, 0.5), taus=(2.0, 7.0), m0s=(1.5, "auto"), seeds=3)
    trace_rows, summary_rows = loop_learn_rows(plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = cmd_learn(plan, tmp_path / "l.csv")
    assert data_rows(out) == trace_rows
    summary = data_rows(tmp_path / "l.summary.csv")
    assert summary == summary_rows
    assert [row[-1] for row in summary if row[1] == "0.0"] == ["nan"] * 2 * 2 * 3


def test_grid_values_given_as_numpy_scalars_are_written_as_numbers(tmp_path):
    plan = ff_plan(taus=(np.float64(7.0),), alphas=(np.float64(0.5),), m0s=(np.float64(1.5),), seeds=2)
    assert plan == ff_plan(taus=(7.0,), alphas=(0.5,), m0s=(1.5,), seeds=2)
    assert [row[:3] for row in data_rows(cmd_basin(plan, tmp_path / "b.csv"))] == [["7.0", "0.5", "1.5"]]


def test_sweep_m_single_point_is_baseline_only(tmp_path):
    plan = ff_plan(ms=(0.0,))
    out = cmd_sweep_m(plan, tmp_path / "s.csv")
    rows = data_rows(out)
    assert len(rows) == 1
    # ratio to itself is identically one
    assert float(rows[0][3]) == 1.0
    assert float(rows[0][4]) == 0.0


def test_sweep_m_noiseless_recovers_exactly(tmp_path):
    plan = ff_plan(alphas=(0.0,), ms=(0.0, 0.25, 0.5881523311806464), seeds=1)
    out = cmd_sweep_m(plan, tmp_path / "s.csv")
    rows = data_rows(out)
    by_m = {round(float(r[2]), 6): float(r[5]) for r in rows}
    # at m = lambda_true the noiseless signal passes through untouched
    assert by_m[round(0.5881523311806464, 6)] <= 1e-10
    assert by_m[0.0] > 0.1


def test_sweep_m_dip_at_true_eigenvalue(tmp_path):
    ms = tuple(round(x, 2) for x in np.arange(0.0, 2.01, 0.1))
    plan = ff_plan(ms=ms, seeds=30)
    out = cmd_sweep_m(plan, tmp_path / "s.csv")
    rows = data_rows(out)
    rel = {float(r[2]): float(r[3]) for r in rows}
    best_m = min(rel, key=rel.get)
    assert abs(best_m - 0.5881523311806464) <= 0.1
    assert rel[best_m] < 0.7


def test_learn_outputs_traces_and_summary(tmp_path):
    plan = ff_plan(alphas=(0.5,), taus=(7.0,), m0s=(1.5,), seeds=3)
    out = cmd_learn(plan, tmp_path / "learn.csv")
    traces = data_rows(out)
    summary = data_rows(out.with_name("learn.summary.csv"))
    assert len(summary) == 3
    draws = {int(r[3]) for r in summary}
    assert draws == {0, 1, 2}
    for r in summary:
        assert int(r[4]) == 1  # converged
        assert abs(float(r[6]) - float(r[7])) < 0.2  # m_final close to m_true
    # trace rows: (tau, alpha, m0, draw, t, ...) with a t=0 row per draw
    t0 = [r for r in traces if int(r[4]) == 0]
    assert len(t0) == 3


def test_learn_auto_m0(tmp_path):
    plan = ff_plan(alphas=(0.5,), taus=(7.0,), m0s=("auto",), seeds=2)
    out = cmd_learn(plan, tmp_path / "learn.csv")
    summary = data_rows(out.with_name("learn.summary.csv"))
    assert all(int(r[4]) == 1 for r in summary)


def test_learn_large_delta_converges_fast(tmp_path):
    plan = ff_plan(alphas=(0.5,), taus=(7.0,), m0s=(1.5,), seeds=2, delta=10.0)
    out = cmd_learn(plan, tmp_path / "learn.csv")
    summary = data_rows(out.with_name("learn.summary.csv"))
    assert all(int(r[5]) <= 2 for r in summary)


def test_heatmap_alpha_zero_row(tmp_path):
    plan = ff_plan(alphas=(0.0, 0.5), taus=(2.0, 10.0), m0s=(1.0,), seeds=2)
    out = cmd_heatmap(plan, tmp_path / "h.csv")
    rows = data_rows(out)
    assert len(rows) == 4
    for r in rows:
        if float(r[1]) == 0.0:
            # noiseless: error collapses (residual set by the delta threshold)
            assert float(r[2]) <= 1e-5


def test_heatmap_rejects_more_than_one_m0(tmp_path, monkeypatch):
    from diracsp import harness

    plan = ff_plan(m0s=(0.5, 2.5), seeds=2)
    monkeypatch.setattr(harness, "_prepare", lambda plan: pytest.fail("set-up ran"))
    with pytest.raises(ValueError, match="heatmap takes one m0, got 2"):
        cmd_heatmap(plan, tmp_path / "h.csv")
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("command", [cmd_learn, cmd_heatmap, cmd_basin])
def test_learning_commands_check_filter_settings_before_set_up(command, tmp_path, monkeypatch):
    from diracsp import harness

    monkeypatch.setattr(harness, "_prepare", lambda plan: pytest.fail("set-up ran"))
    for kw, match in (
        ({"taus": (7.0, 0.0)}, "tau must be finite and > 0, got 0.0"),
        ({"eta": 1.5}, "eta must lie in (0, 1], got 1.5"),
        ({"delta": 0.0}, "delta must be finite and > 0, got 0.0"),
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
    ):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=re.escape(match)):
            command(ff_plan(**kw), out)
        assert not out.exists()


def test_basin_rows(tmp_path):
    plan = ff_plan(alphas=(0.6,), taus=(7.0,), m0s=(0.5, 1.0, 2.0), seeds=3)
    out = cmd_basin(plan, tmp_path / "b.csv")
    rows = data_rows(out)
    assert len(rows) == 3
    m_true = float(rows[0][3])
    assert abs(m_true - 0.5881523311806464) < 1e-9


def test_basin_fixed_point_at_truth(tmp_path):
    lam = 0.5881523311806464
    plan = ff_plan(alphas=(0.1,), taus=(7.0,), m0s=(lam,), seeds=3)
    out = cmd_basin(plan, tmp_path / "b.csv")
    rows = data_rows(out)
    assert float(rows[0][4]) < 0.05


def test_rows_are_byte_identical_on_rerun(tmp_path):
    plan = ff_plan(ms=(0.0, 0.5, 1.0), seeds=4)
    a = cmd_sweep_m(plan, tmp_path / "a.csv").read_bytes()
    b = cmd_sweep_m(plan, tmp_path / "b.csv").read_bytes()
    assert a == b


def test_grid_commands_see_the_same_draws(tmp_path):
    # with one m0, learn's cells (tau, alpha, m0) carry the same indices as
    # heatmap's (tau, alpha), so all three commands filter the same draws
    plan = ff_plan(alphas=(0.0, 0.6), taus=(2.0, 7.0), m0s=(1.5,), seeds=3)
    summary = data_rows(cmd_learn(plan, tmp_path / "l.csv").with_name("l.summary.csv"))
    heat = data_rows(cmd_heatmap(plan, tmp_path / "h.csv"))
    basin = data_rows(cmd_basin(plan, tmp_path / "b.csv"))
    assert len(heat) == len(basin) == 4
    for h, b in zip(heat, basin):
        assert b[:2] == h[:2]
        cell = [r for r in summary if r[:2] == h[:2]]
        assert len(cell) == plan.seeds
        assert float(h[2]) == np.mean([float(r[8]) for r in cell])
        assert float(b[4]) == np.mean([abs(float(r[6]) - float(r[7])) for r in cell])


def test_plan_rejects_empty_m0s_and_zero_runs():
    with pytest.raises(ValueError, match="m0s"):
        ff_plan(m0s=())
    with pytest.raises(ValueError, match="runs"):
        ff_plan(runs=0)
    data = ff_plan().to_dict()
    for bad in ({"m0s": []}, {"runs": 0}, {"workers": 2}):
        with pytest.raises(ParseError):
            plan_from_dict({**data, **bad})


def test_plan_requires_integer_counts():
    bad = [
        ({"seeds": 2.5}, "seeds must be an integer, got 2.5"),
        ({"seeds": True}, "seeds must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"max_iters": 2.5}, "max_iters must be an integer"),
        ({"runs": 2.5}, "runs must be an integer"),
        ({"sizes": (20, 40.0)}, "every size must be an integer, got 40.0"),
        ({"sizes": (True, 20)}, "every size must be an integer, got True"),
    ]
    data = ff_plan().to_dict()
    for kw, match in bad:
        with pytest.raises(ValueError, match=match):
            ff_plan(**kw)
        with pytest.raises(ParseError, match=match):
            plan_from_dict({**data, **{k: list(v) if isinstance(v, tuple) else v for k, v in kw.items()}})
    for max_iters in (2.5, False):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            FilterConfig(tau=1.0, max_iters=max_iters)


def test_plan_and_its_ngf_dataset_reject_a_negative_seed():
    data = ff_plan().to_dict()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ff_plan(seed=-1)
    with pytest.raises(ParseError, match="malformed plan: seed must be >= 0"):
        plan_from_dict({**data, "seed": -1})
    dataset = {"kind": "ngf", "target_nodes": 20, "flavor": -1, "beta": 0.0, "seed": -2}
    with pytest.raises(ParseError, match="malformed dataset: seed must be >= 0"):
        resolve_dataset(ff_plan(dataset=dataset))


def test_plan_from_dict_rejects_non_integer_signal_order():
    data = ff_plan().to_dict()
    for n in (1.5, True, "2"):
        with pytest.raises(ParseError, match=f"malformed plan: n must be an integer, got {n!r}"):
            plan_from_dict({**data, "signal": {"mode": "eigen", "n": n}})


def test_plan_rejects_bad_noise_tau_and_repeated_sizes():
    # each grid entry by the rule of the owner it feeds
    bad = [
        ({"alphas": (-1.0,)}, "alpha must be finite and >= 0, got -1.0"),
        ({"alphas": (0.3, float("nan"))}, "alpha must be finite and >= 0, got nan"),
        ({"alphas": (float("inf"),)}, "alpha must be finite and >= 0, got inf"),
        ({"alphas": ("0.5",)}, "alpha must be a number, got '0.5'"),
        ({"taus": (float("nan"),)}, "tau must be finite and >= 0, got nan"),
        ({"taus": (-2.0,)}, "tau must be finite and >= 0, got -2.0"),
        ({"sizes": (20, 20)}, "sizes must be distinct"),
        ({"ms": (0.5, float("nan"))}, "m must be finite, got nan"),
        ({"m0s": (float("nan"),)}, "m0 must be finite, got nan"),
        ({"m0s": ("auto", float("-inf"))}, "m0 must be finite, got -inf"),
        ({"m0s": ("guess",)}, "m0 must be a number, got 'guess'"),
    ]
    data = ff_plan().to_dict()
    for kw, match in bad:
        with pytest.raises(ValueError, match=match):
            ff_plan(**kw)
        with pytest.raises(ParseError, match=match):
            plan_from_dict({**data, **{k: list(v) for k, v in kw.items()}})
    ff_plan(alphas=(0.0,), taus=(0.0,), sizes=(20, 40))


def test_plan_refuses_a_lifted_source_that_is_not_a_path():
    # a header would hold the spinor's repr, which numpy cuts short with
    # "..." past 1000 entries and which --plan would read as a file name
    spinor = TopologicalSpinor.zeros(resolve_dataset(ff_plan()))
    with pytest.raises(ValueError, match="signal.source must be a path"):
        ff_plan(signal=SignalSpec(mode="lifted", source=spinor))
    data = ff_plan().to_dict()
    with pytest.raises(ParseError, match="malformed plan: signal.source must be a path"):
        plan_from_dict({**data, "signal": {"mode": "lifted", "n": 1, "source": spinor}})
    ff_plan(signal=SignalSpec(mode="lifted", source=dataset_path("coastal_tessellation_flow.csv")))


def test_header_embeds_plan(tmp_path):
    plan = ff_plan(ms=(0.0,))
    out = cmd_sweep_m(plan, tmp_path / "s.csv")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# diracsp/sweep-m/1")
    embedded = json.loads(lines[1].removeprefix("# plan: "))
    assert embedded == plan.to_dict()


def test_plan_roundtrip(tmp_path):
    plan = ff_plan(ms=(0.0, 1.0), m0s=("auto", 2.0))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    again = load_plan(path)
    assert again.to_dict() == plan.to_dict()
    with pytest.raises(ParseError):
        plan_from_dict({"alphas": [0.5]})


def test_make_signal_modes(tmp_path):
    from diracsp import assemble_dirac, spectral_basis

    K = resolve_dataset(ff_plan())
    Dop = assemble_dirac(K)
    basis = spectral_basis(Dop, 1)
    s, m = make_signal(SignalSpec(mode="eigen", selector="smallest_positive"), Dop, basis)
    assert m == pytest.approx(0.5881523311806464)
    s2, m2 = make_signal(SignalSpec(mode="gaussian_mix", lambda_bar=1.0, sigma_hat=0.2), Dop, basis)
    assert 0.8 < m2 < 1.2
    # an unknown mode never reaches make_signal: SignalSpec rejects it when it is built
    with pytest.raises(ValueError, match="mode"):
        SignalSpec(mode="telepathy")


def test_an_eigen_set_up_resolves_its_selector_once(monkeypatch):
    # make_signal takes the mode and its eigenvalue from one resolved index
    calls, resolve = [], signals.select_eigenvalue

    def spy(basis, selector):
        calls.append(selector)
        return resolve(basis, selector)

    for module in (harness, signals):
        monkeypatch.setattr(module, "select_eigenvalue", spy)
    for selector in ("smallest_positive", "largest_negative", 0.5881523311806464):
        calls.clear()
        setup = _prepare(ff_plan(signal=SignalSpec(mode="eigen", selector=selector)))
        assert calls == [selector]
        i = resolve(setup.basis, selector)
        assert setup.m_true == setup.basis.eigenvalues[i]
        assert np.array_equal(setup.s_true.vector, setup.basis.spinor(i).vector)


def test_bench_two_sizes_low_confidence(tmp_path):
    plan = ExperimentPlan(
        dataset={"kind": "ngf"},
        signal=SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2),
        alphas=(0.5,),
        taus=(2.0,),
        sizes=(20, 40),
        runs=2,
        seed=5,
    )
    out, exponent, stderr = cmd_bench(plan, tmp_path / "bench.csv")
    rows = data_rows(out)
    assert len(rows) == 2
    footer = out.read_text().strip().splitlines()[-1]
    match = re.fullmatch(r"# fit: exponent=(\S+) stderr=(\S+) low_confidence=(True|False)", footer)
    assert match, footer
    assert float(match[1]) == exponent and float(match[2]) == stderr
    assert match[3] == "True"
    assert np.isfinite(exponent)
    with pytest.raises(ValueError):
        cmd_bench(ExperimentPlan(
            dataset={"kind": "ngf"},
            signal=SignalSpec(mode="gaussian_mix"),
            sizes=(20,), runs=1, seed=1,
        ), tmp_path / "x.csv")


def test_learn_lifted_flow_improves_on_hodge(tmp_path):
    # flow lifted across dimensions on the coastal fixture; the learned
    # filter should beat the m=0 baseline on both n=1 and n=2
    coastal = dataset_path("coastal_tessellation.json")
    flow = dataset_path("coastal_tessellation_flow.csv")
    for n, tau in ((1, 1.0), (2, 1.5)):
        plan = ExperimentPlan(
            dataset={"kind": "file", "path": coastal},
            signal=SignalSpec(mode="lifted", n=n, source=flow),
            alphas=(0.6,), taus=(tau,), m0s=("auto",),
            eta=0.3, delta=1e-4, seeds=5, seed=303,
        )
        out = cmd_learn(plan, tmp_path / f"drift{n}.csv")
        rows = read_csv(out.with_name(f"drift{n}.summary.csv"))[1]
        rel = np.array([float(r[9]) for r in rows])
        assert (np.array([int(r[4]) for r in rows]) == 1).all()
        assert rel.mean() < 1.0


# -- draws as basis coordinates -------------------------------------------------

DRAW_COMPLEXES = {
    "coastal": coastal_tessellation,
    "ngf60-flavor0": lambda: ngf_generate(NgfParams(target_nodes=60, flavor=0, seed=5)),
    "tetrahedron": lambda: HARD_COMPLEXES["tetrahedron"],
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(DRAW_COMPLEXES))
def test_draw_coords_are_the_coordinates_of_the_spinor_draws(name, n):
    K = DRAW_COMPLEXES[name]()
    if name == "tetrahedron":
        assert betti_numbers(K)[2] == 1
    D = assemble_dirac(K)
    basis = spectral_basis(D, n)
    # any truth will do, also one with a part outside im(D_n)
    s_true = TopologicalSpinor.from_vector(K, np.random.default_rng(1).standard_normal(D.dim))
    setup = _Setup(D, n, basis, s_true, 0.0, basis.coefficients(s_true))
    plan = ff_plan(seeds=6, seed=9)
    for alpha in (0.3, 1.5):
        got = _draw_coords(plan, setup, alpha, 2)
        want = [basis.coefficients(s_true + _noise(plan, D, n, alpha, 2, k)) for k in range(6)]
        assert got.shape == (6, basis.nonharmonic_dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert (_draw_coords(plan, setup, 0.0, 2) == setup.c_true).all()


def test_draw_coords_need_an_image_for_noise():
    K = HARD_COMPLEXES["nodes_only"]
    D = assemble_dirac(K)
    basis = spectral_basis(D, 1)
    s = TopologicalSpinor.zeros(K)
    setup = _Setup(D, 1, basis, s, 0.0, basis.coefficients(s))
    with pytest.raises(EmptyImage):
        _draw_coords(ff_plan(), setup, 0.5, 0)
    with pytest.raises(EmptyImage):
        _noise(ff_plan(), D, 1, 0.5, 0, 0)


@pytest.mark.parametrize("command", [cmd_learn, cmd_heatmap, cmd_basin])
def test_low_snr_warns_once_per_cell(command, tmp_path):
    plan = ff_plan(alphas=(0.0, 2.5), taus=(2.0, 7.0), m0s=(1.5,), seeds=4)
    with pytest.warns(RuntimeWarning) as record:
        command(plan, tmp_path / "out.csv")
    texts = [str(w.message) for w in record if "snr" in str(w.message)]
    # every draw at alpha = 2.5 looks noisy, none at alpha = 0
    assert texts == [
        f"estimated snr < 1 in 4 of 4 draws of the cell tau={tau!r}, alpha=2.5, m0=1.5; "
        "convergence is sensitive to the initial m0"
        for tau in (2.0, 7.0)
    ]



# -- plans keep the form their checks return -------------------------------------


def _ints(low, high):
    """An integer in [low, high] as a Python int or a numpy integer."""
    ints = st.integers(low, high)
    return st.one_of(ints, ints.map(np.int64), ints.map(np.int32))


def _reals(low, high, exclude_min=False):
    """A real in [low, high] (above low with exclude_min) as a Python int or float or a numpy scalar."""
    ints = st.integers(low + 1 if exclude_min else low, high)
    floats = st.floats(low, high, exclude_min=exclude_min)
    return st.one_of(
        ints, ints.map(np.int64), floats, floats.map(np.float64),
        st.floats(low, high, exclude_min=exclude_min, width=32).map(np.float32),
    )


def _grid(values, **kw):
    """A grid as a list or a tuple."""
    lists = st.lists(values, max_size=3, **kw)
    return st.one_of(lists, lists.map(tuple))


_SIGNALS = st.one_of(
    st.builds(
        SignalSpec, mode=st.just("eigen"), n=_ints(1, 2),
        selector=st.one_of(st.just("largest_negative"), _ints(0, 30), _reals(-3, 3)),
    ),
    st.builds(
        SignalSpec, mode=st.just("gaussian_mix"), n=_ints(1, 2),
        lambda_bar=_reals(-3, 3), sigma_hat=_reals(0, 2, exclude_min=True),
    ),
)

_PLANS = st.builds(
    ExperimentPlan,
    dataset=st.just({"kind": "file", "path": FF}),
    signal=_SIGNALS,
    alphas=_grid(_reals(0, 5), min_size=1),
    taus=_grid(_reals(0, 50), min_size=1),
    ms=_grid(_reals(-3, 3)),
    m0s=_grid(st.one_of(st.just("auto"), _reals(-3, 3)), min_size=1),
    eta=_reals(0, 1, exclude_min=True),
    delta=_reals(0, 2, exclude_min=True),
    max_iters=_ints(1, 1000),
    seeds=_ints(1, 100),
    seed=_ints(0, 2**31 - 1),
    sizes=_grid(_ints(3, 5000), unique_by=int),
    runs=_ints(1, 50),
)


@settings(max_examples=80, deadline=None)
@given(plan=_PLANS)
def test_a_plan_replays_from_its_json_to_the_same_plan(plan):
    text = json.dumps(plan.to_dict(), sort_keys=True)
    again = plan_from_dict(json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    for name in ("alphas", "taus", "ms", "m0s", "seeds", "seed"):
        assert repr(getattr(again, name)) == repr(getattr(plan, name)), name


def test_numpy_scalars_in_plan_fields_reach_the_header(tmp_path):
    plan = ff_plan(seeds=np.int64(3), signal=SignalSpec(mode="eigen", selector=np.int64(0)))
    out = cmd_sweep_m(plan, tmp_path / "s.csv")
    embedded = json.loads(out.read_text().splitlines()[1].removeprefix("# plan: "))
    assert embedded["seeds"] == 3 and embedded["signal"]["selector"] == 0
    assert len(data_rows(out)) == 1


def test_a_dataset_json_cannot_hold_is_refused_when_the_plan_is_built():
    with pytest.raises(ValueError, match="plan cannot be written as JSON: Object of type int64"):
        ff_plan(dataset={"kind": "ngf", "target_nodes": np.int64(30), "flavor": -1})

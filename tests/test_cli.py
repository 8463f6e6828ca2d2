import csv
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import diracsp
from diracsp import cli, complexes, harness
from diracsp.cli import _guard, main
from diracsp.datasets import dataset_path
from diracsp.harness import cmd_bench, load_plan

FF = dataset_path("florentine_marriage.json")


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_generate_and_info(tmp_path):
    out = tmp_path / "k.json"
    r = invoke("generate", "--nodes", 25, "--seed", 9, "-o", out)
    assert r.exit_code == 0, r.output
    assert "25 nodes" in r.output
    meta = json.loads(out.read_text())["meta"]
    assert meta["seed"] == 9 and meta["generator"] == "ngf"

    r = invoke("info", "-i", out)
    assert r.exit_code == 0
    assert "nodes=25 links=47 triangles=23" in r.output
    assert "betti=(1, 0, 0)" in r.output


@pytest.mark.parametrize("flavor", [0, 1])
def test_info_ranks_ngf_with_no_gram_solve(flavor, tmp_path, monkeypatch):
    # flavors 0 and 1 put three or more triangles on a link; the complex
    # collapses, so rank B2 = N2 is found without an eigensolve
    out = tmp_path / "k.json"
    assert invoke("generate", "--nodes", 300, "--flavor", flavor, "--seed", 0, "-o", out).exit_code == 0
    solves, gram_eigh = [], complexes.gram_eigh
    monkeypatch.setattr(complexes, "gram_eigh", lambda *a, **k: solves.append(1) or gram_eigh(*a, **k))
    r = invoke("info", "-i", out)
    assert r.exit_code == 0, r.output
    assert r.output.splitlines() == [
        "nodes=300 links=597 triangles=298 dimension=2", "betti=(1, 0, 0) euler=1",
    ]
    assert solves == []


def test_a_set_up_that_cannot_allocate_is_one_error_line(tmp_path, monkeypatch):
    # a MemoryError while the Gram solve allocates G is an EigensolveFailure,
    # which the CLI prints as one error= line before exiting 3
    def refuse(B):
        raise MemoryError

    monkeypatch.setattr(complexes, "gram_matrix", refuse)
    out = tmp_path / "learn.csv"
    r = invoke("learn", "-i", FF, "--seeds", 2, "--seed", 7, "-o", out)
    assert r.exit_code == 3, r.output
    [line] = r.output.splitlines()
    assert line.startswith("error=EigensolveFailure: Gram eigensolve of order m=15 could not allocate ")
    assert not out.exists()


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass of a failed allocation."""


@pytest.mark.parametrize("module, step, args", [
    (cli, "ngf_generate", ("generate", "--nodes", 30)),
    (cli, "_m_grid", ("sweep-m", "-i", FF, "--m-max", 1, "--m-step", 0.5, "--seeds", 2)),
    (harness, "noise_coefficients", ("learn", "-i", FF, "--seeds", 2)),
])
def test_an_allocation_that_fails_is_one_memory_error_line(module, step, args, tmp_path, monkeypatch):
    # the step where an oversize request (say generate --nodes 10000000000)
    # runs out of memory raises instead; no test allocates the array, which a
    # host that overcommits memory grants and then kills the process for
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

    def refuse(*args, **kwargs):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(module, step, refuse)
    out = tmp_path / "x.csv"
    r = invoke(*args, "--seed", 1, "-o", out)
    assert r.exit_code == 1, r.output
    assert r.output.splitlines() == [f"error=MemoryError: {message}"]
    assert not out.exists()


def test_a_numpy_solve_that_cannot_allocate_is_one_error_line(tmp_path, monkeypatch):
    # where numpy.linalg solves, a MemoryError inside its eigh (its copy of
    # G, the workspace or the eigenvectors) is an EigensolveFailure too
    def refuse(G):
        raise MemoryError

    monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "learn.csv"
    r = invoke("learn", "-i", FF, "--seeds", 2, "--seed", 7, "-o", out)
    assert r.exit_code == 3, r.output
    [line] = r.output.splitlines()
    assert line == (
        f"error=EigensolveFailure: Gram eigensolve of order m=15 could not allocate {40 * 15**2} bytes "
        "for numpy.linalg's solve"
    )
    assert not out.exists()


def test_generate_requires_seed(tmp_path):
    r = invoke("generate", "--nodes", 10, "-o", tmp_path / "k.json")
    assert r.exit_code != 0


def test_generate_rejects_non_finite_beta(tmp_path):
    out = tmp_path / "g.json"
    for beta in ("nan", "inf"):
        r = invoke("generate", "--nodes", 30, "--beta", beta, "--seed", 1, "-o", out)
        assert r.exit_code == 1, (beta, r.output)
        assert r.output.splitlines() == [f"error=ValueError: beta must be finite and >= 0, got {beta}"]
        assert not out.exists()


def test_generate_blames_an_underflowing_beta(tmp_path):
    out = tmp_path / "g.json"
    r = invoke("generate", "--nodes", 50, "--flavor", 0, "--beta", "1e6", "--seed", 0, "-o", out)
    assert r.exit_code == 1, r.output
    assert r.output.splitlines() == [
        "error=ValueError: beta=1000000.0 leaves every link weight at 0 (exp(-beta * eps) underflows)"
    ]
    assert not out.exists()


def test_info_rejects_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "diracsp/complex/1", "nodes": 2,
                               "links": [[0, 1]], "triangles": [[0, 1, 2]]}))
    r = invoke("info", "-i", bad)
    assert r.exit_code == 3
    assert "error=IndexOutOfRange" in r.output or "error=MissingFace" in r.output


def test_info_rejects_non_integer_entries(tmp_path):
    bad = tmp_path / "bad.json"
    for complex_, error in (
        ({"nodes": 3.7, "links": [[0, 1]]}, "ParseError"),
        ({"nodes": 3, "links": [[0, 1.5]]}, "ParseError"),
        ({"nodes": 3, "links": [[0, True]]}, "ParseError"),
        ({"nodes": 3, "links": [[0, 10**20]]}, "ParseError"),
        ({"nodes": 10**20, "links": [[0, 1]]}, "IndexOutOfRange"),
    ):
        bad.write_text(json.dumps(complex_))
        r = invoke("info", "-i", bad)
        assert r.exit_code == 3, (complex_, r.output)
        lines = r.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error={error}: "), r.output


def test_synth_rejects_non_finite_source(tmp_path):
    src = tmp_path / "src.csv"
    src.write_text("block,index,value\nlink,0,1.0\nlink,1,nan\n")
    out = tmp_path / "s.csv"
    r = invoke("synth", "-i", FF, "--mode", "lifted", "--source", src, "-o", out)
    assert r.exit_code == 3, r.output
    assert r.output.splitlines() == [f"error=ParseError: {src}:3: value 'nan' is not finite"]
    assert not out.exists()


def test_synth_eigen_with_noise(tmp_path):
    sig = tmp_path / "sig.csv"
    r = invoke(
        "synth", "-i", FF, "--mode", "eigen", "--selector", "smallest_positive",
        "--alpha", "0.6", "--seed", 3, "-o", sig,
    )
    assert r.exit_code == 0, r.output
    assert sig.exists()
    assert (tmp_path / "sig.noisy.csv").exists()
    assert "snr=" in r.output


def test_synth_requires_seed_for_noise(tmp_path):
    r = invoke("synth", "-i", FF, "--alpha", "0.5", "-o", tmp_path / "s.csv")
    assert r.exit_code == 1
    assert "error=ValueError" in r.output


def test_synth_rejects_bad_alpha(tmp_path):
    out = tmp_path / "s.csv"
    for alpha in ("-1", "nan"):
        r = invoke("synth", "-i", FF, "--alpha", alpha, "--seed", 1, "-o", out)
        assert r.exit_code == 1, (alpha, r.output)
        assert r.output.splitlines() == [
            f"error=ValueError: alpha must be finite and >= 0, got {float(alpha)!r}"
        ]
        assert not out.exists()
        assert not (tmp_path / "s.noisy.csv").exists()


def test_a_negative_seed_is_refused_before_any_work(tmp_path, monkeypatch):
    # numpy's SeedSequence refuses it too, but only at the first draw and
    # naming no field: after set-up, or after synth wrote the clean signal
    prepared = []
    monkeypatch.setattr(harness, "_prepare", lambda plan: prepared.append(plan))
    out = tmp_path / "o.csv"
    for args in (
        ("sweep-m", "-i", FF, "--seeds", 1, "--seed", -1),
        ("synth", "-i", FF, "--alpha", "0.5", "--seed", -1),
        ("generate", "--nodes", 20, "--seed", -1),
    ):
        r = invoke(*args, "-o", out)
        assert r.exit_code == 1, (args, r.output)
        assert r.output.splitlines() == ["error=ValueError: seed must be >= 0, got -1"]
        assert not out.exists() and not (tmp_path / "o.noisy.csv").exists()
    plan = {"dataset": {"kind": "file", "path": FF}, "signal": {"mode": "eigen", "n": 1}, "seed": -1}
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    r = invoke("learn", "--plan", pf, "--seed", -1, "-o", out)
    assert r.exit_code == 3, r.output
    assert r.output.splitlines() == ["error=ParseError: malformed plan: seed must be >= 0, got -1"]
    assert prepared == [] and not out.exists()


def test_synth_rejects_non_finite_selector(tmp_path):
    out = tmp_path / "s.csv"
    r = invoke("synth", "-i", FF, "--selector", "nan", "-o", out)
    assert r.exit_code == 1, r.output
    assert r.output.splitlines() == [
        "error=ValueError: selector must be finite, got nan"
    ]
    assert not out.exists()


def test_gaussian_mix_commands_reject_non_finite_parameters(tmp_path):
    out = tmp_path / "x.csv"
    for cmd, flag, message in (
        ("heatmap", "--sigma-hat", "sigma_hat must be finite and > 0, got nan"),
        ("learn", "--lambda-bar", "lambda_bar must be finite, got nan"),
    ):
        r = invoke(
            cmd, "-i", FF, "--mode", "gaussian_mix", flag, "nan",
            "--alphas", "0.5", "--taus", "7", "--seeds", "1", "--seed", "1", "-o", out,
        )
        assert r.exit_code == 1, (cmd, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()


def test_synth_degenerate_selection_fails_cleanly(tmp_path):
    # filled triangle: +sqrt(3) has multiplicity 2 for D_1
    k = tmp_path / "tri.json"
    k.write_text(json.dumps({"format": "diracsp/complex/1", "nodes": 3,
                             "links": [[0, 1], [0, 2], [1, 2]],
                             "triangles": [[0, 1, 2]]}))
    r = invoke("synth", "-i", k, "--mode", "eigen", "-o", tmp_path / "s.csv")
    assert r.exit_code == 3
    assert "error=DegenerateSelection" in r.output


def test_sweep_m_cli_deterministic(tmp_path):
    args = (
        "sweep-m", "-i", FF, "--alphas", "0.6", "--taus", "10",
        "--ms", "0,0.5,1.0", "--seeds", "5", "--seed", "17",
    )
    r1 = invoke(*args, "-o", tmp_path / "a.csv")
    r2 = invoke(*args, "-o", tmp_path / "b.csv")
    assert r1.exit_code == 0, r1.output
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_learn_cli_writes_summary(tmp_path):
    r = invoke(
        "learn", "-i", FF, "--alphas", "0.5", "--taus", "7", "--m0s", "1.5",
        "--seeds", "3", "--seed", "4", "-o", tmp_path / "tr.csv",
    )
    assert r.exit_code == 0, r.output
    assert (tmp_path / "tr.csv").exists()
    assert (tmp_path / "tr.summary.csv").exists()


def test_learn_cli_plan_file(tmp_path):
    plan = {
        "dataset": {"kind": "file", "path": FF},
        "signal": {"mode": "eigen", "n": 1, "selector": "smallest_positive"},
        "alphas": [0.5],
        "taus": [7.0],
        "m0s": [1.5],
        "seeds": 2,
        "seed": 11,
    }
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    r = invoke("learn", "--plan", pf, "--seed", 11, "-o", tmp_path / "tr.csv")
    assert r.exit_code == 0, r.output
    header = (tmp_path / "tr.csv").read_text().splitlines()[1]
    assert '"seeds": 2' in header


def test_heatmap_cli_preset(tmp_path):
    r = invoke(
        "heatmap", "-i", FF, "--preset", "smallest", "--alphas", "0.5",
        "--taus", "5", "--seeds", "2", "--seed", "6", "-o", tmp_path / "h.csv",
    )
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert '"m0s": [1.0]' in lines[1]


def test_explicit_signal_flags_win_over_the_preset(tmp_path):
    out = tmp_path / "learn.csv"
    r = invoke(
        "learn", "-i", FF, "--preset", "gaussian", "--mode", "eigen", "--selector", "largest_positive",
        "--seeds", 2, "--seed", 7, "-o", out,
    )
    assert r.exit_code == 0, r.output
    plan = json.loads(out.read_text().splitlines()[1].removeprefix("# plan: "))
    assert plan["signal"] == {"mode": "eigen", "n": 1, "selector": "largest_positive"}
    assert plan["m0s"] == [2.0]


def test_basin_cli(tmp_path):
    r = invoke(
        "basin", "-i", FF, "--alphas", "0.6", "--taus", "7",
        "--m0s", "0.5,1.0", "--seeds", "2", "--seed", "8",
        "-o", tmp_path / "b.csv",
    )
    assert r.exit_code == 0, r.output


def test_bench_cli(tmp_path):
    r = invoke(
        "bench", "--sizes", "15,30", "--runs", "2", "--seed", "2",
        "-o", tmp_path / "bench.csv",
    )
    assert r.exit_code == 0, r.output
    assert "scaling exponent" in r.output
    assert "low confidence" in r.output


def test_a_list_entry_that_cannot_be_read_names_its_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_prepare", lambda plan: pytest.fail("set-up ran"))
    out = tmp_path / "x.csv"
    for args, message in (
        (("sweep-m", "-i", FF, "--alphas", "0.5,abc"), "--alphas takes numbers, got 'abc'"),
        (("learn", "-i", FF, "--taus", "1,abc"), "--taus takes numbers, got 'abc'"),
        (("sweep-m", "-i", FF, "--ms", "0.5, 1..5"), "--ms takes numbers, got '1..5'"),
        (("learn", "-i", FF, "--m0s", "auto,xyz"), "--m0s takes numbers or 'auto', got 'xyz'"),
        (("bench", "--sizes", "10,abc"), "--sizes takes integers, got 'abc'"),
    ):
        r = invoke(*args, "--seed", 1, "-o", out)
        assert r.exit_code == 1, (args, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()


def test_empty_m0s_fails_with_one_error_line(tmp_path):
    for cmd, m0s in product(("learn", "heatmap", "basin"), (",", "")):
        out = tmp_path / f"{cmd}.csv"
        r = invoke(cmd, "-i", FF, "--m0s", m0s, "--seed", 1, "-o", out)
        assert isinstance(r.exception, SystemExit), (cmd, m0s, r.exception)
        assert r.exit_code == 1, (cmd, m0s)
        assert r.output.splitlines() == ["error=ValueError: m0s must be non-empty"]
        assert not out.exists()


def test_heatmap_cli_rejects_more_than_one_m0(tmp_path):
    out = tmp_path / "h.csv"
    r = invoke(
        "heatmap", "-i", FF, "--m0s", "0.5,2.5", "--alphas", "0.5",
        "--taus", "5", "--seeds", "2", "--seed", "1", "-o", out,
    )
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert r.output.splitlines() == ["error=ValueError: heatmap takes one m0, got 2: [0.5, 2.5]"]
    assert not out.exists()


def test_bench_cli_rejects_zero_runs(tmp_path):
    r = invoke(
        "bench", "--sizes", "20,40", "--runs", "0", "--seed", "1",
        "-o", tmp_path / "b.csv",
    )
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert r.output.splitlines() == ["error=ValueError: runs must be >= 1, got 0"]
    assert not (tmp_path / "b.csv").exists()


def test_bench_cli_rejects_repeated_sizes(tmp_path):
    r = invoke(
        "bench", "--sizes", "20,20", "--runs", "1", "--seed", "1",
        "-o", tmp_path / "b.csv",
    )
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert r.output.splitlines() == ["error=ValueError: sizes must be distinct"]
    assert not (tmp_path / "b.csv").exists()


def test_bench_cli_checks_every_size_before_the_first_set_up(tmp_path, monkeypatch):
    prepared = []
    monkeypatch.setattr(harness, "_prepare", lambda plan: prepared.append(plan))
    r = invoke("bench", "--sizes", "68,2", "--seed", "0", "-o", tmp_path / "x.csv")
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 3
    assert r.output.splitlines() == ["error=ParseError: malformed dataset: target_nodes must be >= 3, got 2"]
    assert prepared == []
    assert not (tmp_path / "x.csv").exists()


def test_bench_cli_checks_its_filter_settings_before_the_first_set_up(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_prepare", lambda plan: pytest.fail("set-up ran"))
    for flag, value, message in (
        ("--tau", "0", "tau must be finite and > 0, got 0.0"),
        ("--eta", "5", "eta must lie in (0, 1], got 5.0"),
    ):
        r = invoke("bench", "--sizes", "20,30", "--runs", "1", flag, value, "--seed", "0", "-o", tmp_path / "b.csv")
        assert isinstance(r.exception, SystemExit), (flag, r.exception)
        assert r.exit_code == 1, (flag, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not (tmp_path / "b.csv").exists()


def test_sweep_m_cli_rejects_bad_alphas_and_taus(tmp_path):
    out = tmp_path / "s.csv"
    for flag, value in (("--alphas", "-1"), ("--alphas", "nan"), ("--taus", "nan")):
        r = invoke(
            "sweep-m", "-i", FF, flag, value, "--ms", "0.5", "--seeds", "1",
            "--seed", "1", "-o", out,
        )
        assert r.exit_code == 1, (flag, value, r.output)
        name = flag.removeprefix("--").removesuffix("s")  # each entry by its owner's rule
        assert r.output.splitlines() == [f"error=ValueError: {name} must be finite and >= 0, got {float(value)!r}"]
        assert not out.exists()


def test_cli_rejects_non_finite_filter_centres(tmp_path):
    out = tmp_path / "x.csv"
    for cmd, flag, value, message in (
        ("sweep-m", "--ms", "0.5,nan", "m must be finite, got nan"),
        ("learn", "--m0s", "nan", "m0 must be finite, got nan"),
        ("basin", "--m0s", "1,inf", "m0 must be finite, got inf"),
    ):
        r = invoke(cmd, "-i", FF, flag, value, "--seeds", "1", "--seed", "1", "-o", out)
        assert r.exit_code == 1, (cmd, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()


def test_sweep_m_cli_rejects_bad_grid_flags(tmp_path):
    out = tmp_path / "s.csv"
    for flag, value, message in (
        ("--m-step", "0", "m-step must be finite and > 0, got 0.0"),
        ("--m-step", "-0.5", "m-step must be finite and > 0, got -0.5"),
        ("--m-max", "nan", "m-max must be finite and >= 0, got nan"),
    ):
        r = invoke("sweep-m", "-i", FF, flag, value, "--seeds", "1", "--seed", "1", "-o", out)
        assert isinstance(r.exception, SystemExit), (flag, value, r.exception)
        assert r.exit_code == 1, (flag, value, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()


def test_plan_file_rejects_other_flags_and_another_seed(tmp_path):
    plan = {
        "dataset": {"kind": "file", "path": FF},
        "signal": {"mode": "eigen", "n": 1},
        "m0s": [1.5],
        "seeds": 1,
        "seed": 11,
    }
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    out = tmp_path / "tr.csv"
    for extra, message in (
        (("--seed", 11, "--taus", 3), "--plan takes every setting from the plan file; drop --taus"),
        (("--seed", 11, "-i", FF, "--seeds", 2),
         "--plan takes every setting from the plan file; drop --input, --seeds"),
        (("--seed", 99), "--seed 99 differs from the plan's seed 11"),
    ):
        r = invoke("learn", "--plan", pf, *extra, "-o", out)
        assert r.exit_code == 1, (extra, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()

    pf.write_text(json.dumps({**plan, "m0s": [float("nan")]}))
    r = invoke("learn", "--plan", pf, "--seed", 11, "-o", out)
    assert r.exit_code == 3
    assert r.output.splitlines() == [
        "error=ParseError: malformed plan: m0 must be finite, got nan"
    ]


def test_plan_file_rejects_non_integer_counts(tmp_path):
    plan = {
        "dataset": {"kind": "file", "path": FF},
        "signal": {"mode": "eigen", "n": 1},
        "m0s": [1.5],
        "seeds": 1,
        "seed": 11,
    }
    pf = tmp_path / "plan.json"
    out = tmp_path / "tr.csv"
    for field, value in (
        ("seeds", 2.5), ("seeds", True), ("seed", 11.0), ("max_iters", 2.5), ("runs", 2.5),
    ):
        pf.write_text(json.dumps({**plan, field: value}))
        r = invoke("learn", "--plan", pf, "--seed", 11, "-o", out)
        assert r.exit_code == 3, (field, value, r.output)
        assert r.output.splitlines() == [
            f"error=ParseError: malformed plan: {field} must be an integer, got {value!r}"
        ]
        assert not out.exists()


def test_plan_file_rejects_non_integer_dataset_counts(tmp_path):
    plan = {
        "dataset": {"kind": "ngf", "target_nodes": 30.9, "flavor": -1, "beta": 0.0, "seed": 4},
        "signal": {"mode": "eigen", "n": 1},
        "m0s": [1.5],
        "seeds": 1,
        "seed": 11,
    }
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    out = tmp_path / "tr.csv"
    r = invoke("learn", "--plan", pf, "--seed", 11, "-o", out)
    assert r.exit_code == 3, r.output
    assert r.output.splitlines() == [
        "error=ParseError: malformed dataset: target_nodes must be an integer, got 30.9"
    ]
    assert not out.exists()


def test_plan_file_rejects_non_integer_signal_order(tmp_path):
    plan = {
        "dataset": {"kind": "file", "path": FF},
        "signal": {"mode": "eigen", "n": 1.5},
        "seeds": 1,
        "seed": 11,
    }
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    out = tmp_path / "s.csv"
    r = invoke("sweep-m", "--plan", pf, "--seed", 11, "-o", out)
    assert r.exit_code == 3, r.output
    assert r.output.splitlines() == [
        "error=ParseError: malformed plan: n must be an integer, got 1.5"
    ]
    assert not out.exists()


@click.command()
@click.option("--plan", "plan_file")
@click.option("--seed", type=int)
@click.option("--output", "-o")
def _bench_from_plan(plan_file, seed, output):
    """cmd_bench on a plan file, behind the CLI's error guard (bench takes no --plan)."""
    _guard(lambda: cmd_bench(load_plan(plan_file), output))


# (command, plan fields over _PLAN or flags, exit code, start of the error line)
_MALFORMED_INPUTS = {
    "dataset-not-an-object": (
        "sweep-m", {"dataset": ["ngf"]}, 3, "ParseError: malformed dataset: expected an object"),
    "file-dataset-without-path": (
        "sweep-m", {"dataset": {"kind": "file"}}, 3, "ParseError: malformed dataset: a file dataset"),
    "file-dataset-path-not-a-string": (
        "sweep-m", {"dataset": {"kind": "file", "path": 5}}, 3,
        "ParseError: malformed dataset: a file dataset"),
    "unknown-ngf-field": (
        "sweep-m", {"dataset": {"kind": "ngf", "target_nodes": 20, "flavr": 1}}, 3,
        "ParseError: malformed dataset: "),
    "unknown-signal-field": (
        "sweep-m", {"signal": {"mode": "eigen", "selecter": "largest_positive"}}, 3,
        "ParseError: malformed plan: "),
    "null-selector": (
        "sweep-m", {"signal": {"mode": "eigen", "selector": None}}, 3,
        "ParseError: malformed plan: selector must be a name or a number, got None"),
    "string-lambda-bar": (
        "sweep-m", {"signal": {"mode": "gaussian_mix", "lambda_bar": "1.0"}}, 3,
        "ParseError: malformed plan: lambda_bar must be a number, got '1.0'"),
    "bench-file-dataset": (
        _bench_from_plan, {"sizes": [15, 30], "runs": 1}, 3,
        "ParseError: bench grows NGF complexes"),
    **{
        f"{cmd}-lifted-without-source": (
            cmd, ("-i", FF, "--mode", "lifted", "--seed", 1), 1,
            "ValueError: a lifted signal needs a source")
        for cmd in ("synth", "sweep-m", "learn", "heatmap", "basin")
    },
    "unknown-selector-flag": (
        "sweep-m", ("-i", FF, "--selector", "middle", "--seed", 1), 1,
        "ValueError: selector must be a number or one of smallest_positive, "),
}
_PLAN = {
    "dataset": {"kind": "file", "path": FF},
    "signal": {"mode": "eigen", "n": 1},
    "ms": [0.5],
    "seeds": 1,
    "seed": 11,
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_inputs_fail_with_one_error_line(tmp_path, case):
    command, given, code, error = _MALFORMED_INPUTS[case]
    out = tmp_path / "out.csv"
    if isinstance(given, dict):
        pf = tmp_path / "plan.json"
        pf.write_text(json.dumps({**_PLAN, **given}))
        args = ["--plan", pf, "--seed", 11, "-o", out]
    else:
        args = [*given, "-o", out]
    if isinstance(command, str):
        r = invoke(command, *args)
    else:
        r = CliRunner().invoke(command, [str(a) for a in args])
    assert isinstance(r.exception, SystemExit), r.exc_info
    assert r.exit_code == code, r.output
    assert "Traceback" not in r.output
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=" + error), r.stderr
    assert not out.exists()


@pytest.fixture(scope="module")
def florentine_plan(tmp_path_factory):
    """The plan that `learn --seeds 2 --seed 7` records on the Florentine network."""
    out = tmp_path_factory.mktemp("plan") / "learn.csv"
    r = invoke("learn", "-i", FF, "--seeds", 2, "--seed", 7, "-o", out)
    assert r.exit_code == 0, r.output
    return json.loads(out.read_text().splitlines()[1].removeprefix("# plan: "))


# One-field changes of a valid plan (signal fields merge into its signal),
# and the field each one's error must name: a bad grid entry is named by the
# rule of the owner it feeds (alpha, tau, m, m0), a grid that is not a list
# by its own name.
_PLAN_FAULTS = {
    "eta-string": ({"eta": "0.3"}, "eta"),
    "eta-list": ({"eta": [0.3]}, "eta"),
    "delta-null": ({"delta": None}, "delta"),
    "eta-true": ({"eta": True}, "eta"),
    "taus-true": ({"taus": [True]}, "tau"),
    "alphas-true": ({"alphas": [True]}, "alpha"),
    "m0s-true": ({"m0s": [True]}, "m0"),
    "eta-above-one": ({"eta": 5}, "eta"),
    "max-iters-zero": ({"max_iters": 0}, "max_iters"),
    "alphas-string": ({"alphas": ["0.5"]}, "alpha"),
    "ms-null": ({"ms": [None]}, "m"),
    "seeds-zero": ({"seeds": 0}, "seeds"),
    "delta-negative": ({"delta": -1}, "delta"),
    "signal-sigma-hat-negative": ({"signal": {"sigma_hat": -1}}, "sigma_hat"),
    "signal-variance-convention": ({"signal": {"variance_convention": "cubed"}}, "variance_convention"),
    "signal-lambda-bar-nan": ({"signal": {"lambda_bar": float("nan")}}, "lambda_bar"),
    "signal-selector-nan": ({"signal": {"selector": float("nan")}}, "selector"),
    "signal-selector-inf": ({"signal": {"selector": float("inf")}}, "selector"),
    "dataset-beta-negative": (
        {"dataset": {"kind": "ngf", "target_nodes": 30, "flavor": -1, "beta": -1}}, "beta"),
    "taus-number": ({"taus": 5}, "taus"),
    "alphas-number": ({"alphas": 0.5}, "alphas"),
    "m0s-number": ({"m0s": 2.0}, "m0s"),
    "sizes-number": ({"sizes": 3}, "sizes"),
    "ms-string": ({"ms": "abc"}, "ms"),
    "signal-mode-unknown": ({"signal": {"mode": "telepathy"}}, "mode"),
    "signal-n-three": ({"signal": {"n": 3}}, "n"),
    "signal-selector-unknown": ({"signal": {"selector": "middle"}}, "selector"),
}


@pytest.mark.parametrize("command", ["sweep-m", "learn", "heatmap", "basin"])
@pytest.mark.parametrize("case", sorted(_PLAN_FAULTS))
def test_plan_faults_are_one_parse_error_in_every_grid_command(tmp_path, florentine_plan, case, command):
    change, field = _PLAN_FAULTS[case]
    plan = {**florentine_plan, **change}
    if "signal" in change:
        plan["signal"] = {**florentine_plan["signal"], **change["signal"]}
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    r = invoke(command, "--plan", pf, "--seed", 7, "-o", tmp_path / "out.csv")
    assert r.exit_code == 3, r.output
    assert "Traceback" not in r.output
    lines = r.output.splitlines()
    assert len(lines) == 1 and re.match(rf"error=ParseError: malformed (plan|dataset): {field} must ", lines[0]), lines
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


@pytest.mark.parametrize("command", ["sweep-m", "learn", "heatmap", "basin"])
@pytest.mark.parametrize("key", ["bogus", "dataset"], ids=["unknown", "missing"])
def test_an_unknown_or_missing_plan_key_is_one_parse_error(tmp_path, florentine_plan, key, command):
    # the key is dropped from the plan if it has it, else added
    plan = {k: v for k, v in florentine_plan.items() if k != key}
    if key not in florentine_plan:
        plan[key] = 1
    pf = tmp_path / "plan.json"
    pf.write_text(json.dumps(plan))
    r = invoke(command, "--plan", pf, "--seed", 7, "-o", tmp_path / "out.csv")
    assert r.exit_code == 3, r.output
    lines = r.output.splitlines()
    assert len(lines) == 1 and re.match(rf"error=ParseError: malformed plan: .*'{key}'", lines[0]), lines
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


@pytest.mark.parametrize("command", ["learn", "basin"])
def test_a_plan_with_integer_grid_values_replays_from_its_header(tmp_path, florentine_plan, command):
    plan, header = tmp_path / "plan.json", tmp_path / "header.json"
    first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
    plan.write_text(json.dumps({**florentine_plan, "taus": [7], "alphas": [1], "m0s": [2]}))
    r = invoke(command, "--plan", plan, "--seed", 7, "-o", first)
    assert r.exit_code == 0, r.output
    header.write_text(first.read_text().splitlines()[1].removeprefix("# plan: "))
    r = invoke(command, "--plan", header, "--seed", 7, "-o", replay)
    assert r.exit_code == 0, r.output
    assert first.read_bytes() == replay.read_bytes()
    if command == "learn":
        assert (tmp_path / "first.summary.csv").read_bytes() == (tmp_path / "replay.summary.csv").read_bytes()


def _learn_ngf600(tmp_path, name: str, threads: int) -> tuple[str, str]:
    """learn on NGF-600 in a fresh interpreter with ``threads`` BLAS threads: (traces, summary)."""
    out = tmp_path / f"{name}.csv"
    src = str(Path(diracsp.__file__).parents[1])
    env = {
        **os.environ,
        **{var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run(
        [sys.executable, "-m", "diracsp.cli", "learn", "--nodes", "600", "--flavor", "-1",
         "--preset", "gaussian", "--seeds", "5", "--seed", "3", "-o", str(out)],
        env=env, check=True, capture_output=True,
    )
    return out.read_text(), out.with_name(f"{name}.summary.csv").read_text()


def test_learn_bytes_repeat_per_blas_thread_count(tmp_path):
    # The bytes are reproducible for one BLAS library and thread count; another
    # thread count may round the dense set-up differently in the last bits.
    runs = {
        threads: [_learn_ngf600(tmp_path, f"t{threads}r{k}", threads) for k in range(2)]
        for threads in (1, 2)
    }
    for first, second in runs.values():
        assert first == second
    exact = {"tau", "alpha", "m0", "draw", "t", "converged", "iterations"}
    for one, two in zip(runs[1][0], runs[2][0]):
        assert [x for x in one.splitlines() if x.startswith("#")] == [
            x for x in two.splitlines() if x.startswith("#")
        ]
        (header, *rows_one), (header_two, *rows_two) = (
            list(csv.reader(x for x in text.splitlines() if not x.startswith("#"))) for text in (one, two)
        )
        assert header == header_two and len(rows_one) == len(rows_two)
        for row_one, row_two in zip(rows_one, rows_two):
            for column, a, b in zip(header, row_one, row_two):
                if a != b:
                    assert column not in exact, (column, a, b)
                    assert float(a) == pytest.approx(float(b), rel=1e-10, abs=0), (column, a, b)


def test_stochastic_commands_require_seed(tmp_path):
    for cmd in (
        ("sweep-m", "-i", FF, "-o", tmp_path / "x.csv"),
        ("learn", "-i", FF, "-o", tmp_path / "x.csv"),
        ("heatmap", "-i", FF, "-o", tmp_path / "x.csv"),
        ("basin", "-i", FF, "-o", tmp_path / "x.csv"),
        ("bench", "-o", tmp_path / "x.csv"),
    ):
        r = invoke(*cmd)
        assert r.exit_code == 2, cmd
        assert "--seed" in r.output


# (opts, default, required, choices or type) of every option, recorded from
# the commands as they were before they were declared from one table.
_DATASET_AND_SIGNAL = [
    (("--input", "-i"), None, False, "Path"),
    (("--nodes",), 50, False, "Int"),
    (("--flavor",), "-1", False, ("-1", "0", "1")),
    (("--beta",), 0.0, False, "Float"),
    (("--preset",), None, False, ("gaussian", "largest", "smallest")),
    (("--mode",), "eigen", False, ("eigen", "gaussian_mix", "lifted")),
    (("--n",), "1", False, ("1", "2")),
    (("--selector",), "smallest_positive", False, "String"),
    (("--lambda-bar",), 1.0, False, "Float"),
    (("--sigma-hat",), 0.2, False, "Float"),
    (("--variance-convention",), "linear", False, ("linear", "squared")),
    (("--source",), None, False, "Path"),
]
_ETA_DELTA = [
    (("--eta",), 0.3, False, "Float"),
    (("--delta",), 0.0001, False, "Float"),
]
_SEED_PLAN_OUTPUT = [
    (("--seed",), None, True, "Int"),
    (("--plan",), None, False, "Path"),
    (("--output", "-o"), None, True, "Path"),
]
OPTION_SURFACE = {
    "basin": [
        *_DATASET_AND_SIGNAL,
        (("--alphas",), "0.6,1.5", False, "String"),
        (("--taus",), "7", False, "String"),
        (("--m0s",), "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3", False, "String"),
        *_ETA_DELTA,
        (("--seeds",), 20, False, "Int"),
        *_SEED_PLAN_OUTPUT,
    ],
    "bench": [
        (("--sizes",), "68,134,267,534,1068", False, "String"),
        (("--runs",), 20, False, "Int"),
        (("--alpha",), 0.5, False, "Float"),
        (("--tau",), 2.0, False, "Float"),
        *_ETA_DELTA,
        (("--flavor",), "-1", False, ("-1", "0", "1")),
        (("--seed",), None, True, "Int"),
        (("--output", "-o"), None, True, "Path"),
    ],
    "generate": [
        (("--nodes",), None, True, "Int"),
        (("--flavor",), "-1", False, ("-1", "0", "1")),
        (("--beta",), 0.0, False, "Float"),
        (("--seed",), None, True, "Int"),
        (("--output", "-o"), None, True, "Path"),
    ],
    "heatmap": [
        *_DATASET_AND_SIGNAL,
        (("--alphas",), "0.1,0.3,0.5,0.7,1.0,1.5", False, "String"),
        (("--taus",), "0.5,1.0,2.0,5.0,10.0,20.0", False, "String"),
        (("--m0s",), None, False, "String"),
        *_ETA_DELTA,
        (("--seeds",), 10, False, "Int"),
        *_SEED_PLAN_OUTPUT,
    ],
    "info": [
        (("--input", "-i"), None, True, "Path"),
    ],
    "learn": [
        *_DATASET_AND_SIGNAL,
        (("--alphas",), "0.5", False, "String"),
        (("--taus",), "7", False, "String"),
        (("--m0s",), None, False, "String"),
        *_ETA_DELTA,
        (("--max-iters",), 500, False, "Int"),
        (("--seeds",), 50, False, "Int"),
        *_SEED_PLAN_OUTPUT,
    ],
    "sweep-m": [
        *_DATASET_AND_SIGNAL,
        (("--alphas",), "0.6", False, "String"),
        (("--taus",), "10", False, "String"),
        (("--ms",), "", False, "String"),
        (("--m-max",), 3.0, False, "Float"),
        (("--m-step",), 0.05, False, "Float"),
        (("--seeds",), 100, False, "Int"),
        *_SEED_PLAN_OUTPUT,
    ],
    "synth": [
        (("--input", "-i"), None, True, "Path"),
        *_DATASET_AND_SIGNAL[5:],
        (("--alpha",), 0.0, False, "Float"),
        (("--seed",), None, False, "Int"),
        (("--output", "-o"), None, True, "Path"),
        (("--noisy-output",), None, False, "Path"),
    ],
}


def test_option_surface_is_unchanged():
    def surface(cmd):
        rows = []
        for p in cmd.params:
            info = p.to_info_dict()
            kind = info["type"].get("choices") or info["type"]["param_type"]
            rows.append((
                tuple(info["opts"]), info["default"], info["required"],
                kind if isinstance(kind, str) else tuple(kind),
            ))
        return rows

    assert {name: surface(cmd) for name, cmd in main.commands.items()} == OPTION_SURFACE


IMPORT_GUARD = """
import json, sys
from pathlib import Path
import diracsp.cli
from diracsp.cli import main
from diracsp.datasets import dataset_path

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

found = {"import": scipy_modules()}
out = Path(sys.argv[1])
coastal, ngf = dataset_path("coastal_tessellation.json"), str(out / "ngf.json")
runs = {
    "generate": ["generate", "--nodes", "60", "--seed", "0", "-o", ngf],
    "info": ["info", "-i", ngf],
    "synth": ["synth", "-i", coastal, "--n", "2", "--alpha", "0.5", "--seed", "1", "-o", str(out / "s.csv")],
    "sweep-m": ["sweep-m", "-i", coastal, "--n", "2", "--ms", "0.5,1", "--seeds", "2", "--seed", "1",
                "-o", str(out / "sweep.csv")],
    "learn": ["learn", "-i", ngf, "--preset", "gaussian", "--taus", "7", "--alphas", "0.5", "--seeds", "2",
              "--seed", "3", "-o", str(out / "learn.csv")],
    "heatmap": ["heatmap", "-i", coastal, "--taus", "5", "--alphas", "0.5", "--seeds", "2", "--seed", "1",
                "-o", str(out / "heat.csv")],
    "basin": ["basin", "-i", coastal, "--taus", "5", "--alphas", "0.5", "--seeds", "2", "--seed", "1",
              "-o", str(out / "basin.csv")],
    "bench": ["bench", "--sizes", "15,30", "--runs", "2", "--seed", "2", "-o", str(out / "bench.csv")],
}
for name, args in runs.items():
    main(args, standalone_mode=False)
    found[name] = scipy_modules()

import numpy
import diracsp
from diracsp.datasets import florentine_marriage
K = florentine_marriage()
D = diracsp.assemble_dirac(K)
s = numpy.random.default_rng(0).standard_normal(K.spinor_dim)
got = diracsp.hodge_filter(diracsp.TopologicalSpinor.from_vector(K, s), D, 2.0).vector
want = numpy.linalg.solve(numpy.eye(K.spinor_dim) + 2.0 * D.super_laplacian.toarray(), s)
found["hodge_filter"] = {"error": float(abs(got - want).max()), "loaded": "scipy.sparse.linalg" in sys.modules}
print(json.dumps(found))
"""


def test_the_package_imports_no_graph_or_sparse_solver_module(tmp_path):
    # in a fresh process, importing the CLI loads no scipy module, and
    # neither does any command that runs after it: the run path is numpy
    # alone.  The sparse API loads scipy.sparse on first use, and
    # hodge_filter its sparse LU.
    src = str(Path(diracsp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env, check=True, capture_output=True, text=True
    )
    found = json.loads(done.stdout.splitlines()[-1])
    filtered = found.pop("hodge_filter")
    assert list(found) == ["import", "generate", "info", "synth", "sweep-m", "learn", "heatmap", "basin", "bench"]
    assert {step: loaded for step, loaded in found.items() if loaded} == {}
    assert filtered["error"] <= 1e-12
    assert filtered["loaded"]

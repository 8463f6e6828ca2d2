import json
from itertools import product

from click.testing import CliRunner

from diracsp.cli import main
from diracsp.datasets import dataset_path

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


def test_generate_requires_seed(tmp_path):
    r = invoke("generate", "--nodes", 10, "-o", tmp_path / "k.json")
    assert r.exit_code != 0


def test_info_rejects_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "diracsp/complex/1", "nodes": 2,
                               "links": [[0, 1]], "triangles": [[0, 1, 2]]}))
    r = invoke("info", "-i", bad)
    assert r.exit_code == 3
    assert "error=IndexOutOfRange" in r.output or "error=MissingFace" in r.output


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
    assert r.output.splitlines() == ["error=ValueError: runs must be >= 1"]
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


def test_sweep_m_cli_rejects_bad_alphas_and_taus(tmp_path):
    out = tmp_path / "s.csv"
    for flag, value in (("--alphas", "-1"), ("--alphas", "nan"), ("--taus", "nan")):
        r = invoke(
            "sweep-m", "-i", FF, flag, value, "--ms", "0.5", "--seeds", "1",
            "--seed", "1", "-o", out,
        )
        assert r.exit_code == 1, (flag, value, r.output)
        name = flag.removeprefix("--")
        assert r.output.splitlines() == [f"error=ValueError: {name} must be finite and >= 0"]
        assert not out.exists()


def test_cli_rejects_non_finite_filter_centres(tmp_path):
    out = tmp_path / "x.csv"
    for cmd, flag, value, message in (
        ("sweep-m", "--ms", "0.5,nan", "ms must be finite"),
        ("learn", "--m0s", "nan", "m0s must be finite numbers or 'auto'"),
        ("basin", "--m0s", "1,inf", "m0s must be finite numbers or 'auto'"),
    ):
        r = invoke(cmd, "-i", FF, flag, value, "--seeds", "1", "--seed", "1", "-o", out)
        assert r.exit_code == 1, (cmd, r.output)
        assert r.output.splitlines() == [f"error=ValueError: {message}"]
        assert not out.exists()


def test_sweep_m_cli_rejects_bad_grid_flags(tmp_path):
    out = tmp_path / "s.csv"
    for flag, value, message in (
        ("--m-step", "0", "m-step must be finite and > 0"),
        ("--m-step", "-0.5", "m-step must be finite and > 0"),
        ("--m-max", "nan", "m-max must be finite and >= 0"),
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
        "error=ParseError: malformed plan: m0s must be finite numbers or 'auto'"
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

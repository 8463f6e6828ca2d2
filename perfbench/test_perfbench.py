"""Self-tests of the benchmark, on reduced workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import child
import hostspeed

child.import_checkout_package()

import outcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((child.ROOT / "BENCHMARK.json").read_text())

REDUCED = {
    "coastal-heatmap": dict(grid=dict(taus=(1.0, 10.0), alphas=(0.3, 1.0), m0s=(2.0,), seeds=3)),
    "coastal-sweep-n2": dict(grid=dict(taus=(10.0,), alphas=(0.6,), ms=(0.5, 1.0, 2.0), seeds=4)),
    "ngf1000-learn": dict(
        grid=dict(taus=(7.0,), alphas=(0.5,), m0s=(2.0,), seeds=3), ngf_nodes=60
    ),
}


def reduced(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **REDUCED[name])


def bound_names():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.TARGETS
    }


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_workload_traced(name, tmp_path):
    wl = reduced(name)
    wl.setup()
    wl.run(5, tmp_path / "plain")
    before = bound_names()
    with tracing.Tracer() as tracer:
        with tracer.span(tracing.WORKLOAD):
            wl.run(5, tmp_path / "traced")
    after = bound_names()
    assert all(after[k] is before[k] for k in before), "tracer left a name patched"
    assert tracer.missing == []

    spans = tracer.spans
    assert spans[0][0] == tracing.WORKLOAD and spans[0][3] == -1
    for name_, start, end, parent in spans[1:]:
        assert parent >= 0, f"{name_} has no parent"
        p = spans[parent]
        assert p[1] <= start <= end <= p[2], f"{name_} not inside {p[0]}"
    self_ns = tracing.self_times_ns(spans)
    assert min(self_ns) >= 0
    for i, (_, start, end, _) in enumerate(spans):
        children = sum(s[2] - s[1] for s in spans if s[3] == i)
        assert children <= end - start

    metrics = tracing.layer_metrics(tracer)
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == expected
    assert metrics["trace.missing_names"] == 0
    assert metrics["operators.spectral_basis_s"] > 0 and metrics["harness.csv_bytes"] > 0

    # tracing changes no output
    plain = outcheck.digest(wl.outputs(tmp_path / "plain"))
    assert outcheck.compare(plain, outcheck.digest(wl.outputs(tmp_path / "traced"))) == []


def test_tracer_restores_names_after_error():
    before = bound_names()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = bound_names()
    assert all(after[k] is before[k] for k in before)


def test_missing_name_is_reported_not_raised():
    targets = tracing.TARGETS + (("diracsp.harness", "no_such_function", "x.y", None),
                                 ("diracsp.no_such_module", "f", "x.z", None))
    with tracing.Tracer(targets) as tracer:
        pass
    assert tracer.missing == ["diracsp.harness.no_such_function", "diracsp.no_such_module.f"]
    assert tracing.layer_metrics(tracer)["trace.missing_names"] == 2


def test_output_check_rejects_altered_reference(tmp_path):
    wl = reduced("ngf1000-learn")
    wl.run(2, tmp_path)
    got = outcheck.digest(wl.outputs(tmp_path))
    ref = outcheck.rounded(got)
    assert outcheck.compare(ref, got) == []

    altered = json.loads(json.dumps(ref))
    row = altered["learn.summary.csv"]["rows"][1]
    row[6] *= 1 + 1e-5  # m_final
    problems = outcheck.compare(altered, got)
    assert len(problems) == 1 and "m_final" in problems[0]

    altered = json.loads(json.dumps(ref))
    altered["learn.csv"]["rows"].pop()
    assert outcheck.compare(altered, got)

    counts = {k: 1 for k in outcheck.COUNT_KEYS}
    assert outcheck.compare_counts(counts, counts) == []
    assert outcheck.compare_counts(counts, dict(counts, **{"filtering.learn_iters": 2}))


def test_stored_reference_covers_the_seed_pool():
    for name in run.WORKLOADS:
        ref = outcheck.load_reference(name)
        assert ref["pool"] == workloads.REFERENCE_POOL
        assert sorted(ref["seeds"], key=int) == [str(s) for s in range(workloads.REFERENCE_POOL)]


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(child.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(child.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coastal-heatmap",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _CountingCalibration:
    def __init__(self):
        self.calls = []

    def run(self, seconds):
        self.calls.append(seconds)


def test_calibration_runs_before_the_first_repetition_and_after_each():
    calibration = _CountingCalibration()
    times, attempted, failed = child._repeat(0.0, 3, lambda rep: (0.5, rep != 1), calibration)
    assert (times, attempted, failed) == ([0.5] * 3, 3, 1)
    assert calibration.calls == [0.0] + [hostspeed.SHARE * 0.5] * 3


def test_host_factor_scales_times():
    calibration = hostspeed.Calibration()
    calibration.run(0.0)
    assert len(calibration.samples) == 1 and calibration.factor() > 0
    result = {"times": [1.0, 3.0, 2.0], "host_factor": 2.0}
    assert run.scaled_median(result) == 1.0
    assert workloads.WORKLOADS["coastal-sweep-n2"].host_scaled
    assert not workloads.WORKLOADS["ngf1000-learn"].host_scaled

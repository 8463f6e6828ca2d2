"""diracsp benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload coastal-sweep-n2 --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each measurement runs in fresh processes (``child.py``):

* ``--trace 0``: one process repeats the set-up sequence (``setup_s``),
  another repeats the whole workload for ``--seconds`` (``wall_s``, and its
  own ``peak_rss_mb``).  No wrappers are installed.
* ``--trace 1``: one untraced and one traced process share ``--seconds``;
  the traced one gives the per-layer metrics, and the difference of the two
  median wall times is ``trace.overhead_s``.

Times are medians over a process's repetitions.  For a workload that names
the host-speed kernel (``hostspeed.py``), each process's times are divided by
its host factor; the raw medians and factors are printed beside the metrics.

Every repetition's outputs are compared with the stored reference values.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
# BENCHMARK.json lists the last two; coastal-heatmap is too noisy on a shared
# host for a bounded check and is run by hand (see README.md).
WORKLOADS = ("coastal-heatmap", "coastal-sweep-n2", "ngf1000-learn")
# Share of --seconds spent repeating the set-up sequence in its own process.
SETUP_SHARE = 0.25
# Every run must end well inside three minutes.
DEADLINE_S = 170.0
# One BLAS/OpenMP thread per process.  On a host with few cores, a second
# thread makes every small matrix-vector product wait on a scheduler wake-up,
# and the figures then measure the host rather than diracsp.
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def _child(mode: str, workload: str, seed: int, seconds: float, deadline: float, **opts) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        cmd += [flag] if value is True else [flag, str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              env=dict(os.environ, **SINGLE_THREAD))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for problem in result.get("problems", []):
        print(f"output check: {problem}", file=sys.stderr)
    if not result["times"]:
        raise BenchError(f"{mode} process for {workload}: no repetition completed")
    return result


def scaled_median(child: dict) -> float:
    """The median repetition time divided by the process's host factor."""
    return statistics.median(child["times"]) / child["host_factor"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run one workload; return (metrics by name, the child results)."""
    deadline = time.monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        if not trace:
            setup = _child("setup", workload, seed, seconds * SETUP_SHARE, deadline)
            wall = _child("wall", workload, seed, seconds, deadline, outdir=tmp / "wall")
            metrics = {
                "wall_s": scaled_median(wall),
                "setup_s": scaled_median(setup),
                "peak_rss_mb": wall["peak_rss_mb"],
            }
            return metrics, [wall, setup]
        plain = _child("wall", workload, seed, seconds / 2, deadline,
                       outdir=tmp / "plain", min_reps=2)
        traced = _child("wall", workload, seed, seconds / 2, deadline,
                        outdir=tmp / "traced", min_reps=2, trace=True,
                        spans=WORKDIR / f"spans-{workload}.json")
        names = traced["layers"][0].keys()
        metrics = {k: statistics.median([rep[k] for rep in traced["layers"]]) for k in names}
        metrics["trace.overhead_s"] = scaled_median(traced) - scaled_median(plain)
        if traced.get("missing"):
            print(f"missing (not traced): {', '.join(traced['missing'])}", file=sys.stderr)
        return metrics, [traced, plain]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(workload: str, seed: int, trace: bool, metrics: dict, children: list, spec: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        raise BenchError(f"metrics not measured: {absent}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = children[0]["env"]
    print(f"{workload} seed={seed} noise_seed={env['noise_seed']} trace={int(trace)}")
    reps = {"wall_s": children[0], "setup_s": children[-1]}
    for m in wanted:
        note = ""
        if m["name"] in reps and not trace:
            times, factor = reps[m["name"]]["times"], reps[m["name"]]["host_factor"]
            note = f"  (median of {len(times)}: {' '.join(f'{t:.4g}' for t in times)})"
            if factor != 1.0:
                note = f"  (raw {statistics.median(times):.6g} s / host factor {factor:.4f}){note}"
        print(f"  {m['name']:<34} {metrics[m['name']]:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<34} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print("  env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diracsp" / "__init__.py").is_file():
        print(f"error: no diracsp source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        for name in names:
            metrics, children = measure(name, args.seed, args.seconds, trace)
            print(json.dumps(report(name, args.seed, trace, metrics, children, spec)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

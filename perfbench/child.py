"""Body of one fresh benchmark process; ``run.py`` starts it.

    python3 perfbench/child.py setup --workload W --seed S --seconds T
    python3 perfbench/child.py wall  --workload W --seed S --seconds T --outdir D [--trace]

``setup`` repeats the workload's set-up sequence; ``wall`` repeats the whole
workload, checks each repetition's outputs against the stored reference and,
with ``--trace``, records per-layer spans.  Either mode repeats for about T
seconds (at least ``--min-reps`` times) and prints one JSON line with the
per-repetition times, failure counts and the process's own peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
MAX_REPS = 40
MAX_FAILURES = 3


def import_checkout_package():
    """Import diracsp and insist it is the checkout's own source tree."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import diracsp

    if src not in Path(diracsp.__file__).resolve().parents:
        sys.exit(f"error: diracsp imported from {diracsp.__file__}, not from {src}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_SELF: this process only.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diracsp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    # A checkout without .git (an exported tree) has no commit; src_sha256
    # still identifies the code.  Never ask git about an enclosing repository.
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _repeat(seconds: float, min_reps: int, body, calibration=None) -> tuple[list[float], int, int]:
    """Call ``body(rep)`` until the next repetition would overrun ``seconds``.

    ``body`` returns (its own timed seconds, whether its outputs passed).
    Returns (times of the repetitions that completed, attempted, failed);
    a repetition that completed but failed its check is timed and failed.
    A ``hostspeed.Calibration`` runs its kernel before the first repetition
    and after each one.
    """
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    last = 0.0
    if calibration is not None:
        calibration.run(0.0)
    while attempted < MAX_REPS and failed < MAX_FAILURES:
        elapsed = time.perf_counter() - start
        if attempted >= min_reps and elapsed + last > seconds:
            break
        attempted += 1
        try:
            last, ok = body(attempted - 1)
            times.append(last)
            if not ok:
                failed += 1
        except Exception:  # one failing repetition must not end the measurement
            traceback.print_exc()
            failed += 1
        if calibration is not None:
            calibration.run(hostspeed.SHARE * last)
    return times, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "wall"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-reps", type=int, default=3)
    ap.add_argument("--outdir", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the last traced repetition's spans here")
    args = ap.parse_args(argv)

    import_checkout_package()
    import outcheck
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    result = {}
    calibration = hostspeed.Calibration() if wl.host_scaled else None

    if args.mode == "setup":
        def body(rep):
            t0 = time.perf_counter()
            wl.setup()
            return time.perf_counter() - t0, True

        times, attempted, failed = _repeat(args.seconds, args.min_reps, body, calibration)
    else:
        ref = outcheck.load_reference(wl.name)["seeds"][str(workloads.noise_seed(args.seed))]
        layers: list[dict] = []
        problems: list[str] = []
        last_trace: list = []

        def body(rep):
            outdir = args.outdir / f"rep{rep}"
            if args.trace:
                with tracing.Tracer() as tracer:
                    t0 = time.perf_counter()
                    with tracer.span(tracing.WORKLOAD):
                        wl.run(args.seed, outdir)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                wl.run(args.seed, outdir)
                dt = time.perf_counter() - t0
            found = outcheck.compare(ref["outputs"], outcheck.digest(wl.outputs(outdir)))
            if args.trace:
                metrics = tracing.layer_metrics(tracer)
                layers.append(metrics)
                if "diracsp.harness.learn" not in tracer.missing:
                    counts = dict(metrics, **{"filtering.converged": tracer.counters["filtering.converged"]})
                    found += outcheck.compare_counts(ref["counts"], counts)
                result["missing"] = tracer.missing
                last_trace[:] = [tracer]
            shutil.rmtree(outdir)
            problems.extend(f"rep {rep}: {p}" for p in found[:5])
            return dt, not found

        times, attempted, failed = _repeat(args.seconds, args.min_reps, body, calibration)
        if last_trace and args.spans is not None:
            tracer = last_trace[0]
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(
                {"workload": wl.name, "seed": args.seed, "missing": tracer.missing,
                 "spans": tracer.spans}
            ))
        env = dict(environment(), seed=args.seed, noise_seed=workloads.noise_seed(args.seed))
        result.update(layers=layers, problems=problems[:20], env=env)

    result.update(
        times=times, attempted=attempted, failed=failed, peak_rss_mb=peak_rss_mb(),
        host_factor=calibration.factor() if calibration else 1.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs the benchmark's output check compares against.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each workload and each noise seed of the reference pool this runs the
workload once under the tracer and stores, in ``reference/<workload>.json``,
the digest of its CSV data rows and its learning counts.  Re-run it only
when a change of results is intended, and say so where the change is
recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from child import ROOT, import_checkout_package, environment


def main(argv=None) -> int:
    import_checkout_package()
    import outcheck
    import tracing
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    outcheck.REFERENCE_DIR.mkdir(exist_ok=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        seeds = {}
        for seed in range(workloads.REFERENCE_POOL):
            tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench"))
            outdir = tmp / "out"
            try:
                with tracing.Tracer() as tracer:
                    wl.run(seed, outdir)
                metrics = tracing.layer_metrics(tracer)
                seeds[str(seed)] = {
                    "outputs": outcheck.rounded(outcheck.digest(wl.outputs(outdir))),
                    "counts": {
                        "filtering.learn_calls": metrics["filtering.learn_calls"],
                        "filtering.learn_iters": metrics["filtering.learn_iters"],
                        "filtering.converged": tracer.counters["filtering.converged"],
                    },
                }
            finally:
                shutil.rmtree(tmp)
            print(f"{name} seed {seed}: {seeds[str(seed)]['counts']}", flush=True)
        env = environment()
        env.pop("commit")  # the commit that adds this file does not exist yet
        ref = {"workload": name, "pool": workloads.REFERENCE_POOL, "digits": outcheck.DIGITS,
               "env": env, "seeds": seeds}
        path = outcheck.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

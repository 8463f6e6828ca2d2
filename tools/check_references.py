#!/usr/bin/env python3
"""Check a run of every benchmark workload at every seed of its stored reference.

Run from the repository root:

    python tools/check_references.py

A benchmark run checks the outputs of one noise seed.  This runs each
workload of ``perfbench/workloads.py`` once, untraced, for every seed of the
reference pool, and compares its outputs with the stored digest in
``perfbench/reference/<workload>.json`` through ``perfbench/outcheck.py``:
numbers to its relative tolerance, and the number of rows each learning draw
writes (its iteration count) exactly.  It prints one line per workload and
seed, the first mismatches of a failing one, and exits 1 if any seed fails.
"""

import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from child import import_checkout_package  # noqa: E402


def main() -> int:
    import_checkout_package()
    import outcheck
    import workloads

    # the heatmap's alpha = 1 cells warn of low SNR on most seeds, as designed
    warnings.filterwarnings("ignore", "estimated snr", RuntimeWarning)

    failed = 0
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        reference = outcheck.load_reference(name)["seeds"]
        for seed in range(workloads.REFERENCE_POOL):
            with tempfile.TemporaryDirectory() as tmp:
                outdir = Path(tmp) / "out"
                wl.run(seed, outdir)
                problems = outcheck.compare(reference[str(seed)]["outputs"], outcheck.digest(wl.outputs(outdir)))
            print(f"{name} seed {seed}: {'ok' if not problems else f'{len(problems)} mismatches'}", flush=True)
            for problem in problems[:5]:
                print(f"  {problem}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

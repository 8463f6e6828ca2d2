#!/usr/bin/env python3
"""Wall time and peak RSS of the CLI `learn` flow on NGF complexes of given sizes.

Run from the repository root:

    python tools/reach.py 1000 2000 3000

For each size N it starts one fresh Python process with one BLAS/OpenMP
thread.  That process runs, through the CLI entry point, the flow of the
benchmark's ngf1000-learn workload at N nodes: `diracsp generate --nodes N
--flavor -1 --seed 0`, `diracsp info` on that file, then `diracsp learn`
with the gaussian preset (tau 7, alpha 0.5, m0 2, 20 draws, noise seed 3).
It prints one line per size: N; the import floor, import_s (the time of
`from diracsp.cli import main`) and import_rss_mb (the process's peak RSS
right after that import); then wall_s (generate through learn; interpreter
start and imports excluded), peak_rss_mb, the process's peak RSS at the
end, and scipy_modules, the number of ``scipy`` modules loaded by then.  The
process reads both RSS figures itself, in MB, with getrusage(RUSAGE_SELF).
The run path needs numpy alone, so scipy_modules should read 0.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import resource, sys, time
from pathlib import Path

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

start = time.perf_counter()
from diracsp.cli import main
imported, import_rss = time.perf_counter() - start, rss_mb()

nodes, out = sys.argv[1], Path(sys.argv[2])
complex_file, learn_file = str(out / "complex.json"), str(out / "learn.csv")
start = time.perf_counter()
for args in (
    ["generate", "--nodes", nodes, "--flavor", "-1", "--seed", "0", "-o", complex_file],
    ["info", "-i", complex_file],
    ["learn", "-i", complex_file, "--preset", "gaussian", "--taus", "7",
     "--alphas", "0.5", "--seeds", "20", "--seed", "3", "-o", learn_file],
):
    main(args, standalone_mode=False)
wall = time.perf_counter() - start
scipy_modules = sum(name.split(".")[0] == "scipy" for name in sys.modules)
print(f"{imported:.3f} {import_rss:.1f} {wall:.3f} {rss_mb():.1f} {scipy_modules}")
"""


def measure(nodes: int) -> tuple[float, float, float, float, int]:
    """(import_s, import RSS in MB, wall_s, peak RSS in MB, scipy modules loaded)
    of the flow at NGF-`nodes`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(nodes), out],
            env=env, capture_output=True, text=True, check=True,
        )
    *figures, scipy_modules = done.stdout.split()[-5:]
    return (*(float(value) for value in figures), int(scipy_modules))


def main(argv: list[str]) -> None:
    if not argv:
        sys.exit("usage: python tools/reach.py N [N ...]")
    sizes = [int(arg) for arg in argv]
    print("nodes import_s import_rss_mb wall_s peak_rss_mb scipy_modules")
    for nodes in sizes:
        imported, import_rss, wall, rss, scipy_modules = measure(nodes)
        print(f"{nodes} {imported:.3f} {import_rss:.1f} {wall:.3f} {rss:.1f} {scipy_modules}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

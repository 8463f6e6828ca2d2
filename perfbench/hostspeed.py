"""Host-speed reference kernel for workloads whose time follows the host's drift.

On a shared host the speed of a vCPU drifts by tens of percent for minutes
at a time, and small memory-bound numpy calls follow that drift almost one
for one.  A workload made of such calls (``coastal-sweep-n2``) names this
kernel: a fixed piece of numpy work with no diracsp in it, shaped like the
workload's inner step.  The benchmark times the kernel between the
workload's repetitions, in the same process, and divides the workload's
times by the host factor ``median kernel time / REFERENCE_S``.  A change to
diracsp cannot move the kernel, so it moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one pass on the machine the benchmark was tuned on, so that
# scaled times read close to raw times there.  Its value only sets the scale.
REFERENCE_S = 0.03
# Share of the previous repetition's time spent on the kernel before the next.
SHARE = 0.25


class GatherGemv:
    """``dirac_filter``'s step on a basis of the coastal n = 2 size.

    Gather 372 of 641 columns of a dense basis, project a vector onto them
    and back, 50 times.
    """

    def __init__(self, dim: int = 641, cols: int = 372, repeat: int = 50):
        rng = np.random.default_rng(0)
        self.vectors = rng.standard_normal((dim, dim))
        self.cols = np.sort(rng.choice(dim, cols, replace=False))
        self.x = rng.standard_normal(dim)
        self.repeat = repeat

    def __call__(self) -> float:
        """Time one pass."""
        t0 = time.perf_counter()
        for _ in range(self.repeat):
            phi = self.vectors[:, self.cols]
            phi @ (phi.T @ self.x)
        return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between repetitions; ``factor()`` is the host factor."""

    def __init__(self):
        self.kernel = GatherGemv()
        self.samples: list[float] = []

    def run(self, seconds: float) -> None:
        """Time passes of the kernel for about ``seconds``, at least one.

        An untimed pass first brings the kernel's arrays back into the
        caches and the allocator, which the workload has just used.
        """
        self.kernel()
        end = time.perf_counter() + seconds
        self.samples.append(self.kernel())
        while time.perf_counter() < end:
            self.samples.append(self.kernel())

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S

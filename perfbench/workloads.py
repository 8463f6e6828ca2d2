"""The benchmark's workloads, written against diracsp's public entry points only.

Every call goes through a module attribute at call time (``dsp.load_complex``,
``harness.cmd_learn``, ...), so the tracer's wrappers see it.  No workload
passes a thread pool size: all of them run with the plan default, one worker.

``--seed`` picks the plan's noise seed from a pool of ``REFERENCE_POOL``
seeds whose outputs were recorded with the benchmark (``reference/``), so
every run's outputs can be checked against stored values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import diracsp as dsp
from diracsp import datasets, harness

REFERENCE_POOL = 16

# The paper's standard grids, fixed here so the workload does not follow a
# later change of the harness defaults.
HEATMAP_TAUS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
HEATMAP_ALPHAS = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5)
SWEEP_MS = tuple(round(float(x), 10) for x in np.arange(0.0, 3.0 + 1e-12, 0.05))
GAUSSIAN = {"mode": "gaussian_mix", "lambda_bar": 1.0, "sigma_hat": 0.2}
SMALLEST = {"mode": "eigen", "selector": "smallest_positive"}
NGF_SEED = 0


def noise_seed(seed: int) -> int:
    return seed % REFERENCE_POOL


@dataclass(frozen=True)
class Workload:
    """One harness command on one complex, with its grid."""

    name: str
    command: str  # "heatmap" | "sweep-m" | "learn"
    n: int
    signal: dict
    grid: dict  # ExperimentPlan grid fields
    ngf_nodes: int = 0  # 0: the bundled coastal tessellation
    # Divide times by the host factor of hostspeed's kernel (see hostspeed.py).
    host_scaled: bool = False

    @property
    def output_name(self) -> str:
        return f"{self.command}.csv"

    def outputs(self, outdir: Path) -> list[Path]:
        """The files a run writes, in the order the output check reads them."""
        out = outdir / self.output_name
        files = [out]
        if self.command == "learn":
            files.append(out.with_name(out.stem + ".summary.csv"))
        if self.ngf_nodes:
            files.insert(0, outdir / "info.csv")
        return files

    def _plan(self, dataset_path: str, seed: int):
        spec = dsp.SignalSpec(n=self.n, **self.signal)
        return dsp.ExperimentPlan(
            dataset={"kind": "file", "path": dataset_path},
            signal=spec,
            seed=noise_seed(seed),
            **self.grid,
        )

    def _ngf_params(self):
        return dsp.NgfParams(target_nodes=self.ngf_nodes, flavor=-1, beta=0.0, seed=NGF_SEED)

    def setup(self) -> None:
        """The public set-up sequence before any filtering."""
        if self.ngf_nodes:
            K = dsp.ngf_generate(self._ngf_params())
            dsp.betti_numbers(K)
        else:
            K = dsp.load_complex(datasets.dataset_path("coastal_tessellation.json"))
        D = dsp.assemble_dirac(K)
        basis = dsp.spectral_basis(D, self.n)
        if self.signal["mode"] == "eigen":
            dsp.eigenmode_signal(basis, self.signal["selector"])
        else:
            dsp.gaussian_mix_signal(basis, self.signal["lambda_bar"], self.signal["sigma_hat"])

    def run(self, seed: int, outdir: Path) -> None:
        """One end-to-end run; writes ``self.outputs(outdir)``."""
        outdir.mkdir(parents=True, exist_ok=True)
        if self.ngf_nodes:
            dataset_path = str(outdir / "complex.json")
            self._generate(dataset_path)
            self._info(dataset_path, outdir / "info.csv")
        else:
            dataset_path = datasets.dataset_path("coastal_tessellation.json")
        command = getattr(harness, "cmd_" + self.command.replace("-", "_"))
        command(self._plan(dataset_path, seed), outdir / self.output_name)

    def _generate(self, path: str) -> None:
        # what `diracsp generate` does
        params = self._ngf_params()
        K = dsp.ngf_generate(params)
        data = K.to_dict()
        data["meta"] = {"generator": "ngf", **params.to_dict()}
        Path(path).write_text(json.dumps(data, indent=1) + "\n")

    def _info(self, path: str, out: Path) -> None:
        # what `diracsp info` computes, written as CSV so the output check reads it
        K = dsp.load_complex(path)
        b = dsp.betti_numbers(K)
        out.write_text(
            "nodes,links,triangles,betti0,betti1,betti2\n"
            f"{K.n0},{K.n1},{K.n2},{b[0]},{b[1]},{b[2]}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coastal-heatmap", "heatmap", 1, GAUSSIAN,
            dict(taus=HEATMAP_TAUS, alphas=HEATMAP_ALPHAS, m0s=(2.0,), seeds=40),
        ),
        Workload(
            "coastal-sweep-n2", "sweep-m", 2, SMALLEST,
            dict(taus=(10.0,), alphas=(0.6,), ms=SWEEP_MS, seeds=25),
            host_scaled=True,
        ),
        Workload(
            "ngf1000-learn", "learn", 1, GAUSSIAN,
            dict(taus=(7.0,), alphas=(0.5,), m0s=(2.0,), seeds=20),
            ngf_nodes=1000,
        ),
    )
}

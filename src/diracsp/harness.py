"""Experiment driver: parameter sweeps, learning traces, heatmaps, benchmarks.

Every command consumes an :class:`ExperimentPlan` and writes plot-ready CSV.
Output files start with comment lines carrying a format tag and the full
resolved plan as canonical JSON, so a result file is self-describing and a
re-run with the same plan, seed and BLAS library and thread count reproduces
the data rows byte for byte (benchmark wall-times excepted).

Randomness is fully keyed, so cells can be evaluated in any order without
changing any number.  Grid cell c has the seed :func:`_cell_seed`, the
first 64-bit word of ``SeedSequence(plan.seed, spawn_key=(c,))``, and its
noise draw k for D_n is a Philox stream keyed by ``SeedSequence(cell_seed,
spawn_key=(n, k))`` (:func:`diracsp.signals.rng_stream`).

The grid commands work in the coordinates of the spectral basis of D_n from
draw to row.  A cell's S draws are one S x r matrix (:func:`_draw_coords`):
the truth's coordinates plus those of each draw's noise, taken straight
from the Philox vectors without projecting or forming a spinor.  sweep-m
filters that matrix at every m; learn, heatmap and basin take their cells
from one iterator (:func:`_learning_cells`), which runs each matrix through
the batched learner (:func:`diracsp.filtering._learn_batch`), and read their
rows off its per-draw arrays.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, fields, replace
from itertools import product, repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import __version__ as _version
from . import filtering
from .complexes import SimplicialComplex, is_finite_real, load_complex, require_int
from .errors import ParseError
from .filtering import (
    FilterConfig,
    LearnBatch,
    _filter_weights,
    _learn_batch,
    _low_snr,
    _squared_delta_s,
    rayleigh_m,
)

# Not called here; bound so the benchmark's tracer (perfbench/tracing.py) can wrap them by name.
from .filtering import dirac_filter, reconstruction_error  # noqa: F401
from .generators import NgfParams, ngf_generate
from .operators import DiracOperator, SpectralBasis, assemble_dirac, spectral_basis
from .signals import (
    NoiseModel,
    SignalSpec,
    eigenmode_signal,
    gaussian_mix_signal,
    lift_signal,
    load_signal,
    noise_coefficients,
    sample_noise,
    select_eigenvalue,
)
from .spinors import TopologicalSpinor

HARNESS_FORMAT_VERSION = 1

# Default grids for `heatmap` and the named signal presets.
HEATMAP_TAUS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
HEATMAP_ALPHAS = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5)
SIGNAL_PRESETS = {
    "smallest": {"mode": "eigen", "selector": "smallest_positive", "m0": 1.0},
    "largest": {"mode": "eigen", "selector": "largest_positive", "m0": 3.0},
    "gaussian": {"mode": "gaussian_mix", "lambda_bar": 1.0, "sigma_hat": 0.2, "m0": 2.0},
}
BASIN_ALPHAS = (0.6, 1.5)


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully resolved description of one harness run; a bad setting is a ValueError naming it.

    Each setting is kept in the form its check returns: counts as ints, other
    numbers (grid entries too) as floats, "auto" as it is.  So ``to_dict``
    writes the fields as they are, and a plan JSON cannot hold, or whose
    lifted signal's source is a spinor rather than a path, is refused here.
    """

    dataset: dict  # {"kind": "ngf", ...} or {"kind": "file", "path": ...}; see resolve_dataset
    signal: SignalSpec
    alphas: tuple[float, ...] = (0.6,)
    taus: tuple[float, ...] = (10.0,)
    ms: tuple[float, ...] = ()  # sweep-m grid (0 baseline always added)
    m0s: tuple = ("auto",)  # learn-mode initial guesses
    eta: float = 0.3
    delta: float = 1e-4
    max_iters: int = 500
    seeds: int = 10  # noise draws per grid cell
    seed: int = 0  # master seed
    sizes: tuple[int, ...] = ()  # bench: NGF target node counts
    runs: int = 20  # bench: timed runs per size

    def __post_init__(self):
        for name, low in (("seeds", 1), ("seed", 0), ("runs", 1)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), low))
        for name in ("alphas", "taus", "ms", "m0s", "sizes"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
        object.__setattr__(self, "sizes", tuple(require_int("every size", size) for size in self.sizes))
        config = self.config(1.0)  # FilterConfig's eta, delta and max_iters rules; sweep-m takes tau = 0
        for name in ("eta", "delta", "max_iters"):
            object.__setattr__(self, name, getattr(config, name))
        if not self.alphas or not self.taus:
            raise ValueError("alpha and tau grids must be non-empty")
        for name in ("alphas", "taus"):
            if not all(is_finite_real(x) and x >= 0 for x in getattr(self, name)):
                raise ValueError(f"{name} must be finite and >= 0")
        if not all(is_finite_real(m) for m in self.ms):
            raise ValueError("ms must be finite")
        if not self.m0s:
            raise ValueError("m0s must be non-empty")
        if not all(m0 == "auto" if isinstance(m0, str) else is_finite_real(m0) for m0 in self.m0s):
            raise ValueError("m0s must be finite numbers or 'auto'")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("sizes must be distinct")
        for name in ("alphas", "taus", "ms"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "m0s", tuple(m0 if isinstance(m0, str) else float(m0) for m0 in self.m0s))
        if self.signal.mode == "lifted" and isinstance(self.signal.source, TopologicalSpinor):
            # the header would hold the spinor's repr, which no replay can read
            raise ValueError("signal.source must be a path for a plan to name it, got a spinor")
        try:  # the one check of the dataset object before resolve_dataset reads it
            json.dumps(self.to_dict(), sort_keys=True)
        except TypeError as exc:
            raise ValueError(f"plan cannot be written as JSON: {exc}") from exc

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["signal"] = self.signal.to_dict()
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    def config(self, tau: float, m0="auto") -> FilterConfig:
        return FilterConfig(
            tau=tau, m0=m0, eta=self.eta, delta=self.delta, max_iters=self.max_iters
        )


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Build a plan from its JSON form (the `--plan` config file); SignalSpec reads the signal."""
    try:
        kwargs = {k: v for k, v in data.items() if k != "signal"}
        return ExperimentPlan(signal=SignalSpec(**data["signal"]), **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed plan: {exc}") from exc


def load_plan(path) -> ExperimentPlan:
    try:
        return plan_from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc


# -- dataset and signal resolution -------------------------------------------


def resolve_dataset(plan: ExperimentPlan) -> SimplicialComplex:
    """The plan's complex, from the one place that reads its dataset.

    The dataset is an object of one of two kinds: ``{"kind": "ngf",
    "target_nodes", "flavor", "beta", "seed"}``, the fields of
    :class:`NgfParams` (seed defaults to the plan's), or ``{"kind": "file",
    "path"}`` with a string path to a complex file.  Any other shape, kind or
    field, or a value NgfParams rejects, is a ParseError.
    """
    data = plan.dataset
    if not isinstance(data, dict):
        raise ParseError(f"malformed dataset: expected an object, got {data!r}")
    if data.get("kind") == "file":
        if data.keys() != {"kind", "path"} or not isinstance(data["path"], str):
            raise ParseError(f"malformed dataset: a file dataset takes one string path, got {data!r}")
        return load_complex(data["path"])
    if data.get("kind") != "ngf":
        raise ParseError(f"unknown dataset kind {data.get('kind')!r}")
    return ngf_generate(_ngf_params(data, plan.seed))


def _ngf_params(data: dict, seed: int) -> NgfParams:
    """NgfParams from the fields of the ngf dataset ``data``, its seed
    defaulting to ``seed``; a field or value NgfParams rejects is a ParseError."""
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        return NgfParams(**{"seed": seed, **fields})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed dataset: {exc}") from exc


def make_signal(
    spec: SignalSpec, Dop: DiracOperator, basis: SpectralBasis
) -> tuple[TopologicalSpinor, float]:
    """Resolve a SignalSpec to (unit true signal, its spectral center m_true)."""
    if spec.mode == "eigen":
        idx = select_eigenvalue(basis, spec.selector)
        s = eigenmode_signal(basis, spec.selector)
        return s, float(basis.eigenvalues[idx])
    if spec.mode == "gaussian_mix":
        s = gaussian_mix_signal(
            basis,
            spec.lambda_bar,
            spec.sigma_hat,
            variance_convention=spec.variance_convention,
        )
        return s, rayleigh_m(s, Dop, spec.n)
    # "lifted", the one mode left: SignalSpec admits no other
    src = spec.source
    if not isinstance(src, TopologicalSpinor):
        src = load_signal(src, Dop.K)
    s = lift_signal(src, Dop, spec.n)
    return s, rayleigh_m(s, Dop, spec.n)


def _cell_seed(plan: ExperimentPlan, cell_index: int) -> int:
    ss = np.random.SeedSequence(plan.seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _noise_model(plan: ExperimentPlan, alpha: float, cell_index: int) -> NoiseModel:
    return NoiseModel(alpha=alpha, seed=_cell_seed(plan, cell_index))


def _noise(plan, Dop, n, alpha, cell_index, draw_index) -> TopologicalSpinor:
    return sample_noise(_noise_model(plan, alpha, cell_index), Dop, n, draw_index)


# -- CSV output ---------------------------------------------------------------


def write_csv(path, plan: ExperimentPlan, command: str, header: list[str], rows) -> None:
    """Write rows of Python scalars (numpy values leave through ``.tolist()``) under the headers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# diracsp/{command}/{HARNESS_FORMAT_VERSION} v{_version}\n")
        fh.write("# plan: " + json.dumps(plan.to_dict(), sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read a harness CSV back: (header, data rows), comments skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


# -- shared set-up and evaluator ---------------------------------------------


class _Setup(NamedTuple):
    """What every grid command computes once before its first draw (bench: once per size)."""

    Dop: DiracOperator
    n: int
    basis: SpectralBasis
    s_true: TopologicalSpinor
    m_true: float
    c_true: np.ndarray  # coordinates of s_true in basis


def _prepare(plan: ExperimentPlan) -> _Setup:
    """Dataset -> Dirac operator -> spectral basis of D_n -> true signal."""
    Dop = assemble_dirac(resolve_dataset(plan))
    n = plan.signal.n
    basis = spectral_basis(Dop, n)
    s_true, m_true = make_signal(plan.signal, Dop, basis)
    return _Setup(Dop, n, basis, s_true, m_true, basis.coefficients(s_true))


def _draw_coords(
    plan: ExperimentPlan, setup: _Setup, alpha: float, cell_index: int
) -> np.ndarray:
    """The plan.seeds draws of grid cell `cell_index` as rows of basis coordinates.

    Row k is c_true + alpha / sqrt(dim im(D_n)) * coefficients(x_k), where
    x_k is the Philox vector that :func:`_noise` projects for draw k; the
    coordinates of P_n x_k are those of x_k.  At alpha = 0 every row is c_true.
    """
    if alpha == 0:
        return np.tile(setup.c_true, (plan.seeds, 1))
    model = _noise_model(plan, alpha, cell_index)
    return setup.c_true + noise_coefficients(model, setup.basis, range(plan.seeds))


def _learn_draws(
    plan: ExperimentPlan, setup: _Setup, config: FilterConfig, alpha: float, cell_index: int
) -> LearnBatch:
    """The learner's run of every draw of a grid cell, as one batch.

    One RuntimeWarning names the cell when any of its draws looks like
    snr < 1 (the rule of :func:`learn`'s warning).
    """
    C0 = _draw_coords(plan, setup, alpha, cell_index)
    low = int(_low_snr(C0).sum())
    if low:
        warnings.warn(
            f"estimated snr < 1 in {low} of {plan.seeds} draws of the cell "
            f"tau={config.tau!r}, alpha={alpha!r}, m0={config.m0!r}; "
            "convergence is sensitive to the initial m0",
            RuntimeWarning,
            stacklevel=4,  # the caller of the command, past _learning_cells' generator
        )
    basis = setup.basis
    return _learn_batch(basis.eigenvalues[basis.nonzero_indices], C0, setup.c_true, config)


def _learning_cells(plan: ExperimentPlan) -> tuple[_Setup, Iterator[tuple]]:
    """Set-up and cells (tau, alpha, m0, batch) of the learn, heatmap and basin grids.

    Filter settings are checked before the set-up runs; cell c, drawing from
    noise substream c, is learned only when the iterator reaches it.
    """
    configs = {(tau, m0): plan.config(tau, m0) for tau, m0 in product(plan.taus, plan.m0s)}
    setup = _prepare(plan)
    cells = (
        (tau, alpha, m0, _learn_draws(plan, setup, configs[tau, m0], alpha, c))
        for c, (tau, alpha, m0) in enumerate(product(plan.taus, plan.alphas, plan.m0s))
    )
    return setup, cells


def _row_mean_std(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample standard deviation of each row of X (std 0 for a single column).

    A reduction along the contiguous last axis sums each row as the same
    call on that row alone would.
    """
    std = X.std(axis=1, ddof=1) if X.shape[1] > 1 else np.zeros(X.shape[0])
    return X.mean(axis=1), std


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    mean, std = _row_mean_std(np.asarray(values)[None])
    return float(mean[0]), float(std[0])


# -- commands -----------------------------------------------------------------


def cmd_sweep_m(plan: ExperimentPlan, out) -> Path:
    """Fixed-m error curves: rows (tau, alpha, m, rel-error stats, error stats).

    The m = 0 Hodge baseline is always part of the grid; rel_error divides
    each draw's error by its own m = 0 error, then aggregates over draws.

    Each draw's error is delta_s = ||s_hat - P_n s_true||, as in
    :class:`~diracsp.filtering.RunTrace`, taken in the coordinates of the
    spectral basis of D_n, where the filter is diagonal.  A cell takes the
    filter's weights at every m as one |ms| x r matrix and fills its
    |ms| x S errors through one S x r buffer, one m at a time.
    """
    setup = _prepare(plan)
    ms = list(plan.ms)
    if 0.0 not in ms:
        ms = [0.0] + ms
    base_row = ms.index(0.0)
    lam = setup.basis.eigenvalues[setup.basis.nonzero_indices]
    rows = []
    for c, (tau, alpha) in enumerate(product(plan.taus, plan.alphas)):
        C = _draw_coords(plan, setup, alpha, c)
        buf = np.empty_like(C)
        errs = np.empty((len(ms), plan.seeds))
        for w, err in zip(_filter_weights(lam, tau, np.array(ms)), errs):
            _squared_delta_s(np.multiply(C, w, out=buf), setup.c_true, buf, err)
        np.sqrt(errs, out=errs)
        base = errs[base_row]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(base > 0, errs / base, 1.0)
        stats = (*_row_mean_std(rel), *_row_mean_std(errs))
        rows.extend(zip(repeat(tau), repeat(alpha), ms, *(x.tolist() for x in stats)))

    header = ["tau", "alpha", "m", "rel_error_mean", "rel_error_std", "delta_s_mean", "delta_s_std"]
    write_csv(out, plan, "sweep-m", header, rows)
    return Path(out)


def cmd_learn(plan: ExperimentPlan, out) -> Path:
    """Adaptive-filter traces, one row per iteration per draw.

    A companion ``<out stem>.summary.csv`` holds one row per draw with the
    converged flag, final m and the error-reduction ratio vs the noisy input.
    """
    setup, cells = _learning_cells(plan)
    trace_rows, summary_rows = [], []
    for tau, alpha, m0, batch in cells:
        # the iterations each draw recorded, draw by draw
        draw, t = np.nonzero(np.arange(len(batch.m_hat)) <= batch.iterations[:, None])
        delta_s = batch.delta_s.T[draw, t]
        trace_rows.extend(zip(
            repeat(tau), repeat(alpha), repeat(m0), draw.tolist(), t.tolist(),
            batch.m_hat.T[draw, t].tolist(), delta_s.tolist(),
            (delta_s / batch.baseline_error[draw]).tolist(),
        ))
        final, noisy = batch.final_delta_s, batch.noisy_error
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction = np.where(noisy > 0, 1.0 - final / noisy, np.nan)  # nan for a noiseless draw
        summary_rows.extend(zip(
            repeat(tau), repeat(alpha), repeat(m0), range(plan.seeds),
            batch.converged.astype(int).tolist(), batch.iterations.tolist(),
            batch.final_m.tolist(), repeat(setup.m_true), final.tolist(),
            (final / batch.baseline_error).tolist(), noisy.tolist(), reduction.tolist(),
        ))

    out = Path(out)
    write_csv(
        out, plan, "learn",
        ["tau", "alpha", "m0", "draw", "t", "m_hat", "delta_s", "rel_error"],
        trace_rows,
    )
    write_csv(
        out.with_name(out.stem + ".summary.csv"), plan, "learn-summary",
        ["tau", "alpha", "m0", "draw", "converged", "iterations", "m_final",
         "m_true", "final_delta_s", "final_rel_error", "noisy_error", "reduction"],
        summary_rows,
    )
    return out


def cmd_heatmap(plan: ExperimentPlan, out) -> Path:
    """Mean reconstruction error of the learned filter over a (tau, alpha) grid.

    Every cell starts the learner from the plan's single initial guess; a
    plan with more than one m0 is rejected before any work is done.
    """
    if len(plan.m0s) != 1:
        raise ValueError(f"heatmap takes one m0, got {len(plan.m0s)}: {list(plan.m0s)}")
    _, cells = _learning_cells(plan)
    rows = []
    for tau, alpha, _, batch in cells:
        rows.append((tau, alpha, *_mean_std(batch.final_delta_s), float(np.mean(batch.converged))))
    write_csv(
        out, plan, "heatmap",
        ["tau", "alpha", "delta_s_mean", "delta_s_std", "converged_fraction"],
        rows,
    )
    return Path(out)


def cmd_basin(plan: ExperimentPlan, out) -> Path:
    """Convergence basin: |m_final - m_true| as a function of the initial guess."""
    setup, cells = _learning_cells(plan)
    rows = []
    for tau, alpha, m0, batch in cells:
        rows.append((tau, alpha, m0, setup.m_true, *_mean_std(np.abs(batch.final_m - setup.m_true))))
    write_csv(
        out, plan, "basin",
        ["tau", "alpha", "m0", "m_true", "abs_dm_mean", "abs_dm_std"],
        rows,
    )
    return Path(out)


def cmd_bench(plan: ExperimentPlan, out) -> tuple[Path, float, float]:
    """Wall-time scaling of one full adaptive run vs problem size N + L.

    Per size: :func:`_prepare` grows the plan's ngf dataset to that size
    and makes its signal, and `runs` adaptive runs are timed on a monotonic
    clock (one untimed warm-up first).  Each timed run is the plain
    implementation end to end: assemble the operator, diagonalize D_n
    densely (method="eigh", the cost that dominates), then run the adaptive
    loop in the eigenbasis.  Returns
    (path, exponent, stderr) of the log-log least-squares fit of the median
    run time vs N + L (the median resists scheduler noise; per-size means
    are reported alongside).  With only two sizes the fit is flagged
    low-confidence.
    """
    if len(plan.sizes) < 2:
        raise ValueError("bench needs at least two sizes")
    if not isinstance(plan.dataset, dict) or plan.dataset.get("kind") != "ngf":
        raise ParseError(f"bench grows NGF complexes; its dataset must be of kind 'ngf', got {plan.dataset!r}")
    tau = plan.taus[0]
    alpha = plan.alphas[0]

    datasets = [
        {**plan.dataset, "target_nodes": nodes, "seed": _cell_seed(plan, si)}
        for si, nodes in enumerate(plan.sizes)
    ]
    for dataset in datasets:  # every size is checked before the first set-up
        _ngf_params(dataset, plan.seed)
    rows = []
    for si, (nodes, dataset) in enumerate(zip(plan.sizes, datasets)):
        setup = _prepare(replace(plan, dataset=dataset))
        K = setup.Dop.K
        times = []
        for r in range(plan.runs + 1):  # +1 warm-up
            s_tilde = setup.s_true + _noise(plan, setup.Dop, setup.n, alpha, si, r)
            t0 = time.perf_counter()
            Dop = assemble_dirac(K)
            basis = spectral_basis(Dop, setup.n, method="eigh")
            # Called through the module: a `learn` bound here would have the
            # benchmark's tracer (perfbench/tracing.py) count learn calls from
            # the grid commands, which run the batched learner instead.
            filtering.learn(s_tilde, Dop, setup.n, plan.config(tau, plan.m0s[0]), basis=basis)
            dt = time.perf_counter() - t0
            if r > 0:
                times.append(dt)
        times = np.array(times)
        rows.append(
            (
                nodes, K.n0 + K.n1, len(times),
                float(times.mean()), float(np.median(times)),
                float(times.std(ddof=1)) if len(times) > 1 else 0.0,
            )
        )

    x = np.log([r[1] for r in rows])
    y = np.log([r[4] for r in rows])  # median column
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt((resid**2).sum() / dof / ((x - x.mean()) ** 2).sum()))
    low_confidence = len(x) < 3

    out = Path(out)
    write_csv(
        out, plan, "bench",
        ["target_nodes", "n_plus_l", "runs", "seconds_mean", "seconds_median", "seconds_std"],
        rows,
    )
    with open(out, "a") as fh:
        fh.write(
            f"# fit: exponent={float(slope)!r} stderr={stderr!r} low_confidence={low_confidence}\n"
        )
    return out, float(slope), stderr

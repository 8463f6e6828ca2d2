"""Command-line interface.

Every stochastic command requires an explicit --seed so runs are
reproducible.  On failure the process exits nonzero after printing a single
machine-readable line ``error=<ErrorClass>: <message>`` to stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .complexes import betti_numbers, load_complex
from .errors import DiracSPError
from .generators import NgfParams, ngf_generate
from .harness import (
    BASIN_ALPHAS,
    HEATMAP_ALPHAS,
    HEATMAP_TAUS,
    SIGNAL_PRESETS,
    ExperimentPlan,
    cmd_basin,
    cmd_bench,
    cmd_heatmap,
    cmd_learn,
    cmd_sweep_m,
    load_plan,
    make_signal,
)
from .operators import assemble_dirac, spectral_basis
from .signals import NoiseModel, SignalSpec, sample_noise, save_signal, snr


def _fail(exc: Exception):
    click.echo(f"error={type(exc).__name__}: {exc}", err=True)
    sys.exit(3 if isinstance(exc, DiracSPError) else 1)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DiracSPError, ValueError, OSError) as exc:
        _fail(exc)


@click.group()
@click.version_option(__version__)
def main():
    """Dirac signal processing toolkit for simplicial complexes."""


# -- dataset commands ---------------------------------------------------------


@main.command()
@click.option("--nodes", type=int, required=True, help="Target number of nodes (>= 3).")
@click.option("--flavor", type=click.Choice(["-1", "0", "1"]), default="-1", show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def generate(nodes, flavor, beta, seed, output):
    """Grow a random simplicial complex and write it as a complex file."""
    def run():
        params = NgfParams(target_nodes=nodes, flavor=int(flavor), beta=beta, seed=seed)
        K = ngf_generate(params)
        data = K.to_dict()
        data["meta"] = {"generator": "ngf", **params.to_dict()}
        Path(output).write_text(json.dumps(data, indent=1) + "\n")
        click.echo(f"wrote {output}: {K.n0} nodes, {K.n1} links, {K.n2} triangles")
    _guard(run)


@main.command()
@click.option("--input", "-i", "path", type=click.Path(exists=True, dir_okay=False), required=True)
def info(path):
    """Validate a complex file and print its canonical summary."""
    def run():
        K = load_complex(path)
        b = betti_numbers(K)
        click.echo(f"nodes={K.n0} links={K.n1} triangles={K.n2} dimension={K.dimension}")
        click.echo(f"betti={b} euler={K.euler_characteristic()}")
    _guard(run)


@main.command()
@click.option("--input", "-i", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--mode", type=click.Choice(["eigen", "gaussian_mix", "lifted"]), default="eigen", show_default=True)
@click.option("--n", type=click.Choice(["1", "2"]), default="1", show_default=True)
@click.option("--selector", default="smallest_positive", show_default=True,
              help="Eigen selector: smallest_positive, largest_positive, an index, or a target eigenvalue.")
@click.option("--lambda-bar", type=float, default=1.0, show_default=True)
@click.option("--sigma-hat", type=float, default=0.2, show_default=True)
@click.option("--variance-convention", type=click.Choice(["linear", "squared"]), default="linear", show_default=True)
@click.option("--source", type=click.Path(exists=True, dir_okay=False), help="Signal CSV to lift (mode=lifted).")
@click.option("--alpha", type=float, default=0.0, show_default=True, help="Noise amplitude; 0 writes the clean signal only.")
@click.option("--seed", type=int, default=None, help="Required when --alpha > 0.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
@click.option("--noisy-output", type=click.Path(dir_okay=False), help="Where to write the noisy copy (defaults to <output>.noisy.csv).")
def synth(path, mode, n, selector, lambda_bar, sigma_hat, variance_convention, source, alpha, seed, output, noisy_output):
    """Synthesize a true signal (optionally plus calibrated noise)."""
    def run():
        if alpha > 0 and seed is None:
            raise ValueError("--seed is required when --alpha > 0")
        K = load_complex(path)
        Dop = assemble_dirac(K)
        spec = SignalSpec(
            mode=mode, n=int(n), selector=_parse_selector(selector),
            lambda_bar=lambda_bar, sigma_hat=sigma_hat, source=source,
            variance_convention=variance_convention,
        )
        basis = spectral_basis(Dop, int(n))
        s, m_true = make_signal(spec, Dop, basis)
        save_signal(s, output)
        click.echo(f"wrote {output} (m_true={m_true:.6g})")
        if alpha > 0:
            model = NoiseModel(
                alpha1=alpha if int(n) == 1 else 0.0,
                alpha2=alpha if int(n) == 2 else 0.0,
                seed=seed,
            )
            eps = sample_noise(model, Dop, int(n), 0)
            noisy = s + eps
            target = noisy_output or str(Path(output).with_suffix(".noisy.csv"))
            save_signal(noisy, target)
            click.echo(f"wrote {target} (realized snr={snr(s, eps):.4g})")
    _guard(run)


def _parse_selector(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# -- experiment commands --------------------------------------------------------

_dataset_opts = [
    click.option("--input", "-i", "path", type=click.Path(exists=True, dir_okay=False),
                 help="Complex file; omit to grow an NGF complex."),
    click.option("--nodes", type=int, default=50, show_default=True, help="NGF size when no --input."),
    click.option("--flavor", type=click.Choice(["-1", "0", "1"]), default="-1", show_default=True),
    click.option("--beta", type=float, default=0.0, show_default=True),
]

_signal_opts = [
    click.option("--preset", type=click.Choice(sorted(SIGNAL_PRESETS)), default=None,
                 help="Named signal preset (sets mode/selector/m0)."),
    click.option("--mode", type=click.Choice(["eigen", "gaussian_mix", "lifted"]), default="eigen", show_default=True),
    click.option("--n", type=click.Choice(["1", "2"]), default="1", show_default=True),
    click.option("--selector", default="smallest_positive", show_default=True),
    click.option("--lambda-bar", type=float, default=1.0, show_default=True),
    click.option("--sigma-hat", type=float, default=0.2, show_default=True),
    click.option("--variance-convention", type=click.Choice(["linear", "squared"]),
                 default="linear", show_default=True),
    click.option("--source", type=click.Path(exists=True, dir_okay=False), default=None),
]


def _add(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return deco


def _make_plan(path, nodes, flavor, beta, preset, mode, n, selector,
               lambda_bar, sigma_hat, variance_convention, source, seed, **kw):
    if preset is not None:
        p = SIGNAL_PRESETS[preset]
        mode = p["mode"]
        selector = p.get("selector", selector)
        lambda_bar = p.get("lambda_bar", lambda_bar)
        sigma_hat = p.get("sigma_hat", sigma_hat)
        if "m0s" not in kw or kw["m0s"] is None:
            kw["m0s"] = (p["m0"],)
    if kw.get("m0s") is None:
        kw["m0s"] = ("auto",)
    dataset = (
        {"kind": "file", "path": str(path)}
        if path
        else {"kind": "ngf", "target_nodes": nodes, "flavor": int(flavor),
              "beta": beta, "seed": seed}
    )
    spec = SignalSpec(
        mode=mode, n=int(n), selector=_parse_selector(selector),
        lambda_bar=lambda_bar, sigma_hat=sigma_hat, source=source,
        variance_convention=variance_convention,
    )
    return ExperimentPlan(dataset=dataset, signal=spec, seed=seed, **kw)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _m0s(text: str) -> tuple:
    return tuple("auto" if x.strip() == "auto" else float(x) for x in text.split(",") if x.strip())


@main.command("sweep-m")
@_add(_dataset_opts)
@_add(_signal_opts)
@click.option("--alphas", default="0.6", show_default=True, help="Comma-separated noise amplitudes.")
@click.option("--taus", default="10", show_default=True)
@click.option("--ms", default="", help="Comma-separated m grid (0 baseline always added).")
@click.option("--m-max", type=float, default=3.0, show_default=True, help="Used when --ms omitted: grid 0..m-max.")
@click.option("--m-step", type=float, default=0.05, show_default=True)
@click.option("--seeds", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False), help="Load the full plan from JSON instead of flags.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def sweep_m(path, nodes, flavor, beta, preset, mode, n, selector, lambda_bar,
            sigma_hat, variance_convention, source, alphas, taus, ms, m_max,
            m_step, seeds, seed, plan_file, output):
    """Error vs fixed m (dip at the signal's spectral center)."""
    def run():
        if plan_file:
            plan = load_plan(plan_file)
        else:
            grid = (
                _floats(ms)
                if ms
                else tuple(round(float(x), 10) for x in np.arange(0.0, m_max + 1e-12, m_step))
            )
            plan = _make_plan(
                path, nodes, flavor, beta, preset, mode, n, selector,
                lambda_bar, sigma_hat, variance_convention, source, seed,
                alphas=_floats(alphas), taus=_floats(taus), ms=grid,
                seeds=seeds,
            )
        out = cmd_sweep_m(plan, output)
        click.echo(f"wrote {out}")
    _guard(run)


@main.command("learn")
@_add(_dataset_opts)
@_add(_signal_opts)
@click.option("--alphas", default="0.5", show_default=True)
@click.option("--taus", default="7", show_default=True)
@click.option("--m0s", default=None, help="Comma-separated initial guesses; numbers or 'auto'.")
@click.option("--eta", type=float, default=0.3, show_default=True)
@click.option("--delta", type=float, default=1e-4, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--seeds", type=int, default=50, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def learn_cmd(path, nodes, flavor, beta, preset, mode, n, selector, lambda_bar,
              sigma_hat, variance_convention, source, alphas, taus, m0s, eta,
              delta, max_iters, seeds, seed, plan_file, output):
    """Adaptive filtering traces: learn m, track the error per iteration."""
    def run():
        if plan_file:
            plan = load_plan(plan_file)
        else:
            plan = _make_plan(
                path, nodes, flavor, beta, preset, mode, n, selector,
                lambda_bar, sigma_hat, variance_convention, source, seed,
                alphas=_floats(alphas), taus=_floats(taus),
                m0s=_m0s(m0s) if m0s else None,
                eta=eta, delta=delta, max_iters=max_iters,
                seeds=seeds,
            )
        out = cmd_learn(plan, output)
        click.echo(f"wrote {out} and {out.with_name(out.stem + '.summary.csv')}")
    _guard(run)


@main.command("heatmap")
@_add(_dataset_opts)
@_add(_signal_opts)
@click.option("--alphas", default=",".join(str(a) for a in HEATMAP_ALPHAS), show_default=True)
@click.option("--taus", default=",".join(str(t) for t in HEATMAP_TAUS), show_default=True)
@click.option("--m0s", default=None)
@click.option("--eta", type=float, default=0.3, show_default=True)
@click.option("--delta", type=float, default=1e-4, show_default=True)
@click.option("--seeds", type=int, default=10, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def heatmap(path, nodes, flavor, beta, preset, mode, n, selector, lambda_bar,
            sigma_hat, variance_convention, source, alphas, taus, m0s, eta,
            delta, seeds, seed, plan_file, output):
    """Mean error of the learned filter over a (tau, alpha) grid."""
    def run():
        if plan_file:
            plan = load_plan(plan_file)
        else:
            plan = _make_plan(
                path, nodes, flavor, beta, preset, mode, n, selector,
                lambda_bar, sigma_hat, variance_convention, source, seed,
                alphas=_floats(alphas), taus=_floats(taus),
                m0s=_m0s(m0s) if m0s else None,
                eta=eta, delta=delta, seeds=seeds,
            )
        out = cmd_heatmap(plan, output)
        click.echo(f"wrote {out}")
    _guard(run)


@main.command("basin")
@_add(_dataset_opts)
@_add(_signal_opts)
@click.option("--alphas", default=",".join(str(a) for a in BASIN_ALPHAS), show_default=True)
@click.option("--taus", default="7", show_default=True)
@click.option("--m0s", default="0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3", show_default=True)
@click.option("--eta", type=float, default=0.3, show_default=True)
@click.option("--delta", type=float, default=1e-4, show_default=True)
@click.option("--seeds", type=int, default=20, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def basin(path, nodes, flavor, beta, preset, mode, n, selector, lambda_bar,
          sigma_hat, variance_convention, source, alphas, taus, m0s, eta,
          delta, seeds, seed, plan_file, output):
    """Convergence basin: |learned m - true m| vs the initial guess."""
    def run():
        if plan_file:
            plan = load_plan(plan_file)
        else:
            plan = _make_plan(
                path, nodes, flavor, beta, preset, mode, n, selector,
                lambda_bar, sigma_hat, variance_convention, source, seed,
                alphas=_floats(alphas), taus=_floats(taus), m0s=_m0s(m0s),
                eta=eta, delta=delta, seeds=seeds,
            )
        out = cmd_basin(plan, output)
        click.echo(f"wrote {out}")
    _guard(run)


@main.command("bench")
@click.option("--sizes", default="68,134,267,534,1068", show_default=True,
              help="Comma-separated NGF node counts (defaults span N+L from ~200 to ~3200).")
@click.option("--runs", type=int, default=20, show_default=True)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--tau", type=float, default=2.0, show_default=True)
@click.option("--eta", type=float, default=0.3, show_default=True)
@click.option("--delta", type=float, default=1e-4, show_default=True)
@click.option("--flavor", type=click.Choice(["-1", "0", "1"]), default="-1", show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
def bench(sizes, runs, alpha, tau, eta, delta, flavor, seed, output):
    """Wall-time scaling of the adaptive filter vs problem size."""
    def run():
        spec = SignalSpec(mode="gaussian_mix", n=1, lambda_bar=1.0, sigma_hat=0.2)
        plan = ExperimentPlan(
            dataset={"kind": "ngf", "flavor": int(flavor), "beta": 0.0},
            signal=spec,
            alphas=(alpha,), taus=(tau,), m0s=("auto",),
            eta=eta, delta=delta,
            sizes=tuple(int(s) for s in sizes.split(",")),
            runs=runs, seed=seed,
        )
        out, exponent, stderr = cmd_bench(plan, output)
        flag = " (low confidence: < 3 sizes)" if len(plan.sizes) < 3 else ""
        click.echo(f"wrote {out}; scaling exponent {exponent:.3f} +/- {stderr:.3f}{flag}")
    _guard(run)


if __name__ == "__main__":
    main()

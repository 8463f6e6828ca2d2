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
from click.core import ParameterSource

from . import __version__
from .complexes import ORDERS, betti_numbers, load_complex, require_real
from .errors import DiracSPError
from .filtering import FilterConfig
from .generators import FLAVORS, NgfParams, ngf_generate
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
from .signals import MODES, SELECTORS, VARIANCE_CONVENTIONS, NoiseModel, SignalSpec, sample_noise, save_signal, snr


def _fail(exc: Exception):
    # numpy's failed allocations raise a private subclass of MemoryError
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    click.echo(f"error={name}: {exc}", err=True)
    sys.exit(3 if isinstance(exc, DiracSPError) else 1)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DiracSPError, ValueError, OSError, MemoryError) as exc:
        _fail(exc)


def _add(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return deco


@click.group()
@click.version_option(__version__)
def main():
    """Dirac signal processing toolkit for simplicial complexes."""


# -- options shared between commands -----------------------------------------

_flavor_opt = click.option(
    "--flavor", type=click.Choice([str(s) for s in FLAVORS]), default=str(NgfParams.flavor), show_default=True
)
_seed_opt = click.option("--seed", type=int, required=True)
_output_opt = click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
_eta_delta_opts = [
    click.option("--eta", type=float, default=FilterConfig.eta, show_default=True),
    click.option("--delta", type=float, default=FilterConfig.delta, show_default=True),
]

_signal_opts = [
    click.option("--mode", type=click.Choice(MODES), default="eigen", show_default=True),
    click.option("--n", type=click.Choice([str(n) for n in ORDERS]), default=str(SignalSpec.n), show_default=True),
    click.option("--selector", default=SignalSpec.selector, show_default=True,
                 help=f"Eigen selector: {', '.join(SELECTORS)}, an index, or a target eigenvalue."),
    click.option("--lambda-bar", type=float, default=SignalSpec.lambda_bar, show_default=True),
    click.option("--sigma-hat", type=float, default=SignalSpec.sigma_hat, show_default=True),
    click.option("--variance-convention", type=click.Choice(VARIANCE_CONVENTIONS),
                 default=SignalSpec.variance_convention, show_default=True),
    click.option("--source", type=click.Path(exists=True, dir_okay=False), default=None,
                 help="Signal CSV to lift (mode=lifted)."),
]


def _signal_spec(mode, n, selector, lambda_bar, sigma_hat, variance_convention, source) -> SignalSpec:
    return SignalSpec(
        mode=mode, n=int(n), selector=_parse_selector(selector),
        lambda_bar=lambda_bar, sigma_hat=sigma_hat, source=source,
        variance_convention=variance_convention,
    )


def _parse_selector(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# -- dataset commands ---------------------------------------------------------


@main.command()
@click.option("--nodes", type=int, required=True, help="Target number of nodes (>= 3).")
@_flavor_opt
@click.option("--beta", type=float, default=NgfParams.beta, show_default=True)
@_seed_opt
@_output_opt
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
@_add(_signal_opts)
@click.option("--alpha", type=float, default=NoiseModel.alpha, show_default=True,
              help="Noise amplitude; 0 writes the clean signal only.")
@click.option("--seed", type=int, default=None, help="Required when --alpha > 0.")
@_output_opt
@click.option("--noisy-output", type=click.Path(dir_okay=False), help="Where to write the noisy copy (defaults to <output>.noisy.csv).")
def synth(path, alpha, seed, output, noisy_output, **signal):
    """Synthesize a true signal (optionally plus calibrated noise)."""
    def run():
        noise = NoiseModel(alpha=alpha, seed=NoiseModel.seed if seed is None else seed)
        if alpha > 0 and seed is None:
            raise ValueError("--seed is required when --alpha > 0")
        spec = _signal_spec(**signal)
        Dop = assemble_dirac(load_complex(path))
        s, m_true = make_signal(spec, Dop, spectral_basis(Dop, spec.n))
        save_signal(s, output)
        click.echo(f"wrote {output} (m_true={m_true:.6g})")
        if alpha > 0:
            eps = sample_noise(noise, Dop, spec.n, 0)
            noisy = s + eps
            target = noisy_output or str(Path(output).with_suffix(".noisy.csv"))
            save_signal(noisy, target)
            click.echo(f"wrote {target} (realized snr={snr(s, eps):.4g})")
    _guard(run)


# -- experiment commands --------------------------------------------------------


def _m0s_opt(default):
    return click.option("--m0s", default=default, show_default=True,
                        help="Comma-separated initial guesses; numbers or 'auto'.")


# One entry per experiment command: what sets it apart from the others.
# ``options`` are the command's own, listed between --taus and --seeds.
_EXPERIMENTS = {
    "sweep-m": dict(
        command=cmd_sweep_m, doc="Error vs fixed m (dip at the signal's spectral center).",
        alphas="0.6", taus="10", seeds=100,
        options=[
            click.option("--ms", default="", help="Comma-separated m grid (0 baseline always added)."),
            click.option("--m-max", type=float, default=3.0, show_default=True,
                         help="Used when --ms omitted: grid 0..m-max."),
            click.option("--m-step", type=float, default=0.05, show_default=True),
        ],
    ),
    "learn": dict(
        command=cmd_learn, doc="Adaptive filtering traces: learn m, track the error per iteration.",
        alphas="0.5", taus="7", seeds=50,
        options=[_m0s_opt(None), *_eta_delta_opts,
                 click.option("--max-iters", type=int, default=FilterConfig.max_iters, show_default=True)],
        echo="wrote {out} and {summary}",
    ),
    "heatmap": dict(
        command=cmd_heatmap, doc="Mean error of the learned filter over a (tau, alpha) grid.",
        alphas=",".join(str(a) for a in HEATMAP_ALPHAS),
        taus=",".join(str(t) for t in HEATMAP_TAUS), seeds=10,
        options=[_m0s_opt(None), *_eta_delta_opts],
    ),
    "basin": dict(
        command=cmd_basin, doc="Convergence basin: |learned m - true m| vs the initial guess.",
        alphas=",".join(str(a) for a in BASIN_ALPHAS), taus="7", seeds=20,
        options=[_m0s_opt("0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3"), *_eta_delta_opts],
    ),
}


def _entries(flag: str, text: str, parse, kind: str) -> tuple:
    """The comma-separated entries of ``text``, each read by ``parse``; an
    entry it cannot read is a ValueError naming the flag, the entry and ``kind``."""
    values = []
    for x in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(parse(x))
        except ValueError:
            raise ValueError(f"--{flag} takes {kind}, got {x!r}") from None
    return tuple(values)


# Comma-separated options: the parser of one entry, and what the option takes.
_NUMBERS = (float, "numbers")
_LISTS = {"alphas": _NUMBERS, "taus": _NUMBERS, "ms": _NUMBERS,
          "m0s": (lambda x: x if x == "auto" else float(x), "numbers or 'auto'")}


def _m_grid(m_max: float, m_step: float) -> tuple[float, ...]:
    m_max, m_step = require_real("m-max", m_max, 0), require_real("m-step", m_step, 0, strict=True)
    return tuple(round(float(x), 10) for x in np.arange(0.0, m_max + 1e-12, m_step))


def _make_plan(path, nodes, flavor, beta, preset, mode, n, selector, lambda_bar,
               sigma_hat, variance_convention, source, seed, given=(), m_max=None, m_step=None, **kw):
    """The plan of the flags; a preset fills only the settings not in ``given``, those set on the command line."""
    p = {k: v for k, v in SIGNAL_PRESETS.get(preset, {}).items() if k not in given}
    mode, selector = p.get("mode", mode), p.get("selector", selector)
    lambda_bar, sigma_hat = p.get("lambda_bar", lambda_bar), p.get("sigma_hat", sigma_hat)
    if kw.get("m0s") is None:
        kw["m0s"] = (p.get("m0", FilterConfig.m0),)
    if m_step is not None and not kw["ms"]:
        kw["ms"] = _m_grid(m_max, m_step)
    dataset = (
        {"kind": "file", "path": str(path)}
        if path
        else {"kind": "ngf", "target_nodes": nodes, "flavor": int(flavor),
              "beta": beta, "seed": seed}
    )
    spec = _signal_spec(mode, n, selector, lambda_bar, sigma_hat, variance_convention, source)
    return ExperimentPlan(dataset=dataset, signal=spec, seed=seed, **kw)


def _run_experiment(command, echo, plan_file, seed, output, opts):
    """Build or load the plan, run the harness command, report what it wrote."""
    ctx = click.get_current_context()
    given = [
        p for p in ctx.command.params
        if p.name not in ("plan_file", "seed", "output")
        and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE
    ]
    if plan_file:
        if given:
            raise ValueError(
                f"--plan takes every setting from the plan file; drop {', '.join(p.opts[0] for p in given)}"
            )
        plan = load_plan(plan_file)
        if plan.seed != seed:
            raise ValueError(f"--seed {seed} differs from the plan's seed {plan.seed}")
    else:
        lists = {k: _entries(k, v, *_LISTS[k]) for k, v in opts.items() if k in _LISTS and v is not None}
        plan = _make_plan(seed=seed, given={p.name for p in given}, **{**opts, **lists})
    out = command(plan, output)
    click.echo(echo.format(out=out, summary=out.with_name(out.stem + ".summary.csv")))


def _register(name, command, doc, alphas, taus, seeds, options, echo="wrote {out}"):
    opts = [
        click.option("--input", "-i", "path", type=click.Path(exists=True, dir_okay=False),
                     help="Complex file; omit to grow an NGF complex."),
        click.option("--nodes", type=int, default=50, show_default=True, help="NGF size when no --input."),
        _flavor_opt,
        click.option("--beta", type=float, default=NgfParams.beta, show_default=True),
        click.option("--preset", type=click.Choice(sorted(SIGNAL_PRESETS)), default=None,
                     help="Named signal preset (sets mode/selector/m0 where no flag does)."),
        *_signal_opts,
        click.option("--alphas", default=alphas, show_default=True, help="Comma-separated noise amplitudes."),
        click.option("--taus", default=taus, show_default=True, help="Comma-separated filter strengths."),
        *options,
        click.option("--seeds", type=int, default=seeds, show_default=True, help="Noise draws per grid cell."),
        _seed_opt,
        click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False),
                     help="Load the full plan from JSON instead of flags (--seed must match it)."),
        _output_opt,
    ]

    def experiment(plan_file, seed, output, **opts):
        _guard(_run_experiment, command, echo, plan_file, seed, output, opts)

    main.command(name, help=doc)(_add(opts)(experiment))


for _name, _entry in _EXPERIMENTS.items():
    _register(_name, **_entry)


@main.command("bench")
@click.option("--sizes", default="68,134,267,534,1068", show_default=True,
              help="Comma-separated NGF node counts (defaults span N+L from ~200 to ~3200).")
@click.option("--runs", type=int, default=ExperimentPlan.runs, show_default=True)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--tau", type=float, default=2.0, show_default=True)
@_add(_eta_delta_opts)
@_flavor_opt
@_seed_opt
@_output_opt
def bench(sizes, runs, alpha, tau, eta, delta, flavor, seed, output):
    """Wall-time scaling of the adaptive filter vs problem size."""
    def run():
        plan = ExperimentPlan(
            dataset={"kind": "ngf", "flavor": int(flavor), "beta": NgfParams.beta},
            signal=SignalSpec(mode="gaussian_mix"),
            alphas=(alpha,), taus=(tau,),
            eta=eta, delta=delta,
            sizes=_entries("sizes", sizes, int, "integers"),
            runs=runs, seed=seed,
        )
        out, exponent, stderr = cmd_bench(plan, output)
        flag = " (low confidence: < 3 sizes)" if len(plan.sizes) < 3 else ""
        click.echo(f"wrote {out}; scaling exponent {exponent:.3f} +/- {stderr:.3f}{flag}")
    _guard(run)


if __name__ == "__main__":
    main()

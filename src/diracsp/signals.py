"""Synthetic true signals and calibrated subspace noise.

True signals are unit-norm spinors living in im(D_n): single eigenmodes of
D_n, Gaussian-weighted mixtures of its nonzero eigenmodes, or real data
lifted across dimensions with s_n = c_n (sigma + D_n sigma).

Noise is an i.i.d. standard normal vector projected onto im(D_n) and scaled
so that E||eps_n||^2 = alpha^2.  Draws are keyed by (seed, n, draw_index)
through a counter-based Philox generator, so every draw is reproducible
bit-for-bit on any platform and draws can be evaluated in any order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .complexes import SimplicialComplex, require_int, require_order, require_real
from .errors import (
    DegenerateSelection,
    DimensionMismatch,
    EmptyImage,
    EmptySpectrum,
    NoSuchEigenvalue,
    ParseError,
    ZeroAfterProjection,
    ZeroNoise,
)
from .operators import DiracOperator, SpectralBasis, dirac_project
from .spinors import TopologicalSpinor

# Two eigenvalues closer than this (relative to the spectral radius) count
# as degenerate for eigenmode selection.
DEGENERACY_RTOL = 1e-8


def rng_stream(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for a named substream of a 64-bit seed.

    (seed, stream) -> generator is a pure function; substreams with
    different keys are statistically independent.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(x) for x in stream))
    return np.random.Generator(np.random.Philox(ss))


MODES = ("eigen", "gaussian_mix", "lifted")

# "linear" weighs by exp(-d^2/(2*sigma)), "squared" by exp(-d^2/(2*sigma^2)).
VARIANCE_CONVENTIONS = ("linear", "squared")

# Each selector name: the SpectralBasis index array it picks from, and which
# end of it (negatives are stored ascending, i.e. most negative first).
SELECTORS = {
    "smallest_positive": ("pos_indices", 0),
    "largest_positive": ("pos_indices", -1),
    "smallest_negative": ("neg_indices", -1),
    "largest_negative": ("neg_indices", 0),
}


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a true signal on im(D_n).

    An unknown mode, a field of the wrong type or range (in any mode), an
    order outside ORDERS, a selector :func:`checked_selector` refuses, or a
    lifted signal without a source, is a ValueError.
    """

    mode: str  # one of MODES
    n: int = 1
    selector: object = "smallest_positive"  # eigen mode only
    lambda_bar: float = 1.0  # gaussian_mix only
    sigma_hat: float = 0.2  # gaussian_mix only
    source: object = None  # lifted only: TopologicalSpinor or path
    variance_convention: str = "linear"  # one of VARIANCE_CONVENTIONS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        object.__setattr__(self, "n", require_order(require_int("n", self.n), ValueError))
        object.__setattr__(self, "selector", checked_selector(self.selector))
        checked = _gaussian_parameters(self.lambda_bar, self.sigma_hat, self.variance_convention)
        for name, value in zip(("lambda_bar", "sigma_hat"), checked):
            object.__setattr__(self, name, value)
        if self.mode == "lifted" and not isinstance(self.source, (TopologicalSpinor, str, os.PathLike)):
            raise ValueError(f"a lifted signal needs a source, a spinor or a path; got {self.source!r}")

    def to_dict(self) -> dict:
        d = {"mode": self.mode, "n": self.n}
        if self.mode == "eigen":
            d["selector"] = self.selector
        elif self.mode == "gaussian_mix":
            d.update(
                lambda_bar=self.lambda_bar,
                sigma_hat=self.sigma_hat,
                variance_convention=self.variance_convention,
            )
        elif self.mode == "lifted":
            d["source"] = str(self.source)
        return d


def checked_selector(selector) -> int | float | str:
    """selector as :func:`select_eigenvalue` reads it: a name of SELECTORS, an
    integer as an int index, any other number as a finite float target
    eigenvalue; ValueError for anything else (a bool is not a number)."""
    if isinstance(selector, bool) or not isinstance(selector, (str, Real)):
        raise ValueError(f"selector must be a name or a number, got {selector!r}")
    if isinstance(selector, str):
        if selector not in SELECTORS:
            raise ValueError(f"selector must be a number or one of {', '.join(SELECTORS)}, got {selector!r}")
        return selector
    # an integer is an index; any other number a target eigenvalue
    return int(selector) if isinstance(selector, Integral) else require_real("selector", selector)


def select_eigenvalue(basis: SpectralBasis, selector) -> int:
    """Resolve a selector to an index into ``basis.eigenvalues``.

    Accepts an integer index, a target eigenvalue (float, matched to the
    nearest nonzero eigenvalue if it is within 1e-6 * max(max |lambda|, 1)),
    or a name of SELECTORS (magnitude within each sign class); a selector
    :func:`checked_selector` refuses is a NoSuchEigenvalue.
    """
    vals = basis.eigenvalues
    nz = basis.nonzero_indices
    if nz.size == 0:
        raise EmptySpectrum(f"D_{basis.order} has no nonzero eigenvalues")
    try:
        selector = checked_selector(selector)
    except ValueError as exc:
        raise NoSuchEigenvalue(str(exc)) from exc

    if isinstance(selector, int):
        if not 0 <= selector < vals.size:
            raise NoSuchEigenvalue(f"index {selector} outside 0..{vals.size - 1}")
        return selector

    if isinstance(selector, str):
        indices, which = SELECTORS[selector]
        idxs = getattr(basis, indices)
        if idxs.size == 0:
            raise NoSuchEigenvalue(f"no eigenvalues match {selector!r}")
        return int(idxs[which])

    scale = float(np.max(np.abs(vals[nz])))
    dists = np.abs(vals[nz] - selector)
    best = int(nz[np.argmin(dists)])
    if abs(vals[best] - selector) > 1e-6 * max(scale, 1.0):
        raise NoSuchEigenvalue(
            f"no eigenvalue of D_{basis.order} within tolerance of {selector}"
        )
    return best


def _assert_nondegenerate(basis: SpectralBasis, i: int) -> None:
    vals = basis.eigenvalues
    scale = max(float(np.max(np.abs(vals))), 1.0)
    gaps = np.abs(np.delete(vals, i) - vals[i])
    if gaps.size and gaps.min() <= DEGENERACY_RTOL * scale:
        raise DegenerateSelection(
            f"eigenvalue {vals[i]:.12g} of D_{basis.order} is degenerate"
        )


def eigenmode_signal(basis: SpectralBasis, selector) -> TopologicalSpinor:
    """A single unit-norm eigenvector of D_n, chosen by ``selector``."""
    i = select_eigenvalue(basis, selector)
    if i in basis.harm_indices:
        raise NoSuchEigenvalue("selector picked a harmonic mode; true signals live in im(D_n)")
    _assert_nondegenerate(basis, i)
    return basis.spinor(i)


def _gaussian_parameters(lambda_bar, sigma_hat, variance_convention) -> tuple[float, float]:
    """(lambda_bar, sigma_hat) as floats; ValueError, naming the field, unless
    lambda_bar is a finite number, sigma_hat a finite number > 0 and the
    convention one of VARIANCE_CONVENTIONS."""
    checked = require_real("lambda_bar", lambda_bar), require_real("sigma_hat", sigma_hat, 0, strict=True)
    if variance_convention not in VARIANCE_CONVENTIONS:
        raise ValueError(f"variance_convention must be one of {', '.join(VARIANCE_CONVENTIONS)}, got {variance_convention!r}")
    return checked


def gaussian_mix_signal(
    basis: SpectralBasis,
    lambda_bar: float,
    sigma_hat: float,
    *,
    variance_convention: str = SignalSpec.variance_convention,
) -> TopologicalSpinor:
    """Mixture over all nonzero eigenmodes with Gaussian weights.

    Weights are exp(-(lambda - lambda_bar)^2 / (2 sigma_hat)) by default
    (the "linear" convention); ``variance_convention="squared"`` divides by
    2 sigma_hat^2 instead.  The result is normalized to unit Euclidean norm.
    """
    lambda_bar, sigma_hat = _gaussian_parameters(lambda_bar, sigma_hat, variance_convention)
    nz = basis.nonzero_indices
    if nz.size == 0:
        raise EmptySpectrum(f"D_{basis.order} has no nonzero eigenvalues")
    lam = basis.eigenvalues[nz]
    denom = 2.0 * sigma_hat if variance_convention == "linear" else 2.0 * sigma_hat**2
    d2 = (lam - lambda_bar) ** 2
    # weights are scale-free; subtract the min exponent for stability
    w = np.exp(-(d2 - d2.min()) / denom)
    w /= np.linalg.norm(w)
    return basis.synthesize(w)


def lift_signal(
    sigma: TopologicalSpinor, Dop: DiracOperator, n: int
) -> TopologicalSpinor:
    """Spread a partially-observed signal across adjacent dimensions.

    Forms sigma + D_n sigma, projects onto im(D_n), and normalizes to unit
    norm.  A purely harmonic source leaves nothing after projection and
    raises :class:`ZeroAfterProjection`.  A source out of the safe range is
    first scaled by a power of two
    (:meth:`~diracsp.spinors.TopologicalSpinor._in_range`), so any
    power-of-two multiple of a source lifts to the same bits.
    """
    sigma = sigma._in_range()[0]
    if sigma.norm() == 0.0:
        raise ZeroAfterProjection("source spinor is zero")
    raw = sigma + Dop.apply(sigma, n)
    proj = dirac_project(raw, Dop, n)
    nrm = proj.norm()
    if nrm <= 1e-12 * sigma.norm():
        raise ZeroAfterProjection("source is harmonic for D_%d; nothing to lift" % n)
    return proj / nrm


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian noise confined to im(D_n), normalized so E||eps_n||^2 = alpha^2."""

    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", require_real("alpha", self.alpha, 0))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))


def sample_noise(
    model: NoiseModel, Dop: DiracOperator, n: int, draw_index: int = 0
) -> TopologicalSpinor:
    """One noise draw: eps_n = alpha P_n x / sqrt(dim im(D_n)), x ~ N(0, I).

    Deterministic given (seed, draw_index); distinct draw indices give
    independent vectors.
    """
    scale = _noise_scale(model, n, Dop.nonharmonic_dim(n))
    x = TopologicalSpinor.from_vector(Dop.K, _standard_draw(model, n, draw_index, Dop.dim))
    return dirac_project(x, Dop, n) * scale


def noise_coefficients(model: NoiseModel, basis: SpectralBasis, draw_indices) -> np.ndarray:
    """Coordinates in ``basis`` of the sample_noise draws, one row per draw index.

    Row k equals ``basis.coefficients(sample_noise(model, Dop, n, k))`` up to
    roundoff: the coordinates of P_n x are those of x itself, so neither the
    projection nor a spinor is formed.
    """
    n = basis.order
    scale = _noise_scale(model, n, basis.nonharmonic_dim)
    X = np.empty((len(draw_indices), basis.K.spinor_dim))
    for row, k in zip(X, draw_indices):
        row[:] = _standard_draw(model, n, k, X.shape[1])
    return basis.coefficient_rows(X) * scale


def _noise_scale(model: NoiseModel, n: int, dim_n: int) -> float:
    """alpha / sqrt(dim im(D_n)), the factor that makes E||eps_n||^2 = alpha^2."""
    if dim_n == 0:
        raise EmptyImage(f"im(D_{n}) is trivial; cannot place noise there")
    return model.alpha / np.sqrt(dim_n)


def _standard_draw(model: NoiseModel, n: int, draw_index: int, dim: int) -> np.ndarray:
    """The N(0, I) vector x behind draw ``draw_index`` of ``model``."""
    return rng_stream(model.seed, n, draw_index).standard_normal(dim)


def snr(s: TopologicalSpinor, eps: TopologicalSpinor) -> float:
    """||s||^2 / ||eps||^2; with unit-norm s this is 1/alpha^2 in expectation.

    Squared as the ratio of the two norms, so spinors of any finite scale
    give it; a ratio past 1e154 squares to inf.
    """
    denom = eps.norm()
    if denom == 0.0:
        raise ZeroNoise("noise vector is zero; snr undefined")
    ratio = s.norm() / denom
    return ratio * ratio


# -- signal file format -------------------------------------------------------

_BLOCKS = ("node", "link", "triangle")


def save_signal(s: TopologicalSpinor, path) -> None:
    """Write a spinor as CSV rows (block, index, value) at full precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["block", "index", "value"])
        for name, block in zip(_BLOCKS, s.blocks):
            w.writerows(zip(repeat(name), range(block.size), block.tolist()))


def load_signal(path, K: SimplicialComplex) -> TopologicalSpinor:
    """Read a (block, index, value) CSV into a spinor over K.

    Rows may appear in any order; omitted entries are zero.  A non-finite value
    or a second row for the same entry raises :class:`ParseError`, an index
    outside the complex :class:`DimensionMismatch`.
    """
    return _read_signal(path, K, _BLOCKS)


def _read_signal(path, K: SimplicialComplex, blocks: tuple[str, ...]) -> TopologicalSpinor:
    """:func:`load_signal`, with a row of any block outside ``blocks`` a ParseError."""
    arrays = {name: np.zeros(size) for name, size in zip(_BLOCKS, K.counts)}
    seen = {}  # (block, index) -> line
    path = Path(path)
    with open(path, newline="") as fh:
        # every line that is not a comment, with its number in the file
        numbered = [(i, line) for i, line in enumerate(fh, start=1) if not line.startswith("#")]
        rows = csv.reader(line for _, line in numbered)
        header = next(rows, None)
        if header is None or [h.strip() for h in header[:3]] != ["block", "index", "value"]:
            raise ParseError(f"{path}: expected header 'block,index,value'")
        for row in rows:
            if not row:
                continue
            lineno = numbered[rows.line_num - 1][0]
            try:
                block, idx, val = row[0].strip(), int(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if not math.isfinite(val):
                raise ParseError(f"{path}:{lineno}: value {row[2].strip()!r} is not finite")
            if block not in blocks:
                raise ParseError(f"{path}:{lineno}: block {block!r} is not one of {', '.join(blocks)}")
            if not 0 <= idx < arrays[block].size:
                raise DimensionMismatch(
                    f"{path}:{lineno}: {block} index {idx} outside complex "
                    f"with {arrays[block].size} {block}s"
                )
            first = seen.setdefault((block, idx), lineno)
            if first != lineno:
                raise ParseError(f"{path}:{lineno}: {block} {idx} was already given on line {first}")
            arrays[block][idx] = val
    return TopologicalSpinor(*arrays.values())

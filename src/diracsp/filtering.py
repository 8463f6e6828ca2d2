"""Hodge and Dirac filters, and the adaptive spectral-center learner.

The fixed filter solves the regularized reconstruction

    s_hat_n = [I + tau (D_n - m I)^2]^(-1) s_tilde_n,

which attenuates an eigenmode with eigenvalue lambda by 1/(1 + tau (lambda
- m)^2): modes near m pass, everything else is damped, and m = 0 recovers
the Hodge low-pass kernel on im(D_n).  Since the best m is the eigenvalue
region carrying the true signal, the unsupervised learner alternates the
filter with a relaxed Rayleigh-quotient update of m until the estimate
stops moving.

The Dirac filter and the learner act in the coordinates of the factored
SpectralBasis of D_n, where the filter is diagonal: each learning
iteration is O(dim im(D_n)).  Without a basis from the caller they build
one from the operator's cached singular triplets.  The Hodge filter needs
no spectrum and solves its SPD system by a sparse factorization.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NonConvergence, SolverFailure, ZeroSignal
from .operators import DiracOperator, SpectralBasis, spectral_basis
from .spinors import TopologicalSpinor


def _solve_spd(A: sp.sparray, b: np.ndarray) -> np.ndarray:
    # scipy has no sparse Cholesky; LU on an SPD matrix is stable and keeps
    # one code path across problem sizes.
    try:
        return splu(A.tocsc()).solve(b)
    except (np.linalg.LinAlgError, sla.LinAlgError, RuntimeError) as exc:
        raise SolverFailure(f"filter system could not be solved: {exc}") from exc


def hodge_filter(
    s_tilde: TopologicalSpinor, Dop: DiracOperator, tau: float
) -> TopologicalSpinor:
    """Low-pass filter [I + tau L]^(-1) s_tilde over the super-Laplacian.

    Harmonic components pass through unchanged; an eigenmode with eigenvalue
    mu is scaled by 1/(1 + tau mu).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    Dop._check(s_tilde)
    if tau == 0.0:
        return s_tilde
    A = (sp.eye_array(Dop.dim) + tau * Dop.super_laplacian).tocsc()
    return TopologicalSpinor.from_vector(Dop.K, _solve_spd(A, s_tilde.vector))


def _attenuation(lam: np.ndarray, tau: float, m: float) -> np.ndarray:
    return 1.0 / (1.0 + tau * (lam - m) ** 2)


def _basis_for(Dop: DiracOperator, n: int, basis: SpectralBasis | None) -> SpectralBasis:
    """The caller's basis, checked against D_n of ``Dop``, or the one ``Dop`` keeps."""
    if basis is None:
        return spectral_basis(Dop, n)
    basis.check(Dop, n)
    return basis


def dirac_filter(
    s_tilde_n: TopologicalSpinor,
    Dop: DiracOperator,
    n: int,
    tau: float,
    m: float,
    basis: SpectralBasis | None = None,
) -> TopologicalSpinor:
    """Band-pass filter [I + tau (D_n - m I)^2]^(-1) restricted to im(D_n).

    Applied diagonally in the coordinates of the spectral basis of D_n, so
    the output always lies in im(D_n): the part of the input outside it is
    dropped.  Without ``basis`` it uses the one ``Dop`` keeps for D_n.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    Dop._check(s_tilde_n)
    basis = _basis_for(Dop, n, basis)
    c = basis.coefficients(s_tilde_n)
    c *= _attenuation(basis.eigenvalues[basis.nonzero_indices], tau, m)
    return basis.synthesize(c)


def rayleigh_m(s_n: TopologicalSpinor, Dop: DiracOperator, n: int) -> float:
    """Rayleigh quotient s^T D_n s / s^T s: the spectral center of the signal."""
    Dop._check(s_n)
    denom = s_n.dot(s_n)
    if denom <= 0.0:
        raise ZeroSignal("Rayleigh quotient of the zero signal is undefined")
    return s_n.dot(Dop.apply(s_n, n)) / denom


def reconstruction_error(s_hat: TopologicalSpinor, s_true: TopologicalSpinor) -> float:
    """Euclidean distance ||s_hat - s_true||_2."""
    return (s_hat - s_true).norm()


# spec name for the same operation
error = reconstruction_error


def require_int(name: str, value) -> None:
    """Raise ValueError unless value is an int; a bool does not count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of the adaptive filter loop."""

    tau: float
    m0: float | str = "auto"
    eta: float = 0.3
    delta: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        require_int("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if isinstance(self.m0, str):
            if self.m0 != "auto":
                raise ValueError(f"m0 must be a number or 'auto', got {self.m0!r}")
        elif not math.isfinite(self.m0):
            raise ValueError(f"m0 must be finite, got {self.m0!r}")

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "m0": self.m0,
            "eta": self.eta,
            "delta": self.delta,
            "max_iters": self.max_iters,
        }


@dataclass
class TraceRow:
    t: int
    m_hat: float
    delta_s: float | None = None
    rel_error: float | None = None


@dataclass
class RunTrace:
    """Per-iteration history of one learning run.

    ``delta_s`` is ||s_hat(t) - P_n s_true||, where P_n projects onto
    im(D_n): the filter output never leaves im(D_n), so the part of the
    truth outside it is not counted.  ``rel_error`` divides delta_s by the
    same distance for the m=0 (Hodge-kernel) filter with the same tau; both
    are None when the truth was not supplied.  Row t=0 records the initial
    guess and the error of the projected noisy input itself.
    """

    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    final_m: float = float("nan")
    baseline_error: float | None = None
    noisy_error: float | None = None

    @property
    def m_history(self) -> np.ndarray:
        return np.array([r.m_hat for r in self.rows])

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# converged={self.converged} iterations={self.iterations} final_m={self.final_m!r}\n")
            w = csv.writer(fh)
            w.writerow(["t", "m_hat", "delta_s", "rel_error"])
            for r in self.rows:
                w.writerow(
                    [
                        r.t,
                        repr(r.m_hat),
                        "" if r.delta_s is None else repr(r.delta_s),
                        "" if r.rel_error is None else repr(r.rel_error),
                    ]
                )


def _learn_coords(
    lam: np.ndarray, c0: np.ndarray, c_true: np.ndarray | None, config: FilterConfig
) -> tuple[np.ndarray, RunTrace]:
    """The adaptive loop of :func:`learn` on coordinates: (final c_hat, trace).

    ``lam`` holds the eigenvalues of the nonzero modes, ``c0`` the noisy
    input's coordinates along them and ``c_true`` the truth's (None when no
    truth is measured).  Nothing here needs the modes themselves.
    """
    tau = config.tau

    def filt(m):
        return c0 * _attenuation(lam, tau, m)

    def ray(c):
        denom = c @ c
        if denom <= 0.0:
            raise ZeroSignal("filtered signal collapsed to zero")
        return float((lam * c**2).sum() / denom)

    def err(c):
        return float(np.linalg.norm(c - c_true))

    norm_c0 = float(np.linalg.norm(c0))
    if norm_c0 == 0.0:
        raise ZeroSignal("observed signal has no component in im(D_n)")

    # Rule of thumb: with unit-norm truth, ||s_tilde_n||^2 ~ 1 + alpha^2, so
    # an observed power above 2 suggests snr < 1, where the initial guess
    # matters a lot.
    if norm_c0**2 - 1.0 > 1.0:
        warnings.warn(
            "estimated snr < 1; convergence is sensitive to the initial m0",
            RuntimeWarning,
            stacklevel=3,  # the caller of learn
        )

    if config.m0 == "auto":
        m_hat = ray(c0)
    else:
        m_hat = float(config.m0)

    trace = RunTrace()
    if c_true is not None:
        trace.noisy_error = err(c0)
        trace.baseline_error = err(filt(0.0))
    trace.rows.append(
        TraceRow(
            0,
            m_hat,
            trace.noisy_error,
            None
            if c_true is None or not trace.baseline_error
            else trace.noisy_error / trace.baseline_error,
        )
    )

    c_hat = c0
    converged = False
    t = 0
    while t < config.max_iters:
        t += 1
        c_hat = filt(m_hat)
        m_new = (1.0 - config.eta) * m_hat + config.eta * ray(c_hat)
        delta_s = err(c_hat) if c_true is not None else None
        rel = (
            delta_s / trace.baseline_error
            if delta_s is not None and trace.baseline_error
            else None
        )
        trace.rows.append(TraceRow(t, m_new, delta_s, rel))
        moved = abs(m_new - m_hat)
        m_hat = m_new
        if moved < config.delta:
            converged = True
            break

    trace.converged = converged
    trace.iterations = t
    trace.final_m = m_hat
    return c_hat, trace


def learn(
    s_tilde_n: TopologicalSpinor,
    Dop: DiracOperator,
    n: int,
    config: FilterConfig,
    truth: TopologicalSpinor | None = None,
    basis: SpectralBasis | None = None,
    strict: bool = False,
) -> tuple[TopologicalSpinor, RunTrace]:
    """Unsupervised adaptive filtering: learn m, return (s_hat, trace).

    Repeats filter-then-update until the m estimate moves less than delta:

        s_hat       <- [I + tau (D_n - m_hat I)^2]^(-1) s_tilde_n
        m_hat(t+1)  <- (1 - eta) m_hat(t) + eta * Rayleigh(s_hat)

    ``m0="auto"`` starts from the Rayleigh quotient of the projected noisy
    input.  The loop (:func:`_learn_coords`) runs on coordinates in the
    spectral basis of D_n (the one ``Dop`` keeps when no ``basis`` is given).
    ``truth`` is measured by its projection P_n truth onto im(D_n), as
    described in :class:`RunTrace`.  If max_iters is hit the partial trace is
    still returned with ``converged=False`` (or raised inside
    :class:`NonConvergence` when ``strict=True``).
    """
    basis = _basis_for(Dop, n, basis)
    c_hat, trace = _learn_coords(
        basis.eigenvalues[basis.nonzero_indices],
        basis.coefficients(s_tilde_n),
        None if truth is None else basis.coefficients(truth),
        config,
    )
    result = (basis.synthesize(c_hat), trace)
    if not trace.converged and strict:
        raise NonConvergence(
            f"m estimate still moving after {trace.iterations} iterations", result=result
        )
    return result

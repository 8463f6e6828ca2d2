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
one from the operator's cached singular triplets; with the harness's sweep
they share one set of weights, :func:`_filter_weights`, and one error,
:func:`_squared_delta_s`.  The learner's loop, :func:`_learn_batch`, runs S
draws at once on an S x r matrix of coordinates, each draw stopping at its
own iteration; :func:`learn` is its one-draw case.  The Hodge filter needs no spectrum and
solves its SPD system by a sparse factorization.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .complexes import require_int, require_real
from .errors import NonConvergence, SolverFailure, ZeroSignal
from .operators import DiracOperator, SpectralBasis, spectral_basis
from .spinors import TopologicalSpinor

if TYPE_CHECKING:
    import scipy.sparse as sp


def _solve_spd(A: sp.sparray, b: np.ndarray) -> np.ndarray:
    # scipy has no sparse Cholesky; LU on an SPD matrix is stable and keeps
    # one code path across problem sizes.  Imported here, its only use, so
    # that importing the package does not load scipy.sparse.linalg.
    from scipy.sparse.linalg import splu

    try:
        return splu(A.tocsc()).solve(b)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SolverFailure(f"filter system could not be solved: {exc}") from exc


def hodge_filter(
    s_tilde: TopologicalSpinor, Dop: DiracOperator, tau: float
) -> TopologicalSpinor:
    """Low-pass filter [I + tau L]^(-1) s_tilde over the super-Laplacian.

    Harmonic components pass through unchanged; an eigenmode with eigenvalue
    mu is scaled by 1/(1 + tau mu).
    """
    require_real("tau", tau, 0)
    Dop._check(s_tilde)
    if tau == 0.0:
        return s_tilde
    import scipy.sparse as sp

    A = (sp.eye_array(Dop.dim) + tau * Dop.super_laplacian).tocsc()
    return TopologicalSpinor.from_vector(Dop.K, _solve_spd(A, s_tilde.vector))


def _filter_weights(lam: np.ndarray, tau: float, m: np.ndarray) -> np.ndarray:
    """The Dirac filter's weights 1/(1 + tau (lam - m[k])^2): one row per center in ``m``."""
    W = lam - m[:, None]
    np.square(W, out=W)
    W *= tau
    W += 1.0
    return np.divide(1.0, W, out=W)


def _squared_delta_s(
    C: np.ndarray, c_true: np.ndarray, buf: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """delta_s^2 for each row of coordinates, by row sums.

    The differences are formed in ``buf`` (shaped like C; it may be C
    itself), or in a new array, and the sums written to ``out`` if given.
    A BLAS product would round a row by its position and the batch size.
    """
    D = np.subtract(C, c_true, out=buf)
    D *= D
    return D.sum(axis=1, out=out)


def _delta_s(C: np.ndarray, c_true: np.ndarray) -> np.ndarray:
    """delta_s = ||s_hat - P_n s_true|| for each row of coordinates."""
    return np.sqrt(_squared_delta_s(C, c_true))


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
    require_real("tau", tau, 0)
    require_real("m", m)
    Dop._check(s_tilde_n)
    basis = _basis_for(Dop, n, basis)
    lam, c = basis.eigenvalues[basis.nonzero_indices], basis.coefficients(s_tilde_n)
    return basis.synthesize(c * _filter_weights(lam, tau, np.array([m]))[0])


def rayleigh_m(s_n: TopologicalSpinor, Dop: DiracOperator, n: int) -> float:
    """Rayleigh quotient s^T D_n s / s^T s: the spectral center of the signal.

    A signal out of the safe range is scaled by a power of two first
    (:meth:`~diracsp.spinors.TopologicalSpinor._in_range`), which leaves the
    quotient as it is.
    """
    Dop._check(s_n)
    s_n = s_n._in_range()[0]
    denom = s_n.dot(s_n)
    if denom <= 0.0:
        raise ZeroSignal("Rayleigh quotient of the zero signal is undefined")
    return s_n.dot(Dop.apply(s_n, n)) / denom


def reconstruction_error(s_hat: TopologicalSpinor, s_true: TopologicalSpinor) -> float:
    """Euclidean distance ||s_hat - s_true||_2."""
    return (s_hat - s_true).norm()


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of the adaptive filter loop."""

    tau: float
    m0: float | str = "auto"
    eta: float = 0.3
    delta: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "tau", require_real("tau", self.tau, 0, strict=True))
        object.__setattr__(self, "eta", require_real("eta", self.eta))
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        object.__setattr__(self, "delta", require_real("delta", self.delta, 0, strict=True))
        object.__setattr__(self, "max_iters", require_int("max_iters", self.max_iters, 1))
        if self.m0 != "auto":
            object.__setattr__(self, "m0", require_real("m0", self.m0))


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
            w.writerows((r.t, r.m_hat, r.delta_s, r.rel_error) for r in self.rows)


def _low_snr(C0: np.ndarray) -> np.ndarray:
    """Per row of input coordinates: does the observed power suggest snr < 1?

    Rule of thumb: with unit-norm truth, ||s_tilde_n||^2 ~ 1 + alpha^2, so an
    observed power above 2 suggests snr < 1, where the initial guess matters
    a lot.
    """
    return (C0 * C0).sum(axis=1) - 1.0 > 1.0


@dataclass(frozen=True)
class LearnBatch:
    """The adaptive loop's run of S draws at once, from :func:`_learn_batch`.

    Row t of ``m_hat`` and ``delta_s`` holds iteration t of every draw (t = 0
    is the initial guess and the noisy input); draw k stopped after
    ``iterations[k]`` iterations, and its entries past that row are NaN.
    ``delta_s``, ``noisy_error`` and ``baseline_error`` are None when no
    truth was measured.
    """

    coords: np.ndarray  # S x r final c_hat
    m_hat: np.ndarray  # (T + 1) x S
    delta_s: np.ndarray | None  # (T + 1) x S
    iterations: np.ndarray  # S
    converged: np.ndarray  # S, bool
    noisy_error: np.ndarray | None  # S
    baseline_error: np.ndarray | None  # S

    def _final(self, per_iteration: np.ndarray) -> np.ndarray:
        return per_iteration[self.iterations, np.arange(self.iterations.size)]

    @property
    def final_m(self) -> np.ndarray:
        return self._final(self.m_hat)

    @property
    def final_delta_s(self) -> np.ndarray:
        return self._final(self.delta_s)

    def trace(self, k: int) -> RunTrace:
        """Draw k's run as a :class:`RunTrace`."""
        its = int(self.iterations[k])
        trace = RunTrace(converged=bool(self.converged[k]), iterations=its)
        trace.final_m = float(self.m_hat[its, k])
        baseline = None
        if self.delta_s is not None:
            trace.noisy_error = float(self.noisy_error[k])
            trace.baseline_error = baseline = float(self.baseline_error[k])
        for t in range(its + 1):
            delta_s = None if self.delta_s is None else float(self.delta_s[t, k])
            rel = delta_s / baseline if delta_s is not None and baseline else None
            trace.rows.append(TraceRow(t, float(self.m_hat[t, k]), delta_s, rel))
        return trace


def _learn_batch(
    lam: np.ndarray, C0: np.ndarray, c_true: np.ndarray | None, config: FilterConfig
) -> LearnBatch:
    """The adaptive loop of :func:`learn` on an S x r matrix of coordinates.

    ``lam`` holds the eigenvalues of the nonzero modes, row k of ``C0`` the
    coordinates of draw k along them and ``c_true`` the truth's (None when
    no truth is measured).  Every draw runs the filter-then-update loop on
    its own and stops at the first iteration where its m estimate moves
    less than delta; the draws still moving form the active rows of each
    step.  A zero row, or a filtered row that collapses to zero, raises
    :class:`ZeroSignal`.
    """
    C0 = np.asarray(C0, dtype=float)
    S = C0.shape[0]
    tau, eta = config.tau, config.eta
    if ((C0 * C0).sum(axis=1) == 0.0).any():
        raise ZeroSignal("observed signal has no component in im(D_n)")

    # Row sums, not BLAS products, for the reason given in _squared_delta_s.
    def ray(C):
        Q = C * C
        denom = Q.sum(axis=1)
        if (denom <= 0.0).any():
            raise ZeroSignal("filtered signal collapsed to zero")
        Q *= lam
        return Q.sum(axis=1) / denom

    m = ray(C0) if config.m0 == "auto" else np.full(S, float(config.m0))
    m_rows = [m]
    noisy = baseline = None
    if c_true is not None:
        noisy = _delta_s(C0, c_true)
        baseline = _delta_s(C0 * _filter_weights(lam, tau, np.zeros(1)), c_true)
        delta_rows = [noisy]

    coords = np.empty_like(C0)
    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    # the draws still moving: their indices, input rows and current m
    active, C = np.arange(S), C0
    t = 0
    while active.size and t < config.max_iters:
        t += 1
        C_hat = C * _filter_weights(lam, tau, m)
        m_new = (1.0 - eta) * m + eta * ray(C_hat)
        row = np.full(S, np.nan)
        row[active] = m_new
        m_rows.append(row)
        if c_true is not None:
            row = np.full(S, np.nan)
            row[active] = _delta_s(C_hat, c_true)
            delta_rows.append(row)
        done = np.abs(m_new - m) < config.delta
        m = m_new
        if done.any():
            stopped = active[done]
            coords[stopped] = C_hat[done]
            iterations[stopped] = t
            converged[stopped] = True
            keep = ~done
            active, C, C_hat, m = active[keep], C[keep], C_hat[keep], m[keep]
    if active.size:  # max_iters reached
        coords[active] = C_hat
        iterations[active] = t

    return LearnBatch(
        coords=coords,
        m_hat=np.array(m_rows),
        delta_s=None if c_true is None else np.array(delta_rows),
        iterations=iterations,
        converged=converged,
        noisy_error=noisy,
        baseline_error=baseline,
    )


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
    input.  The loop runs on coordinates in the spectral basis of D_n (the
    one ``Dop`` keeps when no ``basis`` is given), as the one-draw case of
    :func:`_learn_batch`.  ``truth`` is measured by its projection P_n truth
    onto im(D_n), as described in :class:`RunTrace`.  If max_iters is hit
    the partial trace is still returned with ``converged=False`` (or raised
    inside :class:`NonConvergence` when ``strict=True``).
    """
    basis = _basis_for(Dop, n, basis)
    C0 = basis.coefficients(s_tilde_n)[None, :]
    if _low_snr(C0)[0]:
        warnings.warn(
            "estimated snr < 1; convergence is sensitive to the initial m0",
            RuntimeWarning,
            stacklevel=2,
        )
    batch = _learn_batch(
        basis.eigenvalues[basis.nonzero_indices],
        C0,
        None if truth is None else basis.coefficients(truth),
        config,
    )
    trace = batch.trace(0)
    result = (basis.synthesize(batch.coords[0]), trace)
    if not trace.converged and strict:
        raise NonConvergence(
            f"m estimate still moving after {trace.iterations} iterations", result=result
        )
    return result

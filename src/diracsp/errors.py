"""Exception hierarchy for diracsp.

Every error raised by the library derives from :class:`DiracSPError`, so
callers (and the CLI) can map failures to a stable, machine-readable class
name via ``type(exc).__name__``.
"""


class DiracSPError(Exception):
    """Base class for all diracsp errors."""


# -- complex construction ---------------------------------------------------

class DuplicateSimplex(DiracSPError):
    """A link or triangle appears more than once (or has a repeated vertex)."""


class MissingFace(DiracSPError):
    """A triangle references a link that is not part of the complex."""


class IndexOutOfRange(DiracSPError):
    """A simplex references a node index outside ``range(node_count)``."""


class ParseError(DiracSPError):
    """A complex / signal / plan file does not conform to its documented format."""


# -- operators and spectra --------------------------------------------------

class InvalidOrder(DiracSPError):
    """Requested operator order n is not available for this complex."""


class EigensolveFailure(DiracSPError):
    """An eigensolve did not converge, or the rank it shows is contradicted or undecided."""


class DimensionMismatch(DiracSPError):
    """Vector or spinor length does not match the owning complex."""


# -- signal synthesis -------------------------------------------------------

class DegenerateSelection(DiracSPError):
    """The selected eigenvalue is degenerate; the eigenmode is not unique."""


class NoSuchEigenvalue(DiracSPError):
    """No eigenvalue matches the requested selector."""


class EmptySpectrum(DiracSPError):
    """The operator has no nonzero eigenvalues to build a signal from."""


class ZeroAfterProjection(DiracSPError):
    """The source signal is entirely harmonic; nothing survives projection."""


class EmptyImage(DiracSPError):
    """im(D_n) is zero-dimensional; no noise can be injected there."""


class ZeroNoise(DiracSPError):
    """The noise vector is zero; the signal-to-noise ratio is undefined."""


class ZeroSignal(DiracSPError):
    """The signal vector is zero; the Rayleigh quotient is undefined."""


# -- filtering --------------------------------------------------------------

class SolverFailure(DiracSPError):
    """The linear system for a filter could not be solved."""


class NonConvergence(DiracSPError):
    """The adaptive filter hit its iteration cap before |dm| < delta.

    The partial result is attached as ``exc.result`` (a ``(spinor, trace)``
    tuple) so callers can still inspect it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# -- generators -------------------------------------------------------------

class InvalidFlavor(DiracSPError, ValueError):
    """NGF flavor outside generators.FLAVORS; a ValueError, as NgfParams' other faults are."""

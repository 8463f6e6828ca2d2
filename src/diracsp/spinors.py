"""Topological spinors: signals over nodes + links + triangles.

A spinor is the direct sum of a node block, a link block and a triangle
block.  Arrays are copied on construction and frozen, so spinors can be
shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex
from .errors import DimensionMismatch


# The range of the largest |entry| in which dot products of a spinor are
# formed as they are (TopologicalSpinor._in_range).
_SAFE_LOW, _SAFE_HIGH = 2.0**-500, 2.0**500


def _frozen(x) -> np.ndarray:
    a = np.array(x, dtype=float, copy=True).reshape(-1)
    a.flags.writeable = False
    return a


def split_blocks(K: SimplicialComplex, x: np.ndarray):
    """(node, link, triangle) blocks of the last axis of x, as views.

    The one place that knows the layout of a spinor's vector: x is one
    vector of length N0 + N1 + N2, or a stack of them along the last axis.
    """
    if x.shape[-1] != K.spinor_dim:
        raise DimensionMismatch(
            f"vector has length {x.shape[-1]}, complex needs {K.spinor_dim}"
        )
    i, j = K.n0, K.n0 + K.n1
    return x[..., :i], x[..., i:j], x[..., j:]


@dataclass(frozen=True)
class TopologicalSpinor:
    """Real signal vector over the space C0 + C1 + C2."""

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s0", _frozen(self.s0))
        object.__setattr__(self, "s1", _frozen(self.s1))
        object.__setattr__(self, "s2", _frozen(self.s2))

    @classmethod
    def zeros(cls, K: SimplicialComplex) -> "TopologicalSpinor":
        return cls(np.zeros(K.n0), np.zeros(K.n1), np.zeros(K.n2))

    @classmethod
    def from_vector(cls, K: SimplicialComplex, vec) -> "TopologicalSpinor":
        return cls(*split_blocks(K, np.asarray(vec, dtype=float).reshape(-1)))

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.s0, self.s1, self.s2)

    @property
    def vector(self) -> np.ndarray:
        """The concatenation (s0, s1, s2); length N0 + N1 + N2."""
        return np.concatenate(self.blocks)

    def __len__(self) -> int:
        return self.s0.size + self.s1.size + self.s2.size

    def norm(self) -> float:
        """Euclidean norm, without overflow or underflow at any finite scale (see :meth:`_in_range`)."""
        s, e = self._in_range()
        return float(np.ldexp(np.sqrt(s.dot(s)), e))

    def _in_range(self) -> tuple["TopologicalSpinor", int]:
        """(self * 2**-e, e): e = 0 while the largest |entry| lies in [2**-500, 2**500].

        Such a spinor squares and sums in floating point with neither overflow
        nor underflow of its largest entries.  Outside that range (zero and
        non-finite spinors excepted) e is the binary exponent of the largest
        |entry| (np.frexp), so the scaled spinor peaks in [1/2, 1).  Scaling
        by a power of two is exact, so the quotients of its dot products are
        those of the spinor itself.
        """
        top = max((float(np.abs(b).max()) for b in self.blocks if b.size), default=0.0)
        if top == 0.0 or _SAFE_LOW <= top <= _SAFE_HIGH or not np.isfinite(top):
            return self, 0
        e = int(np.frexp(top)[1])
        return TopologicalSpinor(*(np.ldexp(b, -e) for b in self.blocks)), e

    def dot(self, other: "TopologicalSpinor") -> float:
        self._check_shape(other)
        return float(
            self.s0 @ other.s0 + self.s1 @ other.s1 + self.s2 @ other.s2
        )

    def _check_shape(self, other: "TopologicalSpinor") -> None:
        if (self.s0.size, self.s1.size, self.s2.size) != (
            other.s0.size,
            other.s1.size,
            other.s2.size,
        ):
            raise DimensionMismatch("spinors live over different complexes")

    def __add__(self, other: "TopologicalSpinor") -> "TopologicalSpinor":
        self._check_shape(other)
        return TopologicalSpinor(
            self.s0 + other.s0, self.s1 + other.s1, self.s2 + other.s2
        )

    def __sub__(self, other: "TopologicalSpinor") -> "TopologicalSpinor":
        self._check_shape(other)
        return TopologicalSpinor(
            self.s0 - other.s0, self.s1 - other.s1, self.s2 - other.s2
        )

    def __mul__(self, scalar: float) -> "TopologicalSpinor":
        c = float(scalar)
        return TopologicalSpinor(c * self.s0, c * self.s1, c * self.s2)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "TopologicalSpinor":
        return self * (1.0 / float(scalar))

    def __neg__(self) -> "TopologicalSpinor":
        return self * -1.0

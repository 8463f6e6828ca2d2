"""Growing simplicial-complex generator and dataset loaders.

The generator grows a 2-dimensional complex one triangle at a time: starting
from a single filled triangle, each step picks an existing link ell with
probability proportional to

    (1 + s * n_ell) * exp(-beta * eps_ell)

where n_ell counts how many times the link has already been chosen (number
of incident triangles minus one), s in {-1, 0, 1} is the flavor and eps_ell
is a link energy drawn uniformly on [0, 1] at link creation (irrelevant at
beta = 0).  The new node is joined to both endpoints, adding 1 node, 2 links
and 1 triangle, so a complex grown to N nodes always has 2N-3 links and N-2
triangles.  Flavor -1 gives saturated links (n_ell = 1) zero weight, which
keeps every link on at most two triangles: the complex is a discrete
manifold.

The link weights live in arrays preallocated for all 2N-3 links, and each
step replays ``numpy.random.Generator.choice(p=...)`` exactly: p = w/total,
cdf = cumsum(p), cdf /= cdf[-1], then ``searchsorted(rng.random(), "right")``.
With the energies drawn in the same order (three at the start, two after
each choice), a seed grows the same complex as a loop calling
``rng.choice``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .complexes import SimplicialComplex, build_complex, load_complex, require_int, require_real
from .errors import InvalidFlavor
from .signals import _read_signal, rng_stream
from .spinors import TopologicalSpinor

__all__ = [
    "NgfParams",
    "ngf_generate",
    "load_complex",
    "load_flow",
]


@dataclass(frozen=True)
class NgfParams:
    """Parameters of the growing-complex model (dimension fixed at 2)."""

    target_nodes: int
    flavor: int = -1
    beta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("target_nodes", 3), ("flavor", None), ("seed", None)):  # 3: the seed triangle
            object.__setattr__(self, name, require_int(name, getattr(self, name), low))
        if self.flavor not in (-1, 0, 1):
            raise InvalidFlavor(f"flavor must be -1, 0 or 1, got {self.flavor}")
        object.__setattr__(self, "beta", require_real("beta", self.beta))
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def ngf_generate(params: NgfParams) -> SimplicialComplex:
    """Grow a complex to ``target_nodes`` nodes; deterministic per seed."""
    rng = rng_stream(params.seed)
    s, beta = params.flavor, params.beta
    nodes = params.target_nodes
    size = 2 * nodes - 3  # links of the grown complex

    ends = np.empty((size, 2), dtype=np.int64)
    ends[:3] = [(0, 1), (0, 2), (1, 2)]
    triangles = np.empty((nodes - 2, 3), dtype=np.int64)
    triangles[0] = (0, 1, 2)
    hits = np.zeros(size)  # n_ell: times each link has been chosen
    decay = np.empty(size)  # exp(-beta * eps_ell)
    decay[:3] = np.exp(-beta * rng.uniform(0.0, 1.0, size=3))

    for new_node in range(3, nodes):
        live = 2 * new_node - 3
        w = (1.0 + s * hits[:live]) * decay[:live]
        total = w.sum()
        if total <= 0.0:
            # every flavor gives a fresh link the weight exp(-beta * eps), 0 only by underflow
            raise ValueError(f"beta={beta!r} leaves every link weight at 0 (exp(-beta * eps) underflows)")
        # rng.choice(live, p=w / total), step for step
        cdf = np.cumsum(w / total)
        cdf /= cdf[-1]
        choice = int(cdf.searchsorted(rng.random(), side="right"))
        hits[choice] += 1
        i, j = ends[choice]

        ends[live] = (i, new_node)
        ends[live + 1] = (j, new_node)
        decay[live : live + 2] = np.exp(-beta * rng.uniform(0.0, 1.0, size=2))
        triangles[new_node - 2] = (i, j, new_node)

    return build_complex(ends, triangles, nodes)


def load_flow(path, K: SimplicialComplex) -> TopologicalSpinor:
    """Load a link flow aligned to K's canonical link ordering.

    The file uses the signal CSV format; only ``link`` rows are allowed,
    since a flow lives purely on links: a ``node`` or ``triangle`` row, zero
    or not, raises :class:`ParseError` naming its line.  A row indexing a
    link outside K raises :class:`DimensionMismatch`.
    """
    return _read_signal(path, K, ("link",))

from itertools import combinations

import numpy as np
import pytest

from diracsp import assemble_dirac, build_complex, spectral_basis
from diracsp.datasets import coastal_tessellation, florentine_marriage


@pytest.fixture(scope="session")
def filled_triangle():
    return build_complex([(0, 1), (0, 2), (1, 2)], [(0, 1, 2)], 3)


@pytest.fixture(scope="session")
def hollow_triangle():
    return build_complex([(0, 1), (0, 2), (1, 2)], node_count=3)


@pytest.fixture(scope="session")
def two_triangles():
    # two filled triangles glued along (1, 2), plus one dangling edge
    return build_complex(
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
        [(0, 1, 2), (1, 2, 3)],
        5,
    )


@pytest.fixture(scope="session")
def ff_network():
    return florentine_marriage()

@pytest.fixture(scope="session")
def ff_dirac(ff_network):
    return assemble_dirac(ff_network)


@pytest.fixture(scope="session")
def ff_basis(ff_dirac):
    return spectral_basis(ff_dirac, 1)


@pytest.fixture(scope="session")
def coastal():
    return coastal_tessellation()


@pytest.fixture(scope="session")
def coastal_dirac(coastal):
    return assemble_dirac(coastal)


def torus_with_fin(size: int = 6):
    """A size x size triangulated torus plus a fin, one triangle on link (0, 1), built anew.

    Link (0, 1) bounds three triangles.  Collapsing the fin leaves the torus,
    which has no free link, so only a Gram solve ranks B2; beta = (1, 2, 1).
    """
    def node(i, j):
        return size * (i % size) + j % size

    torus = [
        (node(i, j), node(i + 1, j + d), node(i + 1 - d, j + 1))
        for i in range(size) for j in range(size) for d in (0, 1)
    ]
    triangles = torus + [(0, 1, size * size)]
    links = {face for tri in triangles for face in combinations(sorted(tri), 2)}
    return build_complex(sorted(links), triangles)


def random_complex(rng: np.random.Generator, max_nodes: int = 12):
    """A small random valid 2-complex: random graph plus a few filled triangles."""
    n = int(rng.integers(3, max_nodes + 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    links = {p for p, t in zip(pairs, take) if t}
    link_set = set(links)
    candidates = [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if {(i, j), (i, k), (j, k)} <= link_set
    ]
    tris = [t for t in candidates if rng.random() < 0.5]
    return build_complex(sorted(links), tris, n)


# Inputs where a numerical rank or kernel is easy to get wrong.
HARD_COMPLEXES = {
    # a filled triangle, a hollow one and an isolated node
    "disconnected": build_complex(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], [(0, 1, 2)], 7
    ),
    "nodes_only": build_complex([], [], 4),
    "empty": build_complex([], [], 0),
    # boundary of a tetrahedron: beta_2 = 1
    "tetrahedron": build_complex(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        4,
    ),
}

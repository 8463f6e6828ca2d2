from itertools import combinations

import numpy as np
import pytest

from diracsp import NgfParams, assemble_dirac, build_complex, ngf_generate, spectral_basis
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


def _torus(size: int) -> list[tuple[int, int, int]]:
    """The triangles of a size x size triangulated torus on nodes 0 .. size^2 - 1."""
    def node(i, j):
        return size * (i % size) + j % size

    return [
        (node(i, j), node(i + 1, j + d), node(i + 1 - d, j + 1))
        for i in range(size) for j in range(size) for d in (0, 1)
    ]


def surface(triangles):
    """The complex of the triangles and their faces, built anew."""
    links = {face for tri in triangles for face in combinations(sorted(tri), 2)}
    return build_complex(sorted(links), triangles)


def torus_with_fin(size: int = 6):
    """A size x size triangulated torus plus a fin, one triangle on link (0, 1), built anew.

    Link (0, 1) bounds three triangles.  The fin collapses and leaves the
    torus, on which every link bounds two triangles, so rank B2 is counted
    with no Gram solve; beta = (1, 2, 1).
    """
    return surface(_torus(size) + [(0, 1, size * size)])


def torus_with_tetrahedron(size: int = 6):
    """A size x size triangulated torus and a tetrahedron's boundary glued along link (0, 1), built anew.

    Link (0, 1) bounds four triangles and nothing collapses, so only a Gram
    solve of all of B2 ranks it; beta = (1, 2, 2).
    """
    a, b = size * size, size * size + 1
    return surface(_torus(size) + [(0, 1, a), (0, 1, b), (0, a, b), (1, a, b)])


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
    # every triangle on five nodes: beta = (1, 0, 4), and B2 (10 x 10) is
    # wide, so D_2 stores U and its triangle kernel is the derived side's
    "k5": build_complex(list(combinations(range(5), 2)), list(combinations(range(5), 3))),
}


def path_graph(n: int):
    """The path P_n: links (i, i + 1) on nodes 0 .. n - 1."""
    return build_complex([(i, i + 1) for i in range(n - 1)], node_count=n)


def cycle_graph(n: int):
    """The cycle C_n: links (i, i + 1 mod n) on nodes 0 .. n - 1."""
    return build_complex([(i, (i + 1) % n) for i in range(n)], node_count=n)


# Graphs with closed-form spectra: name -> (builder, the singular values
# sigma_k of B1 at size N, k = 1 .. N - 1, which are D_1's positive
# eigenvalues, and the Betti numbers).  P_N has sigma_k = 2 sin(pi k / 2N)
# and C_N has 2 |sin(pi k / N)|, evaluated as 2 sin(pi min(k, N - k) / N)
# because sin near pi would lose the digits being checked.
CLOSED_FORMS = {
    "path": (path_graph, lambda k, N: 2 * np.sin(np.pi * k / (2 * N)), (1, 0, 0)),
    "cycle": (cycle_graph, lambda k, N: 2 * np.sin(np.pi * np.minimum(k, N - k) / N), (1, 1, 0)),
}


# Where the sparse certificates (tests/oracles.py) run, next to dense checks.
CERTIFICATE_CASES = {
    **HARD_COMPLEXES,
    "torus+fin": torus_with_fin(),
    "coastal": coastal_tessellation(),
    "florentine": florentine_marriage(),
    **{
        f"ngf300-flavor{flavor}": ngf_generate(NgfParams(target_nodes=300, flavor=flavor, seed=0))
        for flavor in (-1, 0, 1)
    },
}

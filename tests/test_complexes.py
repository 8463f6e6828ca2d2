import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import betti_numbers, boundary_matrix, build_complex, load_complex
from diracsp.complexes import from_dict, matrix_rank
from diracsp.errors import (
    DuplicateSimplex,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

from conftest import HARD_COMPLEXES, random_complex
from oracles import exact_rank


def test_filled_triangle_is_valid(filled_triangle):
    assert filled_triangle.counts == (3, 3, 1)
    assert filled_triangle.dimension == 2


def test_closure_violation_rejected():
    with pytest.raises(MissingFace):
        build_complex([(0, 1)], [(0, 1, 2)], 3)


def test_closure_fill_flag():
    K = build_complex([(0, 1)], [(0, 1, 2)], 3, fill_missing_faces=True)
    assert K.counts == (3, 3, 1)


def test_ff_scale_network(ff_network):
    assert ff_network.counts == (15, 20, 0)
    assert ff_network.dimension == 1


def test_canonicalization_sorts_everything():
    K = build_complex([(2, 1), (1, 0), (2, 0)], [(2, 0, 1)], 3)
    assert K.links == ((0, 1), (0, 2), (1, 2))
    assert K.triangles == ((0, 1, 2),)


def test_duplicate_link_rejected():
    with pytest.raises(DuplicateSimplex):
        build_complex([(0, 1), (1, 0)], node_count=2)


def test_repeated_vertex_rejected():
    with pytest.raises(DuplicateSimplex):
        build_complex([(1, 1)], node_count=2)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_complex([(0, 5)], node_count=3)


def test_b1_column_convention():
    B1 = boundary_matrix(build_complex([(0, 1)], node_count=2), 1).toarray()
    assert B1.tolist() == [[-1], [1]]


def test_b2_column_convention(filled_triangle):
    # single column (+1, -1, +1) over links (0,1), (0,2), (1,2)
    B2 = boundary_matrix(filled_triangle, 2).toarray()
    assert B2[:, 0].tolist() == [1, -1, 1]


def test_b2_of_network_is_zero_matrix(ff_network):
    B2 = boundary_matrix(ff_network, 2)
    assert B2.shape == (20, 0)


def test_boundary_of_boundary_null(two_triangles):
    B1 = boundary_matrix(two_triangles, 1)
    B2 = boundary_matrix(two_triangles, 2)
    assert np.count_nonzero((B1 @ B2).toarray()) == 0


def test_invalid_order():
    with pytest.raises(InvalidOrder):
        boundary_matrix(build_complex([(0, 1)], node_count=2), 3)


def test_betti_filled_triangle(filled_triangle):
    # oracle: exact integer ranks of both boundary matrices
    B1 = boundary_matrix(filled_triangle, 1)
    B2 = boundary_matrix(filled_triangle, 2)
    assert exact_rank(B1) == 2
    assert exact_rank(B2) == 1
    assert betti_numbers(filled_triangle) == (1, 0, 0)


def test_betti_hollow_triangle(hollow_triangle):
    assert betti_numbers(hollow_triangle) == (1, 1, 0)


def test_betti_disjoint_edges():
    K = build_complex([(0, 1), (2, 3)], node_count=4)
    assert betti_numbers(K) == (2, 0, 0)


def test_betti_coastal(coastal):
    # one component, four holes, no cavities
    assert betti_numbers(coastal) == (1, 4, 0)


@pytest.mark.parametrize("name", sorted(HARD_COMPLEXES))
def test_betti_hard_inputs_match_exact_ranks(name):
    K = HARD_COMPLEXES[name]
    r1 = exact_rank(boundary_matrix(K, 1))
    r2 = exact_rank(boundary_matrix(K, 2))
    assert betti_numbers(K) == (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)


def test_betti_tetrahedron_boundary_has_a_cavity():
    assert betti_numbers(HARD_COMPLEXES["tetrahedron"]) == (1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_complex_invariants(seed):
    K = random_complex(np.random.default_rng(seed))
    B1 = boundary_matrix(K, 1)
    B2 = boundary_matrix(K, 2)
    # chain condition, exact in integer arithmetic
    assert np.count_nonzero((B1 @ B2).toarray()) == 0
    # per-column structure of B1
    if K.n1:
        cols = B1.toarray()
        assert ((cols == -1).sum(axis=0) == 1).all()
        assert ((cols == 1).sum(axis=0) == 1).all()
    # Euler characteristic
    b0, b1, b2 = betti_numbers(K)
    assert b0 - b1 + b2 == K.euler_characteristic()
    # SVD rank agrees with the exact rational rank
    assert matrix_rank(B1) == exact_rank(B1)
    assert matrix_rank(B2) == exact_rank(B2)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_serialization_roundtrip(tmp_path_factory, seed):
    K = random_complex(np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("cx") / "k.json"
    K.save(path)
    assert load_complex(path) == K


def test_loader_tolerates_unsorted(tmp_path):
    path = tmp_path / "messy.json"
    path.write_text(
        json.dumps(
            {
                "format": "diracsp/complex/1",
                "nodes": 3,
                "links": [[2, 1], [0, 1], [0, 2]],
                "triangles": [[2, 1, 0]],
            }
        )
    )
    K = load_complex(path)
    assert K.links == ((0, 1), (0, 2), (1, 2))
    assert K.triangles == ((0, 1, 2),)


def test_loader_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_complex(p)
    with pytest.raises(ParseError):
        from_dict({"nodes": 3})
    with pytest.raises(ParseError):
        from_dict({"format": "something/else", "nodes": 3, "links": []})


def test_duplicate_triangle_rejected():
    with pytest.raises(DuplicateSimplex):
        build_complex(
            [(0, 1), (0, 2), (1, 2)], [(0, 1, 2), (2, 1, 0)], 3
        )


def test_loader_enforces_closure(tmp_path):
    p = tmp_path / "open.json"
    p.write_text(
        json.dumps(
            {
                "format": "diracsp/complex/1",
                "nodes": 3,
                "links": [[0, 1]],
                "triangles": [[0, 1, 2]],
            }
        )
    )
    with pytest.raises(MissingFace):
        load_complex(p)
    K = load_complex(p, fill_missing_faces=True)
    assert K.counts == (3, 3, 1)

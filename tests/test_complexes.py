import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import (
    NgfParams,
    assemble_dirac,
    betti_numbers,
    boundary_matrix,
    build_complex,
    load_complex,
    ngf_generate,
)
from diracsp import complexes, generators
from diracsp.complexes import SimplicialComplex, combinatorial_rank, from_dict, triangle_rank
from diracsp.errors import (
    DiracSPError,
    DuplicateSimplex,
    EigensolveFailure,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

from conftest import HARD_COMPLEXES, random_complex
from oracles import exact_rank, loop_boundary_matrix, loop_build_complex, matrix_rank


def test_filled_triangle_is_valid(filled_triangle):
    assert filled_triangle.counts == (3, 3, 1)
    assert filled_triangle.dimension == 2


def test_closure_violation_rejected():
    with pytest.raises(MissingFace):
        build_complex([(0, 1)], [(0, 1, 2)], 3)


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


def test_betti_tetrahedron_boundary_has_a_cavity():
    assert betti_numbers(HARD_COMPLEXES["tetrahedron"]) == (1, 0, 1)


def _surface(triangles):
    links = {face for tri in triangles for face in combinations(sorted(tri), 2)}
    return build_complex(sorted(links), triangles)


TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]
MOEBIUS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]


def _shifted(triangles, by):
    return [tuple(v + by for v in tri) for tri in triangles]


# Closed surfaces and a surface with boundary, with their Betti numbers over Q
# (the tetrahedron boundary itself is in HARD_COMPLEXES).
SURFACES = {
    # two tetrahedron boundaries glued at node 0: two separate 2-cycles
    "two_tetrahedra": (
        _surface(TETRAHEDRON + [tuple(v and v + 3 for v in tri) for tri in TETRAHEDRON]),
        (1, 0, 2),
    ),
    # the 6-vertex projective plane: closed but not orientable
    "rp2": (_surface(RP2), (1, 0, 0)),
    "moebius": (_surface(MOEBIUS), (1, 1, 0)),
    # poles 0 and 1 over the equator 2-3-4-5
    "octahedron": (
        _surface([(p, a, b) for p in (0, 1) for a, b in ((2, 3), (3, 4), (4, 5), (2, 5))]),
        (1, 0, 1),
    ),
    # one component of each kind: only the closed orientable one carries a 2-cycle
    "tetrahedron+rp2+moebius": (
        _surface(TETRAHEDRON + _shifted(RP2, 4) + _shifted(MOEBIUS, 10)),
        (3, 1, 1),
    ),
}


def _triangles_per_link(K):
    return np.abs(boundary_matrix(K, 2).toarray()).sum(axis=1)


RANK_CASES = {
    **HARD_COMPLEXES,
    **{name: K for name, (K, _) in SURFACES.items()},
    # flavors 0 and 1 put more than two triangles on a link: the Gram path
    **{
        f"ngf-flavor{flavor}-seed{seed}": ngf_generate(
            NgfParams(target_nodes=40, flavor=flavor, seed=seed)
        )
        for flavor in (0, 1)
        for seed in (0, 1)
    },
}


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_betti_hard_inputs_match_exact_ranks(name):
    K = RANK_CASES[name]
    r1 = exact_rank(boundary_matrix(K, 1))
    r2 = exact_rank(boundary_matrix(K, 2))
    assert triangle_rank(K) == r2
    assert betti_numbers(K) == (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)
    if name.startswith("ngf"):
        assert _triangles_per_link(K).max() > 2


# NGF flavor -1 puts at most two triangles on a link, so rank B2 is counted.
COUNT_CASES = {
    **RANK_CASES,
    "ngf-flavor-1-seed0": ngf_generate(NgfParams(target_nodes=80, flavor=-1, seed=0)),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_operator_ranks_build_a_basis_only_without_an_exact_count(name):
    K = COUNT_CASES[name]
    D = assemble_dirac(K)
    for n in (1, 2):
        r = exact_rank(boundary_matrix(K, n))
        assert D.rank(n) == r
        assert D.nonharmonic_dim(n) == 2 * r
    # rank B1 is always counted; rank B2 wherever combinatorial_rank decides it
    assert "_basis1" not in D.__dict__
    assert ("_basis2" in D.__dict__) == (combinatorial_rank(D.B2) is None)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surfaces_have_the_known_betti_numbers(name):
    K, betti = SURFACES[name]
    per_link = _triangles_per_link(K)
    # every link of a closed surface bounds two triangles; the strip has a boundary
    assert per_link.min() == (1 if "moebius" in name else 2) and per_link.max() == 2
    assert betti_numbers(K) == betti


def test_gram_rank_without_a_clear_gap_fails(monkeypatch):
    # a cutoff far above roundoff puts genuine eigenvalues between the two
    # levels of the gap test, so the rank is undecided
    K = RANK_CASES["ngf-flavor0-seed0"]
    monkeypatch.setattr(complexes, "RANK_RTOL", 0.5)
    with pytest.raises(EigensolveFailure, match="no clear gap"):
        triangle_rank(K)
    with pytest.raises(EigensolveFailure):
        betti_numbers(K)


@pytest.mark.parametrize("name", ["coastal", "ngf-120"])
@pytest.mark.parametrize("n", [1, 2])
def test_gram_matrix_is_c_ordered_and_solved_in_place(name, n, coastal):
    K = coastal if name == "coastal" else ngf_generate(NgfParams(target_nodes=120, seed=4))
    G, _ = complexes.gram_matrix(boundary_matrix(K, n))
    assert G.flags.c_contiguous
    _, X = complexes.gram_eigh(G)
    assert np.shares_memory(X, G)


def _matches_loop_reference(K):
    """B1 and B2 equal the loop-built reference in shape, entries and int64 dtype."""
    for n in (1, 2):
        B, ref = boundary_matrix(K, n), loop_boundary_matrix(K, n)
        if B.shape != ref.shape or B.dtype != np.int64:
            return False
        if not np.array_equal(B.toarray(), ref.toarray()):
            return False
    return True


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_boundary_matrix_matches_the_loop_reference(name):
    assert _matches_loop_reference(RANK_CASES[name])


def test_boundary_of_a_complex_missing_a_face_names_it():
    K = SimplicialComplex(3, ((0, 1), (0, 2)), ((0, 1, 2),))
    with pytest.raises(MissingFace, match=r"link \(1, 2\) is not part of the complex"):
        boundary_matrix(K, 2)
    with pytest.raises(MissingFace, match=r"link \(1, 2\)"):
        K.link_index(2, 1)
    assert K.link_index(2, 0) == 1


def test_boundary_of_a_complex_with_links_out_of_order():
    K = SURFACES["rp2"][0]
    perm = np.random.default_rng(5).permutation(K.n1)
    shuffled = SimplicialComplex(K.n0, tuple(K.links[p] for p in perm), K.triangles)
    assert _matches_loop_reference(shuffled)
    # row p of the shuffled B2 is row perm[p] of the canonical one
    B2 = boundary_matrix(K, 2).toarray()
    assert np.array_equal(boundary_matrix(shuffled, 2).toarray(), B2[perm])
    assert [shuffled.link_index(*lk) for lk in K.links] == np.argsort(perm).tolist()


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
    # the dense SVD rank and the library's rank of B2 agree with the exact rational rank
    assert matrix_rank(B1) == exact_rank(B1)
    assert matrix_rank(B2) == exact_rank(B2)
    assert triangle_rank(K) == exact_rank(B2)
    assert _matches_loop_reference(K)


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
    with pytest.raises(MissingFace, match=r"link \(0, 2\) is not part"):
        load_complex(p)


@pytest.mark.parametrize(
    "data",
    [
        {"nodes": 3.7, "links": [[0, 1]]},
        {"nodes": "3", "links": [[0, 1]]},
        {"nodes": True, "links": []},
        {"nodes": 3, "links": [[0, 1.5]]},
        {"nodes": 3, "links": [[0, 1.0]]},
        {"nodes": 3, "links": [[0, True]]},
        {"nodes": 3, "links": [[0, 1], [0, "2"]]},
        {"nodes": 3, "links": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2.5]]},
        {"nodes": 3, "links": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 2, True]]},
    ],
)
def test_from_dict_rejects_non_integers(data):
    with pytest.raises(ParseError):
        from_dict(data)


def test_an_index_beyond_int64_is_a_typed_error():
    with pytest.raises(ParseError, match=r"link \[0, 100000000000000000000\] .* within int64"):
        from_dict({"nodes": 3, "links": [[0, 10**20]]})
    with pytest.raises(IndexOutOfRange, match="node_count"):
        from_dict({"nodes": 10**20, "links": []})


def test_node_count_may_be_a_numpy_integer_but_not_a_float():
    K = build_complex([(0, 1)], (), np.int64(3))
    assert K == build_complex([(0, 1)], (), 3) and type(K.node_count) is int
    for bad in (3.7, 3.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match="node_count must be an integer"):
            build_complex([(0, 1)], (), bad)
        with pytest.raises(ParseError, match="node_count must be an integer"):
            from_dict({"nodes": bad, "links": [[0, 1]]})


def test_vertex_rule_is_the_same_for_lists_and_arrays():
    # The smallest int64 passes the integer rule and fails the range check either way.
    for links in ([(-(2**63), 0)], np.array([(-(2**63), 0)])):
        with pytest.raises(IndexOutOfRange, match="-9223372036854775808"):
            build_complex(links, (), 3)
    with pytest.raises(ParseError, match=r"9223372036854775808\], dtype=uint64\) must have 2 integer"):
        build_complex(np.array([(0, 1), (0, 2**63)], dtype=np.uint64), (), 3)
    with pytest.raises(ParseError, match=r"link \[0, True\] must"):
        build_complex([(0, 1), [0, True]], (), 3)


def _shuffled(rng, simplices):
    """The simplices in random order, each with its vertices in random order."""
    return [tuple(rng.permutation(simplices[p]).tolist()) for p in rng.permutation(len(simplices))]


def _with_fault(fault, links, triangles, n):
    """A valid complex's lists with one fault put in."""
    if fault == "missing face":
        tri = triangles[0] if triangles else (0, 1, 2)
        return [lk for lk in links if lk != tri[:2]], sorted({*triangles, tri})
    if fault == "listed twice":
        return list(links) + ([links[0][::-1]] if links else [(0, 1), (1, 0)]), list(triangles)
    extra = {"wrong arity": (0, 1, 2), "repeated vertex": (n - 1, n - 1), "out of range": (0, n)}
    return list(links) + [extra[fault]], list(triangles)


FAULT_ERRORS = {
    "wrong arity": ParseError,
    "repeated vertex": DuplicateSimplex,
    "out of range": IndexOutOfRange,
    "listed twice": DuplicateSimplex,
    "missing face": MissingFace,
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(FAULT_ERRORS)))
def test_build_complex_matches_the_loop_reference(seed, fault):
    rng = np.random.default_rng(seed)
    K = random_complex(rng)
    links, triangles = _shuffled(rng, K.links), _shuffled(rng, K.triangles)
    assert build_complex(links, triangles, K.n0) == loop_build_complex(links, triangles, K.n0) == K
    assert build_complex(links, triangles) == loop_build_complex(links, triangles)

    links, triangles = _with_fault(fault, K.links, K.triangles, K.n0)
    links, triangles = _shuffled(rng, links), _shuffled(rng, triangles)
    raised = []
    for build in (build_complex, loop_build_complex):
        with pytest.raises(DiracSPError) as exc:
            build(links, triangles, K.n0)
        raised.append(type(exc.value))
    assert raised == [FAULT_ERRORS[fault]] * 2


@pytest.mark.parametrize("flavor", [-1, 0, 1])
def test_ngf_complex_matches_the_loop_reference(flavor, monkeypatch):
    raw = []

    def recording_build(*args):
        raw.append(args)
        return build_complex(*args)

    monkeypatch.setattr(generators, "build_complex", recording_build)
    K = ngf_generate(NgfParams(1000, flavor, 0.0, 11))
    [(links, triangles, n)] = raw
    assert isinstance(links, np.ndarray) and isinstance(triangles, np.ndarray)
    assert loop_build_complex(links.tolist(), triangles.tolist(), n) == K

import copy
import json
import os
import pickle
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import (
    NgfParams,
    TopologicalSpinor,
    assemble_dirac,
    betti_numbers,
    boundary_matrix,
    build_complex,
    load_complex,
    ngf_generate,
    spectral_basis,
)
from diracsp import complexes, generators, operators
from diracsp.complexes import SimplicialComplex, from_dict
from diracsp.errors import (
    DiracSPError,
    DuplicateSimplex,
    EigensolveFailure,
    IndexOutOfRange,
    InvalidOrder,
    MissingFace,
    ParseError,
)

from conftest import HARD_COMPLEXES, random_complex, surface, torus_with_fin, torus_with_tetrahedron
from oracles import (
    csgraph_components,
    exact_rank,
    loop_boundary_matrix,
    loop_build_complex,
    matrix_rank,
    sylvester_counts,
)


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
    assert K.links.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert K.triangles.tolist() == [[0, 1, 2]]


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
        surface(TETRAHEDRON + [tuple(v and v + 3 for v in tri) for tri in TETRAHEDRON]),
        (1, 0, 2),
    ),
    # the 6-vertex projective plane: closed but not orientable
    "rp2": (surface(RP2), (1, 0, 0)),
    "moebius": (surface(MOEBIUS), (1, 1, 0)),
    # poles 0 and 1 over the equator 2-3-4-5
    "octahedron": (
        surface([(p, a, b) for p in (0, 1) for a, b in ((2, 3), (3, 4), (4, 5), (2, 5))]),
        (1, 0, 1),
    ),
    # one component of each kind: only the closed orientable one carries a 2-cycle
    "tetrahedron+rp2+moebius": (
        surface(TETRAHEDRON + _shifted(RP2, 4) + _shifted(MOEBIUS, 10)),
        (3, 1, 1),
    ),
}


def _triangles_per_link(K):
    return np.bincount(K.face_rows.ravel(), minlength=K.n1)


def _core(K):
    return complexes._collapse_core(K.face_rows, K.n1)


# poles 3 and 4 over the equator triangle: three discs on one circle
CAPPED_TRIANGLE = [(0, 1, 2)] + [(p, a, b) for p in (3, 4) for a, b in ((0, 1), (1, 2), (0, 2))]

# a link on three or more triangles, and elementary collapses leave a core:
# name -> (complex, its counts, its Betti numbers, whether a Gram solve ranks the core)
CORE_CASES = {
    # the fin collapses; the torus and the tetrahedron boundary are counted
    "torus+fin": (torus_with_fin(), (37, 110, 73), (1, 2, 1), False),
    "tetrahedron+fin": (surface(TETRAHEDRON + [(0, 1, 4)]), (5, 8, 5), (1, 0, 1), False),
    # the equator's links bound three core triangles each, the torus+tetrahedron's (0, 1) four
    "capped-triangle": (surface(CAPPED_TRIANGLE), (5, 9, 7), (1, 0, 2), True),
    "capped-triangle+fin": (surface(CAPPED_TRIANGLE + [(0, 3, 5)]), (6, 11, 8), (1, 0, 2), True),
    "torus+tetrahedron": (torus_with_tetrahedron(), (38, 113, 76), (1, 2, 2), True),
}

RANK_CASES = {
    **HARD_COMPLEXES,
    **{name: K for name, (K, _) in SURFACES.items()},
    **{name: K for name, (K, *_) in CORE_CASES.items()},
    # flavors 0 and 1 put more than two triangles on a link, and every NGF
    # complex collapses: rank B2 = N2 with no solve
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
    assert (K.rank1, K.rank2) == (r1, r2)
    assert betti_numbers(K) == (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2)
    if name.startswith("ngf"):
        assert _triangles_per_link(K).max() > 2
        assert _core(K).size == 0
    if name in CORE_CASES:
        assert _triangles_per_link(K).max() >= 3
        assert _core(K).size > 0


@pytest.mark.parametrize("name", sorted(CORE_CASES))
def test_rank_b2_counts_a_core_with_two_triangles_per_link_and_solves_only_the_rest(name, monkeypatch):
    # rank B2 = (triangles the collapse removes) + rank of the core's
    # columns: a core with at most two triangles on each link is counted
    # with no eigensolve, and any other takes one solve of G of order
    # min(N1, |core|), never of all of B2
    K, counts, betti, solved = CORE_CASES[name]
    K = from_dict(K.to_dict())  # nothing kept yet
    core = _core(K)
    per_core_link = np.bincount(K.face_rows[core].ravel(), minlength=K.n1)
    assert (per_core_link.max() > 2) == solved
    solves, orders = [], []
    gram_eigh, gram_matrix = complexes.gram_eigh, complexes.gram_matrix
    monkeypatch.setattr(complexes, "gram_eigh", lambda *a, **k: solves.append(1) or gram_eigh(*a, **k))
    monkeypatch.setattr(complexes, "gram_matrix", lambda B: orders.append(min(B.shape)) or gram_matrix(B))
    assert K.rank2 == exact_rank(boundary_matrix(K, 2))
    assert (K.counts, betti_numbers(K)) == (counts, betti)
    assert (solves, orders) == (([1], [min(K.n1, core.size)]) if solved else ([], []))


@settings(max_examples=12, deadline=None)
@given(
    st.integers(3, 300),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.integers(0, 2**32 - 1),
)
def test_every_ngf_complex_collapses(nodes, flavor, beta, seed):
    # each NGF step glues a triangle with a new node onto one link, so the
    # steps reversed are elementary collapses to a point, whatever the flavor
    K = ngf_generate(NgfParams(target_nodes=nodes, flavor=flavor, beta=beta, seed=seed))
    assert _core(K).size == 0
    assert K.rank2 == K.n2 == exact_rank(boundary_matrix(K, 2))


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
    # rank(n) and nonharmonic_dim(n) never build a basis: both ranks come
    # from the complex, rank B2 numerically only where collapses leave a
    # core with a link on three or more of its triangles
    assert "_basis1" not in D.__dict__
    assert "_basis2" not in D.__dict__


def _spy_rank_work(monkeypatch) -> list[str]:
    """Record each boundary build, component count and Gram solve, in order."""
    calls = []

    def spy(module, name, tag):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(tag(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(complexes, "signed_incidence", lambda K, n: f"B{n}")
    spy(complexes, "_components", lambda *args: "count")
    for module in (complexes, operators):
        spy(module, "gram_eigh", lambda B, vectors=True: "eigh" if vectors else "eigvalsh")
    return calls


@pytest.mark.parametrize("flavor", [-1, 0, 1])
def test_one_boundary_build_and_one_rank_per_complex(flavor, monkeypatch):
    # across betti_numbers, assembly, both ranks and the B2 basis, the
    # complex builds each boundary matrix once and finds each rank once:
    # rank B1 by one component count; rank B2 by the collapse, which leaves
    # no core on any flavor (at most two triangles per link on flavor -1),
    # so it builds no B2 and counts and solves nothing.  The basis builds
    # B2 and adds the one solve, with vectors; no step needs B1 itself.
    K = ngf_generate(NgfParams(target_nodes=40, flavor=flavor, seed=0))
    assert (_triangles_per_link(K).max() <= 2) == (flavor == -1)
    calls = _spy_rank_work(monkeypatch)
    betti = betti_numbers(K)
    D = assemble_dirac(K)
    r1, r2 = D.rank(1), D.rank(2)
    assert D.nonharmonic_dim(2) == 2 * r2
    assert spectral_basis(D, 2).rank == r2
    assert betti == (K.n0 - r1, K.n1 - r1 - r2, K.n2 - r2) == (1, 0, 0)
    assert sorted(calls) == ["B2", "count", "eigh"]


@pytest.mark.parametrize("flavor", [0, 1])
def test_a_basis_built_first_gives_the_rank_of_b2(flavor, monkeypatch):
    # where no count decides rank B2, a basis of B2 built before any rank is
    # read checks its gap rank against the one the collapse finds, so the
    # basis's solve is the only one, and nonharmonic_dim and betti_numbers
    # add none
    K = ngf_generate(NgfParams(target_nodes=40, flavor=flavor, seed=0))
    calls = _spy_rank_work(monkeypatch)
    D = assemble_dirac(K)
    r2 = spectral_basis(D, 2).rank
    assert D.nonharmonic_dim(2) == 2 * r2 and r2 == exact_rank(boundary_matrix(K, 2))
    assert betti_numbers(K) == (1, 0, 0)
    assert calls.count("eigh") == 1 and "eigvalsh" not in calls


@pytest.mark.parametrize("name", ["ngf-300", "ff_network", "coastal"])
def test_link_index_finds_every_link_either_way_round(name, request, monkeypatch):
    if name == "ngf-300":
        K = ngf_generate(NgfParams(target_nodes=300, seed=0))
    else:
        K = from_dict(request.getfixturevalue(name).to_dict())  # nothing kept yet
    assert [K.link_index(i, j) for i, j in K.links.tolist()] == list(range(K.n1))
    # the codes are sorted once, on the first lookup; later ones only search
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(complexes.np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    assert [K.link_index(j, i) for i, j in K.links.tolist()] == list(range(K.n1))
    assert sorts == []


def test_a_complex_pickles_and_copies_with_what_it_keeps(coastal):
    K = from_dict(coastal.to_dict())
    betti = betti_numbers(K)
    assemble_dirac(K).apply(TopologicalSpinor.zeros(K), 2)
    for twin in (pickle.loads(pickle.dumps(assemble_dirac(K))).K, copy.deepcopy(K)):
        assert twin == K and hash(twin) == hash(K) and twin.to_dict() == K.to_dict()
        assert betti_numbers(twin) == betti
        assert np.array_equal(twin.incidence(2).columns, K.incidence(2).columns)
        assert twin.incidence(2).T.shape == (186, 322)
        i, j = K.links[-1].tolist()
        assert twin.link_index(j, i) == K.link_index(i, j) == K.n1 - 1


def test_a_complex_holds_its_simplices_as_read_only_int64_arrays():
    links = np.array([(0, 1), (0, 2), (1, 2)])
    K = SimplicialComplex(3, links, [[0, 1, 2]])
    links[0] = (1, 2)  # the complex took a copy
    built = build_complex([(1, 2), (0, 1), (0, 2)], [(2, 1, 0)])
    K.incidence(2)  # kept, and read off the face rows
    for twin in (K, built, copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
        assert twin == built and hash(twin) == hash(built)
        for arr, width in ((twin.links, 2), (twin.triangles, 3), (twin.face_rows, 3)):
            assert arr.dtype == np.int64 and arr.shape[1] == width and not arr.flags.writeable
    assert K.links.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert SimplicialComplex(3, K.links).triangles.shape == (0, 3)
    assert K != SimplicialComplex(4, K.links, K.triangles) and K != SimplicialComplex(3, K.links)
    assert K != K.to_dict()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surfaces_have_the_known_betti_numbers(name):
    K, betti = SURFACES[name]
    per_link = _triangles_per_link(K)
    # every link of a closed surface bounds two triangles; the strip has a boundary
    assert per_link.min() == (1 if "moebius" in name else 2) and per_link.max() == 2
    assert betti_numbers(K) == betti


def _same_partition(labels, reference, count):
    # as many labels as components on each side, and each label of one side
    # pairs with exactly one of the other
    pairs = set(zip(labels.tolist(), reference.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == len(set(reference.tolist())) == count


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=60)
            if size
            else st.just([]),
        )
    ),
    st.sampled_from([np.int32, np.int64]),
)
def test_components_match_the_csgraph_reference(graph, dtype):
    size, edges = graph
    edges = edges + edges[: len(edges) // 2]  # some edges twice
    a, b = np.array(edges, dtype=dtype).reshape(-1, 2).T
    count, labels = complexes._components(size, a, b)
    ref_count, reference = csgraph_components(size, a, b)
    assert count == ref_count
    _same_partition(labels, reference, count)


def _bit_reversed(bits: int) -> np.ndarray:
    order = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        order = np.r_[2 * order, 2 * order + 1]
    return order


LARGE_GRAPHS = {
    # a path of 2^15 nodes in three label orders, from many rounds to one
    **{
        f"path-{name}": (order[:-1], order[1:])
        for name, order in (
            ("bit-reversed", _bit_reversed(15)),
            ("random", np.random.default_rng(0).permutation(2**15)),
            ("reversed", np.arange(2**15)[::-1]),
        )
    },
    # the largest label at the centre and its links in ascending order:
    # hooking the centre onto whichever leaf writes last, not the smallest,
    # would merge one leaf per round
    "star": (np.arange(2**15 - 1), np.full(2**15 - 1, 2**15 - 1)),
}


@pytest.mark.parametrize("name", sorted(LARGE_GRAPHS))
def test_components_of_large_graphs_match_the_csgraph_reference(name):
    a, b = LARGE_GRAPHS[name]
    size = 2**15 + 1  # one isolated node
    count, labels = complexes._components(size, a, b)
    assert count == 2
    _same_partition(labels, csgraph_components(size, a, b)[1], count)


@pytest.mark.parametrize("name", sorted({**HARD_COMPLEXES, **SURFACES}))
def test_component_counts_of_complexes_match_the_csgraph_reference(name, monkeypatch):
    # both counts a complex makes, of its graph and of its collapse core's
    # orientation double cover, 2 |core| nodes, which runs only where a
    # core is left and each of its links bounds at most two core triangles
    K = HARD_COMPLEXES[name] if name in HARD_COMPLEXES else SURFACES[name][0]
    K = from_dict(K.to_dict())  # nothing kept yet
    components, checked = complexes._components, []

    def checking(size, a, b):
        count, labels = components(size, a, b)
        ref_count, reference = csgraph_components(size, a, b)
        assert count == ref_count
        _same_partition(labels, reference, count)
        checked.append(size)
        return count, labels

    monkeypatch.setattr(complexes, "_components", checking)
    assert K.rank2 >= 0 and K.rank1 >= 0
    core = _core(K)
    counted = core.size and np.bincount(K.face_rows[core].ravel()).max() <= 2
    assert checked == ([2 * core.size] if counted else []) + [K.n0]


def _relabelled(K: SimplicialComplex, perm: np.ndarray) -> SimplicialComplex:
    """K with node v renamed perm[v], built anew."""
    return build_complex(perm[K.links], perm[K.triangles], K.n0)


RELABEL_CASES = {
    **HARD_COMPLEXES,
    **{name: K for name, (K, _) in SURFACES.items()},
    **{
        f"ngf200-flavor{flavor}": ngf_generate(NgfParams(target_nodes=200, flavor=flavor, seed=0))
        for flavor in (-1, 0, 1)
    },
}


@pytest.mark.parametrize("name", sorted(RELABEL_CASES))
def test_relabelling_nodes_leaves_ranks_and_partitions_alone(name, monkeypatch):
    # the component kernel's rounds depend on the node labels; the ranks,
    # Betti numbers, every component count and the partition must not
    K = from_dict(RELABEL_CASES[name].to_dict())
    perm = np.random.default_rng(0).permutation(K.n0)
    moved = _relabelled(K, perm)
    components, counts = complexes._components, []

    def counting(*args):
        found = components(*args)
        counts.append(found[0])
        return found

    monkeypatch.setattr(complexes, "_components", counting)

    def facts(L):
        counts.clear()
        return L.rank1, L.rank2, betti_numbers(L), list(counts)

    assert facts(K) == facts(moved)
    count, labels = components(K.n0, *K.links.T)
    moved_labels = components(K.n0, *moved.links.T)[1]
    _same_partition(labels, moved_labels[perm], count)


def test_gram_rank_without_a_clear_gap_fails(monkeypatch):
    # a cutoff far above roundoff puts genuine eigenvalues between the two
    # levels of the gap test, so the rank is undecided; a new complex has
    # kept no rank yet, so its rank is found anew.  Nothing of the
    # torus+tetrahedron collapses, and its link (0, 1) bounds four
    # triangles, so the Gram solve ranks all of B2
    K = torus_with_tetrahedron()
    monkeypatch.setattr(complexes, "RANK_RTOL", 0.5)
    with pytest.raises(EigensolveFailure, match="no clear gap"):
        K.rank2
    with pytest.raises(EigensolveFailure):
        betti_numbers(K)


# Complexes for the numpy products and Gram matrices: both shapes of each
# B_n, more than two triangles on a link, and links that list their head
# first.
PRODUCT_CASES = {
    **HARD_COMPLEXES,
    **{
        f"ngf-flavor{flavor}": ngf_generate(NgfParams(target_nodes=60, flavor=flavor, seed=2))
        for flavor in (-1, 0, 1)
    },
    "ngf-120": ngf_generate(NgfParams(target_nodes=120, seed=4)),
    "star": SimplicialComplex(6, [(leaf, 0) for leaf in range(1, 6)]),  # B1 taller than wide
    "torus+fin": torus_with_fin(),
}
# a direct construction whose triangles list their vertices out of order,
# so each column of B2 lists its rows out of order
UNSORTED = SimplicialComplex(6, SURFACES["rp2"][0].links, np.random.default_rng(1).permuted(RP2, axis=1))


def _complex(name, coastal):
    return {"coastal": coastal, "unsorted": UNSORTED, **PRODUCT_CASES}[name]


def _bits(A):
    """A's values and the sign bit of each, so that -0.0 and 0.0 differ."""
    return A.shape, A.tolist(), np.signbit(A).tolist()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([None, 1, 5, 64]), layout=st.sampled_from("CFS"))
@pytest.mark.parametrize("name", ["coastal", *PRODUCT_CASES])
@pytest.mark.parametrize("n", [1, 2])
def test_products_equal_scipy_bit_for_bit(name, n, seed, width, layout, coastal):
    # B_n X and B_n^T X on a vector or a block of columns, C-ordered,
    # F-ordered or strided, give scipy's csc and csr products exactly,
    # signed zeros included: scipy sums from +0.0 and never returns -0.0
    K = _complex(name, coastal)
    B, S = K.incidence(n), boundary_matrix(K, n).astype(float)
    rng = np.random.default_rng(seed)
    for op, ref, size in ((B, S, B.shape[1]), (B.T, S.T, B.shape[0])):
        X = rng.standard_normal((size, 2 * (width or 1)))
        X[rng.random(X.shape) < 0.3] = 0.0
        X[rng.random(X.shape) < 0.3] = -0.0
        X = {"C": X[:, : width or 1], "F": np.asfortranarray(X[:, : width or 1]), "S": X[:, ::2]}[layout]
        if width is None:
            X = X[:, 0]
        got = op @ X
        assert got.flags.c_contiguous and _bits(got) == _bits(ref @ X)


def test_products_add_a_column_in_its_stored_order():
    # scipy's csc form sorts each column's rows; B2^T X adds a triangle's
    # three terms in the order its face rows list them, which agrees with
    # scipy to roundoff and exactly once the rows ascend, as in a canonical
    # complex
    B, S = UNSORTED.incidence(2), boundary_matrix(UNSORTED, 2).astype(float)
    assert not (np.diff(B.columns, axis=1) > 0).all()
    X = np.random.default_rng(4).standard_normal((B.shape[0], 6))
    assert np.abs(B.T @ X - S.T @ X).max() <= 4 * np.finfo(float).eps * np.abs(X).max()
    assert np.array_equal(B @ X[: B.shape[1]], S @ X[: B.shape[1]])


@pytest.mark.parametrize("name", ["coastal", "unsorted", *PRODUCT_CASES])
@pytest.mark.parametrize("n", [1, 2])
def test_gram_matrix_is_exact_and_solved_by_numpy(name, n, coastal):
    # entries of G are small integers and two columns (rows) share at most
    # one row (column), so index assignment gives scipy's product exactly
    K = _complex(name, coastal)
    B, S = K.incidence(n), boundary_matrix(K, n)
    G, wide = complexes.gram_matrix(B), complexes.is_wide(B)
    assert wide == (S.shape[0] <= S.shape[1])
    assert G.dtype == np.float64 and G.flags.c_contiguous
    assert np.array_equal(G, (S @ S.T if wide else S.T @ S).toarray())
    assert np.array_equal(B.toarray(), S.toarray())
    # numpy's dsyevd against scipy's, to roundoff: each runs its own bundled
    # OpenBLAS, so bits may differ.  gram_eigh builds its own G and returns
    # the spectrum descending
    import scipy.linalg

    w, X = complexes.gram_eigh(B)
    w0, X0 = scipy.linalg.eigh(G, driver="evd")
    w0, X0 = w0[::-1], X0[:, ::-1]
    scale = max(1.0, float(np.abs(w0).max(initial=0.0)))
    assert np.abs(w - w0).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(complexes.gram_eigh(B, vectors=False) - w0).max(initial=0.0) <= 1e-12 * scale
    assert X.flags.f_contiguous
    # the same eigenspace above the gap, the one a spectral basis keeps
    top = w0 > complexes.RANK_RTOL * scale
    assert np.abs(X[:, top] @ X[:, top].T - X0[:, top] @ X0[:, top].T).max(initial=0.0) <= 1e-10



@pytest.mark.parametrize("m", [0, 1, 2, 63, 64, 65, 127, 128, 129])
def test_rows_reverse_in_their_own_storage(m):
    # the 64-row blocks swap from both ends: the middle block, and an odd
    # middle row, must land where a full copy puts them
    A = np.random.default_rng(m).standard_normal((m, m))
    want, address = A[::-1].copy(), A.ctypes.data
    got = complexes._reverse_rows(A)
    assert got is A and A.ctypes.data == address and A.flags.c_contiguous
    assert np.array_equal(A, want)


# every flavor at NGF-300 and NGF-1000, and flavor -1 at NGF-3000, whose
# 2999 eigenvalues are all simple
L0_CASES = [*product((-1, 0, 1), (300, 1000)), (-1, 3000)]


@pytest.mark.parametrize("flavor,nodes", L0_CASES, ids=[f"{flavor}-{nodes}" for flavor, nodes in L0_CASES])
def test_sylvester_counts_certify_the_spectrum_of_l0(nodes, flavor):
    # between every two clusters of B1's Gram spectrum (L0's, as B1 is wide)
    # the count of eigenvalues below the midpoint, from the pivots of
    # L0 - x I eliminated newest node first, is the number of eigenvalues
    # of the clusters below it, whatever the multiplicities
    K = ngf_generate(NgfParams(target_nodes=nodes, flavor=flavor, seed=0))
    lam = complexes.gram_eigh(K.incidence(1), vectors=False)[::-1]
    breaks = np.flatnonzero(np.diff(lam) > 1e-9 * lam[-1])
    assert breaks.size > nodes // 2
    counts = sylvester_counts(K, (lam[breaks] + lam[breaks + 1]) / 2)
    assert np.array_equal(counts, breaks + 1)


def test_sylvester_counts_refuse_a_zero_or_non_finite_pivot(filled_triangle, coastal):
    # L0 of one triangle has eigenvalues 0, 3, 3: the shift 0 ends on an
    # exact zero pivot, and 1 and 2, no eigenvalues, meet one on the way
    assert sylvester_counts(filled_triangle, [-1.0, 0.5, 4.0]).tolist() == [0, 1, 3]
    for shift in (0.0, 1.0, 2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"at shift {shift!r}$"):
            sylvester_counts(filled_triangle, [4.0, shift])
    with pytest.raises(ValueError, match="not a 2-tree"):
        sylvester_counts(coastal, [1.0])


@pytest.mark.parametrize("nodes", [300, 1000])
@pytest.mark.parametrize("flavor", [-1, 0, 1])
def test_sylvester_counts_certify_the_gram_spectrum_of_b2(nodes, flavor):
    # B2 is taller than wide, so its Gram matrix is B2^T B2: between every
    # two clusters of its spectrum the count from the pivots of
    # B2^T B2 - x I, the triangle of the newest node first, is the number of
    # eigenvalues of the clusters below
    K = ngf_generate(NgfParams(target_nodes=nodes, flavor=flavor, seed=0))
    lam = complexes.gram_eigh(K.incidence(2), vectors=False)[::-1]
    breaks = np.flatnonzero(np.diff(lam) > 1e-9 * lam[-1])
    assert breaks.size > nodes // 2
    counts = sylvester_counts(K, (lam[breaks] + lam[breaks + 1]) / 2, n=2)
    assert np.array_equal(counts, breaks + 1)


def test_sylvester_counts_of_b2_refuse_a_zero_or_non_finite_pivot(filled_triangle, coastal):
    # two triangles on link (0, 1) have B2^T B2 = [[3, 1], [1, 3]], with
    # eigenvalues 2 and 4: the shift 3 meets a zero pivot on the way, and
    # 2 ends on one
    K = build_complex([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], [(0, 1, 2), (0, 1, 3)])
    assert sylvester_counts(K, [1.0, 2.5, 5.0], n=2).tolist() == [0, 1, 2]
    assert sylvester_counts(filled_triangle, [2.0, 4.0], n=2).tolist() == [0, 1]
    for shift in (2.0, 3.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"at shift {shift!r}$"):
            sylvester_counts(K, [5.0, shift], n=2)
    with pytest.raises(ValueError, match="not a 2-tree"):
        sylvester_counts(coastal, [1.0], n=2)
    with pytest.raises(ValueError, match="got 3$"):
        sylvester_counts(K, [1.0], n=3)


HEAP_PROBE = """
import resource
from diracsp import NgfParams, complexes, ngf_generate
B = ngf_generate(NgfParams(target_nodes=1000, flavor=-1, seed=0)).incidence(1)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    w, X = complexes.gram_eigh(B)
    del w, X
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(complexes.steady_heap(), *faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc")
def test_repeated_gram_solves_reuse_their_heap():
    # a solve of B1's Gram matrix at NGF-1000 (m = 1000) mallocs 24 MB in
    # place (G and dsyevd's workspace) or 40 MB through numpy.linalg (G,
    # numpy's copy, the workspace and the eigenvectors).  With glibc's
    # adaptive thresholds every solve after the first gave most of it back
    # to the system and faulted it in again (6810 pages a solve through
    # numpy.linalg); with steady_heap's fixed ones the third and fourth
    # solves fault in nothing
    src = os.path.dirname(os.path.dirname(complexes.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE], env=env, check=True, capture_output=True, text=True
    )
    fixed, *faults = done.stdout.split()
    if fixed != "True":
        pytest.skip("the C library is not glibc")
    assert max(int(f) for f in faults[2:]) < 100, faults


def test_numpy_built_on_scipy_openblas_lends_its_dsyevd():
    # a numpy wheel built on scipy-openblas carries that library: if the
    # locator stopped finding dsyevd's stages in it, every Gram solve would
    # fall back to numpy.linalg's copy of G without a word
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        pytest.skip("numpy does not describe its build")
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy is built on {lapack}")
    stages = complexes.lapack_dsyevd()
    assert stages is not None
    assert set(stages.functions) == {"dsytrd", "dsterf", "dstedc", "dormtr"}
    # the width of its integers is right: dsytrd's workspace query returns
    # its optimum, m times its block size, a block of 1 to m rows
    m = 50
    trd = stages.plan(m).trd
    assert trd % m == 0 and m <= trd <= m * m


def test_steady_heap_leaves_set_malloc_tunables_alone(monkeypatch):
    for name, value in [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536"),
    ]:
        with monkeypatch.context() as m:
            m.setenv(name, value)
            assert complexes.steady_heap.__wrapped__() is False


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
    K = RANK_CASES[name]
    assert _matches_loop_reference(K)
    # read straight off the canonical arrays, every column's rows ascend
    assert all(boundary_matrix(K, n).has_canonical_format for n in (1, 2))
    # a direct construction keeps the links, the triangles and each
    # triangle's vertices in the order given
    rng = np.random.default_rng(len(name))
    triangles = rng.permuted(K.triangles[rng.permutation(K.n2)], axis=1)
    assert _matches_loop_reference(SimplicialComplex(K.n0, K.links[rng.permutation(K.n1)], triangles))


def test_boundary_of_a_complex_missing_a_face_names_it():
    K = SimplicialComplex(3, ((0, 1), (0, 2)), ((0, 1, 2),))
    with pytest.raises(MissingFace, match=r"link \(1, 2\) is not part of the complex"):
        boundary_matrix(K, 2)
    with pytest.raises(MissingFace, match=r"link \(1, 2\)"):
        K.link_index(2, 1)
    assert K.link_index(2, 0) == 1


def test_link_index_rejects_nodes_outside_the_complex():
    # the codes i * N0 + j of (0, 7) and (-1, 12) on five nodes are that of (1, 2)
    K = build_complex([(0, 1), (1, 2), (2, 3), (3, 4)], node_count=5)
    assert K.link_index(1, 2) == 1
    with pytest.raises(IndexOutOfRange, match=r"node 7 outside range\(0, 5\)"):
        K.link_index(0, 7)
    with pytest.raises(IndexOutOfRange, match=r"node -1 outside range\(0, 5\)"):
        K.link_index(-1, 12)


def test_link_index_rejects_nodes_that_are_not_integers():
    # 0.5 * 4 + 1 and True * 4 + 2 are the codes of links (0, 3) and (1, 2)
    K = build_complex([(0, 1), (0, 2), (0, 3), (1, 2)], [(0, 1, 2)])
    for i, j in ((0.5, 1), (True, 2), (1, np.float64(2.0)), (1, "2")):
        with pytest.raises(ValueError, match="node must be an integer"):
            K.link_index(i, j)
    assert K.link_index(np.int64(1), 2) == 3


def test_boundary_of_a_complex_with_links_out_of_order():
    K = SURFACES["rp2"][0]
    perm = np.random.default_rng(5).permutation(K.n1)
    shuffled = SimplicialComplex(K.n0, K.links[perm], K.triangles)
    assert _matches_loop_reference(shuffled)
    # row p of the shuffled B2 is row perm[p] of the canonical one
    B2 = boundary_matrix(K, 2).toarray()
    assert np.array_equal(boundary_matrix(shuffled, 2).toarray(), B2[perm])
    assert [shuffled.link_index(*lk) for lk in K.links.tolist()] == np.argsort(perm).tolist()


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
    assert K.rank2 == exact_rank(B2)
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
    assert K.links.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert K.triangles.tolist() == [[0, 1, 2]]


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


def _tuples(simplices: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(s) for s in simplices.tolist()]


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
    links, triangles = _shuffled(rng, K.links.tolist()), _shuffled(rng, K.triangles.tolist())
    assert build_complex(links, triangles, K.n0) == loop_build_complex(links, triangles, K.n0) == K
    assert build_complex(links, triangles) == loop_build_complex(links, triangles)

    links, triangles = _with_fault(fault, _tuples(K.links), _tuples(K.triangles), K.n0)
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

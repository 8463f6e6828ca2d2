import inspect
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from diracsp import (
    TopologicalSpinor,
    assemble_dirac,
    betti_numbers,
    build_complex,
    chirality_map,
    dirac_decompose,
    dirac_project,
    harmonic_project,
    hodge_laplacian,
    spectral_basis,
)
from diracsp import complexes, operators
from diracsp.errors import EigensolveFailure, InvalidOrder
from diracsp.operators import export_spectrum, harmonic_basis

from conftest import HARD_COMPLEXES, random_complex, torus_with_fin, torus_with_tetrahedron
from oracles import brute_dirac, dense_eigh, eig_multiset, eigenbasis_projection

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def test_dirac_single_edge():
    K = build_complex([(0, 1)], node_count=2)
    D = assemble_dirac(K)
    vals = np.linalg.eigvalsh(D.full.toarray())
    # hand eigendecomposition of the 3x3 block matrix
    assert np.allclose(np.sort(vals), [-SQ2, 0.0, SQ2])


def test_dirac_filled_triangle(filled_triangle):
    D = assemble_dirac(filled_triangle)
    vals = np.sort(np.linalg.eigvalsh(D.full.toarray()))
    expected = np.sort([-SQ3, -SQ3, -SQ3, 0.0, SQ3, SQ3, SQ3])
    assert np.allclose(vals, expected)


def test_dirac_isolated_nodes():
    K = build_complex([], node_count=4)
    D = assemble_dirac(K)
    assert D.full.count_nonzero() == 0


def test_dirac_matches_brute_force(two_triangles):
    D = assemble_dirac(two_triangles)
    full, d1, d2 = brute_dirac(two_triangles)
    assert np.array_equal(D.full.toarray(), full)
    assert np.array_equal(D.part1.toarray(), d1)
    assert np.array_equal(D.part2.toarray(), d2)


def _apply_cases():
    rng = np.random.default_rng(53)
    named = [(f"random{i}", random_complex(rng)) for i in range(6)]
    named += list(HARD_COMPLEXES.items())
    return [(name, K, n) for name, K in named for n in (1, 2)]


APPLY_CASES = _apply_cases()


@pytest.mark.parametrize(
    "name,K,n", APPLY_CASES, ids=[f"{name}-n{n}" for name, _, n in APPLY_CASES]
)
def test_apply_through_boundary_matches_block_matrix(name, K, n):
    # D_n s is taken as (B_n b, B_n^T a) on the blocks (a, b) D_n couples;
    # it must give the block matrix's product bit for bit
    D = assemble_dirac(K)
    rng = np.random.default_rng(len(name) + n)
    s = TopologicalSpinor.from_vector(K, rng.standard_normal(D.dim))
    assert np.array_equal(D.apply(s, n).vector, D.part(n) @ s.vector)
    assert np.abs(D.apply(s).vector - D.full @ s.vector).max(initial=0.0) <= 1e-12


def test_dirac_square_is_super_laplacian(two_triangles):
    D = assemble_dirac(two_triangles)
    dd = D.full.toarray()
    assert np.abs(dd @ dd - D.super_laplacian.toarray()).max() <= 1e-10


def test_parts_annihilate(two_triangles):
    D = assemble_dirac(two_triangles)
    p1, p2 = D.part1.toarray(), D.part2.toarray()
    assert np.abs(p1 @ p2).max() <= 1e-12
    assert np.abs(p2 @ p1).max() <= 1e-12


def test_part_squares(two_triangles):
    K = two_triangles
    D = assemble_dirac(K)
    n0, n1 = K.n0, K.n1
    d1sq = D.part1.toarray() @ D.part1.toarray()
    assert np.allclose(d1sq[:n0, :n0], hodge_laplacian(K, 0).toarray())
    assert np.allclose(
        d1sq[n0 : n0 + n1, n0 : n0 + n1], hodge_laplacian(K, 1, "down").toarray()
    )
    assert np.abs(d1sq[n0 + n1 :, n0 + n1 :]).max() == 0.0
    d2sq = D.part2.toarray() @ D.part2.toarray()
    assert np.abs(d2sq[:n0, :n0]).max() == 0.0
    assert np.allclose(
        d2sq[n0 : n0 + n1, n0 : n0 + n1], hodge_laplacian(K, 1, "up").toarray()
    )
    assert np.allclose(
        d2sq[n0 + n1 :, n0 + n1 :], hodge_laplacian(K, 2, "down").toarray()
    )


def test_hodge_laplacian_single_edge():
    K = build_complex([(0, 1)], node_count=2)
    L0 = hodge_laplacian(K, 0).toarray()
    assert np.array_equal(L0, [[1.0, -1.0], [-1.0, 1.0]])


def test_l1_up_filled_triangle(filled_triangle):
    up = hodge_laplacian(filled_triangle, 1, "up").toarray()
    vals = np.linalg.eigvalsh(up)
    assert np.allclose(np.sort(vals), [0.0, 0.0, 3.0])


def test_up_plus_down(two_triangles):
    for n in (0, 1, 2):
        full = hodge_laplacian(two_triangles, n).toarray()
        up = hodge_laplacian(two_triangles, n, "up").toarray()
        down = hodge_laplacian(two_triangles, n, "down").toarray()
        assert np.allclose(full, up + down)
        assert np.abs(up @ down).max() <= 1e-10
        # positive semidefinite
        assert np.linalg.eigvalsh(full).min() >= -1e-10


def test_hodge_invalid_order(filled_triangle):
    with pytest.raises(InvalidOrder):
        hodge_laplacian(filled_triangle, 3)
    with pytest.raises(InvalidOrder):
        hodge_laplacian(filled_triangle, 1, "sideways")


def test_spectral_relation_hollow_triangle(hollow_triangle):
    D = assemble_dirac(hollow_triangle)
    basis = spectral_basis(D, 1)
    nz = np.sort(basis.eigenvalues[basis.nonzero_indices])
    # oracle: L0 of the triangle graph has nonzero eigenvalues {3, 3}
    mu = eig_multiset(hodge_laplacian(hollow_triangle, 0))
    expected = np.sort(np.concatenate([-np.sqrt(mu), np.sqrt(mu)]))
    assert np.allclose(nz, expected, atol=1e-8)
    assert np.allclose(np.abs(nz), SQ3)


def test_spectral_relation_triangle_block(filled_triangle):
    D = assemble_dirac(filled_triangle)
    basis = spectral_basis(D, 2)
    nz = np.sort(basis.eigenvalues[basis.nonzero_indices])
    assert np.allclose(nz, [-SQ3, SQ3])


def test_pos_neg_balance_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        K = random_complex(rng)
        D = assemble_dirac(K)
        for n in (1, 2):
            basis = spectral_basis(D, n)
            assert basis.pos_indices.size == basis.neg_indices.size
            assert basis.nonharmonic_dim == 2 * basis.pos_indices.size


def test_basis_is_orthonormal_and_diagonalizes(ff_dirac, ff_basis):
    V = np.column_stack([ff_basis.spinor(i).vector for i in range(ff_basis.eigenvalues.size)])
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-8
    lam = ff_basis.eigenvalues
    D1 = ff_dirac.part1.toarray()
    assert np.abs(D1 @ V - V * lam).max() <= 1e-8
    # eigenvalues of D1 computed independently agree as a multiset
    oracle = np.sort(dense_eigh(D1)[0])
    assert np.allclose(np.sort(lam), oracle, atol=1e-8)


def test_basis_eigenvalues_ascending(ff_basis):
    assert (np.diff(ff_basis.eigenvalues) >= -1e-12).all()


def test_basis_matches_up_laplacian_spectrum(coastal_dirac, coastal):
    for n in (1, 2):
        basis = spectral_basis(coastal_dirac, n)
        pos = basis.eigenvalues[basis.pos_indices]
        mu = eig_multiset(hodge_laplacian(coastal, n - 1, "up"))
        assert np.allclose(np.sort(pos**2), mu, atol=1e-8)


def test_chirality_pairs_eigenvectors(ff_dirac, ff_basis):
    D1 = ff_dirac.part1.toarray()
    for i in ff_basis.pos_indices:
        lam = ff_basis.eigenvalues[i]
        flipped = chirality_map(ff_basis.spinor(i), 1)
        resid = D1 @ flipped.vector + lam * flipped.vector
        assert np.abs(resid).max() <= 1e-8


def test_chirality_anticommutes(two_triangles):
    D = assemble_dirac(two_triangles)
    K = two_triangles
    for n in (1, 2):
        g = np.zeros((D.dim, D.dim))
        if n == 1:
            g[: K.n0, : K.n0] = np.eye(K.n0)
            g[K.n0 : K.n0 + K.n1, K.n0 : K.n0 + K.n1] = -np.eye(K.n1)
        else:
            g[K.n0 : K.n0 + K.n1, K.n0 : K.n0 + K.n1] = np.eye(K.n1)
            g[K.n0 + K.n1 :, K.n0 + K.n1 :] = -np.eye(K.n2)
        Dn = D.part(n).toarray()
        assert np.abs(Dn @ g + g @ Dn).max() <= 1e-12


def test_chirality_zero_spinor(filled_triangle):
    z = TopologicalSpinor.zeros(filled_triangle)
    assert chirality_map(z, 1).norm() == 0.0
    assert chirality_map(z, 2).norm() == 0.0


def test_projection_idempotent(two_triangles):
    D = assemble_dirac(two_triangles)
    rng = np.random.default_rng(3)
    s = TopologicalSpinor.from_vector(two_triangles, rng.standard_normal(D.dim))
    for n in (1, 2):
        p = dirac_project(s, D, n)
        pp = dirac_project(p, D, n)
        assert (pp - p).norm() <= 1e-8
    # already in the image: unchanged
    x = TopologicalSpinor.from_vector(two_triangles, rng.standard_normal(D.dim))
    im = D.apply(x, 1)
    assert (dirac_project(im, D, 1) - im).norm() <= 1e-8 * max(im.norm(), 1.0)


def test_projection_kills_harmonic(ff_dirac, ff_network):
    const = TopologicalSpinor(np.ones(15) / np.sqrt(15), np.zeros(20), np.zeros(0))
    assert dirac_project(const, ff_dirac, 1).norm() <= 1e-10
    assert (harmonic_project(const, ff_dirac) - const).norm() <= 1e-10


def test_decomposition_reconstructs(filled_triangle):
    D = assemble_dirac(filled_triangle)
    rng = np.random.default_rng(11)
    s = TopologicalSpinor.from_vector(filled_triangle, rng.standard_normal(D.dim))
    s1, s2, sh = dirac_decompose(s, D)
    assert (s1 + s2 + sh - s).norm() <= 1e-8
    assert abs(s1.dot(s2)) <= 1e-8
    assert abs(s1.dot(sh)) <= 1e-8
    assert abs(s2.dot(sh)) <= 1e-8
    assert D.apply(sh).norm() <= 1e-8 * s.norm()
    # oracle: projections agree with explicit eigenbasis expansions of D_n
    full, d1, d2 = brute_dirac(filled_triangle)
    expected1 = eigenbasis_projection(d1, s.vector, lambda v: abs(v) > 1e-8)
    expected2 = eigenbasis_projection(d2, s.vector, lambda v: abs(v) > 1e-8)
    assert np.abs(s1.vector - expected1).max() <= 1e-8
    assert np.abs(s2.vector - expected2).max() <= 1e-8


def test_image_of_d_is_projected_to_zero_harmonic(two_triangles):
    D = assemble_dirac(two_triangles)
    rng = np.random.default_rng(5)
    x = TopologicalSpinor.from_vector(two_triangles, rng.standard_normal(D.dim))
    s = D.apply(x)
    assert harmonic_project(s, D).norm() <= 1e-8 * s.norm()


def test_kernel_dim_equals_betti_sum():
    rng = np.random.default_rng(19)
    for _ in range(6):
        K = random_complex(rng)
        D = assemble_dirac(K)
        vals = np.linalg.eigvalsh(D.full.toarray())
        near_zero = int(np.count_nonzero(np.abs(vals) <= 1e-8))
        assert near_zero == sum(betti_numbers(K))
        assert harmonic_basis(D).shape[1] == sum(betti_numbers(K))


def test_harmonic_basis_spans_kernel(two_triangles):
    D = assemble_dirac(two_triangles)
    H = harmonic_basis(D)
    assert np.abs(D.full.toarray() @ H).max() <= 1e-10
    assert np.abs(H.T @ H - np.eye(H.shape[1])).max() <= 1e-10


def test_rank_of_b1_disagreeing_with_components_fails(coastal, monkeypatch):
    # a cutoff that drops genuine singular values must not yield a projector
    monkeypatch.setattr(complexes, "RANK_RTOL", 0.5)
    D = assemble_dirac(coastal)
    with pytest.raises(EigensolveFailure):
        spectral_basis(D, 1)
    s = TopologicalSpinor.zeros(coastal)
    with pytest.raises(EigensolveFailure):
        dirac_project(s, D, 1)


def test_one_rank_tolerance_moves_every_gap_test(coastal, monkeypatch):
    # operators keeps no tolerance of its own and gap_rank takes none: the
    # complex's core solve, the svd basis and the eigh reference all read
    # complexes.RANK_RTOL when they run
    assert not hasattr(operators, "RANK_RTOL")
    assert list(inspect.signature(complexes.gap_rank).parameters) == ["w"]
    monkeypatch.setattr(complexes, "RANK_RTOL", 0.5)
    with pytest.raises(EigensolveFailure):
        torus_with_tetrahedron().rank2
    for method in ("svd", "eigh"):
        with pytest.raises(EigensolveFailure):
            spectral_basis(assemble_dirac(coastal), 1, method=method)


def test_one_gram_eigensolve_per_boundary_matrix(monkeypatch):
    # the tetrahedron boundary puts four triangles on a link and nothing
    # collapses, so rank B2 comes from the complex's eigenvalues-only solve,
    # which betti_numbers runs; the triplets' eigensolve is then the only
    # one that builds G
    K = torus_with_tetrahedron()
    assert np.diff(assemble_dirac(K).B2.tocsr().indptr).max() > 2
    rank2 = K.n2 - betti_numbers(K)[2]
    original = complexes.gram_matrix
    built = []

    def counted(B):
        built.append(B.shape)
        return original(B)

    monkeypatch.setattr(complexes, "gram_matrix", counted)
    D = assemble_dirac(K)
    D.singular_triplets(2)
    assert len(built) == 1
    assert D.rank(2) == rank2

    monkeypatch.setattr(complexes, "RANK_RTOL", 0.5)
    with pytest.raises(EigensolveFailure, match="no clear gap"):
        assemble_dirac(K).singular_triplets(2)


def test_lapack_failure_is_an_eigensolve_failure(monkeypatch):
    # both Gram eigensolves, the rank-only one of the complex and the
    # triplets', go through gram_eigh, which maps a nonzero info from any of
    # dsyevd's stages in place, naming the stage, and numpy's LinAlgError
    # where numpy.linalg solves
    def failing_solves(match="Gram eigensolve failed"):
        K = torus_with_tetrahedron()  # nothing collapses: rank B2 takes a solve
        with pytest.raises(EigensolveFailure, match=match):
            K.rank2
        for n in (1, 2):
            with pytest.raises(EigensolveFailure, match=match):
                assemble_dirac(K).singular_triplets(n)

    if complexes.lapack_dsyevd() is not None:
        call = complexes.DsyevdStages._call
        runs = {False: ("dsytrd", "dsterf"), True: ("dsytrd", "dstedc", "dormtr")}
        for stage in ("dsytrd", "dsterf", "dstedc", "dormtr"):

            def fail(self, name, *args, stage=stage):
                # info > 0: no convergence; a workspace query ends in lwork = -1
                query = isinstance(args[-1], int) and args[-1] == -1
                return 3 if name == stage and not query else call(self, name, *args)

            with monkeypatch.context() as m:
                m.setattr(complexes.DsyevdStages, "_call", fail)
                if stage == "dsytrd":
                    failing_solves(f"^Gram eigensolve failed: {stage} returned info=3$")
                K = torus_with_fin()
                for n in (1, 2):
                    for vectors, stages in runs.items():
                        if stage not in stages:
                            complexes.gram_eigh(K.incidence(n), vectors=vectors)
                            continue
                        with pytest.raises(EigensolveFailure, match=f"^Gram eigensolve failed: {stage} returned info=3$"):
                            complexes.gram_eigh(K.incidence(n), vectors=vectors)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    failing_solves()


@pytest.mark.parametrize("in_place", [True, False])
def test_a_failed_allocation_is_an_eigensolve_failure_naming_its_size(in_place, monkeypatch):
    # a MemoryError while G or any of the in-place solve's arrays is
    # allocated (the packed reflectors and the workspaces of dsytrd, dstedc
    # and dormtr among them) names the order m of the solve and the bytes it
    # asks for; only the allocation is patched to raise, nothing oversize is
    # allocated
    stages = complexes.lapack_dsyevd()
    if in_place and stages is None:
        pytest.skip("numpy brings no dsyevd to bind")
    if not in_place:
        monkeypatch.setattr(complexes, "lapack_dsyevd", lambda: None)
    B = torus_with_fin().incidence(1)
    m = min(B.shape)

    def refuse(*args):
        raise MemoryError

    def refuse_from(k):  # an empty() that refuses its k-th array and every later one
        seen = []

        def refusing(self, size, *args):
            seen.append(size)
            if len(seen) > k:
                raise MemoryError
            return empty(self, size, *args)

        return refusing

    refusals = [(complexes, "gram_matrix", refuse)]
    if in_place:
        plan = stages.plan(m)
        need = plan.vectors_bytes
        empty, sizes = complexes.DsyevdStages.empty, []
        with monkeypatch.context() as patched:
            patched.setattr(complexes.DsyevdStages, "empty", lambda self, size, *args: sizes.append(size) or empty(self, size, *args))
            assemble_dirac(torus_with_fin()).singular_triplets(1)
        assert {m * (m - 1) // 2, plan.stedc, plan.ormtr} <= set(sizes)
        refusals += [(complexes.DsyevdStages, "empty", refuse_from(k)) for k in range(len(sizes))]
    else:
        need = 8 * m * m

    for owner, name, replacement in refusals:
        with monkeypatch.context() as patched:
            patched.setattr(owner, name, replacement)
            with pytest.raises(EigensolveFailure, match=f"of order m={m} could not allocate {need} bytes"):
                assemble_dirac(torus_with_fin()).singular_triplets(1)


def test_operators_and_bases_compare_and_hash_by_identity(ff_network):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D, other = assemble_dirac(ff_network), assemble_dirac(ff_network)
        basis = spectral_basis(D, 1)
        assert D == D and D != other
        assert basis == basis and basis != spectral_basis(D, 1, method="eigh")
        assert len({D, other, basis}) == 3
    # every operator of a complex acts through the B1 and B2 it keeps, and
    # each operator keeps the scipy forms it builds of them
    for n in (1, 2):
        assert other.K.incidence(n) is D.K.incidence(n) is ff_network.incidence(n)
    assert D.B1 is D.boundary(1) is D.B1 and D.B2 is D.boundary(2) is D.B2
    assert (D.B1 != other.B1).nnz == 0 and (D.B2 != other.B2).nnz == 0


def test_apply_builds_no_transpose_per_call(coastal, coastal_dirac, monkeypatch):
    D = coastal_dirac
    s = TopologicalSpinor.from_vector(coastal, np.random.default_rng(3).standard_normal(D.dim))
    first = [D.apply(s, n).vector for n in (1, 2, None)]
    made = []
    for cls in (sp.csc_array, sp.csr_array):
        original = cls.transpose
        monkeypatch.setattr(
            cls, "transpose", lambda self, *a, _f=original, **k: made.append(cls) or _f(self, *a, **k)
        )
    for _ in range(3):
        for n, want in zip((1, 2, None), first):
            assert np.array_equal(D.apply(s, n).vector, want)
    assert made == []
    # the spy sees a transpose when one is made
    D.B2.T
    assert made


def test_wide_boundary_takes_the_dense_svd():
    # complete graph on 90 nodes: B1 is 90 x 4005, and its triplets come from
    # the 90 x 90 Gram matrix L0 = 90 I - J, so every nonzero sigma is sqrt(90)
    nodes = 90
    K = build_complex(
        [(i, j) for i in range(nodes) for j in range(i + 1, nodes)], node_count=nodes
    )
    D = assemble_dirac(K)
    assert D.B1.shape == (90, 4005)
    U, sigma, V = D.singular_triplets(1)
    assert D.rank(1) == K.rank1 == 89
    assert np.abs(sigma - np.sqrt(90.0)).max() <= 1e-12
    assert np.abs(U @ np.diag(sigma) @ V.T - D.B1.toarray()).max() <= 1e-12
    assert spectral_basis(D, 1).nonharmonic_dim == 2 * 89


def test_export_spectrum(tmp_path, ff_dirac):
    b1 = spectral_basis(ff_dirac, 1)
    path = tmp_path / "spectrum.csv"
    export_spectrum([b1], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "order,index,eigenvalue,class"
    assert len(lines) == 1 + b1.eigenvalues.size
    classes = {line.split(",")[-1] for line in lines[1:]}
    assert classes == {"pos", "neg", "harm"}


def test_export_spectrum_writes_plain_numbers(tmp_path, ff_dirac):
    basis = spectral_basis(ff_dirac, 1)
    path = tmp_path / "spectrum.csv"
    export_spectrum([basis], path)
    cells = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert [float(x) for x in cells] == basis.eigenvalues.tolist()


def test_chirality_maps_degenerate_eigenspaces(filled_triangle):
    # +sqrt(3) has multiplicity 3 for D_1 here; pairing must hold at the
    # subspace level even if individual vectors rotate within the cluster
    D = assemble_dirac(filled_triangle)
    basis = spectral_basis(D, 1)
    neg = np.column_stack([basis.spinor(i).vector for i in basis.neg_indices])
    flipped = np.column_stack(
        [chirality_map(basis.spinor(i), 1).vector for i in basis.pos_indices]
    )
    # span(flipped) == span(neg): projecting onto the complement leaves nothing
    resid = flipped - neg @ (neg.T @ flipped)
    assert np.abs(resid).max() <= 1e-10
    assert np.linalg.matrix_rank(np.hstack([neg, flipped]), tol=1e-8) == neg.shape[1]


def test_order_validation_errors(filled_triangle):
    D = assemble_dirac(filled_triangle)
    s = TopologicalSpinor.zeros(filled_triangle)
    with pytest.raises(InvalidOrder):
        D.part(0)
    with pytest.raises(InvalidOrder):
        D.boundary(3)
    with pytest.raises(InvalidOrder):
        spectral_basis(D, 0)
    with pytest.raises(InvalidOrder):
        chirality_map(s, 3)
    with pytest.raises(InvalidOrder):
        D.singular_triplets(0)
    with pytest.raises(InvalidOrder):
        D.apply(s, 3)
    with pytest.raises(InvalidOrder):
        dirac_project(s, D, 0)
    with pytest.raises(ValueError):
        spectral_basis(D, 1, method="magic")


def test_operator_rejects_foreign_spinor(filled_triangle, ff_dirac):
    s = TopologicalSpinor.zeros(filled_triangle)
    from diracsp.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        ff_dirac.apply(s)
    with pytest.raises(DimensionMismatch):
        dirac_project(s, ff_dirac, 1)


def test_empty_and_nodes_only_complexes():
    import numpy as np
    from diracsp import build_complex, betti_numbers, harmonic_project, hodge_filter
    from diracsp.errors import EmptySpectrum
    from diracsp.filtering import dirac_filter
    from diracsp.signals import gaussian_mix_signal

    empty = build_complex([], [], 0)
    assert betti_numbers(empty) == (0, 0, 0)
    assert assemble_dirac(empty).dim == 0

    nodes_only = build_complex([], [], 4)
    D = assemble_dirac(nodes_only)
    basis = spectral_basis(D, 1)
    assert basis.nonharmonic_dim == 0
    assert basis.harm_indices.size == 4
    with pytest.raises(EmptySpectrum):
        gaussian_mix_signal(basis, 1.0, 0.2)
    s = TopologicalSpinor(np.ones(4), np.zeros(0), np.zeros(0))
    # everything is harmonic: projection keeps it, filters leave it alone
    assert (harmonic_project(s, D) - s).norm() == 0.0
    assert (hodge_filter(s, D, 5.0) - s).norm() <= 1e-12
    assert dirac_filter(s, D, 1, 3.0, 0.5).norm() == 0.0

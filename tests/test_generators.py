import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsp import (
    NgfParams,
    betti_numbers,
    boundary_matrix,
    load_complex,
    load_flow,
    ngf_generate,
)
from diracsp.datasets import (
    coastal_flow,
    coastal_tessellation,
    dataset_path,
    florentine_marriage,
)
from diracsp.errors import DimensionMismatch, InvalidFlavor, ParseError

from oracles import loop_ngf_generate


def test_seed_state_is_filled_triangle():
    K = ngf_generate(NgfParams(target_nodes=3, seed=0))
    assert K.counts == (3, 3, 1)
    assert K.triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("flavor", [-1, 0, 1])
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_growth_counts(flavor, seed):
    # +1 node / +2 links / +1 triangle per step from the (3, 3, 1) seed state
    for n in (3, 10, 41):
        K = ngf_generate(NgfParams(target_nodes=n, flavor=flavor, seed=seed))
        assert K.counts == (n, 2 * n - 3, n - 2)
        assert K.euler_characteristic() == 1


def test_flavor_minus_one_is_manifold():
    for seed in range(5):
        K = ngf_generate(NgfParams(target_nodes=60, flavor=-1, seed=seed))
        per_link = Counter()
        for tri in K.triangles.tolist():
            i, j, k = tri
            per_link.update([(i, j), (i, k), (j, k)])
        assert max(per_link.values()) <= 2


def test_flavor_zero_can_oversubscribe_links():
    # without the saturation rule some link eventually joins > 2 triangles
    hit = False
    for seed in range(10):
        K = ngf_generate(NgfParams(target_nodes=60, flavor=0, seed=seed))
        per_link = Counter()
        for i, j, k in K.triangles.tolist():
            per_link.update([(i, j), (i, k), (j, k)])
        if max(per_link.values()) > 2:
            hit = True
            break
    assert hit


def test_generated_complexes_are_valid():
    for seed in (3, 4):
        K = ngf_generate(NgfParams(target_nodes=35, beta=1.5, seed=seed))
        B1, B2 = boundary_matrix(K, 1), boundary_matrix(K, 2)
        assert np.count_nonzero((B1 @ B2).toarray()) == 0
        assert betti_numbers(K)[0] == 1  # grown complexes are connected


def test_determinism():
    a = ngf_generate(NgfParams(target_nodes=50, seed=1234))
    b = ngf_generate(NgfParams(target_nodes=50, seed=1234))
    assert a == b
    c = ngf_generate(NgfParams(target_nodes=50, seed=1235))
    assert a != c


# sha256 of repr((links, triangles)), each a tuple of tuples of ints, as grown
# by the generator that called rng.choice(p=...) once per step; the sampler
# must replay it exactly.
PINNED = {
    # (target_nodes, flavor, beta, seed)
    (1000, -1, 0.0, 0): "534cfdfec0a9a294a3670a1f53d5d12beff140376d2218cbda95b2f287e73236",
    (500, 0, 0.0, 3): "54f55c0b7a870a4e2d67d04a3658daed7781b9b43c4ddc7141081fe6ac7424e1",
    (600, 1, 0.5, 2): "c41fe722599809b83e4abf86befdef5a9640c5b36c899cd1969f2d35f4aabd7d",
    (300, -1, 1.0, 5): "e3778f2de9ba99e6aa894b6d63ca3df9efd4722e85060c5115a2134d949af09d",
    (50, 0, 2.0, 9): "6ddfac2a5a8f9f76bb68ffdb68901a9bb8cb1e7bef87453edb4104e2646faa57",
    (400, 1, 0.0, 11): "f6a8b554eb3923291c26e2d6e156d2a56baf577618c2092b1ae57fbc64e6436f",
    (200, -1, 0.3, 1): "a9f7663f408ae9ce807b34f16f892741e3da814dcab714cffc553557563287a3",
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=str)
def test_generator_output_is_pinned(case):
    nodes, flavor, beta, seed = case
    K = ngf_generate(NgfParams(target_nodes=nodes, flavor=flavor, beta=beta, seed=seed))
    simplices = (tuple(map(tuple, K.links.tolist())), tuple(map(tuple, K.triangles.tolist())))
    digest = hashlib.sha256(repr(simplices).encode()).hexdigest()
    assert digest == PINNED[case]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 300),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([0.0, 0.5, 2.0]),
    st.integers(0, 2**32 - 1),
)
def test_generator_matches_the_per_step_loop(nodes, flavor, beta, seed):
    # one draw call and one weight update per step replay the loop that
    # draws each energy as its link is made and recomputes every weight
    params = NgfParams(target_nodes=nodes, flavor=flavor, beta=beta, seed=seed)
    assert ngf_generate(params) == loop_ngf_generate(params)


def test_invalid_params():
    with pytest.raises(InvalidFlavor):
        NgfParams(target_nodes=10, flavor=2)
    with pytest.raises(ValueError):
        NgfParams(target_nodes=2)
    with pytest.raises(ValueError):
        NgfParams(target_nodes=10, beta=-1.0)
    for kw, match in (
        ({"target_nodes": 30.9}, "target_nodes must be an integer, got 30.9"),
        ({"flavor": 0.5}, "flavor must be an integer, got 0.5"),
        ({"seed": 3.0}, "seed must be an integer, got 3.0"),
        ({"beta": float("nan")}, "beta must be finite, got nan"),
        ({"beta": float("inf")}, "beta must be finite, got inf"),
        ({"beta": "0.5"}, "beta must be a number, got '0.5'"),
    ):
        with pytest.raises(ValueError, match=match):
            NgfParams(**{"target_nodes": 10, **kw})


@pytest.mark.parametrize("value", (True, "1", None))
def test_params_reject_non_numeric_beta_by_name(value):
    with pytest.raises(ValueError, match=re.escape(f"beta must be a number, got {value!r}")):
        NgfParams(target_nodes=10, beta=value)


def test_params_reject_a_negative_seed():
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0")):
        NgfParams(target_nodes=10, seed=-2)
    assert NgfParams(target_nodes=10, seed=0).seed == 0


@pytest.mark.parametrize("beta, seed", [(1e6, 0), (1e6, 1), (1e6, 2), (1e9, 0)])
def test_underflowed_link_weights_blame_beta_not_the_flavor(beta, seed):
    # every exp(-beta * eps) is 0.0 in float64 unless eps < ~745 / beta
    with pytest.raises(ValueError, match=re.escape(f"beta={beta!r} leaves every link weight at 0")):
        ngf_generate(NgfParams(target_nodes=50, flavor=0, beta=beta, seed=seed))


def test_bundled_florentine():
    K = florentine_marriage()
    assert K.counts == (15, 20, 0)


def test_bundled_coastal():
    K = coastal_tessellation()
    assert K.counts == (133, 322, 186)


def test_load_complex_from_path():
    K = load_complex(dataset_path("coastal_tessellation.json"))
    assert K.counts == (133, 322, 186)


def test_load_flow(coastal):
    flow = coastal_flow(coastal)
    assert flow.s1.size == 322
    assert np.abs(flow.s0).max() == 0.0
    assert np.abs(flow.s2).max() == 0.0
    assert np.abs(flow.s1).max() > 0.0


def test_load_flow_rejects_unknown_link(tmp_path, ff_network):
    p = tmp_path / "flow.csv"
    p.write_text("block,index,value\nlink,25,1.0\n")
    with pytest.raises(DimensionMismatch):
        load_flow(p, ff_network)


def test_load_flow_rejects_non_link_rows(tmp_path, ff_network):
    p = tmp_path / "flow.csv"
    p.write_text("block,index,value\nnode,0,1.0\nlink,1,2.0\n")
    with pytest.raises(ParseError):
        load_flow(p, ff_network)


@pytest.mark.parametrize("row", ["node,0,0.0", "triangle,3,0", "node,0,1.0"])
def test_load_flow_rejects_non_link_rows_whatever_their_value(tmp_path, coastal, row):
    p = tmp_path / "flow.csv"
    p.write_text(f"block,index,value\n# a comment\nlink,1,2.0\n{row}\n")
    with pytest.raises(ParseError, match=r"flow.csv:4: block '(node|triangle)' is not one of link"):
        load_flow(p, coastal)

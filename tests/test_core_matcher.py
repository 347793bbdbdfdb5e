"""Tests for the cuTS matcher — correctness against oracles, chunking
equivalence, memory/time limits, and configuration invariance."""

import numpy as np
import pytest

from repro.baselines import dfs_count, networkx_count
from repro.core import CuTSConfig, CuTSMatcher, SearchTimeout
from repro.core.candidates import degree_filter_mask, root_candidates
from repro.gpusim import CostModel, DeviceOOMError, V100, scaled_device
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    mesh_graph,
    random_graph,
    social_graph,
    star_graph,
)
from tests.conftest import assert_valid_embeddings


CASES = [
    (mesh_graph(4, 4), chain_graph(4)),
    (mesh_graph(4, 4), chain_graph(2)),
    (mesh_graph(3, 3), cycle_graph(4)),
    (clique_graph(6), clique_graph(4)),
    (clique_graph(6), clique_graph(6)),
    (random_graph(25, 0.25, seed=1), clique_graph(3)),
    (random_graph(25, 0.25, seed=1), chain_graph(5)),
    (random_graph(25, 0.25, seed=1), cycle_graph(5)),
    (star_graph(6), star_graph(4)),
    (social_graph(60, 3, community_edges=60, seed=3), clique_graph(4)),
    (social_graph(60, 3, community_edges=60, seed=3), cycle_graph(4)),
]


@pytest.mark.parametrize("data,query", CASES, ids=lambda g: g.name)
def test_count_matches_networkx(data, query):
    r = CuTSMatcher(data).match(query)
    assert r.count == networkx_count(data, query)


@pytest.mark.parametrize("data,query", CASES[:6], ids=lambda g: g.name)
def test_count_matches_dfs(data, query):
    r = CuTSMatcher(data).match(query)
    assert r.count == dfs_count(data, query)


@pytest.mark.parametrize("data,query", CASES, ids=lambda g: g.name)
def test_materialized_embeddings_valid(data, query):
    r = CuTSMatcher(data).match(query, materialize=True)
    assert r.matches is not None
    assert len(r.matches) == r.count
    assert_valid_embeddings(data, query, r.matches)
    # all embeddings distinct
    rows = set(map(tuple, r.matches.tolist()))
    assert len(rows) == r.count


def test_directed_matching():
    # directed triangle cycle in a directed graph
    data = from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
    query = from_edges([(0, 1), (1, 2), (2, 0)])
    r = CuTSMatcher(data).match(query, materialize=True)
    assert r.count == networkx_count(data, query)
    assert_valid_embeddings(data, query, r.matches)


def test_directed_no_match():
    data = from_edges([(0, 1), (1, 2)])  # a directed path
    query = from_edges([(0, 1), (1, 0)])  # a 2-cycle
    assert CuTSMatcher(data).match(query).count == 0


def test_single_vertex_query():
    data = mesh_graph(3, 3)
    query = from_edges([], num_vertices=1)
    r = CuTSMatcher(data).match(query, materialize=True)
    assert r.count == 9
    assert r.matches.shape == (9, 1)


def test_query_larger_than_data():
    data = clique_graph(3)
    r = CuTSMatcher(data).match(clique_graph(4))
    assert r.count == 0


def test_empty_query_rejected():
    data = clique_graph(3)
    with pytest.raises(ValueError):
        CuTSMatcher(data).match(from_edges([], num_vertices=0))


def test_self_isomorphism_count():
    # K4 onto K4: 4! = 24 embeddings
    assert CuTSMatcher(clique_graph(4)).match(clique_graph(4)).count == 24


def test_chain_on_chain():
    # chain4 onto chain4 (bidirected): 2 embeddings
    assert CuTSMatcher(chain_graph(4)).match(chain_graph(4)).count == 2


def test_count_only_has_no_matches():
    r = CuTSMatcher(mesh_graph(3, 3)).match(chain_graph(3))
    assert r.matches is None
    with pytest.raises(ValueError):
        r.mappings()


def test_mappings_dicts():
    data = clique_graph(3)
    r = CuTSMatcher(data).match(clique_graph(3), materialize=True)
    maps = r.mappings()
    assert len(maps) == 6
    assert all(set(m.keys()) == {0, 1, 2} for m in maps)


def test_max_materialized_caps_collection():
    data = clique_graph(6)
    cfg = CuTSConfig(max_materialized=5)
    r = CuTSMatcher(data, cfg).match(clique_graph(3), materialize=True)
    assert r.count == 120  # counting never capped
    assert len(r.matches) == 5
    # The capped rows are the uncapped run's first rows, in order.
    full = CuTSMatcher(data).match(clique_graph(3), materialize=True)
    assert np.array_equal(r.matches, full.matches[:5])


# ------------------------------------------------------------ chunking
def test_chunked_equals_unchunked():
    data = social_graph(80, 3, community_edges=120, seed=9)
    query = cycle_graph(4)
    big = CuTSMatcher(data, CuTSConfig(device=scaled_device(V100, 1 << 26)))
    r_big = big.match(query)
    tight = CuTSMatcher(
        data, CuTSConfig(device=scaled_device(V100, 1 << 13), chunk_size=32)
    )
    r_tight = tight.match(query)
    assert r_tight.count == r_big.count
    assert r_tight.stats.chunks_processed > 0
    assert r_big.stats.chunks_processed == 0


def test_chunked_materialization_complete():
    data = social_graph(60, 3, community_edges=80, seed=4)
    query = chain_graph(4)
    cfg = CuTSConfig(device=scaled_device(V100, 1 << 13), chunk_size=16)
    r = CuTSMatcher(data, cfg).match(query, materialize=True)
    assert len(r.matches) == r.count
    assert_valid_embeddings(data, query, r.matches)
    expected = CuTSMatcher(data).match(query).count
    assert r.count == expected


def test_peak_trie_words_bounded_under_chunking():
    data = social_graph(80, 3, community_edges=120, seed=9)
    cfg = CuTSConfig(device=scaled_device(V100, 1 << 13), chunk_size=16)
    m = CuTSMatcher(data, cfg)
    r = m.match(cycle_graph(4))
    assert r.stats.peak_trie_words <= m.trie_budget_words


def test_oom_when_data_graph_too_big():
    data = mesh_graph(20, 20)
    with pytest.raises(DeviceOOMError):
        CuTSMatcher(data, CuTSConfig(device=scaled_device(V100, 100)))


# ----------------------------------------------------------- limits
def test_time_limit_triggers():
    data = social_graph(150, 4, community_edges=400, seed=2)
    with pytest.raises(SearchTimeout):
        CuTSMatcher(data).match(clique_graph(3), time_limit_ms=1e-9)


def test_wall_limit_triggers():
    data = social_graph(150, 4, community_edges=400, seed=2)
    with pytest.raises(SearchTimeout):
        CuTSMatcher(data).match(clique_graph(4), wall_limit_s=0.0)


# ------------------------------------------------- config invariance
@pytest.mark.parametrize("intersection", ["adaptive", "c", "p"])
def test_intersection_strategy_invariant(intersection):
    data = social_graph(70, 3, community_edges=100, seed=6)
    query = clique_graph(4)
    cfg = CuTSConfig(intersection=intersection)
    r = CuTSMatcher(data, cfg).match(query)
    assert r.count == networkx_count(data, query)


@pytest.mark.parametrize("ordering", ["max_degree", "id"])
def test_ordering_invariant(ordering):
    data = random_graph(30, 0.25, seed=12)
    query = cycle_graph(4)
    r = CuTSMatcher(data, CuTSConfig(ordering=ordering)).match(query)
    assert r.count == networkx_count(data, query)


@pytest.mark.parametrize("randomize", [True, False])
def test_placement_invariant(randomize):
    data = random_graph(30, 0.25, seed=12)
    r = CuTSMatcher(data, CuTSConfig(randomize_placement=randomize)).match(
        clique_graph(3)
    )
    assert r.count == networkx_count(data, clique_graph(3))


@pytest.mark.parametrize("vw", [2, 8, 32])
def test_virtual_warp_invariant(vw):
    data = random_graph(30, 0.25, seed=12)
    r = CuTSMatcher(data, CuTSConfig(virtual_warp_size=vw)).match(clique_graph(3))
    assert r.count == networkx_count(data, clique_graph(3))


def test_result_columns_in_query_vertex_order():
    """matches[:, q] must be q's image regardless of matching order."""
    data = mesh_graph(3, 3)
    query = star_graph(2)  # hub 0, leaves 1, 2 — order starts at hub
    r = CuTSMatcher(data).match(query, materialize=True)
    for row in r.matches:
        hub, l1, l2 = int(row[0]), int(row[1]), int(row[2])
        assert data.has_edge(hub, l1) and data.has_edge(hub, l2)


# ------------------------------------------------------- cost sanity
def test_cost_counters_populated():
    data = social_graph(60, 3, community_edges=60, seed=3)
    r = CuTSMatcher(data).match(clique_graph(3))
    assert r.cost.dram_read_words > 0
    assert r.cost.dram_write_words > 0
    assert r.cost.kernel_launches >= 3  # init + 2 search levels
    assert r.cost.atomic_ops > 0
    assert r.time_ms > 0


def test_stats_paths_per_depth_bfs_totals():
    data = mesh_graph(4, 4)
    r = CuTSMatcher(data).match(chain_graph(4))
    assert r.stats.paths_per_depth == [16, 48, 104, 232]


def test_candidates_degree_filter():
    data = mesh_graph(4, 4)  # degrees 2..4
    query = clique_graph(5)  # all degrees 4
    mask = degree_filter_mask(data, query, 0, np.arange(16))
    assert int(mask.sum()) == 4  # only interior vertices have degree 4


def test_root_candidates_charges_cost():
    data = mesh_graph(4, 4)
    cost = CostModel(V100)
    roots = root_candidates(data, clique_graph(5), 0, cost)
    assert len(roots) == 4
    assert cost.dram_read_words == 2 * 16

"""Parallel/serial equivalence: the multi-core engine must be an exact
drop-in for ``CuTSMatcher.match`` — counts bit-identical, materialised
embeddings equal as row sets, per-depth stats summing to the serial
totals — for any worker count, oversplit factor, and edge case."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.api import count_embeddings, subgraph_isomorphism_search
from repro.core import CuTSConfig, CuTSMatcher
from repro.core.result import MatchResult
from repro.core.stats import SearchStats
from repro.gpusim import CostModel, V100
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
from repro.parallel import ParallelMatcher, parallel_match, resolve_workers

WORKER_COUNTS = (1, 2, 4)


def _random_case(seed: int):
    """A randomized (data, query) pair; queries stay small and connected."""
    rng = np.random.default_rng(seed)
    data = random_graph(int(rng.integers(20, 45)), 0.15, seed=seed)
    query = [clique_graph(3), chain_graph(3), cycle_graph(4), star_graph(3),
             clique_graph(4)][seed % 5]
    return data, query


def _row_set(matches: np.ndarray) -> set[tuple[int, ...]]:
    return set(map(tuple, matches.tolist()))


# ---------------------------------------------------------------- property
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("seed", range(5))
def test_parallel_equals_serial_on_random_graphs(seed, workers):
    data, query = _random_case(seed)
    serial = CuTSMatcher(data).match(query, materialize=True)
    with ParallelMatcher(data, workers=workers) as matcher:
        par = matcher.match(query, materialize=True)
    assert par.count == serial.count
    assert len(par.matches) == par.count
    assert _row_set(par.matches) == _row_set(serial.matches)
    assert par.stats.paths_per_depth == serial.stats.paths_per_depth
    # Modeled makespan: max over shards never exceeds the serial run.
    assert par.time_ms <= serial.time_ms * (1 + 1e-9)


def test_oversplit_intervals_preserve_results():
    data = social_graph(120, 3, community_edges=240, num_communities=12, seed=3)
    query = clique_graph(3)
    serial = CuTSMatcher(data).match(query, materialize=True)
    for oversplit in (1, 3, 7):
        with ParallelMatcher(data, workers=2, oversplit=oversplit) as matcher:
            assert matcher.num_intervals(query) <= oversplit * 2
            par = matcher.match(query, materialize=True)
        assert par.count == serial.count
        assert _row_set(par.matches) == _row_set(serial.matches)


def test_pool_is_reused_across_queries():
    data = random_graph(40, 0.2, seed=1)
    with ParallelMatcher(data, workers=2) as matcher:
        for query in (clique_graph(3), chain_graph(4), cycle_graph(4)):
            assert (
                matcher.match(query).count
                == CuTSMatcher(data).match(query).count
            )


# -------------------------------------------------------------- edge cases
def test_empty_root_frontier():
    # No data vertex can satisfy the hub's degree-7 requirement.
    hub = star_graph(7)
    data = from_edges([(0, 1), (1, 0), (1, 2), (2, 1)])
    with ParallelMatcher(data, workers=2) as matcher:
        res = matcher.match(hub, materialize=True)
    assert res.count == 0
    assert len(res.matches) == 0


def test_query_larger_than_data():
    data = from_edges([(0, 1), (1, 0)])
    with ParallelMatcher(data, workers=2) as matcher:
        assert matcher.match(clique_graph(5)).count == 0


def test_single_step_query():
    data = mesh_graph(3, 3)
    single = from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=1)
    serial = CuTSMatcher(data).match(single, materialize=True)
    with ParallelMatcher(data, workers=2) as matcher:
        par = matcher.match(single, materialize=True)
    assert par.count == serial.count == data.num_vertices
    assert _row_set(par.matches) == _row_set(serial.matches)


def test_max_materialized_cap():
    data = social_graph(120, 3, community_edges=240, num_communities=12, seed=4)
    query = clique_graph(3)
    full = CuTSMatcher(data).match(query, materialize=True)
    cap = max(1, full.count // 3)
    cfg = CuTSConfig(max_materialized=cap)
    with ParallelMatcher(data, cfg, workers=2) as matcher:
        par = matcher.match(query, materialize=True)
    # Counting is never capped; collection is, and the collected rows are
    # all genuine embeddings (a subset of the uncapped serial set).
    assert par.count == full.count
    assert len(par.matches) == cap
    assert _row_set(par.matches) <= _row_set(full.matches)


def test_empty_query_rejected():
    data = mesh_graph(2, 2)
    empty = from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=0)
    with ParallelMatcher(data, workers=1) as matcher:
        with pytest.raises(ValueError):
            matcher.match(empty)


def test_closed_matcher_rejects_match():
    matcher = ParallelMatcher(mesh_graph(2, 2), workers=1)
    matcher.close()
    with pytest.raises(ValueError):
        matcher.match(clique_graph(2))


# ------------------------------------------------------- merge primitives
def test_match_result_merge_is_associative():
    data = social_graph(100, 3, community_edges=200, num_communities=10, seed=6)
    query = clique_graph(3)
    m = CuTSMatcher(data)
    shards = [
        m.match(query, materialize=True, part=p, num_parts=3) for p in range(3)
    ]
    left = shards[0].merge(shards[1]).merge(shards[2])
    right = shards[0].merge(shards[1].merge(shards[2]))
    serial = m.match(query, materialize=True)
    assert left.count == right.count == serial.count
    assert _row_set(left.matches) == _row_set(right.matches) == _row_set(
        serial.matches
    )
    assert left.time_ms == right.time_ms == max(s.time_ms for s in shards)
    assert left.stats.paths_per_depth == serial.stats.paths_per_depth
    assert (
        left.cost.dram_read_words
        == sum(s.cost.dram_read_words for s in shards)
    )


def test_match_result_merge_cap_is_associative():
    rows = np.arange(12, dtype=np.int64).reshape(6, 2)
    def shard(lo, hi):
        return MatchResult(
            count=hi - lo, matches=rows[lo:hi], time_ms=0.0,
            cost=CostModel(V100), stats=SearchStats(), order=(0, 1),
        )
    a, b, c = shard(0, 2), shard(2, 5), shard(5, 6)
    cap = 4
    ab_c = a.merge(b, max_materialized=cap).merge(c, max_materialized=cap)
    a_bc = a.merge(b.merge(c, max_materialized=cap), max_materialized=cap)
    assert np.array_equal(ab_c.matches, a_bc.matches)
    assert len(ab_c.matches) == cap
    assert ab_c.count == a_bc.count == 6


def test_match_result_merge_rejects_mixed_materialization():
    cost = CostModel(V100)
    with_rows = MatchResult(
        count=1, matches=np.zeros((1, 2), dtype=np.int64), time_ms=0.0,
        cost=cost, stats=SearchStats(), order=(0, 1),
    )
    count_only = MatchResult(
        count=1, matches=None, time_ms=0.0, cost=cost,
        stats=SearchStats(), order=(0, 1),
    )
    with pytest.raises(ValueError):
        with_rows.merge(count_only)
    with pytest.raises(ValueError):
        with_rows.merge(
            MatchResult(
                count=0, matches=np.zeros((0, 2), dtype=np.int64),
                time_ms=0.0, cost=cost, stats=SearchStats(), order=(1, 0),
            )
        )


def test_search_stats_merge():
    a, b = SearchStats(), SearchStats()
    a.record_depth(0, 5)
    a.record_depth(1, 3)
    a.record_chunk(1)
    a.record_trie_words(16)
    a.record_intersection("c", 2)
    b.record_depth(0, 7)
    b.record_trie_words(10)
    b.record_intersection("p", 1)
    a.merge(b)
    assert a.paths_per_depth == [12, 3]
    assert a.chunks_processed == 1
    assert a.peak_trie_words == 16
    assert a.peak_frontier == 7
    assert a.intersection_calls == {"c": 2, "p": 1}


def test_strided_match_partitions_search():
    data = social_graph(100, 3, community_edges=200, num_communities=10, seed=8)
    query = cycle_graph(4)
    m = CuTSMatcher(data)
    serial = m.match(query)
    total = sum(
        m.match(query, part=p, num_parts=4).count for p in range(4)
    )
    assert total == serial.count
    with pytest.raises(ValueError):
        m.match(query, part=4, num_parts=4)


# ------------------------------------------------------------- api surface
def test_api_workers_equivalence():
    data = social_graph(100, 3, community_edges=200, num_communities=10, seed=2)
    query = clique_graph(3)
    assert count_embeddings(data, query) == count_embeddings(
        data, query, workers=2
    )


def test_api_workers_on_disconnected_data():
    # Two triangle components, far apart: the component-composition path.
    tri = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    edges = tri + [(u + 10, v + 10) for u, v in tri]
    data = from_edges(edges, num_vertices=13)
    query = clique_graph(3)
    serial = subgraph_isomorphism_search(data, query, materialize=True)
    par = subgraph_isomorphism_search(data, query, materialize=True, workers=2)
    assert par.count == serial.count == 12
    assert _row_set(par.matches) == _row_set(serial.matches)


def test_api_workers_on_disconnected_query():
    data = mesh_graph(3, 3)
    # Two disjoint edges: the cross-product composition path.
    query = from_edges([(0, 1), (1, 0), (2, 3), (3, 2)], num_vertices=4)
    assert count_embeddings(data, query) == count_embeddings(
        data, query, workers=2
    )


def test_workers_default_to_one():
    data = random_graph(30, 0.2, seed=12)
    query = clique_graph(3)
    with ParallelMatcher(data) as matcher:
        assert (matcher.workers, matcher.oversplit) == (1, 4)
        assert matcher.count(query) == CuTSMatcher(data).count(query)
    for entry in (subgraph_isomorphism_search, count_embeddings):
        assert inspect.signature(entry).parameters["workers"].default == 1


def test_resolve_workers():
    import os

    assert resolve_workers(3) == 3
    assert resolve_workers("2") == 2
    cpus = os.cpu_count() or 1
    assert resolve_workers("auto") == cpus
    assert resolve_workers(0) == cpus
    for bad in (-1, None):
        with pytest.raises(ValueError):
            resolve_workers(bad)


def test_config_validates_workers():
    # Worker counts are keywords of the engines that read them.
    with pytest.raises(TypeError):
        CuTSConfig(workers=2)  # type: ignore[call-arg]
    with pytest.raises(ValueError):
        ParallelMatcher(mesh_graph(2, 2), workers=-1)
    with pytest.raises(ValueError):
        ParallelMatcher(mesh_graph(2, 2), oversplit=0)


def test_memory_budget_reaches_every_worker():
    data = social_graph(150, 4, community_edges=600, seed=5)
    query = star_graph(3)
    cfg = CuTSConfig(chunk_size=2048)
    expected = CuTSMatcher(data, cfg).count(query)
    with ParallelMatcher(
        data, cfg, workers=2, oversplit=1, memory_budget_mb=1
    ) as matcher:
        budgeted = matcher.match(query)
    assert budgeted.count == expected
    assert budgeted.stats.chunk_halvings > 0


def test_parallel_match_helper():
    data = random_graph(30, 0.2, seed=13)
    query = chain_graph(3)
    res = parallel_match(data, query, workers=2)
    assert res.count == CuTSMatcher(data).match(query).count


def test_cli_workers_flag(capsys):
    from repro.cli import main

    rc = main(["match", "roadNet-PA", "P3", "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wall clock" in out
    assert "2 worker processes" in out


def test_cli_workers_rejects_bad_spec():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["match", "roadNet-PA", "P3", "--workers", "nope"])
    with pytest.raises(SystemExit):
        main(["match", "roadNet-PA", "P3", "--workers", "2", "--ranks", "2"])


# ---------------------------------------------------------------------------
# match_many: one pool pass over a batch of queries.
# ---------------------------------------------------------------------------


def test_match_many_matches_per_query_results():
    data = random_graph(40, 0.15, seed=19)
    queries = [chain_graph(3), clique_graph(3), chain_graph(4)]
    serial = [CuTSMatcher(data).match(q).count for q in queries]
    with ParallelMatcher(data, workers=2) as pm:
        batched = pm.match_many(queries)
    assert [r.count for r in batched] == serial


def test_match_many_preserves_input_order_with_duplicates():
    data = random_graph(40, 0.15, seed=19)
    queries = [chain_graph(4), chain_graph(3), chain_graph(4)]
    with ParallelMatcher(data, workers=2) as pm:
        results = pm.match_many(queries)
    assert results[0].count == results[2].count
    assert results[0].count != results[1].count


def test_match_many_empty_batch():
    data = random_graph(20, 0.2, seed=3)
    with ParallelMatcher(data, workers=2) as pm:
        assert pm.match_many([]) == []


def test_match_many_materialize_matches_serial():
    import numpy as np

    data = random_graph(25, 0.2, seed=5)
    queries = [chain_graph(3), clique_graph(3)]
    with ParallelMatcher(data, workers=2) as pm:
        batched = pm.match_many(queries, materialize=True)
    for q, res in zip(queries, batched):
        serial = CuTSMatcher(data).match(q, materialize=True)
        assert res.count == serial.count
        got = np.asarray(sorted(map(tuple, res.matches.tolist())))
        want = np.asarray(sorted(map(tuple, serial.matches.tolist())))
        assert np.array_equal(got, want)


def test_match_many_per_query_time_limits():
    data = random_graph(30, 0.2, seed=7)
    queries = [chain_graph(3), chain_graph(4)]
    with ParallelMatcher(data, workers=2) as pm:
        results = pm.match_many(queries, time_limit_ms=[None, 1e9])
    serial = [CuTSMatcher(data).match(q).count for q in queries]
    assert [r.count for r in results] == serial
    with ParallelMatcher(data, workers=2) as pm:
        with pytest.raises(ValueError, match="time_limit_ms"):
            pm.match_many(queries, time_limit_ms=[None])


def test_match_many_stats_are_per_query():
    data = random_graph(40, 0.15, seed=29)
    queries = [chain_graph(3), chain_graph(4)]
    with ParallelMatcher(data, workers=2) as pm:
        results = pm.match_many(queries)
    a = CuTSMatcher(data).match(queries[0])
    assert results[0].stats.paths_per_depth == a.stats.paths_per_depth

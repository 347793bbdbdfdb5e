"""Equivalence oracle and workspace tests for the columnar engine.

The columnar frontier engine (``repro.core.columnar``) must be
**bit-exact** against the seed reference expansion path: identical
embedding counts, identical materialised rows, identical modeled
``time_ms``, identical hardware counters, identical ``SearchStats``.
The randomized oracle below sweeps ~50 seeded (graph, query, config)
triples across labels, directed/backward constraints, disconnected
query steps, materialisation caps, and governor chunking; the workspace
tests pin the arena-reuse contract (steady-state expansion allocates
nothing new).
"""

import time

import numpy as np
import pytest

from repro.core import CuTSConfig, CuTSMatcher, columnar
from repro.experiments.datasets import load_dataset
from repro.gpusim import V100, scaled_device
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

COST_FIELDS = (
    "cycles",
    "dram_read_words",
    "dram_write_words",
    "shared_read_words",
    "shared_write_words",
    "atomic_ops",
    "instructions",
    "kernel_launches",
    "idle_lane_cycles",
)


def both_engines(data, query, materialize=True, **cfg_kwargs):
    out = {}
    for engine in ("reference", "columnar"):
        cfg = CuTSConfig(engine=engine, **cfg_kwargs)
        out[engine] = CuTSMatcher(data, cfg).match(
            query, materialize=materialize
        )
    return out["reference"], out["columnar"]


def assert_bit_exact(ref, col):
    assert col.count == ref.count
    if ref.matches is None:
        assert col.matches is None
    else:
        assert col.matches is not None
        assert np.array_equal(col.matches, ref.matches)
    assert col.time_ms == ref.time_ms
    for field in COST_FIELDS:
        assert getattr(col.cost, field) == getattr(ref.cost, field), field
    assert col.stats.to_json() == ref.stats.to_json()
    assert col.order == ref.order


def labeled(graph, seed, num_labels):
    rng = np.random.default_rng(seed)
    return graph.with_labels(
        rng.integers(0, num_labels, graph.num_vertices)
    )


def random_directed(num_vertices, num_edges, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_vertices, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return from_edges(edges, num_vertices, name=f"rd{num_vertices}")


# A query whose third step has no constraint to the earlier steps (two
# weak components → a Cartesian-product expansion mid-search).
DISCONNECTED = from_edges(
    [(0, 1), (1, 0), (2, 3), (3, 2)], 4, name="disc2x2"
)
# Directed triangle + tail: forces backward (in-edge) constraints.
DIRECTED_TRI = from_edges(
    [(0, 1), (1, 2), (2, 0), (2, 3)], 4, name="dtri"
)


def _oracle_case(seed):
    """One seeded (data, query, config) triple; deterministic in seed."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    if kind == 0:  # undirected random data, simple query
        data = random_graph(20 + 4 * (seed % 7), 0.18, seed=seed)
        query = [chain_graph(4), cycle_graph(4), clique_graph(3),
                 star_graph(4)][seed % 4]
    elif kind == 1:  # labeled data + labeled query
        n_labels = 2 + seed % 3
        data = labeled(
            random_graph(30, 0.22, seed=seed), seed + 1, n_labels
        )
        query = labeled(
            [cycle_graph(4), chain_graph(4), clique_graph(3)][seed % 3],
            seed + 2, n_labels,
        )
    elif kind == 2:  # directed data x directed query (bwd constraints)
        data = random_directed(24, 160 + 8 * (seed % 5), seed)
        query = DIRECTED_TRI if seed % 2 else from_edges(
            [(0, 1), (1, 2), (2, 3)], 4, name="dchain4"
        )
    elif kind == 3:  # disconnected query steps
        data = [mesh_graph(5, 5), social_graph(40, 3, seed=seed)][seed % 2]
        query = DISCONNECTED
    else:  # mesh / social data, deeper query
        data = [mesh_graph(6, 6), social_graph(50, 4, seed=seed)][seed % 2]
        query = [chain_graph(5), cycle_graph(5)][seed % 2]

    cfg = {}
    intersection = ["adaptive", "c", "p", "adaptive"][seed % 4]
    if intersection != "adaptive":
        cfg["intersection"] = intersection
    if seed % 3 == 0:
        cfg["ordering"] = "id"
    if seed % 7 == 0:
        cfg["randomize_placement"] = False
    if seed % 5 == 0:
        # Tiny device + host budget: exercises governor chunking.
        cfg["device"] = scaled_device(V100, 1 << 14)
        cfg["memory_budget_mb"] = 1
        cfg["chunk_size"] = 32
    materialize = seed % 4 != 1
    if materialize and seed % 6 == 0:
        cfg["max_materialized"] = int(rng.integers(1, 50))
    return data, query, materialize, cfg


@pytest.fixture
def without_bitset(monkeypatch):
    """Route every columnar edge probe through the sorted edge-key index
    (``CSRGraph.has_edges``) instead of the packed bitset."""
    monkeypatch.setattr(columnar, "BITSET_MAX_VERTICES", 0)


@pytest.mark.parametrize("seed", range(50))
def test_randomized_equivalence_oracle(seed):
    data, query, materialize, cfg = _oracle_case(seed)
    ref, col = both_engines(data, query, materialize=materialize, **cfg)
    assert_bit_exact(ref, col)


@pytest.mark.parametrize("seed", range(50))
def test_randomized_equivalence_oracle_without_bitset(seed, without_bitset):
    data, query, materialize, cfg = _oracle_case(seed)
    ref, col = both_engines(data, query, materialize=materialize, **cfg)
    assert_bit_exact(ref, col)


def _governor_case():
    data = social_graph(80, 3, community_edges=120, seed=9)
    ref, col = both_engines(
        data, cycle_graph(4),
        device=scaled_device(V100, 1 << 13), chunk_size=32,
    )
    assert_bit_exact(ref, col)
    assert col.stats.chunks_processed > 1


def test_equivalence_under_governor_chunking():
    """Chunk peeling + budget retry through the columnar path must not
    change counts, rows, or a single modeled counter."""
    _governor_case()


def test_equivalence_under_governor_chunking_without_bitset(without_bitset):
    _governor_case()


def test_equivalence_above_bitset_cap():
    """A graph past the bitset cap probes the edge-key index unpatched."""
    data = load_dataset("roadNet-CA", 1.0)
    assert data.num_vertices > columnar.BITSET_MAX_VERTICES
    ref, col = both_engines(data, cycle_graph(4))
    assert col.count == 31_704
    assert_bit_exact(ref, col)


def test_equivalence_directed_above_bitset_cap():
    """A directed graph past the cap, where a probe with its endpoints
    swapped would change the count."""
    data = random_directed(columnar.BITSET_MAX_VERTICES + 1, 60_000, 11)
    ref, col = both_engines(data, DIRECTED_TRI)
    assert col.count == 43_881
    assert_bit_exact(ref, col)


def test_equivalence_count_only_leaf():
    """count_only leaf fast path (non-materialised runs) is charged and
    recorded exactly like the reference append-then-drop flow."""
    ref, col = both_engines(mesh_graph(8, 8), chain_graph(5),
                            materialize=False)
    assert_bit_exact(ref, col)


# ---------------------------------------------------------------- arena
def test_workspace_reused_across_matches():
    """Two consecutive match calls share arena buffers: the second run
    grows nothing, and results are independent of the reuse."""
    matcher = CuTSMatcher(mesh_graph(7, 7))
    first = matcher.match(chain_graph(5), materialize=True)
    grow_after_first = matcher.engine.arena.grow_events
    capacity = matcher.engine.arena.capacity_bytes
    second = matcher.match(chain_graph(5), materialize=True)
    assert matcher.engine.arena.grow_events == grow_after_first
    assert matcher.engine.arena.capacity_bytes == capacity
    assert second.count == first.count
    assert np.array_equal(second.matches, first.matches)
    assert second.time_ms == first.time_ms


def test_workspace_independent_across_queries():
    """Interleaving different queries through one arena cannot leak
    state between runs."""
    matcher = CuTSMatcher(social_graph(60, 3, seed=5))
    queries = [chain_graph(4), cycle_graph(4), clique_graph(3)]
    baseline = [matcher.match(q, materialize=True) for q in queries]
    again = [matcher.match(q, materialize=True) for q in queries]
    for a, b in zip(baseline, again):
        assert a.count == b.count
        assert np.array_equal(a.matches, b.matches)


def test_arena_views_alias_backing_buffer():
    """take() returns views of one backing allocation; growth is
    geometric and re-take of a satisfied size does not grow."""
    from repro.core.columnar import ExpansionArena

    arena = ExpansionArena()
    a = arena.take("x", 100)
    assert arena.grow_events == 1
    b = arena.take("x", 50)
    assert arena.grow_events == 1
    assert np.shares_memory(a, b)
    arena.take("x", 5000)
    assert arena.grow_events == 2
    assert arena.capacity_bytes >= 5000 * 8


_STAGES = {
    "anchor_gather", "filter", "intersection", "injectivity",
    "bookkeeping", "write_out", "carry", "unaccounted",
}


def test_profile_expansion_stage_timers():
    """profile_expansion populates the eight per-stage wall counters in
    SearchStats without touching any modeled quantity."""
    data = mesh_graph(6, 6)
    plain = CuTSMatcher(data).match(chain_graph(5))
    cfg = CuTSConfig(profile_expansion=True)
    profiled = CuTSMatcher(data, cfg).match(chain_graph(5))
    assert set(profiled.stats.stage_wall_s) == _STAGES
    assert all(v >= 0.0 for v in profiled.stats.stage_wall_s.values())
    assert plain.stats.stage_wall_s == {}
    assert profiled.count == plain.count
    assert profiled.time_ms == plain.time_ms
    assert profiled.cost.cycles == plain.cost.cycles


def test_stage_timers_sum_to_the_stepped_wall():
    """On a bounded run the labels cover every step: their sum is the
    wall the executor's steps took, measured from outside."""
    from repro.core.executor import FrontierExecutor, FrontierItem

    matcher = CuTSMatcher(
        mesh_graph(10, 10), CuTSConfig(profile_expansion=True, chunk_size=32)
    )
    state = matcher.make_run_state(chain_graph(6))
    executor = FrontierExecutor(
        matcher, state, lambda *_: None, peel_chunk=32
    )
    trie = matcher.initial_frontier(state)
    executor.stack.append(
        FrontierItem(trie, 1, np.arange(trie.num_paths(0), dtype=np.int64))
    )
    stepped = 0.0
    while executor.stack:
        t0 = time.perf_counter()
        executor.step()
        stepped += time.perf_counter() - t0
    stages = state.stats.stage_wall_s
    assert set(stages) == _STAGES
    assert stages["carry"] > 0.0
    labeled = sum(stages.values())
    assert labeled <= stepped
    assert labeled >= 0.8 * stepped

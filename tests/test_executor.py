"""The frontier executor: every execution path is one driver.

``match()``, the stream, the durable runner and the distributed rank
worker all run :class:`repro.core.executor.FrontierExecutor`; these
tests pin that they agree with the DFS oracle and with each other, and
that carried state survives items that enter the stack out of
last-in-first-out order.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.dfs import dfs_count
from repro.core import CuTSConfig, CuTSMatcher, iter_matches
from repro.distributed import DistributedCuTS, RankWorker
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    from_undirected_edges,
    mesh_graph,
    random_graph,
    social_graph,
    star_graph,
)
from repro.storage import serialize_trie

_DIAMOND = from_undirected_edges([(0, 1), (1, 2), (2, 0), (1, 3), (2, 3)])


def _case(seed):
    """A seeded (data graph, query) pair; the data graphs span lattice,
    uniform-random and community-skewed degree shapes."""
    rng = np.random.default_rng(seed)
    data = [
        lambda: social_graph(60, 3, community_edges=90, seed=seed),
        lambda: mesh_graph(6, 6),
        lambda: random_graph(30, 0.25, seed=seed),
        lambda: social_graph(45, 4, community_edges=40, seed=seed),
    ][seed % 4]()
    query = [cycle_graph(4), chain_graph(5), clique_graph(3), star_graph(3),
             _DIAMOND][int(rng.integers(5))]
    return data, query


_ORACLE: dict[int, int] = {}


def _oracle(seed, data, query):
    if seed not in _ORACLE:
        _ORACLE[seed] = dfs_count(data, query)
    return _ORACLE[seed]


def _rows(matrix):
    return set(map(tuple, np.asarray(matrix).tolist()))


@pytest.mark.parametrize("chunk_size", [512, 16])
@pytest.mark.parametrize("engine", ["columnar", "reference"])
@pytest.mark.parametrize("seed", range(5))
def test_every_path_agrees_with_the_oracle(seed, engine, chunk_size, tmp_path):
    data, query = _case(seed)
    expected = _oracle(seed, data, query)
    config = CuTSConfig(engine=engine, chunk_size=chunk_size)

    plain = CuTSMatcher(data, config).match(query, materialize=True)
    assert plain.count == expected
    batches = list(iter_matches(CuTSMatcher(data, config), query))
    streamed = np.concatenate(batches) if batches else np.zeros((0, 1))
    assert len(streamed) == expected
    assert _rows(streamed) == _rows(plain.matches)

    durable = CuTSMatcher(data, config).match(
        query, checkpoint_dir=str(tmp_path / "ckpt")
    )
    assert durable.count == expected
    one = DistributedCuTS(data, 1, config).match(query)
    two = DistributedCuTS(data, 2, config).match(query)
    assert one.count == two.count == expected
    # Durable and one-rank runs drive the same bounded peels in the
    # same order, so their modeled clocks agree to the last bit.
    assert durable.time_ms == one.runtime_ms


def test_durable_run_reports_its_chunk_peels(tmp_path):
    data, query = social_graph(80, 3, community_edges=120, seed=9), cycle_graph(4)
    result = CuTSMatcher(data, CuTSConfig(chunk_size=16)).match(
        query, checkpoint_dir=str(tmp_path / "ckpt")
    )
    assert result.count == dfs_count(data, query)
    assert result.stats.chunks_processed > 0


def test_memory_budget_halves_distributed_chunks():
    data = social_graph(150, 4, community_edges=600, seed=5)
    query = star_graph(3)
    free = CuTSConfig(chunk_size=2048)
    # The unconstrained peak of one rank's live trie exceeds 1 MiB...
    worker = RankWorker(rank=0, data=data, query=query, config=free)
    worker.init_partition(2)
    while worker.has_work():
        worker.process_one_chunk()
    assert worker.state.governor.peak_tracked_bytes > 1 << 20
    # ...so a 1 MiB budget must halve chunks, and never change the count.
    expected = CuTSMatcher(data, free).count(query)
    unbudgeted = DistributedCuTS(data, 2, free).match(query)
    assert unbudgeted.count == expected
    assert unbudgeted.chunk_halvings == 0
    budgeted = DistributedCuTS(
        data, 2, CuTSConfig(chunk_size=2048, memory_budget_mb=1)
    ).match(query)
    assert budgeted.count == expected
    assert budgeted.chunk_halvings > 0


def test_shipped_item_does_not_alias_a_held_remainder():
    """Fanout tables are step-keyed arena views, valid only in strict
    last-in-first-out order.  A worker holding a peeled remainder at
    step 2 that receives a shipped step-2 item rebuilds the table for
    that item; the remainder must not read the overwritten views."""
    data, query = social_graph(80, 3, community_edges=120, seed=9), cycle_graph(4)
    config = CuTSConfig(chunk_size=8)
    workers = [
        RankWorker(rank=r, data=data, query=query, config=config)
        for r in range(2)
    ]
    for w in workers:
        w.init_partition(2)
        while not any(it.step == 2 and it.piece for it in w.stack):
            w.process_one_chunk()
    w0, w1 = workers
    held = next(it for it in w0.stack if it.step == 2 and it.piece)
    assert held.fanouts is not None
    shipped = next(it for it in w1.stack if it.step == 2)
    w1.stack.remove(shipped)
    w0.receive_work([
        serialize_trie(
            shipped.trie.extract_subtrie(shipped.trie.depth - 1,
                                         shipped.frontier)
        )
    ])
    for w in workers:
        while w.has_work():
            w.process_one_chunk()
    assert w0.count + w1.count == dfs_count(data, query)


# ---------------------------------------------------------------- pinned
# The modeled trace of every path, pinned to literals: counts, modeled
# clocks, every CostModel counter and the search statistics of every run
# state a path creates (in creation order), plus digests of the rows in
# the order each path emits them.  The host mechanism may change freely;
# none of these numbers may.

_COST_FIELDS = (
    "dram_read_words", "dram_write_words", "dram_read_transactions",
    "dram_write_transactions", "shared_read_words", "shared_write_words",
    "atomic_ops", "instructions", "idle_lane_cycles", "kernel_launches",
    "cycles",
)


def _pin_digraph():
    edges = np.random.default_rng(17).integers(0, 40, size=(200, 2))
    return from_edges(edges, num_vertices=40)


_PIN_CASES = {
    "mesh": (lambda: mesh_graph(12, 12), lambda: chain_graph(6), 64),
    "digraph": (
        _pin_digraph,
        lambda: from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
        16,
    ),
    "social": (
        lambda: social_graph(70, 3, community_edges=100, seed=4),
        lambda: cycle_graph(4),
        16,
    ),
}


def _digest(matrix):
    rows = np.ascontiguousarray(matrix, dtype=np.int64)
    return hashlib.sha256(rows.tobytes()).hexdigest()[:16]


def _state_trace(state):
    cost, stats = state.cost, state.stats
    return (
        tuple(getattr(cost, f) for f in _COST_FIELDS),
        tuple(stats.paths_per_depth),
        stats.chunks_processed,
        stats.peak_frontier,
    )


def _pinned_traces(case, ckpt_dir, monkeypatch):
    """``{path: (headline, *run state traces)}`` for one pinned case."""
    make_data, make_query, chunk_size = _PIN_CASES[case]
    data, query = make_data(), make_query()
    config = CuTSConfig(chunk_size=chunk_size)
    states = []
    make_run_state = CuTSMatcher.make_run_state

    def recording(self, *args, **kwargs):
        states.append(make_run_state(self, *args, **kwargs))
        return states[-1]

    monkeypatch.setattr(CuTSMatcher, "make_run_state", recording)

    def plain():
        r = CuTSMatcher(data, config).match(query)
        return r.count, r.time_ms

    def materialized():
        r = CuTSMatcher(data, config).match(query, materialize=True)
        return r.count, r.time_ms, _digest(r.matches)

    def stream():
        batches = list(iter_matches(CuTSMatcher(data, config), query))
        rows = np.concatenate(batches)
        return len(rows), _digest(rows)

    def durable():
        r = CuTSMatcher(data, config).match(query, checkpoint_dir=ckpt_dir)
        return r.count, r.time_ms

    def distributed(ranks):
        r = DistributedCuTS(data, ranks, config).match(query)
        return (r.count, r.runtime_ms, r.per_rank_clock_ms,
                r.chunks_processed, r.work_transfers, r.words_transferred)

    paths = {
        "plain": plain,
        "materialized": materialized,
        "stream": stream,
        "durable": durable,
        "distributed1": lambda: distributed(1),
        "distributed2": lambda: distributed(2),
    }
    out = {}
    for name, run in paths.items():
        states.clear()
        head = run()
        out[name] = (head, *[_state_trace(s) for s in states])
    return out


# Captured from the commit before the carried ancestor table landed.
_PINNED: dict = {
    "digraph": {
        "plain": (
            (514, 0.005817445652173914),
            ((2706, 1662, 525, 54, 902, 1724, 813, 6754, 1020, 4, 8028.075000000001),
             (38, 186, 112, 514), 0, 514),
        ),
        "materialized": (
            (514, 0.005817445652173914, "68d356b6b06a088f"),
            ((2706, 1662, 525, 54, 902, 1724, 813, 6754, 1020, 4, 8028.075000000001),
             (38, 186, 112, 514), 0, 514),
        ),
        "stream": (
            (514, "68d356b6b06a088f"),
            ((2706, 1662, 525, 66, 988, 1638, 813, 6668, 1122, 29, 58104.0),
             (38, 186, 112, 514), 16, 97),
        ),
        "durable": (
            (514, 0.042104347826086956),
            ((2706, 1662, 525, 66, 988, 1638, 813, 6668, 1122, 29, 58104.0),
             (38, 186, 112, 514), 16, 97),
        ),
        "distributed1": (
            (514, 0.042104347826086956, (0.042104347826086956,), (28,), 0, 0),
            ((2706, 1662, 525, 66, 988, 1638, 813, 6668, 1122, 29, 58104.0),
             (38, 186, 112, 514), 16, 97),
        ),
        "distributed2": (
            (514, 0.024681159420289856, (0.02177608695652174, 0.024681159420289856),
             (14, 16), 0, 2),
            ((1217, 672, 243, 28, 446, 691, 318, 2800, 565, 15, 30051.0),
             (19, 87, 47, 183), 7, 76),
            ((1569, 1028, 285, 39, 548, 941, 496, 3942, 563, 17, 34060.0),
             (19, 99, 65, 331), 8, 85),
        ),
    },
    "mesh": {
        "plain": (
            (27312, 0.009661884057971012),
            ((125840, 87504, 33033, 2736, 62776, 62776, 43684, 468120, 3272, 6,
              13333.399999999998),
             (144, 528, 1448, 4040, 10352, 27312), 0, 27312),
        ),
        "materialized": (
            (27312, 0.009661884057971012, "3c297ba97965c959"),
            ((125840, 87504, 33033, 2736, 62776, 62776, 43684, 468120, 3272, 6,
              13333.399999999998),
             (144, 528, 1448, 4040, 10352, 27312), 0, 27312),
        ),
        "stream": (
            (27312, "3c297ba97965c959"),
            ((125840, 87504, 33033, 2890, 62776, 62776, 43684, 468120, 3272, 300,
              601438.7249999999),
             (144, 528, 1448, 4040, 10352, 27312), 291, 246),
        ),
        "durable": (
            (27312, 0.4358251630434782),
            ((125840, 87504, 33033, 2890, 62776, 62776, 43684, 468120, 3272, 300,
              601438.7249999999),
             (144, 528, 1448, 4040, 10352, 27312), 291, 246),
        ),
        "distributed1": (
            (27312, 0.4358251630434782, (0.4358251630434782,), (299,), 0, 0),
            ((125840, 87504, 33033, 2890, 62776, 62776, 43684, 468120, 3272, 300,
              601438.7249999999),
             (144, 528, 1448, 4040, 10352, 27312), 291, 246),
        ),
        "distributed2": (
            (27312, 0.22081434782608694, (0.22081346014492753, 0.22081434782608694),
             (151, 151), 0, 2),
            ((63064, 43824, 16521, 1443, 31388, 31388, 21844, 234204, 1636, 152,
              304722.575),
             (72, 264, 724, 2020, 5176, 13656), 146, 239),
            ((63064, 43824, 16521, 1445, 31388, 31388, 21844, 234204, 1636, 152,
              304723.8),
             (72, 264, 724, 2020, 5176, 13656), 146, 240),
        ),
    },
    "social": {
        "plain": (
            (4096, 0.006547925724637682),
            ((148624, 17022, 8905, 533, 108950, 39534, 8478, 221454, 15194, 4,
              9036.1375),
             (70, 446, 3934, 4096), 0, 4096),
        ),
        "materialized": (
            (4096, 0.006547925724637682, "fc2eeeee13d2cf7c"),
            ((148624, 17022, 8905, 533, 108950, 39534, 8478, 221454, 15194, 4,
              9036.1375),
             (70, 446, 3934, 4096), 0, 4096),
        ),
        "stream": (
            (4096, "fc2eeeee13d2cf7c"),
            ((148624, 17022, 10029, 680, 119166, 29318, 8478, 211238, 14890, 297,
              596891.3125),
             (70, 446, 3934, 4096), 295, 184),
        ),
        "durable": (
            (4096, 0.4325299365942029),
            ((148624, 17022, 10029, 680, 119166, 29318, 8478, 211238, 14890, 297,
              596891.3125),
             (70, 446, 3934, 4096), 295, 184),
        ),
        "distributed1": (
            (4096, 0.4325299365942029, (0.4325299365942029,), (296,), 0, 0),
            ((148624, 17022, 10029, 680, 119166, 29318, 8478, 211238, 14890, 297,
              596891.3125),
             (70, 446, 3934, 4096), 295, 184),
        ),
        "distributed2": (
            (4096, 0.2584948645687237, (0.2584948645687237, 0.25847873553646566),
             (149, 149), 2, 62),
            ((82972, 9386, 5285, 362, 67452, 15380, 4660, 116318, 7196, 150,
              301493.09375),
             (35, 237, 1966, 2455), 149, 198),
            ((65792, 7706, 4701, 319, 51851, 13801, 3820, 94923, 7871, 150,
              301341.09375),
             (35, 209, 1968, 1641), 145, 198),
        ),
    },
}


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_modeled_trace_is_pinned(case, tmp_path, monkeypatch):
    traces = _pinned_traces(case, str(tmp_path / "ckpt"), monkeypatch)
    for path, expected in _PINNED[case].items():
        assert traces[path] == expected, path

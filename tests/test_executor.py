"""The frontier executor: every execution path is one driver.

``match()``, the stream, the durable runner and the distributed rank
worker all run :class:`repro.core.executor.FrontierExecutor`; these
tests pin that they agree with the DFS oracle and with each other, and
that carried state survives items that enter the stack out of
last-in-first-out order.
"""

import numpy as np
import pytest

from repro.baselines.dfs import dfs_count
from repro.core import CuTSConfig, CuTSMatcher, iter_matches
from repro.distributed import DistributedCuTS, RankWorker
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
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

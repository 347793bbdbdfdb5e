"""One expansion workspace per service rank.

A rank's :class:`~repro.service.registry.GraphRegistry` owns one
:class:`~repro.core.columnar.ExpansionArena` and every serial engine
its handles build runs on it, so a rank's engine memory follows its
largest frontier rather than the number of graph versions it served.
These tests pin who shares an arena, that every take on a rank's arena
runs on that rank's dispatcher thread, that counts do not move, and
that the fanout epochs live on the arena: a view one engine holds is
rebuilt after another engine on the same arena re-took its buffers.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import CuTSConfig, CuTSMatcher
from repro.core.columnar import ExpansionArena
from repro.core.executor import FrontierExecutor, FrontierItem
from repro.graph import chain_graph, cycle_graph, mesh_graph, social_graph
from repro.service.cluster import ClusterService


def test_each_rank_shares_one_arena_on_its_dispatcher_thread(monkeypatch):
    graphs = {
        "mesh": mesh_graph(6, 6),
        "social": social_graph(60, 3, community_edges=90, seed=5),
    }
    c4, p4 = cycle_graph(4), chain_graph(4)
    takes: set[tuple[ExpansionArena, threading.Thread]] = set()
    real_take = ExpansionArena.take

    def recording_take(self, *args, **kwargs):
        takes.add((self, threading.current_thread()))
        return real_take(self, *args, **kwargs)

    monkeypatch.setattr(ExpansionArena, "take", recording_take)
    with ClusterService(ranks=2, replication=2) as router:
        got = {}
        for name, graph in graphs.items():
            router.register_graph(graph, name)
            got[name] = router.match(name, c4, timeout=60).count
        root = router.resolve_key("mesh")
        summary = router.mutate_graph("mesh", inserts=[[0, 7]], directed=False)
        assert summary["changed"] and summary["promoted"] == 0
        got["head"] = router.match("mesh", c4, timeout=60).count
        got["as_of"] = router.match("mesh", p4, as_of=root, timeout=60).count
        compared = router.compare("mesh", p4, timeout=60)
        ranks = [rank.service for rank in router.ranks.values()]
        probes = sum(
            s.metrics()["dispatcher"]["incremental_matches"] for s in ranks
        )
        owners = {s.registry.arena: s._thread for s in ranks}
        for service in ranks:
            handles = service.registry.handles()
            assert len(handles) == 3  # both graphs and the mesh's commit
            for handle in handles:
                arena = handle.fallback_matcher().engine.arena
                assert arena is service.registry.arena
        assert ranks[0].registry.arena is not ranks[1].registry.arena
        assert router.registry.arena not in {a for a, _ in takes}
        head = router.registry.resolve("mesh").graph
    monkeypatch.undo()

    assert probes >= 1, "the commit's incremental probe never ran"
    assert takes and {arena for arena, _ in takes} <= set(owners)
    for arena, thread in takes:
        assert thread is owners[arena]
    fresh = {
        "mesh": CuTSMatcher(graphs["mesh"]).match(c4).count,
        "social": CuTSMatcher(graphs["social"]).match(c4).count,
        "head": CuTSMatcher(head).match(c4).count,
        "as_of": CuTSMatcher(graphs["mesh"]).match(p4).count,
    }
    assert got == fresh
    assert compared["base_count"] == fresh["as_of"]
    assert compared["head_count"] == CuTSMatcher(head).match(p4).count


def test_a_standalone_matcher_keeps_a_private_arena():
    data = mesh_graph(4, 4)
    one, two = CuTSMatcher(data), CuTSMatcher(data)
    assert one.engine.arena is not two.engine.arena
    shared = ExpansionArena()
    assert CuTSMatcher(data, arena=shared).engine.arena is shared


def test_a_held_fanout_view_is_rebuilt_after_another_engine_retakes_it():
    """Engine A holds a peeled step-2 remainder whose fanouts view the
    arena's step-2 buffers; engine B, on another graph and the same
    arena, then runs and overwrites them in place.  The epoch on the
    arena moves, so A rebuilds the view instead of reading B's."""
    shared = ExpansionArena()
    config = CuTSConfig(chunk_size=8)
    data = social_graph(80, 3, community_edges=120, seed=9)
    query = cycle_graph(4)
    a = CuTSMatcher(data, config, arena=shared)
    b = CuTSMatcher(mesh_graph(6, 6), config, arena=shared)
    state = a.make_run_state(query)
    found: list[int] = []
    executor = FrontierExecutor(
        a, state, lambda _item, n, _rows: found.append(n),
        peel_chunk=config.chunk_size,
    )
    trie = a.initial_frontier(state)
    executor.stack.append(
        FrontierItem(trie, 1, np.arange(trie.num_paths(0), dtype=np.int64))
    )

    def held() -> list[FrontierItem]:
        return [
            it for it in executor.stack
            if it.step == 2 and it.piece and it.fanouts is not None
        ]

    while not held():
        executor.step()
    epoch = shared.fan_epochs[2]
    assert all(it.fan_epoch == epoch for it in held())
    b.match(query)
    assert shared.fan_epochs[2] > epoch
    while executor.stack:
        executor.step()
    assert sum(found) == CuTSMatcher(data, config).match(query).count

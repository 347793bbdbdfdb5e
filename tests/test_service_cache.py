"""Cache correctness for the service layer (satellite of PR 5).

Covers the LRU byte cache in isolation (counters, eviction order, the
disabled/oversized cases, thread hammer) and the *keying discipline*
that makes staleness structural: count-relevant config changes must
change the key, count-irrelevant ones must not, and graph
re-registration must invalidate.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import CuTSConfig
from repro.fingerprint import config_fingerprint
from repro.graph import chain_graph, from_edges, mesh_graph
from repro.service import LRUBytesCache, MatchingService, ServiceConfig


def key(i: int, graph: str = "g") -> tuple[str, str, str]:
    return (graph, f"q{i}", "cfg")


# ---------------------------------------------------------------------------
# LRUBytesCache unit behaviour.
# ---------------------------------------------------------------------------


def test_hit_miss_and_counters():
    cache = LRUBytesCache(1024)
    assert cache.get(key(1)) is None
    assert cache.put(key(1), {"v": 1}, 10)
    assert cache.get(key(1)) == {"v": 1}
    snap = cache.snapshot()
    assert snap["hits"] == 1
    assert snap["misses"] == 1
    assert snap["puts"] == 1
    assert snap["bytes"] == 10
    assert len(cache) == 1


def test_eviction_is_least_recently_used():
    cache = LRUBytesCache(30)
    for i in range(3):
        cache.put(key(i), i, 10)
    cache.get(key(0))  # refresh 0: now 1 is the LRU entry
    cache.put(key(3), 3, 10)  # over budget -> evict exactly one
    assert cache.get(key(1)) is None
    assert cache.get(key(0)) == 0
    assert cache.get(key(3)) == 3
    assert cache.snapshot()["evictions"] == 1
    assert cache.current_bytes == 30


def test_large_entry_evicts_until_it_fits():
    cache = LRUBytesCache(100)
    for i in range(5):
        cache.put(key(i), i, 20)
    assert cache.put(key(9), "big", 90)
    assert cache.current_bytes <= 100
    assert cache.get(key(9)) == "big"
    # The oldest entries went first.
    assert cache.get(key(0)) is None


def test_oversized_and_disabled_puts_are_refused():
    cache = LRUBytesCache(50)
    assert not cache.put(key(1), "x", 51)
    assert len(cache) == 0
    disabled = LRUBytesCache(0)
    assert not disabled.put(key(1), "x", 1)
    assert disabled.get(key(1)) is None


def test_replacing_a_key_recharges_bytes():
    cache = LRUBytesCache(100)
    cache.put(key(1), "a", 40)
    cache.put(key(1), "b", 10)
    assert cache.current_bytes == 10
    assert cache.get(key(1)) == "b"


def test_invalidate_graph_only_hits_that_graph():
    cache = LRUBytesCache(1024)
    cache.put(key(1, "g1"), 1, 10)
    cache.put(key(2, "g1"), 2, 10)
    cache.put(key(1, "g2"), 3, 10)
    assert cache.invalidate_graph("g1") == 2
    assert cache.get(key(1, "g1")) is None
    assert cache.get(key(1, "g2")) == 3
    assert cache.snapshot()["invalidations"] == 2
    assert cache.current_bytes == 10


def test_on_bytes_callback_tracks_live_total():
    seen: list[int] = []
    cache = LRUBytesCache(30, on_bytes=seen.append)
    cache.put(key(1), 1, 10)
    cache.put(key(2), 2, 10)
    cache.invalidate_graph("g")
    assert seen == [10, 20, 0]


def test_negative_budgets_and_sizes_are_rejected():
    with pytest.raises(ValueError):
        LRUBytesCache(-1)
    cache = LRUBytesCache(10)
    with pytest.raises(ValueError):
        cache.put(key(1), 1, -5)


# ---------------------------------------------------------------------------
# Concurrency: hammer the cache from many threads; counters must balance
# and the budget must hold at every observable point.
# ---------------------------------------------------------------------------


def test_concurrent_hammer_keeps_invariants():
    cache = LRUBytesCache(400)
    errors: list[str] = []
    barrier = threading.Barrier(8)

    def worker(worker_id: int) -> None:
        barrier.wait()
        for i in range(300):
            k = key((worker_id * 7 + i) % 25)
            if i % 3 == 0:
                cache.put(k, (worker_id, i), 16)
            elif i % 7 == 0:
                cache.invalidate_graph("g")
            else:
                cache.get(k)
            if cache.current_bytes > cache.max_bytes:
                errors.append(f"budget exceeded: {cache.current_bytes}")

    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    snap = cache.snapshot()
    assert snap["hits"] + snap["misses"] > 0
    assert snap["bytes"] == cache.current_bytes <= 400
    assert snap["entries"] == len(cache)
    # Conservation: everything ever admitted was either evicted,
    # invalidated, replaced, or is still resident.
    assert snap["puts"] >= snap["evictions"]


# ---------------------------------------------------------------------------
# Keying discipline through the full service.
# ---------------------------------------------------------------------------


def test_count_relevant_config_change_is_a_miss():
    g = mesh_graph(4, 4)
    q = chain_graph(3)
    with MatchingService(CuTSConfig()) as a:
        base = a.match(a.register_graph(g), q).count
        assert a.result_cache.snapshot()["puts"] == 1
    # A count-relevant field (ordering) changes the config fingerprint,
    # so the same (graph, query) pair keys a *different* entry.
    cfg2 = CuTSConfig(ordering="id")
    assert config_fingerprint(cfg2) != config_fingerprint(CuTSConfig())
    with MatchingService(cfg2) as b:
        fp = b.register_graph(g)
        assert b.match(fp, q).count == base  # counts agree...
        snap = b.result_cache.snapshot()
        assert snap["hits"] == 0 and snap["misses"] >= 1  # ...but no reuse


def test_count_irrelevant_config_change_shares_the_key():
    # Serving knobs and worker counts live outside CuTSConfig, so they
    # cannot move the cache key.
    with MatchingService(
        service_config=ServiceConfig(cache_bytes=1 << 20),
        workers=3, start=False,
    ) as svc:
        assert svc.config_fp == config_fingerprint(CuTSConfig())


def test_reregistration_invalidates_stale_results():
    cfg = CuTSConfig()
    q = chain_graph(3)
    old = from_edges([(0, 1), (1, 0), (1, 2), (2, 1)], name="data")
    new = mesh_graph(4, 4)
    with MatchingService(cfg) as svc:
        svc.register_graph(old, name="data")
        first = svc.match("data", q).count
        # Same name, different content: handle replaced, cache dropped.
        svc.register_graph(new, name="data")
        assert svc.result_cache.snapshot()["invalidations"] >= 1
        second = svc.match("data", q).count
        assert second != first
        # And the fresh entry serves the new graph, not the old one.
        assert svc.match("data", q).count == second


def test_unregister_invalidates_cache_entries():
    cfg = CuTSConfig()
    g = mesh_graph(4, 4)
    with MatchingService(cfg) as svc:
        fp = svc.register_graph(g)
        svc.match(fp, chain_graph(3))
        assert len(svc.result_cache) == 1
        assert svc.unregister_graph(fp)
        assert len(svc.result_cache) == 0

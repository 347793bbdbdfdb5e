"""Bounded job retention on both serving backends.

A service keeps every pending and running job and the
``RETAINED_JOBS`` most recently settled ones.  After 10,000 cached
count-only requests the job table, the idempotency map, the query
index and the state log must all stay bounded; an evicted id answers
``KeyError`` (404 over HTTP), an evicted idempotency key runs again, a
retained one still dedupes, and a restart loads at most
``RETAINED_JOBS`` settled jobs and issues ids above every earlier one.
"""

from __future__ import annotations

import gc
import os
import threading
import tracemalloc

import pytest

from repro.core.config import CuTSConfig
from repro.graph import clique_graph, mesh_graph
from repro.service import (
    ClusterService,
    MatchingService,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.http import serve
from repro.service.state import RETAINED_JOBS

REQUESTS = 10_000
# Cached matches a one-rank router serves once its job table is full,
# and the traced growth they may leave behind: a record kept per request
# for the life of the router costs ~84 bytes each, 250 KB at this count.
MORE_REQUESTS = 3_000
ROUTER_GROWTH_BOUND = 32 * 1024
# Live records after a compaction, plus what may be appended before the
# next one (twice the live records plus RETAINED_JOBS), plus one batch.
LOG_BOUND = 4 * RETAINED_JOBS + 64


def _seq(job_id: str) -> int:
    return int(job_id.rsplit("-", 1)[1])


def _tables(front) -> int:
    """The largest of the job table, idempotency map and query index."""
    with front._jobs_lock:
        return max(len(front._jobs), len(front._idempotency),
                   len(front._queries))


def _log_records(state_dir: str) -> int:
    with open(os.path.join(state_dir, "state.jsonl"), "rb") as fh:
        return sum(1 for _ in fh)


def _drive(front, fp: str, query) -> list[str]:
    """REQUESTS keyed cached matches, one in flight at a time; the
    tables never hold more than RETAINED_JOBS plus that one."""
    ids = []
    for i in range(REQUESTS):
        job_id = front.submit(fp, query, idempotency_key=f"key-{i}")
        front.result(job_id, timeout=60.0)
        ids.append(job_id)
        if i % 250 == 0:
            assert _tables(front) <= RETAINED_JOBS + 1
    assert _tables(front) <= RETAINED_JOBS
    return ids


def _check_eviction_contract(front, fp: str, query, ids: list[str]) -> str:
    with pytest.raises(KeyError):
        front.job(ids[0])
    assert front.job(ids[-1]).state == "done"
    # A retained key still dedupes; an evicted one runs again.
    assert front.submit(
        fp, query, idempotency_key=f"key-{REQUESTS - 1}"
    ) == ids[-1]
    again = front.submit(fp, query, idempotency_key="key-0")
    assert _seq(again) > _seq(ids[-1])
    front.result(again, timeout=60.0)
    return again


def _http_status(front, job_id: str) -> int:
    server = serve(front, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(
        f"http://{host}:{port}", retry=RetryPolicy(max_attempts=1)
    )
    try:
        client.job(job_id)
        return 200
    except ServiceError as exc:
        return exc.status
    finally:
        server.shutdown()
        server.server_close()


def test_single_rank_retention_is_bounded_across_a_restart(tmp_path):
    state_dir = str(tmp_path)
    data, query = mesh_graph(4, 4), clique_graph(3)
    with MatchingService(CuTSConfig(), state_dir=state_dir) as svc:
        fp = svc.register_graph(data)
        ids = _drive(svc, fp, query)
        svc.flush_journal()
        assert svc.state.compactions >= 2  # at open, then by size
        assert _log_records(state_dir) <= LOG_BOUND
        last = _check_eviction_contract(svc, fp, query, ids)
        assert _http_status(svc, ids[0]) == 404
        assert _http_status(svc, ids[-1]) == 200
    with MatchingService(CuTSConfig(), state_dir=state_dir) as svc2:
        assert len(svc2._jobs) <= RETAINED_JOBS
        assert _log_records(state_dir) <= RETAINED_JOBS + 8
        with pytest.raises(KeyError):
            svc2.job(ids[0])
        assert svc2.job(last).state == "done"
        assert svc2.submit(fp, query, idempotency_key="key-0") == last
        assert _seq(svc2.submit(fp, query)) > _seq(last)


def test_cluster_retention_is_bounded_on_the_router_and_every_rank(
    tmp_path,
):
    data, query = mesh_graph(4, 4), clique_graph(3)
    cluster = ClusterService(
        CuTSConfig(), ranks=2, replication=2, state_dir=str(tmp_path),
        auto_heal=False,
    )
    try:
        fp = cluster.register_graph(data)
        ids = _drive(cluster, fp, query)
        for rank in cluster.ranks.values():
            rank.service.flush_journal()
            assert _tables(rank.service) <= RETAINED_JOBS
            assert _log_records(rank.service.state.directory) <= LOG_BOUND
        _check_eviction_contract(cluster, fp, query, ids)
        assert _http_status(cluster, ids[0]) == 404
        assert _http_status(cluster, ids[-1]) == 200
        # Restart the rank that served the traffic: it loads at most
        # RETAINED_JOBS settled jobs and never reuses an id.
        busiest = max(
            cluster.ranks.values(), key=lambda rank: rank.service._job_seq
        )
        issued = busiest.service._job_seq
        assert issued > RETAINED_JOBS
        cluster.crash_rank(busiest.rank_id)
        cluster.restart_rank(busiest.rank_id)
        assert len(busiest.service._jobs) <= RETAINED_JOBS
        assert _seq(busiest.service.submit(fp, query)) > issued
    finally:
        cluster.close()


def test_router_memory_stays_flat_once_the_job_table_is_full():
    data, query = mesh_graph(4, 4), clique_graph(3)
    with ClusterService(CuTSConfig(), ranks=1, auto_heal=False) as router:
        fp = router.register_graph(data)
        # Traced from the start, so evicting the jobs the fill retains
        # shows as freed; filling twice over lets the job tables' dicts
        # reach the size their churn keeps them at.
        tracemalloc.start()
        try:
            for _ in range(2 * RETAINED_JOBS):
                router.match(fp, query, timeout=60.0)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(MORE_REQUESTS):
                router.match(fp, query, timeout=60.0)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _tables(router) <= RETAINED_JOBS
        assert grown < ROUTER_GROWTH_BOUND, (
            f"{MORE_REQUESTS} cached matches grew traced memory by "
            f"{grown} bytes"
        )

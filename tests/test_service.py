"""Tests for the embedded matching service (PR 5 tentpole).

Exercises the registry (idempotence, aliasing, replacement), admission
control (every rejection reason), deadlines and cancellation, the
batching dispatcher (coalescing, one pool pass per batch), and the
acceptance criterion: a warm-registry warm-cache repeat returns
bit-identical counts with **zero** additional matcher invocations.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import oracle_count
from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    mesh_graph,
    star_graph,
)
from repro.parallel.matcher import ParallelMatcher
from repro.service import (
    AdmissionError,
    DeadlineExpired,
    GraphRegistry,
    JobFailed,
    MatchingService,
    Request,
    Scheduler,
    ServiceConfig,
)
from repro.service.registry import _graph_bytes


def make_request(job_id="j1", graph_fp="g", query=None, **kw) -> Request:
    from repro.fingerprint import graph_fingerprint

    query = query if query is not None else chain_graph(3)
    return Request(
        job_id=job_id,
        graph_fp=graph_fp,
        query=query,
        query_fp=graph_fingerprint(query),
        **kw,
    )


# ---------------------------------------------------------------------------
# GraphRegistry.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_register_is_idempotent_for_identical_content(self):
        reg = GraphRegistry(CuTSConfig())
        a = reg.register(mesh_graph(4, 4))
        b = reg.register(mesh_graph(4, 4))
        assert a is b
        assert reg.registered == 1
        assert len(reg.handles()) == 1

    def test_same_content_under_second_name_aliases(self):
        reg = GraphRegistry(CuTSConfig())
        a = reg.register(mesh_graph(4, 4), name="one")
        b = reg.register(mesh_graph(4, 4), name="two")
        assert a is b
        assert reg.resolve("one") is reg.resolve("two")
        assert reg.resident_bytes == _graph_bytes(a.graph)

    def test_name_reuse_with_new_content_replaces_and_notifies(self):
        replaced: list[str] = []
        reg = GraphRegistry(CuTSConfig(), on_replace=replaced.append)
        old = reg.register(mesh_graph(4, 4), name="data")
        reg.register(mesh_graph(5, 5), name="data")
        assert replaced == [old.fingerprint]
        assert reg.by_fingerprint(old.fingerprint) is None
        assert reg.resolve("data").graph.num_vertices == 25
        with pytest.raises(ValueError):
            old.matcher()  # the replaced handle's engine is closed

    def test_resolve_by_name_and_fingerprint(self):
        reg = GraphRegistry(CuTSConfig())
        h = reg.register(mesh_graph(4, 4), name="mesh")
        assert reg.resolve("mesh") is h
        assert reg.resolve(h.fingerprint) is h
        with pytest.raises(KeyError):
            reg.resolve("nope")

    def test_unregister_releases_bytes_and_notifies(self):
        replaced: list[str] = []
        reg = GraphRegistry(CuTSConfig(), on_replace=replaced.append)
        h = reg.register(mesh_graph(4, 4))
        assert reg.unregister(h.fingerprint)
        assert not reg.unregister(h.fingerprint)
        assert reg.resident_bytes == 0
        assert replaced == [h.fingerprint]

    def test_empty_graph_is_refused(self):
        reg = GraphRegistry(CuTSConfig())
        with pytest.raises(ValueError):
            reg.register(from_edges([], num_vertices=0))

    def test_persistent_engine_is_reused_across_calls(self):
        reg = GraphRegistry(CuTSConfig())
        h = reg.register(mesh_graph(4, 4))
        assert h.matcher() is h.matcher()

    def test_parallel_handles_build_parallel_matchers(self):
        reg = GraphRegistry(CuTSConfig(), workers=2)
        h = reg.register(mesh_graph(4, 4))
        try:
            assert isinstance(h.matcher(), ParallelMatcher)
        finally:
            reg.close()


# ---------------------------------------------------------------------------
# Scheduler admission + ordering.
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_queue_full_rejects_with_reason(self):
        sched = Scheduler(max_depth=2)
        sched.submit(make_request("a"))
        sched.submit(make_request("b"))
        with pytest.raises(AdmissionError) as exc:
            sched.submit(make_request("c"))
        assert exc.value.reason == "queue-full"
        assert sched.snapshot()["rejected"] == {"queue-full": 1}

    def test_oversized_query_rejects_with_reason(self):
        sched = Scheduler(max_depth=8, max_query_vertices=3)
        sched.submit(make_request(query=chain_graph(3)))
        with pytest.raises(AdmissionError) as exc:
            sched.submit(make_request(query=chain_graph(4)))
        assert exc.value.reason == "oversized-query"

    def test_memory_budget_rejects_with_reason(self):
        from repro.core.governor import MemoryGovernor

        gov = MemoryGovernor(budget_bytes=1024)
        gov.observe_words(1024 // 8)  # exactly at budget
        sched = Scheduler(max_depth=8, governor=gov)
        with pytest.raises(AdmissionError) as exc:
            sched.submit(make_request())
        assert exc.value.reason == "memory-budget"

    def test_priority_order_then_fifo(self):
        sched = Scheduler(max_depth=8)
        sched.submit(make_request("low", priority=5))
        sched.submit(make_request("hi-1", priority=0))
        sched.submit(make_request("hi-2", priority=0))
        batch, dead = sched.pop_batch(8, timeout=0.1)
        assert [r.job_id for r in batch] == ["hi-1", "hi-2", "low"]
        assert dead == []

    def test_pop_batch_is_graph_affine(self):
        sched = Scheduler(max_depth=8)
        sched.submit(make_request("a1", graph_fp="A"))
        sched.submit(make_request("b1", graph_fp="B"))
        sched.submit(make_request("a2", graph_fp="A"))
        batch, _ = sched.pop_batch(8, timeout=0.1)
        assert [r.job_id for r in batch] == ["a1", "a2"]
        batch, _ = sched.pop_batch(8, timeout=0.1)
        assert [r.job_id for r in batch] == ["b1"]

    def test_expired_and_cancelled_requests_surface_as_dead(self):
        sched = Scheduler(max_depth=8)
        expired = make_request("late", deadline=0.0)  # already past
        sched.submit(expired)
        doomed = make_request("doomed")
        sched.submit(doomed)
        doomed.cancelled.set()
        live = make_request("live")
        sched.submit(live)
        batch, dead = sched.pop_batch(8, timeout=0.1)
        assert [r.job_id for r in batch] == ["live"]
        assert {r.job_id for r in dead} == {"late", "doomed"}
        snap = sched.snapshot()
        assert snap["expired"] == 1 and snap["cancelled"] == 1

    def test_close_drains_and_rejects(self):
        sched = Scheduler(max_depth=8)
        sched.submit(make_request("queued"))
        drained = sched.close()
        assert [r.job_id for r in drained] == ["queued"]
        with pytest.raises(AdmissionError) as exc:
            sched.submit(make_request("late"))
        assert exc.value.reason == "shutdown"


# ---------------------------------------------------------------------------
# End-to-end service behaviour.
# ---------------------------------------------------------------------------


QUERIES = [
    clique_graph(3),
    chain_graph(4),
    cycle_graph(4),
    star_graph(3),
]


@pytest.fixture(scope="module")
def data_graph():
    return mesh_graph(6, 6)


@pytest.fixture(scope="module")
def expected_counts(data_graph):
    cfg = CuTSConfig()
    return [CuTSMatcher(data_graph, cfg).match(q).count for q in QUERIES]


class TestMatchingService:
    def test_counts_match_the_one_shot_engine(
        self, data_graph, expected_counts
    ):
        with MatchingService(CuTSConfig()) as svc:
            fp = svc.register_graph(data_graph)
            got = [r.count for r in svc.match_many(fp, QUERIES)]
        assert got == expected_counts

    def test_counts_match_oracle_on_small_graph(self):
        g = mesh_graph(4, 4)
        q = chain_graph(4)
        with MatchingService(CuTSConfig()) as svc:
            assert svc.match(svc.register_graph(g), q).count == oracle_count(
                g, q
            )

    def test_warm_cache_repeat_is_free_and_identical(
        self, data_graph, expected_counts
    ):
        """Acceptance: second pass = zero matcher invocations, +N cache
        hits, bit-identical counts."""
        with MatchingService(CuTSConfig()) as svc:
            fp = svc.register_graph(data_graph)
            first = [r.count for r in svc.match_many(fp, QUERIES)]
            inv = svc.dispatcher.matcher_invocations
            hits = svc.result_cache.hits
            second = [r.count for r in svc.match_many(fp, QUERIES)]
            assert second == first == expected_counts
            assert svc.dispatcher.matcher_invocations == inv
            assert svc.result_cache.hits == hits + len(QUERIES)
            # The cache-hit flag is visible on the jobs.
            job_id = svc.submit(fp, QUERIES[1])
            svc.result(job_id)
            assert svc.job(job_id).cached

    def test_parallel_engine_parity(self, data_graph, expected_counts):
        with MatchingService(CuTSConfig(), workers=2) as svc:
            fp = svc.register_graph(data_graph)
            got = [r.count for r in svc.match_many(fp, QUERIES)]
        assert got == expected_counts

    def test_duplicate_queries_coalesce(self, data_graph):
        q = chain_graph(4)
        with MatchingService(CuTSConfig(), start=False) as svc:
            fp = svc.register_graph(data_graph)
            ids = [svc.submit(fp, q) for _ in range(4)]
            svc.start()  # everything queued -> one batch
            counts = {svc.result(j, timeout=30).count for j in ids}
            assert len(counts) == 1
            assert svc.dispatcher.matcher_invocations == 1
            assert svc.dispatcher.requests_coalesced == 3
            assert all(svc.job(j).coalesced for j in ids)

    def test_batch_runs_as_one_dispatch(self, data_graph, expected_counts):
        with MatchingService(CuTSConfig(), start=False) as svc:
            fp = svc.register_graph(data_graph)
            ids = [svc.submit(fp, q) for q in QUERIES]
            svc.start()
            got = [svc.result(j, timeout=30).count for j in ids]
            assert got == expected_counts
            assert svc.dispatcher.batches_dispatched == 1

    def test_deadline_expiry_fails_typed(self, data_graph):
        with MatchingService(CuTSConfig(), start=False) as svc:
            fp = svc.register_graph(data_graph)
            job_id = svc.submit(fp, chain_graph(3), deadline_ms=0)
            svc.start()
            with pytest.raises(DeadlineExpired):
                svc.result(job_id, timeout=30)
            assert svc.job(job_id).state == "expired"

    def test_cancellation_beats_dispatch(self, data_graph):
        with MatchingService(CuTSConfig(), start=False) as svc:
            fp = svc.register_graph(data_graph)
            job_id = svc.submit(fp, chain_graph(3))
            assert svc.cancel(job_id)
            svc.start()
            with pytest.raises(JobFailed, match="cancelled"):
                svc.result(job_id, timeout=30)
            assert not svc.cancel(job_id)  # already settled

    def test_admission_rejection_does_not_leak_jobs(self, data_graph):
        sc = ServiceConfig(max_query_vertices=3)
        with MatchingService(service_config=sc) as svc:
            fp = svc.register_graph(data_graph)
            with pytest.raises(AdmissionError) as exc:
                svc.submit(fp, clique_graph(5))
            assert exc.value.reason == "oversized-query"
            assert svc._jobs == {}

    def test_queue_full_rejection_reports_reason(self, data_graph):
        sc = ServiceConfig(queue_depth=1)
        with MatchingService(service_config=sc, start=False) as svc:
            fp = svc.register_graph(data_graph)
            svc.submit(fp, chain_graph(3))
            with pytest.raises(AdmissionError) as exc:
                svc.submit(fp, chain_graph(4))
            assert exc.value.reason == "queue-full"

    def test_memory_budget_admission_counts_registry_bytes(self):
        # A 1 MB budget the registered graph immediately exceeds.
        sc = ServiceConfig(memory_budget_mb=1)
        with MatchingService(service_config=sc) as svc:
            fp = svc.register_graph(mesh_graph(200, 200))
            assert svc.governor.pressure >= 1.0
            with pytest.raises(AdmissionError) as exc:
                svc.submit(fp, chain_graph(3))
            assert exc.value.reason == "memory-budget"

    def test_unregistered_graph_fails_queued_jobs(self, data_graph):
        with MatchingService(CuTSConfig(), start=False) as svc:
            fp = svc.register_graph(data_graph)
            job_id = svc.submit(fp, chain_graph(3))
            svc.unregister_graph(fp)
            svc.start()
            with pytest.raises(JobFailed, match="unregistered"):
                svc.result(job_id, timeout=30)

    def test_close_fails_pending_jobs_as_shutdown(self, data_graph):
        svc = MatchingService(CuTSConfig(), start=False)
        fp = svc.register_graph(data_graph)
        job_id = svc.submit(fp, chain_graph(3))
        svc.close()
        with pytest.raises(JobFailed, match="shutdown"):
            svc.result(job_id, timeout=1)

    def test_csr_graph_arguments_auto_register(self, data_graph):
        with MatchingService(CuTSConfig()) as svc:
            r1 = svc.match(data_graph, chain_graph(3))
            r2 = svc.match(data_graph, chain_graph(3))
            assert r1.count == r2.count
            assert len(svc.registry.handles()) == 1

    def test_materialized_results_flow_through(self):
        from tests.conftest import assert_valid_embeddings

        g = mesh_graph(4, 4)
        q = chain_graph(3)
        with MatchingService(CuTSConfig()) as svc:
            res = svc.match(svc.register_graph(g), q, materialize=True)
            assert res.matches is not None
            assert len(res.matches) == res.count
            assert_valid_embeddings(g, q, res.matches)
            # Materialized results are not result-cached.
            assert len(svc.result_cache) == 0

    def test_metrics_shape(self, data_graph):
        with MatchingService(CuTSConfig()) as svc:
            fp = svc.register_graph(data_graph)
            svc.match(fp, chain_graph(3))
            m = svc.metrics()
            assert m["graphs"] == 1
            assert m["graph_resident_bytes"] > 0
            assert m["scheduler"]["admitted"] == 1
            assert m["dispatcher"]["requests_dispatched"] == 1
            assert m["governor"]["tracked_bytes"] > 0
            assert svc.healthz()["status"] == "ok"

    def test_concurrent_submitters_all_get_exact_answers(
        self, data_graph, expected_counts
    ):
        """8 threads x 4 queries against one service: every answer
        exact, no lost or duplicated jobs."""
        with MatchingService(CuTSConfig()) as svc:
            fp = svc.register_graph(data_graph)
            results: dict[tuple[int, int], int] = {}
            errors: list[Exception] = []
            lock = threading.Lock()

            def client(tid: int) -> None:
                try:
                    for qi, q in enumerate(QUERIES):
                        count = svc.match(fp, q, timeout=60).count
                        with lock:
                            results[(tid, qi)] = count
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(results) == 8 * len(QUERIES)
            for (_, qi), count in results.items():
                assert count == expected_counts[qi]

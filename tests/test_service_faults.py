"""Tests for repro.service.faults and fault-driven service behaviour.

The unit half pins down the injector's determinism and counters; the
integration half arms each fault class against a real MatchingService
and asserts the resilience machinery holds the exact-count invariant:
injected engine faults fail only their own jobs, corrupted cache reads
become misses (never wrong answers), stalls only add latency, and
simulated OOM drives the degraded-mode hysteresis.
"""

from __future__ import annotations

import pytest

import repro.service.service as service_module
from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.graph import clique_graph, cycle_graph, mesh_graph
from repro.service import JobFailed, MatchingService, ServiceConfig
from repro.service.faults import (
    FAULTS_ENV_VAR,
    InjectedEngineFault,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from repro.service.scheduler import AdmissionError

# ---------------------------------------------------------------------------
# Plan parsing and validation.
# ---------------------------------------------------------------------------


def test_default_plan_is_null():
    plan = ServiceFaultPlan()
    assert plan.is_null
    assert not ServiceFaultPlan(engine_fault_prob=0.1).is_null


def test_from_spec_parses_keys_and_types():
    plan = ServiceFaultPlan.from_spec(
        "seed=7, engine_fault_prob=0.25, stall_prob=1, stall_ms=5,"
        "oom_hold_ticks=3"
    )
    assert plan.seed == 7
    assert plan.engine_fault_prob == 0.25
    assert plan.stall_prob == 1.0
    assert plan.stall_ms == 5.0
    assert plan.oom_hold_ticks == 3


@pytest.mark.parametrize(
    "spec",
    [
        "engine_fault_prob",  # no value
        "nope=1",  # unknown key
        "engine_fault_prob=2",  # out of range
        "stall_ms=-1",
        "oom_hold_ticks=0",
        "oom_pressure=0",
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(ValueError):
        ServiceFaultPlan.from_spec(spec)


def test_from_env_reads_the_documented_variable(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    assert ServiceFaultPlan.from_env() is None
    monkeypatch.setenv(FAULTS_ENV_VAR, "seed=3,stall_prob=0.5")
    plan = ServiceFaultPlan.from_env()
    assert plan is not None and plan.seed == 3 and plan.stall_prob == 0.5


# ---------------------------------------------------------------------------
# Injector determinism and counters.
# ---------------------------------------------------------------------------


def test_same_plan_replays_the_same_decision_stream():
    plan = ServiceFaultPlan(
        seed=11, engine_fault_prob=0.3, stall_prob=0.3,
        cache_corrupt_prob=0.3,
    )

    def stream(inj):
        out = []
        for _ in range(50):
            out.append(inj.should_engine_fault())
            out.append(inj.stall_s() > 0)
            out.append(inj.should_corrupt())
        return out

    assert stream(ServiceFaultInjector(plan)) == stream(
        ServiceFaultInjector(plan)
    )


def test_counters_track_injected_events():
    inj = ServiceFaultInjector(
        ServiceFaultPlan(engine_fault_prob=1.0, stall_prob=1.0)
    )
    assert inj.should_engine_fault() and inj.stall_s() > 0
    inj.note_kill()
    snap = inj.snapshot()
    assert snap["engine_faults"] == 1
    assert snap["stalls"] == 1
    assert snap["worker_kills"] == 1


def test_corrupt_payload_copies_and_breaks_checksum():
    from repro.service.dispatcher import payload_checksum, verify_payload

    inj = ServiceFaultInjector(ServiceFaultPlan(cache_corrupt_prob=1.0))
    payload = {"count": 42, "elapsed_s": 0.1}
    payload["checksum"] = payload_checksum(payload)
    assert verify_payload(payload)
    bad = inj.corrupt_payload(payload)
    assert bad is not payload
    assert payload["count"] == 42  # stored entry untouched
    assert bad["count"] == 43
    assert not verify_payload(bad)


def test_oom_episode_lasts_hold_ticks():
    inj = ServiceFaultInjector(
        ServiceFaultPlan(oom_prob=1.0, oom_pressure=2.0, oom_hold_ticks=3)
    )
    assert inj.tick_oom() == 2.0  # onset
    assert inj.tick_oom() == 2.0
    assert inj.tick_oom() == 2.0
    # prob=1.0 immediately starts the next episode; drop to 0 to see it end
    calm = ServiceFaultInjector(
        ServiceFaultPlan(oom_prob=0.0, oom_hold_ticks=3)
    )
    assert calm.tick_oom() is None
    assert calm.oom_episodes == 0
    assert inj.oom_episodes >= 1


# ---------------------------------------------------------------------------
# End-to-end: faults against a live service.
# ---------------------------------------------------------------------------


@pytest.fixture()
def data_graph():
    return mesh_graph(6, 6)


def test_engine_faults_fail_only_their_own_jobs(data_graph):
    plan = ServiceFaultPlan(seed=5, engine_fault_prob=0.5)
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(clique_graph(3))
    # Cache off so every request reaches the engine (and its faults).
    with MatchingService(
        service_config=ServiceConfig(cache_bytes=0), faults=plan
    ) as svc:
        fp = svc.register_graph(data_graph)
        ok, failed = 0, 0
        for _ in range(12):
            try:
                result = svc.match(fp, clique_graph(3), timeout=30.0)
            except JobFailed as exc:
                assert "injected" in str(exc).lower()
                failed += 1
            else:
                assert result.count == oracle.count
                ok += 1
        assert ok > 0 and failed > 0  # isolation: some of each
        assert svc.faults is not None
        assert svc.faults.engine_faults == failed
        assert svc.healthz()["status"] == "ok"  # the service survived


def test_cache_corruption_becomes_a_miss_not_a_wrong_answer(data_graph):
    plan = ServiceFaultPlan(cache_corrupt_prob=1.0)
    with MatchingService(CuTSConfig(), faults=plan) as svc:
        fp = svc.register_graph(data_graph)
        first = svc.match(fp, cycle_graph(4), timeout=30.0)
        # Every cache read is corrupted, so the repeat must recompute —
        # and still agree exactly.
        second = svc.match(fp, cycle_graph(4), timeout=30.0)
        assert second.count == first.count
        snap = svc.dispatcher.snapshot()
        assert snap["corrupt_cache_drops"] >= 1
        assert svc.faults is not None
        assert svc.faults.cache_corruptions >= 1


def test_stalls_only_add_latency(data_graph):
    plan = ServiceFaultPlan(stall_prob=1.0, stall_ms=5.0)
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(cycle_graph(4))
    with MatchingService(CuTSConfig(), faults=plan) as svc:
        fp = svc.register_graph(data_graph)
        result = svc.match(fp, cycle_graph(4), timeout=30.0)
        assert result.count == oracle.count
        assert svc.faults is not None and svc.faults.stalls >= 1


def test_simulated_oom_drives_degraded_mode(data_graph, monkeypatch):
    monkeypatch.setattr(service_module, "DEGRADED_AFTER", 2)
    plan = ServiceFaultPlan(oom_prob=1.0, oom_pressure=2.0, oom_hold_ticks=50)
    svc = MatchingService(start=False, faults=plan)
    try:
        fp = svc.register_graph(data_graph)
        assert not svc.degraded
        svc._observe_pressure()
        assert not svc.degraded  # one strike is not sustained pressure
        svc._observe_pressure()
        assert svc.degraded
        with pytest.raises(AdmissionError) as exc_info:
            svc.submit(fp, clique_graph(3))
        assert exc_info.value.reason == "degraded"
        assert svc.healthz()["status"] == "degraded"
        assert svc.metrics()["degraded_entries"] == 1
    finally:
        svc.close()


def test_degraded_mode_exits_after_sustained_calm(data_graph, monkeypatch):
    monkeypatch.setattr(service_module, "DEGRADED_AFTER", 2)
    svc = MatchingService(start=False)
    try:
        svc.register_graph(data_graph)
        svc.governor.forced_pressure = 1.0
        svc._observe_pressure()
        svc._observe_pressure()
        assert svc.degraded
        svc.governor.forced_pressure = None
        svc._observe_pressure()
        assert svc.degraded  # hysteresis: one calm tick is not enough
        svc._observe_pressure()
        assert not svc.degraded
    finally:
        svc.close()


def test_degraded_mode_still_serves_cached_counts(data_graph, monkeypatch):
    monkeypatch.setattr(service_module, "DEGRADED_AFTER", 1)
    with MatchingService() as svc:
        fp = svc.register_graph(data_graph)
        warm = svc.match(fp, clique_graph(3), timeout=30.0)
        svc.governor.forced_pressure = 1.0
        svc._observe_pressure()
        assert svc.degraded
        # The cached count is still served, synchronously and exactly.
        again = svc.match(fp, clique_graph(3), timeout=5.0)
        assert again.count == warm.count
        # Anything uncached is refused with the degraded reason.
        with pytest.raises(AdmissionError) as exc_info:
            svc.submit(fp, cycle_graph(5))
        assert exc_info.value.reason == "degraded"
        # So is new graph registration (read-only mode).
        with pytest.raises(AdmissionError):
            svc.register_graph(mesh_graph(3, 3))
        svc.governor.forced_pressure = None


def test_worker_kill_recovers_with_exact_counts(data_graph):
    plan = ServiceFaultPlan(seed=1, worker_kill_prob=1.0)
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(clique_graph(3))
    with MatchingService(CuTSConfig(), workers=2, faults=plan) as svc:
        fp = svc.register_graph(data_graph)
        results = svc.match_many(
            fp, [clique_graph(3), cycle_graph(4)], timeout=60.0
        )
        assert results[0].count == oracle.count
        assert svc.faults is not None and svc.faults.worker_kills >= 1

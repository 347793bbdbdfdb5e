"""Tests for the replicated shard-routed cluster (PR 9 tentpole).

Covers the consistent-hash ring (determinism, minimal disruption), the
router's count parity with the serial oracle, failover on rank crashes
and partitions, exactly-once integration of revoked attempts, split
queries that resume on the survivors, quorum shedding with machine-
readable 503s, catch-up-then-readmit healing, and the HTTP face
serving a cluster through the same endpoints.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro.service.cluster as cluster_module
import repro.service.state as state_module
from tests.conftest import oracle_count
from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.core.result import MatchResult
from repro.fingerprint import CheckpointMismatchError, graph_fingerprint
from repro.graph import chain_graph, cycle_graph, mesh_graph, star_graph
from repro.service import (
    AdmissionError,
    ClusterService,
    HashRing,
    JobFailed,
    MatchingService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.faults import ServiceFaultInjector, ServiceFaultPlan
from repro.service.http import serve


@pytest.fixture()
def mesh_and_query():
    return mesh_graph(5, 5), chain_graph(3)


def make_cluster(tmp_path=None, **kw) -> ClusterService:
    kw.setdefault("ranks", 3)
    kw.setdefault("replication", 2)
    kw.setdefault("auto_heal", False)
    state_dir = str(tmp_path / "cluster") if tmp_path is not None else None
    return ClusterService(
        CuTSConfig(), state_dir=state_dir, **kw
    )


@pytest.mark.parametrize("workers", [None, 2])
def test_ranks_run_the_worker_count_a_single_service_runs(workers):
    kwargs = {} if workers is None else {"workers": workers}
    with MatchingService(start=False, **kwargs) as single:
        cluster = ClusterService(ranks=1, start=False, **kwargs)
        try:
            assert cluster.ranks[0].service.workers == single.workers
            assert single.workers == (workers or 1)
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# HashRing.
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_layout_is_a_pure_function_of_membership(self):
        a = HashRing([0, 1, 2, 3])
        b = HashRing([3, 2, 1, 0])
        for key in ("alpha", "beta", "gamma", "delta"):
            assert a.replicas_for(key, 2) == b.replicas_for(key, 2)

    def test_replicas_are_distinct_and_clamped(self):
        ring = HashRing([0, 1, 2])
        replicas = ring.replicas_for("some-graph", 2)
        assert len(replicas) == len(set(replicas)) == 2
        assert ring.replicas_for("some-graph", 99) == ring.replicas_for(
            "some-graph", 3
        )

    def test_member_removal_only_remaps_its_own_keys(self):
        before = HashRing([0, 1, 2, 3])
        after = HashRing([0, 1, 3])  # rank 2 left
        keys = [f"graph-{i}" for i in range(64)]
        for key in keys:
            if before.primary_for(key) != 2:
                # Consistent hashing: keys not owned by the departed
                # member keep their primary.
                assert after.primary_for(key) == before.primary_for(key)
            else:
                assert after.primary_for(key) != 2

    def test_empty_ring(self):
        ring = HashRing([])
        assert ring.replicas_for("x", 2) == []
        with pytest.raises(LookupError):
            ring.primary_for("x")

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing([0], vnodes=0)


# ---------------------------------------------------------------------------
# Routing: parity, failover, exactly-once.
# ---------------------------------------------------------------------------


class TestRouting:
    def test_count_parity_with_serial_oracle(self, mesh_and_query):
        data, query = mesh_and_query
        expected = CuTSMatcher(data, CuTSConfig()).match(query).count
        assert expected == oracle_count(data, query)
        with make_cluster() as cluster:
            cluster.register_graph(data, "mesh")
            for q in (query, cycle_graph(4), star_graph(3)):
                got = cluster.match("mesh", q, timeout=60)
                assert got.count == oracle_count(data, q)

    def test_routing_survives_primary_crash(self, mesh_and_query):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            primary = cluster._ring.replicas_for(fp, 2)[0]
            cluster.crash_rank(primary)
            assert cluster.match(fp, query, timeout=60).count == expected
            assert cluster.ranks[primary].state == "crashed"

    def test_mid_request_crash_fails_over_exactly_once(
        self, mesh_and_query
    ):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            killed: list[int] = []

            def hook(phase: str, rank_id: int, job_id: str) -> None:
                if phase == "mid-shard" and not killed:
                    killed.append(rank_id)
                    cluster.crash_rank(rank_id)

            cluster.phase_hook = hook
            result = cluster.match(fp, query, timeout=60)
            assert result.count == expected
            assert killed, "the hook never fired"
            metrics = cluster.metrics()["router"]
            assert metrics["failovers"] >= 1
            # The crashed attempt was revoked before the failover was
            # dispatched: its answer can never be integrated.
            assert cluster.metrics()["tracker"]["revoked"] >= 1

    def test_partitioned_primary_is_skipped_then_heals(
        self, mesh_and_query
    ):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        # R=3 so quorum (2) still holds with the primary unreachable —
        # a partition under quorum must *route around*, not shed.
        with make_cluster(ranks=3, replication=3) as cluster:
            fp = cluster.register_graph(data)
            primary = cluster._ring.replicas_for(fp, 3)[0]
            cluster.partition_rank(primary, ticks=1)
            assert cluster.match(fp, query, timeout=60).count == expected
            # No state was lost: the partition expires with routed
            # attempts and the rank stays live throughout.
            assert cluster.ranks[primary].state == "live"
            assert cluster.match(fp, query, timeout=60).count == expected

    def test_route_timeout_fails_the_job(self, mesh_and_query):
        data, query = mesh_and_query
        # Every engine pass stalls 400 ms; the route gives up at 50 ms,
        # so each attempt is revoked before its late reply can land.
        cluster = ClusterService(
            service_config=ServiceConfig(route_timeout_s=0.05),
            ranks=1,
            replication=1,
            faults=ServiceFaultPlan(
                seed=1, stall_prob=1.0, stall_ms=400.0
            ),
            auto_heal=False,
        )
        try:
            fp = cluster.register_graph(data)
            with pytest.raises(JobFailed) as excinfo:
                cluster.match(fp, query, timeout=60)
            assert "route timeout" in str(excinfo.value)
            assert cluster.metrics()["tracker"]["revoked"] >= 1
        finally:
            cluster.close()

    def test_idempotent_submit_dedupes_at_the_router(
        self, mesh_and_query
    ):
        data, query = mesh_and_query
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            a = cluster.submit(fp, query, idempotency_key="once")
            b = cluster.submit(fp, query, idempotency_key="once")
            assert a == b
            cluster.result(a, timeout=60)

    def test_split_queries_reject_materialize(self, mesh_and_query):
        data, query = mesh_and_query
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            with pytest.raises(ValueError):
                cluster.submit(fp, query, materialize=True, num_parts=2)


def test_register_and_release_skip_a_replica_that_dies_mid_call(
    mesh_and_query,
):
    data, query = mesh_and_query
    with make_cluster() as cluster:
        victim = cluster._shard(graph_fingerprint(data))[0]
        service = cluster.ranks[victim].service

        def dies_first(write):
            def call(*args):
                cluster.crash_rank(victim)
                return write(*args)  # a killed service refuses
            return call

        service.register_graph = dies_first(service.register_graph)
        fp = cluster.register_graph(data, "g")
        assert cluster.match("g", query, timeout=60).count == (
            oracle_count(data, query)
        )
        cluster.restart_rank(victim)
        held = cluster.ranks[victim].service.registry
        assert held.names().get("g") == fp
        service = cluster.ranks[victim].service
        service.unregister_graph = dies_first(service.unregister_graph)
        assert cluster.unregister_graph("g")
        cluster.restart_rank(victim)
        held = cluster.ranks[victim].service.registry
        assert held.by_fingerprint(fp) is None


# ---------------------------------------------------------------------------
# Split queries: striding + resume of a failed replica's parts.
# ---------------------------------------------------------------------------


class TestSplitQueries:
    def test_split_count_equals_oracle(self, mesh_and_query):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            for parts in (2, 3, 5):
                result = cluster.match(
                    fp, query, num_parts=parts, timeout=60
                )
                assert result.count == expected
            assert cluster.metrics()["router"]["split_queries"] == 3

    def test_split_resumes_after_replica_crash(self, mesh_and_query):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster(ranks=3, replication=3) as cluster:
            fp = cluster.register_graph(data)
            killed: list[int] = []

            def hook(phase: str, rank_id: int, job_id: str) -> None:
                if phase == "mid-shard" and not killed:
                    killed.append(rank_id)
                    cluster.crash_rank(rank_id)

            cluster.phase_hook = hook
            result = cluster.match(fp, query, num_parts=4, timeout=60)
            assert result.count == expected
            assert killed
            # Only the dead rank's uncollected parts were redone,
            # instead of the whole query.
            assert cluster.metrics()["router"]["recovered_parts"] >= 1

    def test_a_failed_replicas_parts_are_redispatched_together(
        self, mesh_and_query
    ):
        data, query = mesh_and_query
        with make_cluster(ranks=3, replication=3) as cluster:
            fp = cluster.register_graph(data)
            dispatched: list[int] = []

            def hook(phase: str, rank_id: int, job_id: str) -> None:
                if phase == "mid-shard":
                    dispatched.append(rank_id)
                    if len(dispatched) == 4:
                        # Parts 0 and 3 went to this replica.
                        assert dispatched[0] == rank_id
                        cluster.crash_rank(rank_id)

            cluster.phase_hook = hook
            result = cluster.match(fp, query, num_parts=4, timeout=60)
            assert result.count == oracle_count(data, query)
            router = cluster.metrics()["router"]
            # One failure moves both uncollected parts at once.
            assert router["failovers"] == 1
            assert router["recovered_parts"] == 2

    def test_split_result_is_the_merge_of_its_parts(self):
        """Parts reduce as a multi-core match does: counts and hardware
        counters sum, and ``time_ms`` is the makespan."""
        data, query, n = mesh_graph(8, 8), cycle_graph(4), 3
        matcher = CuTSMatcher(data, CuTSConfig())
        expected = functools.reduce(
            MatchResult.merge,
            [matcher.match(query, part=i, num_parts=n) for i in range(n)],
        )
        with make_cluster() as cluster:
            fp = cluster.register_graph(data)
            got = cluster.match(fp, query, num_parts=n, timeout=60)
        assert got.count == expected.count
        assert got.time_ms == expected.time_ms
        assert got.cost == expected.cost
        assert got.cost.kernel_launches > 0


# ---------------------------------------------------------------------------
# Quorum shedding + healing.
# ---------------------------------------------------------------------------


class TestQuorumAndHealing:
    def test_below_quorum_sheds_with_retry_after(self, mesh_and_query):
        data, query = mesh_and_query
        with make_cluster(ranks=2, replication=2) as cluster:
            fp = cluster.register_graph(data)
            # quorum for R=2 is 2: one crash puts every shard below it.
            cluster.crash_rank(0)
            with pytest.raises(AdmissionError) as excinfo:
                cluster.submit(fp, query)
            assert excinfo.value.reason == "shard-unavailable"
            assert excinfo.value.retry_after is not None
            assert cluster.metrics()["router"]["shed"] == 1
            assert cluster.healthz()["degraded"] is True

    def test_restart_catches_up_before_readmission(
        self, tmp_path, mesh_and_query
    ):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster(tmp_path) as cluster:
            fp = cluster.register_graph(data)
            victim = cluster._ring.replicas_for(fp, 2)[0]
            cluster.crash_rank(victim)
            assert cluster.replication_of(fp) < 2
            cluster.restart_rank(victim)
            # Full R-way replication restored: the fresh incarnation
            # holds the shard before it rejoined the ring.
            assert cluster.replication_of(fp) == 2
            assert cluster.ranks[victim].state == "live"
            assert cluster.ranks[victim].generation == 1
            assert cluster.metrics()["router"]["heals"] == 1
            assert cluster.match(fp, query, timeout=60).count == expected

    def test_supervisor_heals_within_bounded_ticks(
        self, tmp_path, mesh_and_query
    ):
        data, query = mesh_and_query
        cluster = ClusterService(
            ranks=2,
            replication=2,
            state_dir=str(tmp_path / "heal"),
            auto_heal=True,
        )
        try:
            fp = cluster.register_graph(data)
            cluster.crash_rank(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    cluster.ranks[0].state == "live"
                    and cluster.replication_of(fp) == 2
                ):
                    break
                time.sleep(0.02)
            assert cluster.ranks[0].state == "live"
            assert cluster.replication_of(fp) == 2
            assert cluster.metrics()["router"]["heals"] >= 1
        finally:
            cluster.close()

    def test_lazy_catchup_on_remapped_replica(self, mesh_and_query):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        with make_cluster(ranks=3, replication=1) as cluster:
            fp = cluster.register_graph(data)
            owner = cluster._ring.replicas_for(fp, 1)[0]
            cluster.crash_rank(owner)
            # R=1, quorum 1: the shard remaps to a survivor that has
            # never seen the graph — the router feeds it on first route
            # from the content-addressed catalog.
            assert cluster.match(fp, query, timeout=60).count == expected
            assert cluster.metrics()["router"]["catchup_graphs"] >= 1


# ---------------------------------------------------------------------------
# The router's catalog: a rank's name rules, kept in the router's log.
# ---------------------------------------------------------------------------

SHAPES = [(1, 1), (3, 2)]
_ROW_KEYS = (
    "name", "fingerprint", "parent_fingerprint", "lineage_depth", "retired",
)


def _rows(front) -> list[tuple]:
    """``/graphs`` without the fields only one process knows (engine
    use, placement)."""
    return sorted(tuple(g[k] for k in _ROW_KEYS) for g in front.graphs())


def _seq(job_id: str) -> int:
    return int(job_id.rsplit("-", 1)[1])


@pytest.mark.parametrize("ranks,replication", SHAPES)
def test_names_follow_the_single_rank_rules(ranks, replication):
    """Register G1 as "g", G2 as "g", G1 as "h", commit to "h": the
    router answers as one rank does, and no rank keeps what the
    router released."""
    g1, g2 = mesh_graph(4, 4), mesh_graph(4, 5)
    fp1, fp2 = graph_fingerprint(g1), graph_fingerprint(g2)
    answers = []
    for front in (
        MatchingService(),
        ClusterService(ranks=ranks, replication=replication, auto_heal=False),
    ):
        with front:
            front.register_graph(g1, "g")
            front.register_graph(g2, "g")
            ranks_of = getattr(front, "ranks", {})
            for rank in ranks_of.values():
                assert rank.service.registry.by_fingerprint(fp1) is None
            front.register_graph(g1, "h")
            summary = front.mutate_graph("h", inserts=[[0, 5]], directed=False)
            answers.append(
                (summary["graph"], summary["fingerprint"], _rows(front))
            )
            held = {h.fingerprint for h in front.registry.handles()}
            for rank in ranks_of.values():
                names = rank.service.registry.names()
                assert names.get("g") in (None, fp2)
                assert {
                    h.fingerprint for h in rank.service.registry.handles()
                } <= held
    assert answers[0] == answers[1]


@pytest.mark.parametrize("ranks,replication", SHAPES)
def test_router_restart_recovers_its_catalog_and_jobs(
    tmp_path, ranks, replication
):
    data, query = mesh_graph(5, 5), chain_graph(3)
    state_dir = str(tmp_path / "state")

    def boot() -> ClusterService:
        return ClusterService(
            service_config=ServiceConfig(max_versions=2), ranks=ranks,
            replication=replication, state_dir=state_dir, auto_heal=False,
        )

    with boot() as router:
        router.register_graph(data, "g")
        ids = {
            f"key-{i}": router.submit("g", query, idempotency_key=f"key-{i}")
            for i in range(3)
        }
        counts = {
            job_id: router.result(job_id).count for job_id in ids.values()
        }
        for edge in ([0, 6], [1, 7], [2, 8]):  # the root is pruned
            router.mutate_graph("g", inserts=[edge], directed=False)
        chain = [
            (v["fingerprint"], v["lineage_depth"])
            for v in router.versions("g")
        ]
        as_of = {
            fp: router.match("g", query, as_of=fp, timeout=60).count
            for fp, _ in chain
        }
        last = router.submit("g", query)
        router.result(last, timeout=60)
    with boot() as router:
        assert router.resolve_key("g") == chain[-1][0]
        assert [
            (v["fingerprint"], v["lineage_depth"])
            for v in router.versions("g")
        ] == chain
        for fp, count in as_of.items():
            got = router.match("g", query, as_of=fp, timeout=60)
            assert got.count == count
        for job_id, count in counts.items():
            assert router.job(job_id).result.count == count
        admitted = router.metrics()["scheduler"]["admitted"]
        for key, job_id in ids.items():
            assert router.submit("g", query, idempotency_key=key) == job_id
        assert router.metrics()["scheduler"]["admitted"] == admitted
        assert _seq(router.submit("g", query)) > _seq(last)
        # Placement survived pruning and the restart: a never-mutated
        # graph's replica set, keyed by the root's fingerprint.
        assert router.graph_info("g")["replicas"] == HashRing(
            range(ranks)
        ).replicas_for(graph_fingerprint(data), replication)


@pytest.mark.parametrize("ranks,replication", SHAPES)
def test_router_killed_with_jobs_queued_runs_them_under_their_ids(
    tmp_path, ranks, replication
):
    """A kill -9 while one job runs and three wait in the rank's queue:
    the running one comes back ``retryable`` and the queued ones finish
    under their ids with exact counts, answered by the rank's own
    recovered copies, so replaying their keys admits nothing."""
    data = mesh_graph(5, 5)
    queries = [chain_graph(3), cycle_graph(4), star_graph(4), chain_graph(4)]
    state_dir = str(tmp_path / "state")

    def boot(**kw) -> ClusterService:
        return ClusterService(
            ranks=ranks, replication=replication, state_dir=state_dir,
            auto_heal=False, **kw,
        )

    # Every dispatch stalls 1 s: the first job holds the rank while
    # the others queue behind it.
    stall = ServiceFaultPlan(seed=1, stall_prob=1.0, stall_ms=1000)
    router = boot(faults=stall)
    router.register_graph(data, "g")
    first = router.submit("g", queries[0], idempotency_key="key-0")
    deadline = time.monotonic() + 30.0
    while router.job(first).state != "running":
        assert time.monotonic() < deadline, "the first job never ran"
        time.sleep(0.005)
    queued = {
        f"key-{i}": router.submit("g", query, idempotency_key=f"key-{i}")
        for i, query in enumerate(queries[1:], start=1)
    }
    router.flush_journal()
    for rank in router.ranks.values():
        rank.service.flush_journal()
    router.kill()
    router.close()
    with boot() as router:
        assert router.job(first).state == "retryable"
        for job_id, query in zip(queued.values(), queries[1:]):
            assert router.result(job_id, timeout=60).count == (
                oracle_count(data, query)
            )
        state = router.metrics()["state"]
        assert (state["recovered_pending"], state["recovered_retryable"]) == (
            len(queued), 1,
        )
        admitted = router.metrics()["scheduler"]["admitted"]
        for (key, job_id), query in zip(queued.items(), queries[1:]):
            assert router.submit("g", query, idempotency_key=key) == job_id
        assert router.metrics()["scheduler"]["admitted"] == admitted
        # The job that was running runs once more under its key.
        retry = router.submit("g", queries[0], idempotency_key="key-0")
        assert retry != first
        assert router.result(retry, timeout=60).count == (
            oracle_count(data, queries[0])
        )
        assert router.metrics()["scheduler"]["admitted"] == admitted + 1


@pytest.mark.parametrize("ranks,replication", SHAPES)
def test_restart_brings_a_replica_ahead_back_to_the_recorded_head(
    tmp_path, ranks, replication
):
    """A replica that committed past the router's record (a crash in
    between) serves the router's head after a restart, with the same
    retained chain, and the same delta commits again cleanly."""
    data, query = mesh_graph(5, 5), chain_graph(3)
    state_dir = str(tmp_path / "state")

    def boot() -> ClusterService:
        return ClusterService(
            ranks=ranks, replication=replication, state_dir=state_dir,
            auto_heal=False,
        )

    with boot() as router:
        router.register_graph(data, "g")
        router.mutate_graph("g", inserts=[[0, 6]], directed=False)
        head = router.resolve_key("g")
        primary = router.graph_info("g")["replicas"][0]
        orphan = router.ranks[primary].service.mutate_graph(
            "g", inserts=[[1, 7]], directed=False
        )["fingerprint"]
    with boot() as router:
        chain = [v["fingerprint"] for v in router.versions("g")]
        assert chain[-1] == head
        for rank_id in router.graph_info("g")["replicas"]:
            rank = router.ranks[rank_id].service
            assert rank.resolve_key("g") == head
            assert rank.registry.by_fingerprint(orphan) is None
            assert [v["fingerprint"] for v in rank.versions("g")] == chain
        head_graph = router.registry.by_fingerprint(head).graph
        assert router.match("g", query, timeout=60).count == (
            CuTSMatcher(head_graph).match(query).count
        )
        again = router.mutate_graph("g", inserts=[[1, 7]], directed=False)
        assert again["fingerprint"] == orphan


def _tree(root) -> dict[str, bytes | None]:
    out: dict[str, bytes | None] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            out[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("ranks", [1, 3])
def test_previous_format_state_dir_is_refused_untouched(
    tmp_path, monkeypatch, ranks
):
    """The previous format's layouts: one rank's log at the top, or
    rank logs under ``rank-<i>`` with no router log."""
    state_dir = tmp_path / "state"
    with monkeypatch.context() as previous:
        previous.setattr(state_module, "FORMAT_VERSION", 2)
        dirs = [state_dir] if ranks == 1 else [
            state_dir / f"rank-{i}" for i in range(ranks)
        ]
        for directory in dirs:
            with MatchingService(state_dir=str(directory)) as svc:
                svc.register_graph(mesh_graph(4, 4), "g")
    before = _tree(state_dir)
    with pytest.raises(CheckpointMismatchError):
        ClusterService(
            ranks=ranks, replication=2, state_dir=str(state_dir),
            auto_heal=False,
        )
    assert _tree(state_dir) == before


# ---------------------------------------------------------------------------
# Topology fault plan.
# ---------------------------------------------------------------------------


class TestTopologyFaults:
    def test_from_spec_parses_topology_keys(self):
        plan = ServiceFaultPlan.from_spec(
            "seed=7,rank_crash_prob=0.5,partition_prob=0.25,"
            "partition_ticks=4,slow_replica_prob=1.0,slow_replica_ms=2"
        )
        assert plan.seed == 7
        assert plan.rank_crash_prob == 0.5
        assert plan.partition_ticks == 4
        assert not plan.is_null

    def test_route_fate_is_deterministic_and_counted(self):
        plan = ServiceFaultPlan(seed=3, rank_crash_prob=0.3)
        first, second = ServiceFaultInjector(plan), ServiceFaultInjector(plan)
        a = [first.route_fate() for _ in range(50)]
        b = [second.route_fate() for _ in range(50)]
        assert a == b
        crashes = sum(1 for fate, _ in a if fate == "crash")
        assert 0 < crashes < 50
        assert first.rank_crashes == crashes
        assert first.snapshot()["rank_crashes"] == crashes

    def test_slow_replica_fate_carries_seconds(self):
        plan = ServiceFaultPlan(
            seed=1, slow_replica_prob=1.0, slow_replica_ms=25.0
        )
        fate, seconds = ServiceFaultInjector(plan).route_fate()
        assert fate == "slow"
        assert seconds == pytest.approx(0.025)

    def test_injected_crashes_never_change_counts(
        self, mesh_and_query, monkeypatch
    ):
        data, query = mesh_and_query
        expected = oracle_count(data, query)
        plan = ServiceFaultPlan(seed=11, rank_crash_prob=0.2)
        monkeypatch.setattr(cluster_module, "HEAL_AFTER_TICKS", 1)
        cluster = ClusterService(
            ranks=3,
            replication=2,
            faults=plan,
            auto_heal=True,
        )
        try:
            fp = cluster.register_graph(data)
            served = 0
            for _ in range(12):
                try:
                    assert (
                        cluster.match(fp, query, timeout=60).count
                        == expected
                    )
                    served += 1
                except AdmissionError:
                    time.sleep(0.05)  # below quorum; wait out the heal
            assert served >= 6
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# HTTP face over a cluster.
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_cluster():
    cluster = ClusterService(
        CuTSConfig(), ranks=3, replication=2, auto_heal=False
    )
    server = serve(cluster, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), cluster
    finally:
        server.shutdown()
        server.server_close()
        cluster.close()


class TestClusterHTTP:
    def test_end_to_end_match_reports_replica(self, live_cluster):
        client, cluster = live_cluster
        data, query = mesh_graph(4, 4), chain_graph(3)
        fp = client.register_graph(data, name="mesh")
        job = client.match("mesh", query)
        assert job["state"] == "done"
        assert job["result"]["count"] == oracle_count(data, query)
        assert job["replica"] in cluster.ranks
        assert client.job(job["id"])["graph"] == fp

    def test_shard_unavailable_maps_to_503_with_retry_after(
        self, live_cluster
    ):
        client, cluster = live_cluster
        data = mesh_graph(4, 4)
        client.register_graph(data, name="mesh")
        for rank_id in list(cluster.ranks):
            cluster.crash_rank(rank_id)
        with pytest.raises(ServiceError) as excinfo:
            client.match(
                "mesh",
                chain_graph(3),
                timeout_s=5.0,
            )
        assert excinfo.value.status == 503
        assert excinfo.value.reason == "shard-unavailable"
        assert excinfo.value.retry_after is not None

    def test_split_match_over_http(self, live_cluster):
        client, cluster = live_cluster
        data, query = mesh_graph(4, 4), chain_graph(3)
        client.register_graph(data, name="mesh")
        job = client.match("mesh", query, num_parts=3)
        assert job["state"] == "done"
        assert job["result"]["count"] == oracle_count(data, query)
        assert job["num_parts"] == 3

    def test_part_against_cluster_is_a_bad_request(self, live_cluster):
        client, cluster = live_cluster
        client.register_graph(mesh_graph(4, 4), name="mesh")
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/match",
                {"graph": "mesh", "query": "P3", "part": 0},
            )
        assert excinfo.value.status == 400

    def test_healthz_and_metrics_expose_topology(self, live_cluster):
        client, cluster = live_cluster
        health = client.healthz()
        assert health["live_ranks"] == 3
        assert health["replication"] == 2
        metrics = client.metrics()
        assert set(metrics["ring"]["members"]) == {0, 1, 2}
        assert "failovers" in metrics["router"]


# ---------------------------------------------------------------------------
# Client-side replica surfacing (satellite: ServiceError.replica).
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Always answers 503 shard-unavailable from replica 1."""

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        if length:
            self.rfile.read(length)
        body = json.dumps(
            {
                "error": "rejected",
                "reason": "shard-unavailable",
                "detail": "shard below quorum",
                "replica": 1,
            }
        ).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Retry-After", "0.01")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        return None  # keep test output quiet


class TestClientReplicaSurfacing:
    def test_503_shard_unavailable_surfaces_replica_and_backoff(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        sleeps: list[float] = []
        client = ServiceClient(
            f"http://{host}:{port}",
            retry=RetryPolicy(max_attempts=3, backoff_base_s=10.0),
        )
        client._sleep = sleeps.append
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.match("mesh", "P3")
            err = excinfo.value
            assert err.status == 503
            assert err.reason == "shard-unavailable"
            assert err.replica == 1
            # 503 retries like 429 degraded-mode does, and the
            # server's Retry-After overrides the computed backoff.
            assert len(sleeps) == 2
            assert all(s <= 0.011 for s in sleeps)
        finally:
            server.shutdown()
            server.server_close()

    def test_retry_policy_retries_503(self):
        policy = RetryPolicy()
        err = ServiceError(
            503, "shed", reason="shard-unavailable", retry_after=1.0
        )
        assert policy.should_retry(err)

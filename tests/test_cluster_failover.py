"""Failover-parity suite: kill the primary at every protocol phase.

The exactly-once argument for the cluster router has three failure
windows, one per protocol phase:

* ``pre-dispatch`` — the primary dies before the request reaches it
  (nothing executed; the failover must be a plain retry);
* ``mid-shard`` — the primary dies while executing (it may or may not
  have journaled; the idempotency key makes the retry safe);
* ``post-commit-pre-reply`` — the primary executed, journaled, and
  *then* died, so its reply is lost (the classic duplicated-side-effect
  window; the revoked sequence number keeps the late answer out and the
  journal's dedupe keeps the retry from re-executing on a restart).

For each phase x seed, a fresh 3-rank cluster serves randomized
workloads while a hook SIGKILLs the routed rank exactly once at that
phase.  Afterward three invariants must hold exactly:

1. every count equals the serial oracle (no loss, no double count);
2. no rank's durable journal holds two records for one idempotency
   key (a duplicate would mean the same work executed twice on one
   replica — the side-effect the envelope protocol exists to prevent);
3. replaying a failed-over key against the *restarted* primary admits
   nothing new — the journal answers it.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from tests.conftest import oracle_count
from repro.core.config import CuTSConfig
from repro.graph import chain_graph, cycle_graph, mesh_graph, star_graph
from repro.service import ClusterService
from repro.service.state import ServiceState

PHASES = ("pre-dispatch", "mid-shard", "post-commit-pre-reply")
SEEDS = (3, 17)


def journal_keys_by_rank(state_dir: str) -> dict[str, list[str]]:
    """Idempotency keys journaled per rank, one per job record (a key
    bound to two job ids shows up twice).  The router's own log beside
    the rank dirs is not a rank's."""
    out: dict[str, list[str]] = {}
    for rank_dir in sorted(os.listdir(state_dir)):
        if not rank_dir.startswith("rank-"):
            continue
        records = ServiceState(os.path.join(state_dir, rank_dir)).load_jobs()
        out[rank_dir] = [
            str(record["idempotency_key"])
            for record in records
            if record.get("idempotency_key") is not None
        ]
    return out


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_primary_kill_at_phase_preserves_exactly_once(
    tmp_path, phase: str, seed: int
):
    rng = random.Random(seed)
    data = mesh_graph(4 + rng.randrange(2), 4 + rng.randrange(2))
    queries = [chain_graph(3), cycle_graph(4), star_graph(3)]
    rng.shuffle(queries)
    expected = {q.name: oracle_count(data, q) for q in queries}

    state_dir = str(tmp_path / "cluster")
    cluster = ClusterService(
        CuTSConfig(),
        ranks=3,
        replication=2,
        state_dir=state_dir,
        auto_heal=False,
    )
    try:
        fp = cluster.register_graph(data)
        killed: list[int] = []

        def hook(hook_phase: str, rank_id: int, job_id: str) -> None:
            if hook_phase == phase and not killed:
                killed.append(rank_id)
                cluster.crash_rank(rank_id)

        cluster.phase_hook = hook
        keys = []
        for i, query in enumerate(queries):
            key = f"parity-{phase}-{seed}-{i}"
            keys.append(key)
            result = cluster.match(
                fp, query, idempotency_key=key, timeout=60
            )
            assert result.count == expected[query.name], (
                f"count diverged after a {phase} kill (seed {seed})"
            )
        assert killed, "the kill hook never fired"
        assert cluster.metrics()["router"]["failovers"] >= (
            1 if phase != "pre-dispatch" else 0
        )

        # Invariant 2: zero duplicate journal entries on any rank.
        for rank_dir, rank_keys in journal_keys_by_rank(
            state_dir
        ).items():
            assert len(rank_keys) == len(set(rank_keys)), (
                f"{rank_dir} journaled a duplicate idempotency key "
                f"after a {phase} kill: {sorted(rank_keys)}"
            )

        # Invariant 3: the restarted primary answers a replayed key
        # from its journal — a key that *committed* before the crash
        # admits no new job and re-executes nothing.
        victim = killed[0]
        cluster.restart_rank(victim)
        rank_service = cluster.ranks[victim].service
        rank_service.flush_journal()
        rank_state = ServiceState(os.path.join(state_dir, f"rank-{victim}"))
        committed: dict[str, str] = {}
        for record in rank_state.load_jobs():
            if record.get("state") == "done" and record.get(
                "idempotency_key"
            ) in keys:
                committed[str(record["idempotency_key"])] = str(
                    record["job_id"]
                )
        jobs_before = sorted(r["job_id"] for r in rank_state.load_jobs())
        for i, key in enumerate(keys):
            if key in committed:
                replay_id = rank_service.submit(
                    fp, queries[i], idempotency_key=key
                )
                assert replay_id == committed[key]
        rank_service.flush_journal()
        assert sorted(
            r["job_id"] for r in rank_state.load_jobs()
        ) == jobs_before
    finally:
        cluster.close()


def test_back_to_back_kills_across_phases(tmp_path):
    """One cluster, one kill per phase in sequence: counts stay exact
    and the ring returns to full replication after each heal."""
    data = mesh_graph(5, 5)
    query = chain_graph(3)
    expected = oracle_count(data, query)
    state_dir = str(tmp_path / "cluster")
    cluster = ClusterService(
        CuTSConfig(),
        ranks=3,
        replication=2,
        state_dir=state_dir,
        auto_heal=False,
    )
    try:
        fp = cluster.register_graph(data)
        for round_no, phase in enumerate(PHASES):
            killed: list[int] = []

            def hook(
                hook_phase: str, rank_id: int, job_id: str
            ) -> None:
                if hook_phase == phase and not killed:
                    killed.append(rank_id)
                    cluster.crash_rank(rank_id)

            cluster.phase_hook = hook
            result = cluster.match(
                fp,
                query,
                idempotency_key=f"seq-{round_no}",
                timeout=60,
            )
            assert result.count == expected
            cluster.phase_hook = None
            assert killed
            cluster.restart_rank(killed[0])
            assert cluster.replication_of(fp) == 2
        for rank_keys in journal_keys_by_rank(state_dir).values():
            assert len(rank_keys) == len(set(rank_keys))
    finally:
        cluster.close()


def test_restart_waits_for_the_dead_incarnations_journal(
    tmp_path, monkeypatch
):
    """A restart follows the death, it never races it: the killed
    primary's journal writer finishes the batch it held before the new
    incarnation replays the journal, so a job that committed just
    before a ``post-commit-pre-reply`` kill comes back done and its key
    answers the replay instead of admitting a new job."""
    record_jobs = ServiceState.record_jobs

    def slow_record_jobs(self, records):
        if any(record["state"] == "done" for record in records):
            time.sleep(0.5)  # the writer is mid-batch when the kill lands
        return record_jobs(self, records)

    monkeypatch.setattr(ServiceState, "record_jobs", slow_record_jobs)
    data, query = mesh_graph(5, 5), chain_graph(3)
    cluster = ClusterService(
        CuTSConfig(),
        ranks=3,
        replication=2,
        state_dir=str(tmp_path / "cluster"),
        auto_heal=False,
    )
    try:
        fp = cluster.register_graph(data)
        killed: list[int] = []

        def hook(hook_phase: str, rank_id: int, job_id: str) -> None:
            if hook_phase == "post-commit-pre-reply" and not killed:
                killed.append(rank_id)
                cluster.crash_rank(rank_id)

        cluster.phase_hook = hook
        result = cluster.match(fp, query, idempotency_key="k", timeout=60)
        assert result.count == oracle_count(data, query)
        cluster.phase_hook = None
        cluster.restart_rank(killed[0])
        rank_service = cluster.ranks[killed[0]].service
        committed = rank_service.job("job-00000001")
        assert committed.state == "done"
        assert rank_service.submit(fp, query, idempotency_key="k") == (
            committed.id
        )
    finally:
        cluster.close()

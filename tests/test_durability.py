"""Kill/resume durability: SIGKILL survival, watchdog, merge dedupe.

The headline guarantees of the durable-jobs subsystem:

* a run SIGKILLed at an arbitrary instant resumes to the exact count an
  uninterrupted run produces (serial, multi-core, and distributed);
* a hung or killed worker's shard is re-leased and merged exactly once;
* duplicate shard delivery is idempotent at the merge layer.

The SIGKILL tests run a real child interpreter and send it a real
``SIGKILL`` (via ``os.kill`` from inside a deterministic hook, so the
kill always lands mid-run, after at least one committed snapshot).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.parallel.matcher as parallel_matcher
from repro.checkpoint import CheckpointStore
from repro.core import CuTSConfig, CuTSMatcher
from repro.core.result import MatchResult
from repro.core.stats import SearchStats
from repro.distributed.runtime import DistributedCuTS
from repro.gpusim.cost import CostModel
from repro.graph.generators import clique_graph, social_graph
from repro.parallel.matcher import ParallelMatcher, ShardLeaseError

SRC = str(Path(__file__).resolve().parent.parent / "src")

# One serial and one multi-core workload, per the acceptance criteria.
DATA_ARGS = (200, 3)
DATA_SEED = 1
QUERY_K = 3


def _data():
    return social_graph(*DATA_ARGS, seed=DATA_SEED)


def _query():
    return clique_graph(QUERY_K)


@pytest.fixture(scope="module")
def baseline_count():
    return CuTSMatcher(_data(), CuTSConfig()).match(_query()).count


def _run_child(code: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a child interpreter and wait for the *process*.

    The child runs as its own session leader and we wait on the pid, not
    on pipe EOF: a SIGKILLed orchestrator leaves pool workers behind that
    inherited its stdout/stderr pipes, so ``subprocess.run`` would block
    on the never-closing pipes until timeout.  After the child exits the
    rest of its session is reaped (see :func:`_reap_session`).
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        start_new_session=True,
    )
    try:
        rc = proc.wait(timeout=timeout)
    finally:
        _reap_session(proc.pid)
    out, err = proc.communicate()
    return subprocess.CompletedProcess(proc.args, rc, out, err)


def _session_pids(sid: int) -> dict[int, bytes]:
    """Live (non-zombie) processes of session ``sid``, with command lines."""
    found: dict[int, bytes] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        # After "pid (comm) ": state, ppid, pgrp, session, ...
        fields = stat[stat.rindex(b")") + 2 :].split()
        if int(fields[3]) == sid and fields[0] != b"Z":
            found[int(entry)] = cmdline
    return found


def _reap_session(sid: int, grace_s: float = 10.0) -> None:
    """SIGKILL every process of session ``sid`` except its resource
    tracker until the tracker exits on its own (bounded by ``grace_s``):
    once no process shares it, it unlinks the shared memory and
    semaphores a SIGKILLed owner left registered.  Killing the tracker
    with the rest would leak them in ``/dev/shm``."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        live = _session_pids(sid)
        others = [p for p, cmd in live.items() if b"resource_tracker" not in cmd]
        if len(others) == len(live):
            break  # no tracker (left) to wait for
        for pid in others:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
    try:
        os.killpg(sid, signal.SIGKILL)  # whatever is left
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Serial kill/resume.
# ---------------------------------------------------------------------------

_SERIAL_CHILD = """
import os, signal
from repro.core import CuTSConfig, CuTSMatcher
from repro.graph.generators import clique_graph, social_graph

matcher = CuTSMatcher(
    social_graph({n}, {m}, seed={seed}), CuTSConfig(chunk_size=32)
)
ticks = 0

def killer(state):
    global ticks
    ticks += 1
    if ticks == {kill_at}:
        os.kill(os.getpid(), signal.SIGKILL)

matcher.on_tick = killer
matcher.match(clique_graph({k}), checkpoint_dir={ckpt!r}, checkpoint_every=2)
raise SystemExit("unreachable: the run should have been SIGKILLed")
"""


def test_serial_sigkill_then_resume_exact_count(tmp_path, baseline_count):
    ckpt = str(tmp_path / "job")
    child = _run_child(
        _SERIAL_CHILD.format(
            n=DATA_ARGS[0], m=DATA_ARGS[1], seed=DATA_SEED, k=QUERY_K,
            kill_at=9, ckpt=ckpt,
        )
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    store = CheckpointStore(ckpt)
    manifest = store.read_manifest()
    assert manifest is not None and not manifest.get("complete")
    assert store.snapshot_seqs(), "the child died before its first snapshot"

    resumed = CuTSMatcher(_data(), CuTSConfig(chunk_size=32)).match(
        _query(), checkpoint_dir=ckpt, resume=True
    )
    assert resumed.count == baseline_count


def test_serial_double_sigkill_then_resume(tmp_path, baseline_count):
    """Two crashes in a row: resume must also survive being killed."""
    ckpt = str(tmp_path / "job")
    first = _run_child(
        _SERIAL_CHILD.format(
            n=DATA_ARGS[0], m=DATA_ARGS[1], seed=DATA_SEED, k=QUERY_K,
            kill_at=9, ckpt=ckpt,
        )
    )
    assert first.returncode == -signal.SIGKILL, first.stderr
    second_code = _SERIAL_CHILD.format(
        n=DATA_ARGS[0], m=DATA_ARGS[1], seed=DATA_SEED, k=QUERY_K,
        kill_at=5, ckpt=ckpt,
    ).replace(
        "checkpoint_dir=", "resume=True, checkpoint_dir="
    )
    second = _run_child(second_code)
    assert second.returncode == -signal.SIGKILL, second.stderr

    resumed = CuTSMatcher(_data(), CuTSConfig(chunk_size=32)).match(
        _query(), checkpoint_dir=ckpt, resume=True
    )
    assert resumed.count == baseline_count


# ---------------------------------------------------------------------------
# Multi-core kill/resume (whole-process SIGKILL, then partial resume).
# ---------------------------------------------------------------------------

_PARALLEL_CHILD = """
import os, signal, threading, time
from repro.core import CuTSConfig, CuTSMatcher
from repro.graph.generators import clique_graph, social_graph
from repro.parallel.matcher import ParallelMatcher

ckpt = {ckpt!r}

def killer():
    # SIGKILL the orchestrator once the first shard result is durable,
    # leaving a manifest with some (but usually not all) parts on disk.
    while True:
        if any(n.startswith("part-") for n in os.listdir(ckpt)):
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.001)

data = social_graph({n}, {m}, seed={seed})
cfg = CuTSConfig(chunk_size=64)
# forkserver: the pool forks from a clean single-threaded server, so
# the killer thread in this process cannot deadlock a forked worker.
with ParallelMatcher(
    data, cfg, workers=4, oversplit=2, mp_context="forkserver"
) as pm:
    print(pm._ensure_segment().meta.segment, flush=True)
    os.makedirs(ckpt, exist_ok=True)
    threading.Thread(target=killer, daemon=True).start()
    pm.match(clique_graph({k}), checkpoint_dir=ckpt)
raise SystemExit("unreachable: the run should have been SIGKILLed")
"""


def test_parallel_sigkill_then_resume_exact_count(tmp_path, baseline_count):
    ckpt = str(tmp_path / "job")
    child = _run_child(
        _PARALLEL_CHILD.format(
            n=DATA_ARGS[0], m=DATA_ARGS[1], seed=DATA_SEED, k=QUERY_K,
            ckpt=ckpt,
        )
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    # The dead owner's data-graph segment was unlinked by its resource
    # tracker, not left behind in /dev/shm.
    segment = child.stdout.split()[0]
    assert not os.path.exists(os.path.join("/dev/shm", segment))

    with ParallelMatcher(_data(), CuTSConfig(chunk_size=64), workers=4,
                         oversplit=2) as pm:
        resumed = pm.match(_query(), checkpoint_dir=ckpt, resume=True)
    assert resumed.count == baseline_count


def test_parallel_partial_resume_recomputes_only_missing_parts(
    tmp_path, baseline_count
):
    ckpt = str(tmp_path / "job")
    cfg = CuTSConfig(chunk_size=64)
    with ParallelMatcher(_data(), cfg, workers=2, oversplit=2) as pm:
        full = pm.match(_query(), checkpoint_dir=ckpt)
    assert full.count == baseline_count

    # Simulate a crash after some shards landed: mark the job incomplete
    # and delete one persisted part.  Resume must recompute exactly it.
    store = CheckpointStore(ckpt)
    manifest = store.read_manifest()
    num_parts = int(manifest["num_parts"])
    assert num_parts >= 2
    manifest["complete"] = False
    for key in ("count", "time_ms"):
        manifest.pop(key, None)
    store.write_manifest(manifest)
    os.unlink(os.path.join(store.directory, "part-00001.json"))

    with ParallelMatcher(_data(), cfg, workers=2, oversplit=2) as pm:
        resumed = pm.match(_query(), checkpoint_dir=ckpt, resume=True)
    assert resumed.count == baseline_count
    assert store.read_manifest()["complete"]


def test_complete_parallel_resume_builds_no_pool(tmp_path):
    """Every shard is already persisted: the resume answers from the
    job directory without a shared segment or a worker pool."""
    data, query = social_graph(40, 3, seed=5), clique_graph(3)
    ckpt = str(tmp_path / "job")
    with ParallelMatcher(data, workers=2) as pm:
        assert pm.match(query, checkpoint_dir=ckpt).count == 312
    with ParallelMatcher(data, workers=2) as pm:
        assert pm.match(query, checkpoint_dir=ckpt, resume=True).count == 312
        assert pm._shared is None and pm._pool is None


def test_parallel_resume_with_different_worker_count(tmp_path, baseline_count):
    """The stored shard partitioning wins on resume: a different
    --workers must not change the counts."""
    ckpt = str(tmp_path / "job")
    cfg = CuTSConfig(chunk_size=64)
    with ParallelMatcher(_data(), cfg, workers=4, oversplit=2) as pm:
        pm.match(_query(), checkpoint_dir=ckpt)
    store = CheckpointStore(ckpt)
    manifest = store.read_manifest()
    manifest["complete"] = False
    store.write_manifest(manifest)
    os.unlink(os.path.join(store.directory, "part-00000.json"))
    with ParallelMatcher(_data(), cfg, workers=2, oversplit=1) as pm:
        resumed = pm.match(_query(), checkpoint_dir=ckpt, resume=True)
    assert resumed.count == baseline_count


# ---------------------------------------------------------------------------
# Worker watchdog.
# ---------------------------------------------------------------------------


def test_hung_worker_is_releaseed_and_merged_once(baseline_count, monkeypatch):
    monkeypatch.setattr(parallel_matcher, "LEASE_TIMEOUT_S", 0.25)
    cfg = CuTSConfig(chunk_size=64)
    with ParallelMatcher(_data(), cfg, workers=2, oversplit=2) as pm:
        # Shard 0's first lease stalls far past the lease timeout; the
        # watchdog must duplicate it onto a live worker and take the
        # duplicate's result (first completion wins, dedupe by part).
        pm._test_part_delays = {0: 3.0}
        result = pm.match(_query())
    assert result.count == baseline_count
    assert result.shards == tuple(range(len(result.shards)))


def test_sigkilled_worker_pool_is_rebuilt(baseline_count, monkeypatch):
    monkeypatch.setattr(parallel_matcher, "LEASE_TIMEOUT_S", 5.0)
    cfg = CuTSConfig(chunk_size=64)
    with ParallelMatcher(_data(), cfg, workers=2, oversplit=2) as pm:
        pm._test_part_delays = {0: 1.0}  # hold the run open for the kill
        pool = pm._ensure_pool()
        outcome: dict = {}

        def run():
            try:
                outcome["result"] = pm.match(_query())
            except BaseException as exc:  # pragma: no cover - surfaced below
                outcome["error"] = exc

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.3)  # let shards lease, then murder a live worker
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        t.join(timeout=120)
        assert not t.is_alive()
    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"].count == baseline_count


def test_lease_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(parallel_matcher, "LEASE_TIMEOUT_S", 0.15)
    monkeypatch.setattr(parallel_matcher, "LEASE_RETRIES", 0)
    cfg = CuTSConfig(chunk_size=64)
    with ParallelMatcher(_data(), cfg, workers=1, oversplit=1) as pm:
        pm._test_part_delays = {0: 2.0}
        with pytest.raises(ShardLeaseError, match="shard 0/"):
            pm.match(_query())


# ---------------------------------------------------------------------------
# Merge idempotence under duplicate shard delivery.
# ---------------------------------------------------------------------------


def _shard_result(count: int, shards: tuple) -> MatchResult:
    return MatchResult(
        count=count, matches=None, time_ms=1.0,
        cost=CostModel(CuTSConfig().device), stats=SearchStats(),
        order=(0,), shards=shards,
    )


def test_merge_duplicate_shard_is_idempotent():
    a = _shard_result(10, (0,))
    dup = _shard_result(10, (0,))
    merged = a.merge(dup)
    assert merged.count == 10
    assert merged.shards == (0,)


def test_merge_superset_absorbs_duplicate():
    ab = _shard_result(25, (0, 1))
    b = _shard_result(15, (1,))
    assert ab.merge(b).count == 25


def test_merge_disjoint_shards_sums():
    a = _shard_result(10, (0,))
    b = _shard_result(15, (1,))
    merged = a.merge(b)
    assert merged.count == 25
    assert merged.shards == (0, 1)


def test_merge_partial_overlap_is_rejected():
    ab = _shard_result(25, (0, 1))
    bc = _shard_result(30, (1, 2))
    with pytest.raises(ValueError, match="partially-overlapping"):
        ab.merge(bc)


def test_merge_without_shard_tags_is_legacy_sum():
    a = _shard_result(10, ())
    b = _shard_result(15, ())
    assert a.merge(b).count == 25


# ---------------------------------------------------------------------------
# Distributed: checkpoint at the ledger, resume across the valve.
# ---------------------------------------------------------------------------


def test_distributed_resume_over_max_events_valve(tmp_path):
    data, query = _data(), _query()
    cfg = CuTSConfig(chunk_size=64)
    clean = DistributedCuTS(data, 2, cfg).match(query)

    ckpt = str(tmp_path / "djob")
    rt = DistributedCuTS(data, 2, cfg)
    with pytest.raises(RuntimeError):
        rt.match(query, max_events=20, checkpoint_dir=ckpt, checkpoint_every=8)

    # The cadence is not fingerprinted: a resume may change it.
    resumed = DistributedCuTS(data, 2, cfg).match(
        query, checkpoint_dir=ckpt, checkpoint_every=16, resume=True
    )
    assert resumed.count == clean.count

    # A second resume of the now-complete job returns instantly.
    again = DistributedCuTS(data, 2, cfg).match(
        query, checkpoint_dir=ckpt, resume=True
    )
    assert again.count == clean.count


def test_distributed_checkpoint_requires_reliable_runtime(tmp_path):
    rt = DistributedCuTS(_data(), 2, CuTSConfig(), reliable=False)
    with pytest.raises(ValueError, match="reliable"):
        rt.match(_query(), checkpoint_dir=str(tmp_path / "x"))

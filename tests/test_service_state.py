"""Tests for crash-recoverable service state (repro.service.state).

Covers the durable pieces in isolation (graph store, name map, job
journal, manifest fingerprint gate), the log's framing (a torn tail at
every offset, a flipped byte in any frame, an interrupted compaction,
the refused format-1 layout) and the service-level recovery
semantics: restarts re-register graphs, restore terminal jobs with
their exact journaled counts, re-enqueue pending jobs, mark formerly
running jobs retryable, and keep idempotency keys deduplicating across
the crash — the journal-after-completion ordering is what makes a
retry provably unable to double-count.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.fingerprint import (
    CheckpointMismatchError,
    config_fingerprint,
    graph_fingerprint,
)
from repro.graph import clique_graph, cycle_graph, mesh_graph
from repro.graph.io import graph_from_spec, graph_to_spec
from repro.service import (
    AdmissionError,
    JobFailed,
    MatchingService,
    ServiceConfig,
    ServiceState,
)
from repro.service.state import DROPPED
from repro.versioning.lineage import KIND_REPLACE, GraphVersion


@pytest.fixture()
def data_graph():
    return mesh_graph(6, 6)


def opened_state(directory) -> ServiceState:
    """A state dir's log, opened for appends under the default config."""
    state = ServiceState(str(directory))
    state.open(config_fingerprint(CuTSConfig()))
    return state


# ---------------------------------------------------------------------------
# Journal graph records.
# ---------------------------------------------------------------------------


def test_graph_record_roundtrip_preserves_fingerprint(data_graph):
    back = graph_from_spec(graph_to_spec(data_graph))
    assert graph_fingerprint(back) == graph_fingerprint(data_graph)
    assert back.name == data_graph.name


def test_graph_record_roundtrip_keeps_labels():
    g = clique_graph(3).with_labels([5, 6, 7])
    back = graph_from_spec(graph_to_spec(g))
    assert back.labels is not None
    assert list(back.labels) == [5, 6, 7]
    assert graph_fingerprint(back) == graph_fingerprint(g)


# ---------------------------------------------------------------------------
# ServiceState in isolation.
# ---------------------------------------------------------------------------


def test_graph_store_roundtrip(tmp_path, data_graph):
    state = ServiceState(str(tmp_path))
    fp = graph_fingerprint(data_graph)
    state.save_graph(data_graph, fp)
    state.save_graph(data_graph, fp)  # idempotent
    assert state.graphs_saved == 1
    loaded = state.load_graphs()
    assert set(loaded) == {fp}
    assert graph_fingerprint(loaded[fp]) == fp
    state.forget_graph(fp)
    state.forget_graph(fp)  # gone is fine
    assert state.load_graphs() == {}


def test_labelled_graph_store_roundtrip(tmp_path):
    g = clique_graph(3).with_labels([1, 2, 3])
    state = ServiceState(str(tmp_path))
    fp = graph_fingerprint(g)
    state.save_graph(g, fp)
    assert graph_fingerprint(state.load_graphs()[fp]) == fp


def test_names_roundtrip(tmp_path):
    state = opened_state(tmp_path)
    assert state.replay().names == {}
    state.save_names({"mesh": "abc", "alias": "abc"})
    assert ServiceState(str(tmp_path)).replay().names == {
        "mesh": "abc", "alias": "abc"
    }


def test_job_journal_keeps_latest_record(tmp_path):
    state = opened_state(tmp_path)
    state.record_jobs([{"job_id": "job-00000001", "state": "pending"}])
    state.record_jobs([{"job_id": "job-00000001", "state": "done"}])
    state.record_jobs([{"job_id": "job-00000002", "state": "running"}])
    records = state.load_jobs()
    assert [r["job_id"] for r in records] == ["job-00000001", "job-00000002"]
    assert records[0]["state"] == "done"  # whole-record replace
    assert state.jobs_journaled == 3


def test_manifest_gates_on_config_fingerprint(tmp_path, data_graph):
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(data_graph)
    # Same engine config: fine (serving knobs are not fingerprinted).
    MatchingService(
        service_config=ServiceConfig(queue_depth=3), state_dir=str(tmp_path)
    ).close()
    # A config that could enumerate differently is refused.
    with pytest.raises(CheckpointMismatchError):
        MatchingService(
            CuTSConfig(chunk_size=17), state_dir=str(tmp_path)
        )


# ---------------------------------------------------------------------------
# Service-level recovery.
# ---------------------------------------------------------------------------


def test_restart_recovers_graphs_names_and_done_jobs(tmp_path, data_graph):
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(clique_graph(3))
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(data_graph, "mesh")
        job_id = svc.submit("mesh", clique_graph(3))
        assert svc.result(job_id, timeout=30.0).count == oracle.count
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        # Graph back under both its name and fingerprint.
        assert any(h["name"] == "mesh" for h in svc2.graphs())
        job = svc2.job(job_id)
        assert job.state == "done"
        assert job.result is not None and job.result.count == oracle.count
        assert job.cached
        # The restored answer serves without re-execution.
        assert svc2.result(job_id, timeout=5.0).count == oracle.count
        assert svc2.scheduler.admitted == 0
        # Job ids continue past the recovered sequence — no reuse.
        new_id = svc2.submit("mesh", cycle_graph(4))
        assert new_id > job_id
        svc2.result(new_id, timeout=30.0)


def _listed(svc):
    """``/graphs`` minus the registration counter, which restarts."""
    return sorted(
        sorted((k, v) for k, v in g.items() if k != "generation")
        for g in svc.graphs()
    )


def _stored(directory):
    return sorted(os.listdir(os.path.join(directory, "graphs")))


def test_restart_keeps_a_replaced_name_on_its_new_content(tmp_path):
    old, new = mesh_graph(3, 3), mesh_graph(3, 4)
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(old)  # under its own name
        svc.register_graph(new, old.name)  # replaces that name
        before = _listed(svc)
        with pytest.raises(KeyError):
            svc.resolve_key(graph_fingerprint(old))
    # Only the reachable content is stored.
    assert _stored(tmp_path) == [f"{graph_fingerprint(new)}.npz"]
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        assert svc2.resolve_key(old.name) == graph_fingerprint(new)
        assert _listed(svc2) == before
    assert _stored(tmp_path) == [f"{graph_fingerprint(new)}.npz"]


def test_restart_keeps_a_name_reregistered_after_a_commit(tmp_path):
    # The log's order decides: a registration after a commit outranks
    # the commit's version record, so the name does not roll back.
    root, replacement = mesh_graph(4, 4), mesh_graph(3, 5)
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(root, "g")
        head = svc.mutate_graph("g", inserts=[[0, 5]])["fingerprint"]
        svc.register_graph(replacement, "g")
        before = _listed(svc)
        # The replaced head and its retired root are released, not
        # kept addressable by fingerprint.
        for fp in (head, graph_fingerprint(root)):
            with pytest.raises(KeyError):
                svc.resolve_key(fp)
    assert _stored(tmp_path) == [f"{graph_fingerprint(replacement)}.npz"]
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        assert svc2.resolve_key("g") == graph_fingerprint(replacement)
        assert _listed(svc2) == before
    assert _stored(tmp_path) == [f"{graph_fingerprint(replacement)}.npz"]


def test_restart_keeps_a_committed_root_retired_under_its_name(tmp_path):
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        root = svc.register_graph(mesh_graph(4, 4), "g")
        svc.mutate_graph("g", inserts=[[0, 5]])
        before = _listed(svc)
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        assert _listed(svc2) == before
        assert svc2.versions("g")[0]["fingerprint"] == root


def test_idempotency_keys_survive_restart(tmp_path, data_graph):
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(data_graph, "mesh")
        job_id = svc.submit("mesh", clique_graph(3), idempotency_key="k-1")
        count = svc.result(job_id, timeout=30.0).count
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        # A client retry after the crash maps to the journaled job:
        # nothing is re-enqueued, nothing can double-count.
        assert svc2.submit("mesh", clique_graph(3), idempotency_key="k-1") == job_id
        assert svc2.scheduler.admitted == 0
        assert svc2.result(job_id, timeout=5.0).count == count


def test_pending_jobs_are_reenqueued_and_finish(tmp_path, data_graph):
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(cycle_graph(4))
    # start=False: the job is journaled pending and never dispatched.
    svc = MatchingService(
        CuTSConfig(), start=False, state_dir=str(tmp_path)
    )
    svc.register_graph(data_graph, "mesh")
    job_id = svc.submit("mesh", cycle_graph(4))
    svc.flush_journal()  # the pending record is on disk
    # Simulate a crash: release the engines, but never run close()'s
    # drain (which would journal a clean shutdown).
    svc.registry.close()
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        assert svc2.recovered_pending == 1
        job = svc2.wait(job_id, timeout=30.0)
        assert job.state == "done"
        assert job.result is not None and job.result.count == oracle.count


def test_running_jobs_resurface_as_retryable(tmp_path, data_graph):
    query = clique_graph(3)
    state = opened_state(tmp_path)
    state.save_graph(data_graph, graph_fingerprint(data_graph))
    # A registration always names its graph; stored content no name
    # reaches is deleted at restart.
    state.save_names({"mesh": graph_fingerprint(data_graph)})
    state.record_jobs([
        {
            "job_id": "job-00000007",
            "state": "running",
            "graph_fp": graph_fingerprint(data_graph),
            "query_fp": graph_fingerprint(query),
            "query": graph_to_spec(query),
            "materialize": False,
            "time_limit_ms": None,
            "priority": 0,
            "idempotency_key": "k-crashed",
            "error": None,
            "submitted_at": 0.0,
            "finished_at": None,
        }
    ])
    state.close()
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        assert svc.recovered_retryable == 1
        job = svc.job("job-00000007")
        assert job.state == "retryable"
        assert job.error is not None and "crashed" in job.error
        with pytest.raises(JobFailed):
            svc.result("job-00000007", timeout=1.0)
        # Retryable jobs do not hold their idempotency key: the retry
        # really re-executes (journal-after-completion makes it safe).
        new_id = svc.submit(
            graph_fingerprint(data_graph), query, idempotency_key="k-crashed"
        )
        assert new_id != "job-00000007"
        assert svc.result(new_id, timeout=30.0).count >= 0
        # Job ids continued past the crashed job's sequence number.
        assert int(new_id.rsplit("-", 1)[1]) > 7


def test_failed_jobs_restore_terminal(tmp_path, data_graph):
    query = clique_graph(3)
    state = opened_state(tmp_path)
    state.record_jobs([
        {
            "job_id": "job-00000003",
            "state": "failed",
            "graph_fp": graph_fingerprint(data_graph),
            "query_fp": graph_fingerprint(query),
            "query": graph_to_spec(query),
            "materialize": False,
            "time_limit_ms": None,
            "priority": 0,
            "idempotency_key": None,
            "error": "engine exploded",
            "submitted_at": 0.0,
            "finished_at": 1.0,
        }
    ])
    state.close()
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        job = svc.job("job-00000003")
        assert job.state == "failed" and job.error == "engine exploded"
        with pytest.raises(JobFailed, match="engine exploded"):
            svc.result("job-00000003", timeout=1.0)


def test_torn_journal_record_is_skipped_not_fatal(tmp_path, data_graph):
    state = opened_state(tmp_path)
    state.record_jobs([{"job_id": "job-00000009", "state": "pending"}])
    state.close()
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        with pytest.raises(KeyError):
            svc.job("job-00000009")
        # The service still works after skipping the torn record.
        fp = svc.register_graph(data_graph)
        svc.result(svc.submit(fp, clique_graph(3)), timeout=30.0)


def test_stateless_service_has_no_state_section(data_graph):
    with MatchingService(CuTSConfig()) as svc:
        svc.register_graph(data_graph)
        assert "state" not in svc.metrics()


def test_metrics_report_journal_counters(tmp_path, data_graph):
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        fp = svc.register_graph(data_graph)
        svc.result(svc.submit(fp, clique_graph(3)), timeout=30.0)
        svc.flush_journal()  # writes are async; settle them first
        snap = svc.metrics()["state"]
        assert snap["graphs_saved"] == 1
        # Group commit may coalesce pending -> running -> done into a
        # single write, but at least one record must have landed and
        # the journal's final word must be the terminal state.
        assert snap["jobs_journaled"] >= 1
        assert snap["journal_errors"] == 0
    state = ServiceState(str(tmp_path))
    (record,) = state.load_jobs()
    assert record["state"] == "done"

# ---------------------------------------------------------------------------
# The log: layout, old format, torn and corrupt frames.
# ---------------------------------------------------------------------------


def test_state_dir_holds_graphs_and_one_log(tmp_path, data_graph):
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(data_graph, "mesh")
        svc.result(svc.submit("mesh", clique_graph(3)), timeout=30.0)
        svc.mutate_graph("mesh", inserts=[[0, 7]])
    MatchingService(CuTSConfig(), state_dir=str(tmp_path)).close()
    assert sorted(os.listdir(tmp_path)) == ["graphs", "state.jsonl"]


def _dir_bytes(directory) -> dict[str, bytes]:
    """Every file under ``directory``: relative path -> content."""
    out = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def test_a_killed_service_writes_nothing(tmp_path, data_graph):
    svc = MatchingService(CuTSConfig(), state_dir=str(tmp_path))
    head = svc.register_graph(data_graph, "mesh")
    svc.register_graph(cycle_graph(5), "ring")
    svc.flush_journal()
    svc.kill()
    before, names = _dir_bytes(tmp_path), svc.registry.names()
    other = mesh_graph(3, 4)
    writes = {
        "register": lambda: svc.register_graph(other, "other"),
        "unregister": lambda: svc.unregister_graph("ring"),
        "adopt": lambda: svc._adopt(
            GraphVersion(
                "mesh", graph_fingerprint(other), head, 1, KIND_REPLACE
            ),
            other,
        ),
    }
    for what, write in writes.items():
        with pytest.raises(AdmissionError) as refused:
            write()
        assert refused.value.reason == "shutdown", what
    assert _dir_bytes(tmp_path) == before
    assert svc.registry.names() == names
    svc.close()


def test_format_one_state_dir_is_refused(tmp_path):
    (tmp_path / "service.json").write_text('{"format": "1"}')
    with pytest.raises(CheckpointMismatchError, match="format-1"):
        MatchingService(CuTSConfig(), state_dir=str(tmp_path))


def _write_sample_log(directory) -> bytes:
    """A log holding every record type; returns its bytes."""
    state = opened_state(directory)
    parent, child = mesh_graph(3, 3), mesh_graph(3, 4)
    parent_fp, child_fp = graph_fingerprint(parent), graph_fingerprint(child)
    state.save_graph(parent, parent_fp)
    state.save_names({"g": parent_fp, "alias": parent_fp})
    state.record_jobs([
        {"job_id": "job-00000001", "state": "pending"},
        {"job_id": "job-00000002", "state": "pending"},
    ])
    state.save_graph(child, child_fp)
    state.append_version({
        "name": "g", "fingerprint": child_fp, "parent": parent_fp,
        "depth": 1, "kind": "replace", "delta": None,
    })
    state.record_jobs([{"job_id": "job-00000001", "state": "done"}])
    state.record_jobs([{"job_id": "job-00000002", "state": DROPPED}])
    state.record_jobs([{"job_id": "job-00000003", "state": "running"}])
    state.close()
    with open(state.path, "rb") as fh:
        return fh.read()


def _replay_bytes(directory, data: bytes):
    state = ServiceState(str(directory))
    with open(state.path, "wb") as fh:
        fh.write(data)
    return state.replay()


def _same_live_state(a, b) -> bool:
    return (
        dataclasses.replace(a, torn=0) == dataclasses.replace(b, torn=0)
        and list(a.jobs) == list(b.jobs)
    )


def test_log_truncated_inside_its_last_frame_replays_the_earlier_ones(
    tmp_path,
):
    data = _write_sample_log(tmp_path)
    frames = data.splitlines(keepends=True)
    last = len(data) - len(frames[-1])
    earlier = _replay_bytes(tmp_path, data[:last])
    assert earlier.torn == 0 and "job-00000003" not in earlier.jobs
    for cut in range(last + 1, len(data)):
        log = _replay_bytes(tmp_path, data[:cut])
        assert log.torn == 1, cut
        assert _same_live_state(log, earlier), cut
    # The whole log replays every record.
    full = _replay_bytes(tmp_path, data)
    assert full.torn == 0 and full.jobs["job-00000003"][0] == "running"


def test_flipped_byte_in_a_middle_frame_loses_only_that_frame(tmp_path):
    data = _write_sample_log(tmp_path)
    frames = data.splitlines(keepends=True)
    middle = len(frames) // 2
    start = sum(len(f) for f in frames[:middle])
    without = _replay_bytes(
        tmp_path, b"".join(frames[:middle] + frames[middle + 1:])
    )
    for offset in range(start, start + len(frames[middle]) - 1):
        flipped = b"$" if data[offset:offset + 1] == b"#" else b"#"
        log = _replay_bytes(
            tmp_path, data[:offset] + flipped + data[offset + 1:]
        )
        assert log.torn == 1, offset
        assert _same_live_state(log, without), offset


def test_interrupted_compaction_tmp_file_is_ignored(tmp_path):
    data = _write_sample_log(tmp_path)
    expected = ServiceState(str(tmp_path)).replay()
    # A compaction that died before its rename leaves only its tmp.
    (tmp_path / ".tmp-compaction").write_bytes(data[: len(data) // 2])
    log = ServiceState(str(tmp_path)).replay()
    assert log.torn == 0 and _same_live_state(log, expected)
    state = ServiceState(str(tmp_path))
    reopened = state.open(config_fingerprint(CuTSConfig()))
    state.close()
    assert reopened.torn == 0 and list(reopened.jobs) == list(expected.jobs)


def test_restart_over_damaged_frames_counts_them_and_serves(
    tmp_path, data_graph
):
    oracle = CuTSMatcher(data_graph, CuTSConfig()).match(clique_graph(3))
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc:
        svc.register_graph(data_graph, "mesh")
        ids = [
            svc.submit("mesh", clique_graph(3), idempotency_key=f"k-{i}")
            for i in range(3)
        ]
        for job_id in ids:
            svc.result(job_id, timeout=30.0)
    path = tmp_path / "state.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    # Corrupt the frame that settles the first job, and tear the tail.
    victim = next(
        i for i, line in enumerate(lines)
        if ids[0].encode() in line and b'"done"' in line
    )
    lines[victim] = lines[victim].replace(b'"done"', b'"dome"')
    path.write_bytes(b"".join(lines) + b'0badf00d {"job_id":"job-0')
    with MatchingService(CuTSConfig(), state_dir=str(tmp_path)) as svc2:
        assert svc2.metrics()["state"]["frames_torn"] == 2
        # The first job's earlier frames still stand (or it is gone);
        # the others come back settled with their exact counts.
        for job_id in ids[1:]:
            assert svc2.result(job_id, timeout=5.0).count == oracle.count
        assert svc2.result(
            svc2.submit("mesh", clique_graph(3)), timeout=30.0
        ).count == oracle.count

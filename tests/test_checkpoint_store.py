"""Checkpoint store, atomic writes, and the one job-directory protocol
(fresh, resume, refuse, finish) every durable engine shares."""

import functools
import json
import os

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointMismatchError,
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_json,
    check_fingerprints,
    graph_fingerprint,
    run_durable,
)
from repro.core import CuTSConfig, CuTSMatcher
from repro.distributed.runtime import DistributedCuTS, DistributedResult
from repro.graph.generators import clique_graph, social_graph
from repro.parallel.matcher import ParallelMatcher


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------


def test_atomic_write_bytes_roundtrip_and_replace(tmp_path):
    path = str(tmp_path / "blob.bin")
    atomic_write_bytes(path, b"first")
    assert open(path, "rb").read() == b"first"
    atomic_write_bytes(path, b"second")
    assert open(path, "rb").read() == b"second"
    # No temp litter: the tmp file was renamed into place.
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_atomic_write_json_roundtrip(tmp_path):
    path = str(tmp_path / "m.json")
    atomic_write_json(path, {"a": 1, "nested": {"b": [1, 2]}})
    assert json.load(open(path)) == {"a": 1, "nested": {"b": [1, 2]}}


# ---------------------------------------------------------------------------
# Snapshots.
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    bufs = [np.arange(5, dtype=np.int64), np.array([7, 8], dtype=np.int64)]
    store.save_snapshot(0, bufs, {"count": 3, "layout": []})
    loaded = store.load_latest_snapshot()
    assert loaded is not None
    seq, buffers, meta = loaded
    assert seq == 0
    assert meta["count"] == 3
    assert [b.tolist() for b in buffers] == [[0, 1, 2, 3, 4], [7, 8]]


def test_latest_snapshot_wins_and_prune_keeps_newest(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    for seq in range(4):
        store.save_snapshot(seq, [], {"count": seq})
    assert store.snapshot_seqs() == [0, 1, 2, 3]
    assert store.load_latest_snapshot()[2]["count"] == 3
    store.prune_snapshots(keep=2)
    assert store.snapshot_seqs() == [2, 3]
    store.prune_snapshots(keep=0)
    assert store.snapshot_seqs() == []


def test_corrupt_newest_snapshot_falls_back(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    store.save_snapshot(0, [np.arange(3, dtype=np.int64)], {"count": 1})
    # A torn write: snapshot-00000001.npz exists but is garbage.
    torn = os.path.join(store.directory, "snapshot-00000001.npz")
    with open(torn, "wb") as fh:
        fh.write(b"\x00not-a-zipfile")
    seq, buffers, meta = store.load_latest_snapshot()
    assert seq == 0
    assert meta["count"] == 1


def test_empty_store_has_no_snapshot(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    assert store.load_latest_snapshot() is None
    assert store.read_manifest() is None


# ---------------------------------------------------------------------------
# Spills and shard results.
# ---------------------------------------------------------------------------


def test_spill_roundtrip_and_delete(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    name = store.save_spill(0, np.arange(9, dtype=np.int64))
    assert name == "spill-00000000.npy"
    assert store.load_spill(name).tolist() == list(range(9))
    store.delete_spill(name)
    assert not os.path.exists(os.path.join(store.directory, name))


def test_spill_name_validation(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    with pytest.raises(ValueError):
        store.load_spill("../../etc/passwd")
    with pytest.raises(ValueError):
        store.delete_spill("manifest.json")


def test_part_results_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    store.save_part(2, {"count": 11})
    store.save_part(0, {"count": 5})
    parts = store.load_parts()
    assert parts == {0: {"count": 5}, 2: {"count": 11}}


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


def test_graph_fingerprint_distinguishes_graphs():
    a = social_graph(50, 3, seed=1)
    b = social_graph(50, 3, seed=2)
    assert graph_fingerprint(a) == graph_fingerprint(social_graph(50, 3, seed=1))
    assert graph_fingerprint(a) != graph_fingerprint(b)


class _Killed(Exception):
    """Stands in for a crash in the middle of a durable run."""


def _abandon_durable_run(matcher, query, directory, *, every, after):
    """Start a durable run at cadence ``every`` and kill it at the
    ``after``-th expansion, leaving its last snapshot behind."""
    ticks = 0

    def tick(_state):
        nonlocal ticks
        ticks += 1
        if ticks == after:
            raise _Killed

    matcher.on_tick = tick
    try:
        with pytest.raises(_Killed):
            matcher.match(query, checkpoint_dir=directory, checkpoint_every=every)
    finally:
        matcher.on_tick = None
    assert CheckpointStore(directory).load_latest_snapshot() is not None


def test_resume_may_change_cadence_and_budget(tmp_path):
    # Neither knob is fingerprinted, so neither blocks a resume.
    data, query = social_graph(120, 3, seed=3), clique_graph(3)
    cfg = CuTSConfig(chunk_size=16)
    expected = CuTSMatcher(data, cfg).count(query)
    for name, resumer, every in (
        ("cadence", CuTSMatcher(data, cfg), 16),
        ("budget", CuTSMatcher(data, cfg, memory_budget_mb=1), 4),
    ):
        directory = str(tmp_path / name)
        _abandon_durable_run(
            CuTSMatcher(data, cfg), query, directory, every=4, after=20
        )
        resumed = resumer.match(
            query, checkpoint_dir=directory, checkpoint_every=every,
            resume=True,
        )
        assert resumed.count == expected, name


def test_check_fingerprints_raises_on_mismatch():
    current = {"data": "abc", "query": "def"}
    check_fingerprints({"data": "abc", "query": "def"}, current)
    with pytest.raises(CheckpointMismatchError):
        check_fingerprints({"data": "abc", "query": "XXX"}, current)


# ---------------------------------------------------------------------------
# Job-directory guards, on every engine.
# ---------------------------------------------------------------------------

ENGINES = ("serial", "parallel", "distributed")


@pytest.fixture(scope="module")
def small_world():
    data = social_graph(120, 3, seed=3)
    return CuTSMatcher(data, CuTSConfig()), clique_graph(3)


@pytest.fixture(scope="module")
def engines(small_world):
    """Each engine's durable entry point, ``run(query, checkpoint_dir=,
    resume=)``, over the same data graph and config."""
    matcher, _ = small_world
    with ParallelMatcher(matcher.data, matcher.config, workers=2) as pm:
        yield {
            "serial": functools.partial(run_durable, matcher),
            "parallel": pm.match,
            "distributed": DistributedCuTS(
                matcher.data, 2, matcher.config
            ).match,
        }


def _modeled_ms(result):
    if isinstance(result, DistributedResult):
        return result.runtime_ms
    return result.time_ms


def _files(directory):
    """Every file under ``directory`` with its bytes."""
    out = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_existing_job_requires_resume(tmp_path, small_world, engines, engine):
    _, query = small_world
    d = str(tmp_path / "job")
    engines[engine](query, checkpoint_dir=d)
    before = _files(d)
    with pytest.raises(ValueError, match="resume=True"):
        engines[engine](query, checkpoint_dir=d)
    assert _files(d) == before


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_requires_existing_manifest(
    tmp_path, small_world, engines, engine
):
    _, query = small_world
    void = tmp_path / "void"
    with pytest.raises(ValueError, match="nothing to resume"):
        engines[engine](query, checkpoint_dir=str(void), resume=True)
    assert not void.exists()  # a refused open creates nothing


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_refuses_mismatched_query(
    tmp_path, small_world, engines, engine
):
    _, query = small_world
    d = str(tmp_path / "job")
    engines[engine](query, checkpoint_dir=d)
    before = _files(d)
    with pytest.raises(CheckpointMismatchError):
        engines[engine](clique_graph(4), checkpoint_dir=d, resume=True)
    assert _files(d) == before


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_of_complete_job_is_instant_and_exact(
    tmp_path, small_world, engines, engine
):
    matcher, query = small_world
    d = str(tmp_path / "job")
    first = engines[engine](query, checkpoint_dir=d)
    again = engines[engine](query, checkpoint_dir=d, resume=True)
    assert again.count == first.count == matcher.match(query).count
    assert _modeled_ms(again) == _modeled_ms(first)
    assert not os.path.exists(os.path.join(d, "hb"))


# ---------------------------------------------------------------------------
# Format-1 directories written before the engines shared one protocol.
# ---------------------------------------------------------------------------

# Captured verbatim from each engine on social_graph(40, 3, seed=5) x
# clique_graph(3) at CuTSConfig(chunk_size=8): 312 embeddings.
_V1_PRINTS = {
    "version": "1",
    "config": "2b6a45659851e914ce0a9d150696fb63c31524b97afa1999c14d6530e739fd10",
    "data": "595d5bc57dc85d3229bea6cdc0d1c458211017bfcee98726c8b7992fb7239fdb",
    "query": "d50dc69792dd82617d6340b8b3a1cab4f7c29331d4706b39ebc55deaed2c8686",
}


def _v1_stats(**counters):
    return {
        "cancelled_at_dispatch": 0, "chunk_halvings": 0,
        "chunks_processed": 0, "max_chunk_depth": 0, "spilled_chunks": 0,
        "stage_wall_s": {}, **counters,
    }


_V1_PARTS = {  # multi-core shard results, workers=1, oversplit=2
    0: {
        "checksum": "e557434c533f924c", "count": 166, "order": [0, 1, 2],
        "stats": _v1_stats(
            intersection_calls={"c": 4, "p": 0},
            paths_per_depth=[20, 113, 166], peak_frontier=166,
            peak_tracked_bytes=4784, peak_trie_words=598,
        ),
        "time_ms": 0.004371105072463768,
    },
    1: {
        "checksum": "4774934f17c6ebe4", "count": 146, "order": [0, 1, 2],
        "stats": _v1_stats(
            intersection_calls={"c": 4, "p": 0},
            paths_per_depth=[20, 115, 146], peak_frontier=146,
            peak_tracked_bytes=4496, peak_trie_words=562,
        ),
        "time_ms": 0.004370960144927536,
    },
}

_V1_JOBS = {
    "serial": {
        "partial": {
            "version": 1, "fingerprints": {**_V1_PRINTS, "shard": "0/1"},
            "part": 0, "num_parts": 1, "complete": False,
        },
        "complete": {
            "version": 1, "fingerprints": {**_V1_PRINTS, "shard": "0/1"},
            "part": 0, "num_parts": 1, "complete": True,
            "count": 312, "time_ms": 0.05381376811594203,
            "stats": _v1_stats(
                chunks_processed=36, intersection_calls={"c": 98, "p": 0},
                max_chunk_depth=2, paths_per_depth=[40, 228, 312],
                peak_frontier=98, peak_tracked_bytes=3888,
                peak_trie_words=344,
            ),
            "order": [0, 1, 2],
        },
    },
    "parallel": {
        "partial": {
            "version": 1,
            "fingerprints": {
                **_V1_PRINTS, "mode": "parallel", "num_parts": "2",
            },
            "num_parts": 2, "complete": False,
        },
        "complete": {
            "version": 1,
            "fingerprints": {
                **_V1_PRINTS, "mode": "parallel", "num_parts": "2",
            },
            "num_parts": 2, "complete": True,
            "count": 312, "time_ms": 0.004371105072463768,
        },
    },
    "distributed": {
        "partial": {
            "version": 1,
            "fingerprints": {
                **_V1_PRINTS, "mode": "distributed", "num_ranks": "2",
            },
            "complete": False,
        },
        "complete": {
            "version": 1,
            "fingerprints": {
                **_V1_PRINTS, "mode": "distributed", "num_ranks": "2",
            },
            "complete": True,
            "result": {
                "count": 312, "runtime_ms": 0.027632608695652174,
                "per_rank_clock_ms": [
                    0.027629710144927537, 0.027632608695652174,
                ],
                "per_rank_busy_ms": [
                    0.027629710144927537, 0.027632608695652174,
                ],
                "chunks_processed": [18, 18], "work_transfers": 0,
                "words_transferred": 2, "faults_injected": 0,
                "retransmissions": 0, "ranks_failed": 0,
                "recovered_chunks": 0, "chunk_halvings": 0,
            },
        },
    },
}


def _resume_v1(engine, directory):
    data, query = social_graph(40, 3, seed=5), clique_graph(3)
    cfg = CuTSConfig(chunk_size=8)
    if engine == "serial":
        return CuTSMatcher(data, cfg).match(
            query, checkpoint_dir=directory, resume=True
        )
    if engine == "parallel":
        # Two workers would cut eight intervals: the stored two must win.
        with ParallelMatcher(data, cfg, workers=2) as pm:
            return pm.match(query, checkpoint_dir=directory, resume=True)
    return DistributedCuTS(data, 2, cfg).match(
        query, checkpoint_dir=directory, resume=True
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_format_1_directories_resume_exactly(tmp_path, engine):
    job = _V1_JOBS[engine]

    # A partial job, with the progress each engine had committed.
    partial = CheckpointStore(str(tmp_path / "partial"))
    partial.write_manifest(job["partial"])
    if engine == "parallel":
        partial.save_part(0, _V1_PARTS[0])
    if engine == "distributed":
        partial.save_snapshot(
            5, [],
            {
                "committed": [[0, 0, 8, 132], [1, 0, 8, 114]],
                "committed_total": 246, "events": 20,
            },
        )
    resumed = _resume_v1(engine, partial.directory)
    assert resumed.count == 312
    written = partial.read_manifest()
    if engine == "distributed":
        # Only the uncommitted intervals ran again.
        assert sum(resumed.chunks_processed) < 36
        assert written["fingerprints"] == job["complete"]["fingerprints"]
        assert set(written["result"]) == set(job["complete"]["result"])
    else:
        assert written == job["complete"]
    if engine == "parallel":
        assert partial.load_parts() == {0: _V1_PARTS[0], 1: _V1_PARTS[1]}
    assert partial.snapshot_seqs() == []

    # A complete job answers from its manifest (and, multi-core, parts).
    complete = CheckpointStore(str(tmp_path / "complete"))
    complete.write_manifest(job["complete"])
    if engine == "parallel":
        for part, payload in _V1_PARTS.items():
            complete.save_part(part, payload)
    again = _resume_v1(engine, complete.directory)
    assert again.count == 312
    if engine == "distributed":
        assert again.chunks_processed == (18, 18)
    assert _modeled_ms(again) == (
        job["complete"]["result"]["runtime_ms"]
        if engine == "distributed" else job["complete"]["time_ms"]
    )


def test_match_api_guards(tmp_path, small_world):
    matcher, query = small_world
    with pytest.raises(ValueError, match="count-only"):
        matcher.match(
            query, checkpoint_dir=str(tmp_path / "x"), materialize=True
        )
    with pytest.raises(ValueError, match="requires checkpoint_dir"):
        matcher.match(query, resume=True)


def test_durable_serial_equals_inprocess(tmp_path, small_world):
    matcher, query = small_world
    baseline = matcher.match(query)
    durable = run_durable(
        matcher, query, checkpoint_dir=str(tmp_path / "j2"), checkpoint_every=3
    )
    assert durable.count == baseline.count
    assert durable.stats.paths_per_depth == baseline.stats.paths_per_depth


def test_durable_sharded_counts_sum(tmp_path, small_world):
    matcher, query = small_world
    baseline = matcher.match(query)
    total = 0
    for part in range(3):
        r = run_durable(
            matcher, query,
            checkpoint_dir=str(tmp_path / f"shard{part}"),
            part=part, num_parts=3,
        )
        assert r.shards == (part,)
        total += r.count
    assert total == baseline.count

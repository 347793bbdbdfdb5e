"""Checkpoint store, atomic writes, and fingerprint guards."""

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
from repro.graph.generators import clique_graph, social_graph


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


def test_heartbeat_paths_live_under_hb(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    assert os.path.isdir(store.heartbeat_dir)
    assert store.heartbeat_path(3).endswith(os.path.join("hb", "part-00003"))


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
# run_durable misuse guards.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    data = social_graph(120, 3, seed=3)
    return CuTSMatcher(data, CuTSConfig()), clique_graph(3)


def test_existing_job_requires_resume(tmp_path, small_world):
    matcher, query = small_world
    d = str(tmp_path / "job")
    run_durable(matcher, query, checkpoint_dir=d)
    with pytest.raises(ValueError, match="resume=True"):
        run_durable(matcher, query, checkpoint_dir=d)


def test_resume_requires_existing_manifest(tmp_path, small_world):
    matcher, query = small_world
    with pytest.raises(ValueError, match="nothing to resume"):
        run_durable(
            matcher, query, checkpoint_dir=str(tmp_path / "void"), resume=True
        )


def test_resume_refuses_mismatched_query(tmp_path, small_world):
    matcher, query = small_world
    d = str(tmp_path / "job")
    run_durable(matcher, query, checkpoint_dir=d)
    with pytest.raises(CheckpointMismatchError):
        run_durable(matcher, clique_graph(4), checkpoint_dir=d, resume=True)


def test_resume_of_complete_job_is_instant_and_exact(tmp_path, small_world):
    matcher, query = small_world
    d = str(tmp_path / "job")
    first = run_durable(matcher, query, checkpoint_dir=d)
    again = run_durable(matcher, query, checkpoint_dir=d, resume=True)
    assert again.count == first.count == matcher.match(query).count
    assert again.time_ms == first.time_ms


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

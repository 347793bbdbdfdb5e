"""A durable job's checkpoint directory, and the one protocol every
engine opens, resumes and finishes a job by.

One directory per job:

``manifest.json``
    Job identity (format version, fingerprints, the engine's
    partitioning fields) plus, once the job finishes, its final outcome
    — so resuming a *complete* job returns instantly without touching
    progress files.
``snapshot-<seq>.npz``
    One self-contained progress snapshot: a list of int64 buffers (the
    serial runner's serialized work stack, one
    :func:`~repro.storage.serialize.serialize_trie` buffer per
    in-memory item) plus a JSON meta block (partial count, stats, spill
    references; the distributed runtime's committed ledger intervals)
    embedded as a uint8 array.  A snapshot is a **single file committed
    by rename**, so a SIGKILL mid-write leaves the previous snapshot
    intact; the newest *loadable* snapshot wins.
``spill-<seq>.npy``
    A frontier chunk evicted by the memory governor past its high-water
    mark; referenced by name from snapshot meta blocks and loaded
    lazily when the runner pops the spilled item.
``part-<part>.json``
    Multi-core mode: one completed root-interval shard (count, stats,
    modeled time), written atomically when the shard's future resolves;
    resume re-runs only the missing parts.

**Protocol.** :meth:`CheckpointStore.open_job` decides, from the
manifest alone, whether a run starts a fresh job, resumes one, or is
refused (an existing job without ``resume``, ``resume`` with no
manifest, a fingerprint mismatch), and refuses before it creates
anything.  :meth:`CheckpointStore.finish_job` writes the complete
manifest and drops every snapshot and spill.  Each engine keeps only
its own progress format and its own decoding of a complete outcome;
:func:`job_fingerprints` builds every job's fingerprints.

All writes go through :mod:`repro.checkpoint.atomic` (analysis rule
RP006 enforces this).
"""

from __future__ import annotations

import io
import json
import os
import re
from typing import Any

import numpy as np

from ..core.config import CuTSConfig
from ..fingerprint import check_fingerprints, config_fingerprint, graph_fingerprint
from ..graph.csr import CSRGraph
from .atomic import atomic_write_bytes, atomic_write_json

__all__ = ["CheckpointStore", "FORMAT_VERSION", "job_fingerprints"]

FORMAT_VERSION = 1
"""Bump when the snapshot/manifest layout changes incompatibly."""

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.npz$")
_SPILL_RE = re.compile(r"^spill-(\d{8})\.npy$")
_PART_RE = re.compile(r"^part-(\d{5})\.json$")


def job_fingerprints(
    config: CuTSConfig, data: CSRGraph, query: CSRGraph, **engine: object
) -> dict[str, str]:
    """The fingerprints a job's manifest carries: the layout version,
    the config, data and query content hashes, and the engine's own
    identity entries (``shard="0/1"``; ``mode="parallel", num_parts=8``;
    ``mode="distributed", num_ranks=2``), stringified."""
    return {
        "version": str(FORMAT_VERSION),
        "config": config_fingerprint(config),
        "data": graph_fingerprint(data),
        "query": graph_fingerprint(query),
        **{key: str(value) for key, value in engine.items()},
    }


def _read_manifest(path: str) -> dict[str, Any] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except FileNotFoundError:
        return None
    return dict(loaded)


class CheckpointStore:
    """Filesystem backend for one durable job."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        # The manifest header finish_job writes: version, fingerprints
        # and partitioning fields, as open_job settled them.
        self.job: dict[str, Any] = {}

    @classmethod
    def open_job(
        cls,
        directory: str,
        fingerprints: dict[str, str],
        *,
        resume: bool,
        **fields: Any,
    ) -> tuple["CheckpointStore", dict[str, Any] | None]:
        """Open ``directory`` for the job ``fingerprints`` names.

        Returns the store and the manifest to resume from (``None`` for
        a fresh job, whose incomplete manifest — ``fields`` included —
        is written here).  An existing job needs ``resume=True``, a
        resume needs a manifest, and the fingerprints must match
        (:class:`~repro.fingerprint.CheckpointMismatchError`); a refused
        open raises before it creates anything.  On resume each of
        ``fields`` keeps its stored value — a job's partitioning is
        fixed when it starts — and a fingerprint of the same name is
        checked at that value.
        """
        path = os.path.abspath(directory)
        manifest = _read_manifest(os.path.join(path, "manifest.json"))
        if manifest is None:
            if resume:
                raise ValueError(
                    f"nothing to resume: {path!r} has no manifest"
                )
        elif not resume:
            raise ValueError(
                f"checkpoint directory {path!r} already holds a job; pass "
                "resume=True to continue it (or point at a fresh directory)"
            )
        else:
            fields = {
                key: manifest.get(key, value) for key, value in fields.items()
            }
            fingerprints = {
                key: str(fields[key]) if key in fields else value
                for key, value in fingerprints.items()
            }
            check_fingerprints(
                dict(manifest.get("fingerprints", {})), fingerprints
            )
        store = cls(path)
        store.job = {
            "version": FORMAT_VERSION, "fingerprints": fingerprints, **fields
        }
        if manifest is None:
            store.write_manifest({**store.job, "complete": False})
        return store, manifest

    def finish_job(self, **outcome: Any) -> None:
        """Mark the job complete with ``outcome``, then drop its
        snapshots and spills (the manifest alone now answers a resume)."""
        self.write_manifest({**self.job, "complete": True, **outcome})
        self.prune_snapshots(keep=0)
        for name in os.listdir(self.directory):
            if _SPILL_RE.match(name):
                self.delete_spill(name)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    def _snapshot_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"snapshot-{seq:08d}.npz")

    def _spill_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"spill-{seq:08d}.npy")

    def _part_path(self, part: int) -> str:
        return os.path.join(self.directory, f"part-{part:05d}.json")

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, payload: dict[str, Any]) -> None:
        atomic_write_json(self.manifest_path, payload)

    def read_manifest(self) -> dict[str, Any] | None:
        return _read_manifest(self.manifest_path)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(
        self,
        seq: int,
        buffers: list[np.ndarray],
        meta: dict[str, Any],
    ) -> str:
        """Commit one snapshot (single atomic file); returns its path."""
        payload: dict[str, np.ndarray] = {
            "meta": np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            ),
        }
        for i, buf in enumerate(buffers):
            payload[f"item_{i:05d}"] = np.ascontiguousarray(
                buf, dtype=np.int64
            )
        sink = io.BytesIO()
        np.savez(sink, **payload)
        path = self._snapshot_path(seq)
        atomic_write_bytes(path, sink.getvalue())
        return path

    def snapshot_seqs(self) -> list[int]:
        """Committed snapshot sequence numbers, ascending."""
        seqs = []
        for name in os.listdir(self.directory):
            m = _SNAPSHOT_RE.match(name)
            if m:
                seqs.append(int(m.group(1)))
        return sorted(seqs)

    def load_latest_snapshot(
        self,
    ) -> tuple[int, list[np.ndarray], dict[str, Any]] | None:
        """Newest loadable snapshot as ``(seq, buffers, meta)``."""
        for seq in reversed(self.snapshot_seqs()):
            try:
                with np.load(self._snapshot_path(seq)) as archive:
                    meta = json.loads(
                        bytes(archive["meta"].tobytes()).decode("utf-8")
                    )
                    names = sorted(
                        n for n in archive.files if n.startswith("item_")
                    )
                    buffers = [
                        np.asarray(archive[n], dtype=np.int64) for n in names
                    ]
            except (OSError, ValueError, KeyError):  # pragma: no cover
                continue  # torn/corrupt snapshot: fall back to the previous
            return seq, buffers, dict(meta)
        return None

    def prune_snapshots(self, keep: int = 2) -> None:
        """Drop all but the ``keep`` newest snapshots (``0`` = all)."""
        seqs = self.snapshot_seqs()
        for seq in seqs[:-keep] if keep > 0 else seqs:
            try:
                os.unlink(self._snapshot_path(seq))
            except OSError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------
    # Spills
    # ------------------------------------------------------------------
    def save_spill(self, seq: int, buffer: np.ndarray) -> str:
        """Persist one spilled work item; returns its file *name*."""
        sink = io.BytesIO()
        np.save(sink, np.ascontiguousarray(buffer, dtype=np.int64))
        path = self._spill_path(seq)
        atomic_write_bytes(path, sink.getvalue())
        return os.path.basename(path)

    def load_spill(self, name: str) -> np.ndarray:
        """Load a spilled work item by the name ``save_spill`` returned."""
        if not _SPILL_RE.match(name):
            raise ValueError(f"not a spill file name: {name!r}")
        return np.asarray(
            np.load(os.path.join(self.directory, name)), dtype=np.int64
        )

    def delete_spill(self, name: str) -> None:
        if not _SPILL_RE.match(name):
            raise ValueError(f"not a spill file name: {name!r}")
        try:
            os.unlink(os.path.join(self.directory, name))
        except OSError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------
    # Multi-core shard results
    # ------------------------------------------------------------------
    def save_part(self, part: int, payload: dict[str, Any]) -> None:
        """Persist one completed root-interval shard result."""
        atomic_write_json(self._part_path(part), payload)

    def load_parts(self) -> dict[int, dict[str, Any]]:
        """All persisted shard results, keyed by part id."""
        out: dict[int, dict[str, Any]] = {}
        for name in os.listdir(self.directory):
            m = _PART_RE.match(name)
            if not m:
                continue
            try:
                with open(
                    os.path.join(self.directory, name), "r", encoding="utf-8"
                ) as fh:
                    out[int(m.group(1))] = dict(json.load(fh))
            except (OSError, ValueError):  # pragma: no cover - torn file
                continue
        return out

"""Crash-recoverable service state: one append-only log beside a
content-addressed graph store.

``repro serve --state-dir DIR`` makes the matching service survive a
``kill -9``::

    DIR/
      state.jsonl         the log: one checksum-framed JSON record a line
      graphs/<fp>.npz     CSR arrays (content-addressed)

Replay reads the records in order:

* ``manifest`` — first: format version, the count-relevant config
  fingerprint and the highest job sequence issued before the last
  compaction.  A mismatch, or a format-1 dir (``service.json``), raises
  :class:`~repro.fingerprint.CheckpointMismatchError`.
* ``job`` — a job's whole record; the last one per job id wins, and one
  in state ``dropped`` (admission refused an already journaled job)
  removes the job.
* ``names`` — the name -> fingerprint map, appended on (un)register.
* ``version`` — one lineage link, which is also the name move: the
  last record for a name decides its head.  A commit writes the child's
  graph bytes first; a record whose graph is missing is skipped.

A line is ``<crc32 hex> <json>``.  A frame that fails its checksum,
does not parse or lacks its newline (a torn tail) is counted
(``frames_torn``) and skipped, never fatal.  A batch is one ``write``
on an ``O_APPEND`` handle and one ``fsync``.  Compaction rewrites the
live state — the retained version chains, names, every pending and
running job and the :data:`RETAINED_JOBS` most recently settled ones —
at every :meth:`ServiceState.open` and whenever the records appended
since the last one pass twice the live records plus ``RETAINED_JOBS``.
"""

from __future__ import annotations

import errno
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..analysis.sanitizer import make_lock
from ..checkpoint.atomic import atomic_write_bytes
from ..fingerprint import CheckpointMismatchError, check_fingerprints
from ..graph.build import from_edges
from ..graph.csr import CSRGraph, INDEX_DTYPE
from ..versioning.lineage import recover_chains, version_record

__all__ = ["RETAINED_JOBS", "ServiceState", "graph_from_record", "graph_record"]

FORMAT_VERSION = 2
LOG_NAME = "state.jsonl"
RETAINED_JOBS = 1024
"""Settled jobs kept by the service's job table and by compaction; the
oldest-settled job goes first.  About 8 MB of job state at ~7.7 KB per
job."""
DROPPED = "dropped"
_LIVE = frozenset({"pending", "running"})


def graph_record(graph: CSRGraph) -> dict[str, object]:
    """JSON-safe description of a (small) graph for the job journal.

    Queries are tiny — a handful of vertices — so an explicit edge list
    is the right durability format: human-readable in the journal and
    rebuildable without touching the content-addressed graph store.
    """
    record: dict[str, object] = {
        "edges": [[int(u), int(v)] for u, v in graph.edge_list()],
        "num_vertices": int(graph.num_vertices),
        "name": graph.name,
    }
    if graph.labels is not None:
        record["labels"] = [int(x) for x in graph.labels]
    return record


def graph_from_record(record: dict[str, object]) -> CSRGraph:
    """Inverse of :func:`graph_record`."""
    edges = np.asarray(record["edges"], dtype=INDEX_DTYPE).reshape(-1, 2)
    graph = from_edges(
        edges,
        num_vertices=int(record["num_vertices"]),  # type: ignore[arg-type]
        name=str(record.get("name", "graph")),
    )
    labels = record.get("labels")
    if labels is not None:
        graph = graph.with_labels(labels)
    return graph


def _frame(kind: str, body: dict[str, Any]) -> bytes:
    payload = json.dumps(
        dict(body, type=kind), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def _unframe(frame: bytes) -> dict[str, Any]:
    """The record in one framed line; ``ValueError`` when it is damaged
    or torn (no newline)."""
    crc, _, payload = frame.partition(b" ")
    if frame[-1:] != b"\n" or int(crc, 16) != zlib.crc32(payload[:-1]):
        raise ValueError("damaged frame")
    return json.loads(payload)


@dataclass
class LogState:
    """The log's live state: what replay yields, kept current by every
    append, and what compaction writes back."""

    manifest: dict[str, Any] | None = None
    names: dict[str, str] = field(default_factory=dict)
    versions: list[dict[str, Any]] = field(default_factory=list)
    # Each job's state and last frame, ordered by that frame's log
    # position (so settled jobs come in settle order).
    jobs: dict[str, tuple[str, bytes]] = field(default_factory=dict)
    job_seq: int = 0
    torn: int = 0

    def apply(self, record: dict[str, Any], frame: bytes,
              available: set[str] | None = None) -> None:
        """Fold one record in.  ``available`` lists the graphs on disk
        (``None`` trusts the writer, which saved the graph first)."""
        kind = record["type"]
        if kind == "manifest":
            self.manifest = record
            self.job_seq = max(self.job_seq, record["job_seq"])
        elif kind == "job":
            job_id, state = record["job_id"], record["state"]
            self.job_seq = max(self.job_seq, int(job_id.rsplit("-", 1)[-1]))
            self.jobs.pop(job_id, None)
            if state != DROPPED:
                self.jobs[job_id] = (state, frame)
        elif kind == "names":
            self.names = dict(record["names"])
        elif kind == "version":
            self.versions.append(record)
            if available is None or record["fingerprint"] in available:
                self.names[record["name"]] = record["fingerprint"]
        else:
            raise ValueError(f"unknown record type {kind!r}")

    def retain(self) -> None:
        """Drop all but the :data:`RETAINED_JOBS` newest settled jobs."""
        settled = [
            job_id for job_id, (state, _) in self.jobs.items()
            if state not in _LIVE
        ]
        for job_id in settled[: max(0, len(settled) - RETAINED_JOBS)]:
            del self.jobs[job_id]

    def job_records(self) -> list[dict[str, Any]]:
        """Every retained job's last record, in log order."""
        return [_unframe(frame) for _, frame in self.jobs.values()]


class ServiceState:
    """Durable face of one :class:`~repro.service.MatchingService`.

    One lock serialises appends, so the writer thread's job batches and
    a request thread's commit or registration never interleave.
    :meth:`open` must run before the first append; :meth:`replay` and
    :meth:`load_jobs` only read.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self.graphs_dir = os.path.join(self.directory, "graphs")
        self.path = os.path.join(self.directory, LOG_NAME)
        os.makedirs(self.graphs_dir, exist_ok=True)
        self.jobs_journaled = 0
        self.graphs_saved = 0
        self.versions_journaled = 0
        self.frames_torn = 0
        self.compactions = 0
        self._lock = make_lock("ServiceState._lock")
        self._fd: int | None = None
        self._manifest: dict[str, Any] = {}
        self._log = LogState()
        self._live = self._appended = 0

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------
    def open(self, config_fp: str) -> LogState:
        """Stamp a fresh log, or verify and compact an existing one, and
        hold the append handle; returns the live state, which later
        appends keep folding into."""
        if os.path.exists(os.path.join(self.directory, "service.json")):
            raise CheckpointMismatchError(
                f"{self.directory} is a format-1 state dir (service.json); "
                f"this version reads format {FORMAT_VERSION} only"
            )
        self._manifest = {"format": FORMAT_VERSION, "config": config_fp}
        log = self.replay()
        if os.path.exists(self.path):
            check_fingerprints(
                {k: str((log.manifest or {}).get(k)) for k in self._manifest},
                {k: str(v) for k, v in self._manifest.items()},
            )
        with self._lock:
            self._log = log
            self._compact()
        return log

    def close(self) -> None:
        """Release the append handle; later appends raise ``OSError``."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def replay(self) -> LogState:
        """Read the log in order, retention applied."""
        log = LogState()
        if os.path.exists(self.path):
            available = self.stored_fingerprints()
            with open(self.path, "rb") as fh:
                for frame in fh:
                    try:
                        log.apply(_unframe(frame), frame, available)
                    except (KeyError, TypeError, ValueError, AttributeError):
                        log.torn += 1  # damaged, torn or malformed
        log.retain()
        self.frames_torn += log.torn
        return log

    def load_jobs(self) -> list[dict[str, Any]]:
        """Every retained job's last record, in log order."""
        return self.replay().job_records()

    def _compact(self) -> None:
        """Rewrite the log as its live state.  Caller holds ``_lock``."""
        log = self._log
        log.retain()
        chains, malformed = recover_chains(
            log.versions, self.stored_fingerprints()
        )
        self.frames_torn += malformed
        log.versions = [
            version_record(version)
            for name, chain in chains.items()
            if log.names.get(name) == chain[-1].fingerprint
            for version in chain
        ]
        frames = [_frame("manifest", {**self._manifest, "job_seq": log.job_seq})]
        frames += [_frame("version", v) for v in log.versions]
        frames.append(_frame("names", {"names": log.names}))
        frames += [frame for _, frame in log.jobs.values()]
        atomic_write_bytes(self.path, b"".join(frames))
        if self._fd is not None:  # appends so far went to the old file
            os.close(self._fd)
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        self._live, self._appended = len(frames), 0
        self.compactions += 1

    def _append(self, kind: str, records: list[dict[str, Any]]) -> None:
        """One ``write`` and one ``fsync`` for the batch (a failed write
        is truncated away, so no later frame glues onto a torn one),
        then a compaction once the log outgrew its bound.  Caller holds
        ``_lock``."""
        if self._fd is None:
            raise OSError(errno.EBADF, "the service log is not open")
        frames = [_frame(kind, record) for record in records]
        data = b"".join(frames)
        end = os.lseek(self._fd, 0, os.SEEK_END)
        try:
            if os.write(self._fd, data) != len(data):
                raise OSError(errno.ENOSPC, "short write to the log")
            os.fsync(self._fd)
        except OSError:
            os.ftruncate(self._fd, end)
            raise
        for record, frame in zip(records, frames):
            self._log.apply(dict(record, type=kind), frame)
        self._appended += len(frames)
        if self._appended > 2 * self._live + RETAINED_JOBS:
            self._compact()

    def record_jobs(self, records: list[dict[str, Any]]) -> None:
        """Group-commit a batch of job records (one write, one fsync)."""
        with self._lock:
            self._append("job", records)
            self.jobs_journaled += len(records)

    def append_version(self, record: dict[str, Any]) -> None:
        """Append one lineage record, synced before returning.  Called
        *after* :meth:`save_graph` wrote the child, so the record (which
        also moves the name) always names a graph on disk."""
        with self._lock:
            self._append("version", [record])
            self.versions_journaled += 1

    def save_names(self, names: dict[str, str]) -> None:
        """Append the name -> fingerprint map when it changed."""
        with self._lock:
            if names != self._log.names:
                self._append("names", [{"names": names}])

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def _graph_path(self, fingerprint: str) -> str:
        return os.path.join(self.graphs_dir, f"{fingerprint}.npz")

    def stored_fingerprints(self) -> set[str]:
        """Fingerprints of the graphs on disk."""
        return {f[:-4] for f in os.listdir(self.graphs_dir) if f.endswith(".npz")}

    def save_graph(self, graph: CSRGraph, fingerprint: str) -> None:
        """Persist ``graph`` content-addressed (idempotent: an existing
        file for the same fingerprint is already the same bytes)."""
        path = self._graph_path(fingerprint)
        if os.path.exists(path):
            return
        arrays = {
            "num_vertices": np.asarray([graph.num_vertices], dtype=INDEX_DTYPE),
            "indptr": graph.indptr,
            "indices": graph.indices,
            "rindptr": graph.rindptr,
            "rindices": graph.rindices,
            "name": np.asarray(graph.name),
        }
        if graph.labels is not None:
            arrays["labels"] = graph.labels
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        atomic_write_bytes(path, buffer.getvalue())
        self.graphs_saved += 1

    def forget_graph(self, fingerprint: str) -> None:
        try:
            os.unlink(self._graph_path(fingerprint))
        except FileNotFoundError:
            return

    def load_graphs(self) -> dict[str, CSRGraph]:
        """Every persisted graph, keyed by stored fingerprint."""
        graphs: dict[str, CSRGraph] = {}
        for fp in sorted(self.stored_fingerprints()):
            with np.load(self._graph_path(fp), allow_pickle=False) as npz:
                labels = npz["labels"] if "labels" in npz.files else None
                graphs[fp] = CSRGraph(
                    num_vertices=int(npz["num_vertices"][0]),
                    indptr=npz["indptr"],
                    indices=npz["indices"],
                    rindptr=npz["rindptr"],
                    rindices=npz["rindices"],
                    name=str(npz["name"]),
                    labels=labels,
                )
        return graphs

    def snapshot(self) -> dict[str, object]:
        """Counter snapshot for ``/metrics``."""
        return {
            "directory": self.directory,
            "jobs_journaled": self.jobs_journaled,
            "graphs_saved": self.graphs_saved,
            "versions_journaled": self.versions_journaled,
            "frames_torn": self.frames_torn,
            "compactions": self.compactions,
        }

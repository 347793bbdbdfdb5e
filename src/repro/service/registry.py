"""Graph registry: load each data graph once, serve it forever.

Every one-shot entry point (``CuTSMatcher``, the CLI) pays the same tax
per query: copy the data graph in, build a matcher, throw both away.
The registry is the serving-side fix — the analogue of an inference
server keeping weights hot.  A graph is registered **once**; the handle
keeps a persistent engine bound to it (a plain in-process
:class:`~repro.core.matcher.CuTSMatcher` for ``workers == 1``, a
:class:`~repro.parallel.ParallelMatcher` — whose
:class:`~repro.parallel.sharedmem.SharedCSR` segment and process pool
live as long as the handle — for ``workers > 1``), and every request
against that graph reuses it.

Handles are keyed two ways: by **fingerprint** (content SHA-256 via
:func:`repro.fingerprint.graph_fingerprint` — the same function the
checkpoint store keys on) and by **name**.  Registering the same
content twice is idempotent.  Re-registering a *name* with different
content releases the old handle and its unnamed retired versions,
closes their engines, and fires ``on_replace(old_fingerprint)`` for
each so the service can invalidate their cache entries and stored
bytes — the one channel through which a stale answer could otherwise
alias a live name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable

from ..analysis.sanitizer import make_rlock
from ..core.config import CuTSConfig
from ..core.matcher import CuTSMatcher
from ..fingerprint import graph_fingerprint
from ..graph.csr import CSRGraph
from ..parallel.matcher import ParallelMatcher
from ..storage.overlay import spliced_graph
from ..versioning.delta import EdgeDelta
from .config import ServiceConfig

__all__ = [
    "GraphHandle",
    "GraphRegistry",
    "VersionCommit",
    "VersionConflictError",
]


class VersionConflictError(RuntimeError):
    """A concurrent commit advanced the head between delta construction
    and linking; the caller should re-read the head and retry."""


@dataclass(frozen=True)
class VersionCommit:
    """Outcome of one :meth:`GraphRegistry.mutate_edges` call.

    ``delta is None`` means the request reduced to a no-op (every
    insert already present, every delete already absent): ``child`` is
    ``parent`` and nothing changed.  ``pruned`` lists fingerprints of
    versions the retention policy evicted — the service must drop their
    cache entries.
    """

    name: str
    parent: "GraphHandle"
    child: "GraphHandle"
    delta: EdgeDelta | None
    pruned: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return self.delta is not None


def _graph_bytes(graph: CSRGraph) -> int:
    """Resident bytes of one registered graph (its CSR arrays)."""
    total = (
        graph.indptr.nbytes
        + graph.indices.nbytes
        + graph.rindptr.nbytes
        + graph.rindices.nbytes
    )
    if graph.labels is not None:
        total += graph.labels.nbytes
    return total


class GraphHandle:
    """One registered data graph plus its persistent engine."""

    def __init__(
        self,
        graph: CSRGraph,
        name: str,
        fingerprint: str,
        config: CuTSConfig,
        workers: int,
        generation: int,
        parent_fp: str | None = None,
        lineage_depth: int = 0,
        memory_budget_mb: int = 0,
    ) -> None:
        self.graph = graph
        self.name = name
        self.fingerprint = fingerprint
        self.config = config
        self.workers = workers
        self.memory_budget_mb = memory_budget_mb
        self.generation = generation
        # Version lineage: fingerprint of the version this one was
        # committed from (None for a root), this version's depth in its
        # chain, whether a newer version has superseded it as the head,
        # and the normalised delta that produced it (the dispatcher's
        # incremental probe reads it; None for roots and replacements).
        self.parent_fp = parent_fp
        self.lineage_depth = lineage_depth
        self.retired = False
        self.commit_delta: EdgeDelta | None = None
        self.registered_at = time.time()
        self.resident_bytes = _graph_bytes(graph)
        self.queries_served = 0
        self._lock = make_rlock("GraphHandle._lock")
        self._serial: CuTSMatcher | None = None
        self._parallel: ParallelMatcher | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def matcher(self) -> CuTSMatcher | ParallelMatcher:
        """The handle's persistent engine, built on first use."""
        if self.workers <= 1:
            return self.fallback_matcher()
        with self._lock:
            if self._closed:
                raise ValueError(f"graph handle {self.name!r} is closed")
            if self._parallel is None:
                self._parallel = ParallelMatcher(
                    self.graph, self.config, workers=self.workers,
                    memory_budget_mb=self.memory_budget_mb,
                )
            return self._parallel

    def fallback_matcher(self) -> CuTSMatcher:
        """A persistent in-process serial engine for this graph,
        independent of the worker pool.  The dispatcher retries a
        failed pool pass on it: a broken pool (or a chaos-injected
        pool fault) degrades one batch to serial execution instead of
        failing every job in it."""
        with self._lock:
            if self._closed:
                raise ValueError(f"graph handle {self.name!r} is closed")
            if self._serial is None:
                self._serial = CuTSMatcher(
                    self.graph, self.config,
                    memory_budget_mb=self.memory_budget_mb,
                )
            return self._serial

    def live_worker_pids(self) -> list[int]:
        """Pids of an already-built pool engine (empty when the handle
        serves in-process or the pool was never built).  Read-only: it
        never *creates* an engine — the cluster's kill path uses it to
        SIGKILL a crashed replica's workers without booting new ones."""
        with self._lock:
            parallel = self._parallel
        if parallel is None:
            return []
        try:
            return list(parallel.worker_pids())
        except Exception:
            return []  # pool already torn down under us

    def close(self) -> None:
        # Swap the engines out under the lock, shut them down outside
        # it: ParallelMatcher.close() blocks on pool shutdown, and a
        # blocked holder would stall every thread touching this handle
        # (RP010).
        with self._lock:
            self._closed = True
            parallel, self._parallel = self._parallel, None
            self._serial = None
        if parallel is not None:
            parallel.close()

    def note_served(self, count: int) -> None:
        """Credit ``count`` settled requests (dispatch thread)."""
        with self._lock:
            self.queries_served += count

    def relink(
        self,
        parent_fp: str | None,
        lineage_depth: int,
        delta: EdgeDelta | None,
    ) -> None:
        """Re-attach this handle into a chain as its new head.  Happens
        when a delta cycles back to retained content (insert then
        delete the same edge): content addressing means the *handle*
        is the version, so it simply resumes as head."""
        with self._lock:
            self.parent_fp = parent_fp
            self.lineage_depth = lineage_depth
            self.commit_delta = delta
            self.retired = False

    def incremental_basis(self) -> tuple[str | None, "EdgeDelta | None"]:
        """The ``(parent fingerprint, commit delta)`` pair this version
        was committed from, read atomically — what the dispatcher's
        incremental probe keys its parent-cache lookup on.  ``(None,
        None)`` for roots and whole-graph replacements."""
        with self._lock:
            if self.commit_delta is None:
                return None, None
            return self.parent_fp, self.commit_delta

    def mark_retired(self) -> None:
        """A newer version superseded this one as the name's head; the
        handle stays open and servable (``as_of`` time travel) until
        retention prunes it."""
        with self._lock:
            self.retired = True

    def info(self) -> dict[str, object]:
        """JSON description for ``/graphs``."""
        with self._lock:
            served = self.queries_served
            retired = self.retired
            parent_fp = self.parent_fp
            depth = self.lineage_depth
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "resident_bytes": self.resident_bytes,
            "generation": self.generation,
            "workers": self.workers,
            "queries_served": served,
            "parent_fingerprint": parent_fp,
            "lineage_depth": depth,
            "retired": retired,
        }


class GraphRegistry:
    """Fingerprint- and name-keyed store of :class:`GraphHandle`."""

    def __init__(
        self,
        config: CuTSConfig,
        *,
        service_config: ServiceConfig | None = None,
        workers: int = 1,
        on_replace: Callable[[str], None] | None = None,
    ) -> None:
        sc = service_config or ServiceConfig()
        self.config = config
        self.workers = workers
        self.max_versions = sc.max_versions
        self.memory_budget_mb = sc.memory_budget_mb
        self._on_replace = on_replace
        self._lock = make_rlock("GraphRegistry._lock")
        self._by_name: dict[str, GraphHandle] = {}
        self._by_fp: dict[str, GraphHandle] = {}
        self._generation = 0
        self.registered = 0
        self.replaced = 0
        self.commits = 0

    # ------------------------------------------------------------------
    def register(self, graph: CSRGraph, name: str | None = None) -> GraphHandle:
        """Register ``graph`` (idempotent for identical content).

        Reusing a name for *different* content releases the old head
        and the retired versions behind it up to the first one another
        name holds (closing their engines), fires ``on_replace`` with
        each released fingerprint so dependent caches invalidate, and
        starts a fresh chain at the new content.
        """
        if graph.num_vertices == 0:
            raise ValueError("cannot register an empty data graph")
        fp = graph_fingerprint(graph)
        name = name or graph.name or fp[:12]
        released: list[GraphHandle] = []
        with self._lock:
            existing = self._by_name.get(name)
            if existing is not None and existing.fingerprint == fp:
                return existing
            same_content = self._by_fp.get(fp)
            if existing is not None:
                chain = self._chain_locked(existing)
                self._unlink(existing)
                named = set(map(id, self._by_name.values()))
                released = [existing] + list(
                    takewhile(lambda h: id(h) not in named, chain[1:])
                )
                for stale in released[1:]:
                    self._by_fp.pop(stale.fingerprint, None)
                self.replaced += 1
            if same_content is not None and same_content not in released:
                # Same bytes under a second name: alias, don't reload.
                self._by_name[name] = same_content
                handle = same_content
            else:
                handle = self._add_locked(graph, name, fp, None, 0)
                self._by_name[name] = handle
        # The dead engines shut down only after the lock is released:
        # a pool shutdown blocks, and registrations of *other* graphs
        # must not queue behind it (RP010).
        for stale in released:
            stale.close()
            if self._on_replace is not None:
                self._on_replace(stale.fingerprint)
        return handle

    def _add_locked(
        self,
        graph: CSRGraph,
        name: str,
        fp: str,
        parent_fp: str | None,
        lineage_depth: int,
    ) -> GraphHandle:
        """A new handle, keyed by fingerprint.  Caller holds ``_lock``."""
        self._generation += 1
        handle = GraphHandle(
            graph, name, fp, self.config, self.workers, self._generation,
            parent_fp=parent_fp,
            lineage_depth=lineage_depth,
            memory_budget_mb=self.memory_budget_mb,
        )
        self._by_fp[fp] = handle
        self.registered += 1
        return handle

    def _unlink(self, handle: GraphHandle) -> None:
        """Remove ``handle`` from both maps.  Caller holds ``_lock``
        and closes the handle *after* releasing it."""
        self._by_fp.pop(handle.fingerprint, None)
        for alias in [
            n for n, h in self._by_name.items() if h is handle
        ]:
            self._by_name.pop(alias)

    # ------------------------------------------------------------------
    # Version commits
    # ------------------------------------------------------------------
    def mutate_edges(
        self,
        key: str,
        *,
        inserts: object = (),
        deletes: object = (),
        directed: bool = True,
    ) -> VersionCommit:
        """Commit an edge delta against the head of ``key``'s chain.

        The delta is normalised against the current head, the child CSR
        is built by the non-mutating overlay splice (the parent's
        arrays are never written — live matches against it cannot be
        torn), and the name advances to the child.  The parent handle
        stays registered (retired) for ``as_of`` time travel until the
        retention policy (``ServiceConfig.max_versions``) prunes
        it.  A concurrent commit that advanced the head first raises
        :class:`VersionConflictError`.
        """
        head = self.resolve(key)
        name = head.name
        delta = EdgeDelta.build(
            inserts, deletes, parent=head.graph, directed=directed
        )
        if delta.is_empty:
            return VersionCommit(name, head, head, None)
        child_graph = spliced_graph(
            head.graph, delta.inserts, delta.deletes, delta.num_vertices
        )
        fp = graph_fingerprint(child_graph)
        depth = head.lineage_depth + 1
        to_prune: list[GraphHandle] = []
        with self._lock:
            if self._by_name.get(name) is not head:
                raise VersionConflictError(
                    f"graph {name!r} was committed concurrently; "
                    f"re-read the head and retry"
                )
            child = self._by_fp.get(fp)
            if child is not None:
                # The delta cycled back to retained content; that
                # handle resumes as head.
                child.relink(head.fingerprint, depth, delta)
            else:
                child = self._add_locked(
                    child_graph, name, fp, head.fingerprint, depth
                )
                child.commit_delta = delta
            self._by_name[name] = child
            self.commits += 1
            # Retention: keep at most max_versions links of this chain
            # registered; older ones are pruned unless some other
            # *name* still aliases them.
            chain = self._chain_locked(child)
            named = set(map(id, self._by_name.values()))
            for stale in chain[self.max_versions:]:
                if id(stale) not in named:
                    self._by_fp.pop(stale.fingerprint, None)
                    to_prune.append(stale)
        head.mark_retired()
        # Engines shut down outside the lock (pool shutdown blocks and
        # must not stall unrelated registrations — same rule as
        # register()'s replacement path).
        for stale in to_prune:
            stale.close()
        return VersionCommit(
            name, head, child, delta,
            pruned=tuple(h.fingerprint for h in to_prune),
        )

    def _chain_locked(self, head: GraphHandle) -> list[GraphHandle]:
        """Retained chain from ``head`` back through parents (head
        first).  Caller holds ``_lock``."""
        chain = [head]
        seen = {head.fingerprint}
        cursor = head
        while cursor.parent_fp is not None:
            parent = self._by_fp.get(cursor.parent_fp)
            if parent is None or parent.fingerprint in seen:
                break
            chain.append(parent)
            seen.add(parent.fingerprint)
            cursor = parent
        return chain

    def lineage(self, key: str) -> list[dict[str, object]]:
        """The retained version chain of ``key``'s graph, oldest first
        (the head is the last entry)."""
        head = self.resolve(key)
        with self._lock:
            chain = self._chain_locked(head)
        out = []
        for handle in reversed(chain):
            entry = handle.info()
            entry["head"] = handle is head
            out.append(entry)
        return out

    def adopt_version(
        self,
        graph: CSRGraph,
        name: str,
        *,
        parent_fp: str | None,
        lineage_depth: int,
        head: bool,
        delta: EdgeDelta | None = None,
    ) -> GraphHandle:
        """Install a recovered version (state-dir replay) with its
        journaled lineage position.  Non-head versions come back
        retired; the head also takes the name."""
        if graph.num_vertices == 0:
            raise ValueError("cannot adopt an empty data graph")
        fp = graph_fingerprint(graph)
        with self._lock:
            handle = self._by_fp.get(fp)
            if handle is None:
                handle = self._add_locked(
                    graph, name, fp, parent_fp, lineage_depth
                )
            handle.commit_delta = delta
            if head:
                self._by_name[name] = handle
        if not head:
            handle.mark_retired()
        return handle

    def unregister(self, key: str) -> bool:
        """Remove a graph by name or fingerprint; fires ``on_replace``
        so cached results for it are invalidated."""
        with self._lock:
            handle = self._by_name.get(key) or self._by_fp.get(key)
            if handle is None:
                return False
            self._unlink(handle)
            fp = handle.fingerprint
        handle.close()
        if self._on_replace is not None:
            self._on_replace(fp)
        return True

    def resolve(self, key: str) -> GraphHandle:
        """Handle for a name or fingerprint; raises ``KeyError``."""
        with self._lock:
            handle = self._by_name.get(key) or self._by_fp.get(key)
        if handle is None:
            raise KeyError(f"no registered graph named {key!r}")
        return handle

    def by_fingerprint(self, fp: str) -> GraphHandle | None:
        with self._lock:
            return self._by_fp.get(fp)

    def handles(self) -> list[GraphHandle]:
        with self._lock:
            return list(self._by_fp.values())

    def names(self) -> dict[str, str]:
        """Snapshot of the name -> fingerprint map (aliases included);
        what the service persists to the state dir."""
        with self._lock:
            return {
                name: handle.fingerprint
                for name, handle in self._by_name.items()
            }

    @property
    def resident_bytes(self) -> int:
        """Total bytes of registered graph arrays (governor charge)."""
        with self._lock:
            return sum(h.resident_bytes for h in self._by_fp.values())

    def close(self) -> None:
        with self._lock:
            handles = list(self._by_fp.values())
            self._by_fp.clear()
            self._by_name.clear()
        for handle in handles:
            handle.close()

"""Zero-copy shared-memory residence for the data-graph CSR arrays.

The multi-core engine shards one search across worker **processes**; the
data graph is the one payload too big to ship per task.  cuTS keeps the
graph resident in every GPU's device memory for the lifetime of the run
(§4.2) — the CPU analogue is a single POSIX shared-memory segment holding
the five CSR arrays (``indptr``/``indices``/``rindptr``/``rindices`` and
optional ``labels``), created once by the parent and **attached** by each
worker.  Attaching maps the same physical pages: no pickling, no copies,
O(1) per worker regardless of graph size.

:class:`SharedCSR.create` copies a :class:`~repro.graph.csr.CSRGraph`
into a fresh segment (the only copy that ever happens); the pickled
:class:`SharedCSRMeta` handle is all a worker needs to rebuild the graph
as NumPy views over the mapping via :class:`SharedCSR.attach`.

Lifetime rules (enforced here, tested in ``tests/test_parallel_shared``):

* the **creating** process owns the segment and unlinks it on
  :meth:`SharedCSR.close` — a ``weakref.finalize`` guard unlinks it even
  if the owner forgets, so no segment outlives the parent interpreter;
* **attaching** processes never unlink.  They are the owner's pool
  workers, which share the owner's ``resource_tracker``: the tracker
  holds the name until the owner's ``unlink`` drops it, so a worker that
  dies — even by ``SIGKILL`` — tears nothing down under its siblings,
  while an owner that is SIGKILLed leaves the tracker to unlink the
  segment once every process sharing it has exited.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["SharedCSR", "SharedCSRMeta"]

_WORD = np.dtype(np.int64)


@dataclass(frozen=True)
class SharedCSRMeta:
    """The picklable handle a worker needs to attach a :class:`SharedCSR`.

    ``lengths`` is the word count of each array in segment order:
    ``(indptr, indices, rindptr, rindices, labels)``; a labels length of
    ``-1`` marks an unlabeled graph (distinct from a labeled graph on an
    empty vertex set).
    """

    segment: str
    num_vertices: int
    graph_name: str
    lengths: tuple[int, int, int, int, int]

    @property
    def total_words(self) -> int:
        return sum(n for n in self.lengths if n > 0)


def _release(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Unmap (and, for the owner, unlink) a segment; idempotent-safe."""
    try:
        shm.close()
    except BufferError:
        # A caller still holds NumPy views into the mapping; the mapping
        # itself dies with the process, and the owner can (and must)
        # still unlink the name so nothing persists in /dev/shm.
        pass
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class SharedCSR:
    """A :class:`CSRGraph` whose arrays live in one shared-memory segment.

    Use :meth:`create` in the parent, ship :attr:`meta` to workers, and
    :meth:`attach` there; ``.graph`` on either side is a normal
    :class:`CSRGraph` whose arrays are views over the shared mapping.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        meta: SharedCSRMeta,
        graph: CSRGraph,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.meta = meta
        self._graph: CSRGraph | None = graph
        self.owner = owner
        self._finalizer = weakref.finalize(self, _release, shm, owner)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, graph: CSRGraph) -> "SharedCSR":
        """Copy ``graph`` into a fresh segment (the parent-side copy)."""
        arrays = [graph.indptr, graph.indices, graph.rindptr, graph.rindices]
        lengths = [len(a) for a in arrays]
        if graph.labels is not None:
            arrays.append(graph.labels)
            lengths.append(len(graph.labels))
        else:
            lengths.append(-1)
        total = sum(len(a) for a in arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, total) * _WORD.itemsize
        )
        meta = SharedCSRMeta(
            segment=shm.name,
            num_vertices=graph.num_vertices,
            graph_name=graph.name,
            lengths=tuple(lengths),
        )
        views = _carve(shm, meta)
        for view, src in zip(views, arrays):
            view[:] = src
        return cls(shm, meta, _as_graph(views, meta), owner=True)

    @classmethod
    def attach(cls, meta: SharedCSRMeta) -> "SharedCSR":
        """Map an existing segment (worker side; zero-copy).

        Older interpreters (no ``track=``) register the attach with the
        resource tracker the worker shares with the owner; the tracker
        keeps one entry per name, so that changes nothing, and it must
        not be undone here — an unregister would drop the owner's entry
        too.
        """
        try:
            # Python >= 3.13: opt out of resource tracking directly.
            shm = shared_memory.SharedMemory(name=meta.segment, track=False)
        except TypeError:
            shm = shared_memory.SharedMemory(name=meta.segment)
        views = _carve(shm, meta)
        return cls(shm, meta, _as_graph(views, meta), owner=False)

    # ------------------------------------------------------------------
    # Access / lifetime
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        if self._graph is None:
            raise ValueError("SharedCSR is closed")
        return self._graph

    @property
    def closed(self) -> bool:
        return self._graph is None

    def close(self) -> None:
        """Drop this process's mapping; the owner also unlinks the name.

        Any :class:`CSRGraph` previously obtained from :attr:`graph`
        must not be used afterwards.
        """
        self._graph = None
        self._finalizer()

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        role = "owner" if self.owner else "attached"
        return (
            f"SharedCSR({self.meta.graph_name!r}, segment="
            f"{self.meta.segment!r}, {role}, {state})"
        )


def _carve(
    shm: shared_memory.SharedMemory, meta: SharedCSRMeta
) -> list[np.ndarray]:
    """Slice the segment into per-array int64 views (no copies)."""
    views = []
    offset = 0
    for n in meta.lengths:
        if n < 0:
            continue
        views.append(
            np.ndarray(n, dtype=_WORD, buffer=shm.buf, offset=offset)
        )
        offset += n * _WORD.itemsize
    return views


def _as_graph(views: list[np.ndarray], meta: SharedCSRMeta) -> CSRGraph:
    labels = views[4] if meta.lengths[4] >= 0 else None
    return CSRGraph(
        num_vertices=meta.num_vertices,
        indptr=views[0],
        indices=views[1],
        rindptr=views[2],
        rindices=views[3],
        name=meta.graph_name,
        labels=labels,
    )

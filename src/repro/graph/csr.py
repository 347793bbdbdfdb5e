"""Compressed Sparse Row graph representation.

This is the data-graph substrate of the cuTS reproduction.  The paper
(§4.1.2) stores the data graph in CSR so that "finding the neighbors for
performing the intersection can be done with O(1) time cost".  We keep
*both* orientations:

* the **out**-CSR (``indptr`` / ``indices``) — the children lists used by
  the c-intersection micro-kernel and the BFS expansion, and
* the **in**-CSR (``rindptr`` / ``rindices``) — the parent lists used by
  the p-intersection micro-kernel.

Neighbour lists are kept **sorted and duplicate-free** (checked at
construction).  Row order then sorts the out-CSR's edge keys
``u * |V| + v`` as well, so a vectorised edge-existence probe is a single
``np.searchsorted`` into that key index (:attr:`CSRGraph.edge_keys`,
built lazily once per graph object) plus one equality gather — the
NumPy analogue of a warp doing a binary probe into a coalesced adjacency
segment, with the whole batch resolved in one C-level call.

All arrays are contiguous ``int64`` NumPy arrays; every accessor returns
views, never copies, per the HPC guide's "views, not copies" rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Final

import numpy as np

__all__ = ["CSRGraph", "GraphFormatError", "INDEX_DTYPE"]


class GraphFormatError(ValueError):
    """A graph input failed structural validation.

    Raised for malformed on-disk graph files (bad headers, negative or
    dangling vertex ids, disallowed self-loops) and for CSR arrays that
    violate the representation invariants (non-monotone offsets,
    out-of-range column indices, unsorted or duplicated adjacency
    rows).  Subclasses :class:`ValueError` so pre-existing
    ``except ValueError`` callers keep working.
    """

INDEX_DTYPE: Final[np.dtype] = np.dtype(np.int64)
"""The one integer dtype for CSR offsets, indices, and labels.

An explicit, asserted choice (analysis rule RP003): implicit NumPy
integer widths are platform-dependent (``np.arange(n)`` is int32 on
Windows), CSR offsets on paper-scale graphs exceed int32, and the
shared-memory segment layout (:mod:`repro.parallel.sharedmem`) depends
on every array having this exact itemsize.  :class:`CSRGraph` rejects
anything else at construction time."""


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in dual (out + in) CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``|V|``; vertex ids are ``0 .. |V|-1``.
    indptr, indices:
        Out-adjacency in CSR form.  ``indices[indptr[u]:indptr[u+1]]`` is
        the strictly increasing list of children of ``u``.
    rindptr, rindices:
        In-adjacency in CSR form.  ``rindices[rindptr[u]:rindptr[u+1]]``
        is the strictly increasing list of parents of ``u``.
    name:
        Optional human-readable dataset name (used in experiment tables).
    labels:
        Optional per-vertex integer labels (length ``|V|``).  When both
        data and query graphs carry labels, matchers additionally require
        label equality (the labeled subgraph isomorphism of GSI's
        domain); ``None`` means unlabeled, the regime the paper
        evaluates.
    """

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    name: str = field(default="graph", compare=False)
    labels: np.ndarray | None = field(default=None, compare=False)
    _edge_keys: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.num_vertices
        if n < 0:
            raise ValueError(f"num_vertices must be >= 0, got {n}")
        for attr in ("indptr", "indices", "rindptr", "rindices", "labels"):
            arr = getattr(self, attr)
            if arr is not None and arr.dtype != INDEX_DTYPE:
                raise ValueError(
                    f"{attr} must have dtype {INDEX_DTYPE} "
                    f"(INDEX_DTYPE), got {arr.dtype}"
                )
        if self.labels is not None and self.labels.shape != (n,):
            raise ValueError(
                f"labels must have shape ({n},), got {self.labels.shape}"
            )
        if self.indptr.shape != (n + 1,):
            raise ValueError(
                f"indptr must have shape ({n + 1},), got {self.indptr.shape}"
            )
        if self.rindptr.shape != (n + 1,):
            raise ValueError(
                f"rindptr must have shape ({n + 1},), got {self.rindptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise GraphFormatError("indptr endpoints inconsistent with indices")
        if self.rindptr[0] != 0 or self.rindptr[-1] != len(self.rindices):
            raise GraphFormatError("rindptr endpoints inconsistent with rindices")
        if n and np.any(np.diff(self.indptr) < 0):
            bad = int(np.argmax(np.diff(self.indptr) < 0))
            raise GraphFormatError(
                f"indptr offsets must be non-decreasing; indptr[{bad + 1}]="
                f"{int(self.indptr[bad + 1])} < indptr[{bad}]="
                f"{int(self.indptr[bad])}"
            )
        if n and np.any(np.diff(self.rindptr) < 0):
            bad = int(np.argmax(np.diff(self.rindptr) < 0))
            raise GraphFormatError(
                f"rindptr offsets must be non-decreasing; rindptr[{bad + 1}]="
                f"{int(self.rindptr[bad + 1])} < rindptr[{bad}]="
                f"{int(self.rindptr[bad])}"
            )
        if len(self.indices) != len(self.rindices):
            raise ValueError(
                "out- and in-CSR must describe the same edge set: "
                f"{len(self.indices)} != {len(self.rindices)} edges"
            )
        if len(self.indices) and n:
            if self.indices.min() < 0:
                raise GraphFormatError(
                    f"indices contain negative vertex id {int(self.indices.min())}"
                )
            if self.indices.max() >= n:
                raise GraphFormatError(
                    "indices contain out-of-range vertex id "
                    f"{int(self.indices.max())} (dangling edge; "
                    f"graph has {n} vertices)"
                )
            if self.rindices.min() < 0:
                raise GraphFormatError(
                    "rindices contain negative vertex id "
                    f"{int(self.rindices.min())}"
                )
            if self.rindices.max() >= n:
                raise GraphFormatError(
                    "rindices contain out-of-range vertex id "
                    f"{int(self.rindices.max())} (dangling edge; "
                    f"graph has {n} vertices)"
                )
        for attr, ptr, idx in (
            ("indices", self.indptr, self.indices),
            ("rindices", self.rindptr, self.rindices),
        ):
            row = _first_unsorted_row(ptr, idx)
            if row >= 0:
                raise GraphFormatError(
                    f"{attr} row {row} is not strictly increasing "
                    "(adjacency rows must be sorted and duplicate-free)"
                )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(len(self.indices))

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (a fresh small array, O(|V|))."""
        return np.diff(self.indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.diff(self.rindptr)

    @property
    def max_out_degree(self) -> int:
        """Maximum out-degree (``0`` for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.out_degrees.max())

    @property
    def max_in_degree(self) -> int:
        """Maximum in-degree (``0`` for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.in_degrees.max())

    @property
    def average_out_degree(self) -> float:
        """Mean out-degree; 0.0 for the empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Neighbourhood access (views)
    # ------------------------------------------------------------------
    def children(self, u: int) -> np.ndarray:
        """Sorted out-neighbours of ``u`` (a view, not a copy)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def parents(self, u: int) -> np.ndarray:
        """Sorted in-neighbours of ``u`` (a view, not a copy)."""
        return self.rindices[self.rindptr[u] : self.rindptr[u + 1]]

    def out_degree(self, u: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def in_degree(self, u: int) -> int:
        """In-degree of a single vertex."""
        return int(self.rindptr[u + 1] - self.rindptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists (binary search)."""
        row = self.children(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and int(row[pos]) == v

    # ------------------------------------------------------------------
    # Vectorised edge-existence probe — the heart of the fused kernel
    # ------------------------------------------------------------------
    @property
    def edge_keys(self) -> np.ndarray:
        """Sorted edge-key index: ``u * |V| + v`` for every edge ``(u, v)``.

        Laid out in out-CSR order, which sorts it strictly (rows are
        sorted and duplicate-free).  Built on first use, once per graph
        object, and read-only; it costs 8 bytes per edge.  There is no
        lock: threads that race to build it produce equal arrays, and
        either may win.
        """
        keys = self._edge_keys
        if keys is None:
            n = self.num_vertices
            keys = np.repeat(
                np.arange(n, dtype=INDEX_DTYPE), np.diff(self.indptr)
            )
            keys *= n
            keys += self.indices
            keys.flags.writeable = False
            object.__setattr__(self, "_edge_keys", keys)
        return keys

    def has_edges(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised edge-existence: does ``(sources[i], targets[i])`` exist?

        This models a virtual warp probing the coalesced adjacency segment
        of each source vertex; it is the inner operation of both the
        c-intersection membership check and the fused search kernel.
        Every probe is one ``searchsorted`` into :attr:`edge_keys` plus
        one equality gather.

        Parameters
        ----------
        sources, targets:
            Equal-shape integer arrays of vertex ids, each in
            ``[0, |V|)``.  Out-of-range ids are not checked: they alias
            other keys and give wrong answers.

        Returns
        -------
        A boolean array ``mask`` with ``mask[i] == has_edge(sources[i],
        targets[i])``.
        """
        sources = np.asarray(sources, dtype=INDEX_DTYPE)
        targets = np.asarray(targets, dtype=INDEX_DTYPE)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have equal shape")
        keys = self.edge_keys
        if not keys.size:
            return np.zeros(sources.shape, dtype=bool)
        query = sources * self.num_vertices
        query += targets
        pos = keys.searchsorted(query)
        return keys.take(pos, mode="clip") == query

    def has_redges(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised reverse-edge existence: does ``(targets[i], sources[i])``
        exist?  The p-intersection micro-kernel's parent-list probe;
        ``has_edges(targets, sources)`` under the same id contract.
        """
        return self.has_edges(targets, sources)

    # ------------------------------------------------------------------
    # Conversions / dunder
    # ------------------------------------------------------------------
    def edge_list(self) -> np.ndarray:
        """Return an ``(E, 2)`` array of directed edges, CSR order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees)
        return np.column_stack([src, self.indices])

    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge flipped); O(1), swaps views."""
        return CSRGraph(
            num_vertices=self.num_vertices,
            indptr=self.rindptr,
            indices=self.rindices,
            rindptr=self.indptr,
            rindices=self.indices,
            name=f"{self.name}^T",
            labels=self.labels,
        )

    def with_labels(self, labels) -> "CSRGraph":
        """A copy of this graph carrying per-vertex integer labels."""
        arr = np.ascontiguousarray(labels, dtype=np.int64)
        return CSRGraph(
            num_vertices=self.num_vertices,
            indptr=self.indptr,
            indices=self.indices,
            rindptr=self.rindptr,
            rindices=self.rindices,
            name=self.name,
            labels=arr,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )


def _first_unsorted_row(indptr: np.ndarray, indices: np.ndarray) -> int:
    """First row of a CSR adjacency that is not strictly increasing
    (unsorted, or holding a duplicate), or ``-1`` — one O(E) pass."""
    bad = indices[1:] <= indices[:-1]
    cuts = indptr[1:-1]
    # A pair straddling a row boundary may decrease freely.
    bad[cuts[(cuts > 0) & (cuts < len(indices))] - 1] = False
    if not bad.any():
        return -1
    return int(np.searchsorted(indptr, int(np.argmax(bad)), side="right")) - 1

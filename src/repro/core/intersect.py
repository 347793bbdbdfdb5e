"""Intersection micro-kernels (paper Algorithm 2 / §4.1.3).

Given vertices ``a1 .. a_chi`` of the data graph, all three kernels
compute the common-children set ``∩_i children(a_i)``; they differ in the
memory they touch — which is the point of the paper's comparison:

* :func:`scatter_vector_intersection` — SpGEMM-style scatter vector;
  time/movement ``O(chi * delta)`` but ``O(|V|)`` space *per worker*,
  which rules it out on a GPU with thousands of concurrent warps;
* :func:`c_intersection` — buffer the children of ``a1`` (shared memory),
  stream every other child list against it; ``O(chi * delta)`` movement,
  ``O(delta)`` space;
* :func:`p_intersection` — buffer the children of ``a1``, then verify
  each via its **parent** list containing ``a2..a_chi``; movement
  ``O(delta + (delta-1) * delta_in)`` — cheaper when the remaining
  ``a_i`` are huge hubs but survivors are few.

:func:`adaptive_intersection` picks c- vs p- by the modeled data
movement, the paper's "we adaptively choose the intersection method".

Every kernel optionally charges a :class:`~repro.gpusim.cost.CostModel`
with its movement so the ablation benchmark reproduces the cost gap.
The charges come from degree arithmetic, never from how the host answers
a membership probe: :func:`p_intersection`'s parent-list checks run as
:meth:`~repro.graph.csr.CSRGraph.has_edges`, one ``searchsorted`` into
the data graph's sorted edge-key index per remaining vertex.  The
columnar engine's fused filter probes its constraints the same way
(:mod:`repro.core.columnar`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpusim.cost import CostModel
from ..graph.csr import CSRGraph, INDEX_DTYPE

__all__ = [
    "scatter_vector_intersection",
    "c_intersection",
    "p_intersection",
    "adaptive_intersection",
    "estimate_c_cost",
    "estimate_p_cost",
]


def _as_vertex_array(vertices: np.ndarray | Sequence[int]) -> np.ndarray:
    arr = np.asarray(vertices, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValueError("need at least one vertex to intersect")
    return arr


def scatter_vector_intersection(
    graph: CSRGraph,
    vertices: np.ndarray | Sequence[int],
    cost: CostModel | None = None,
    scatter: np.ndarray | None = None,
) -> np.ndarray:
    """SV kernel: count hits in an ``O(|V|)`` scatter array.

    ``scatter`` may be passed in (zeroed, length ``|V|``) to model the
    per-worker persistent buffer; it is returned zeroed again.
    """
    verts = _as_vertex_array(vertices)
    chi = len(verts)
    if scatter is not None and scatter.shape != (graph.num_vertices,):
        raise ValueError("scatter buffer must have length |V|")
    # One bincount over the concatenated child lists computes every
    # vertex's hit count in a single pass — identical to the per-vertex
    # np.add.at scatter loop it replaces, without |verts| separate
    # scatter/zero passes over the buffer.  The modeled device still
    # performs the scattered increments, so the cost charges below are
    # unchanged; a caller-provided ``scatter`` buffer (the modeled
    # per-worker O(|V|) allocation) is left zeroed, as before.
    touched = [graph.children(a) for a in verts]
    flat = np.concatenate(touched) if len(touched) > 1 else touched[0]
    moved = len(flat)
    counts = np.bincount(flat, minlength=graph.num_vertices)
    first = touched[0]
    result = first[counts[first] == chi]
    if cost is not None:
        cost.charge_dram_read(moved, segments=chi)
        # Scatter increments are one transaction each — uncoalesced.
        cost.charge_dram_write(moved, segments=max(1, moved))
        cost.charge_dram_read(len(first))  # collect pass re-reads children(a1)
        cost.charge_dram_write(len(result))
        cost.charge_instructions(2 * moved + len(first))
    return result


def c_intersection(
    graph: CSRGraph,
    vertices: np.ndarray | Sequence[int],
    cost: CostModel | None = None,
) -> np.ndarray:
    """c-kernel: shared-memory buffer of ``children(a1)``, stream the rest.

    Results are sorted (CSR adjacency is sorted and filtering preserves
    order).
    """
    verts = _as_vertex_array(vertices)
    buffer = graph.children(verts[0])
    moved = len(buffer)
    shared_writes = len(buffer)
    shared_reads = 0
    for a in verts[1:]:
        if buffer.size == 0:
            break
        kids = graph.children(a)
        moved += len(kids)
        shared_reads += len(kids)
        # Membership of each buffered element in kids — the warp streams
        # kids through registers and probes the shared buffer.
        buffer = buffer[np.isin(buffer, kids, assume_unique=True)]
    if cost is not None:
        cost.charge_dram_read(moved, segments=len(verts))
        cost.charge_shared(reads=shared_reads, writes=shared_writes)
        cost.charge_dram_write(len(buffer))
        cost.charge_instructions(moved + len(buffer))
    return np.ascontiguousarray(buffer)


def p_intersection(
    graph: CSRGraph,
    vertices: np.ndarray | Sequence[int],
    cost: CostModel | None = None,
) -> np.ndarray:
    """p-kernel: verify ``children(a1)`` via their parent lists.

    A candidate ``v`` survives iff every remaining ``a_i`` appears in
    ``parents(v)``; movement ``O(delta + survivors * delta_in)``.
    """
    verts = _as_vertex_array(vertices)
    buffer = graph.children(verts[0])
    moved = len(buffer)
    if len(verts) > 1 and buffer.size:
        rest = verts[1:]
        mask = np.ones(len(buffer), dtype=bool)
        for a in rest:
            # a in parents(v)  <=>  edge (a, v) exists.
            mask &= graph.has_edges(
                np.full(len(buffer), a, dtype=INDEX_DTYPE), buffer
            )
        # Parent-list movement: each buffered candidate's parent list is
        # scanned (up to finding the witnesses).
        moved += int(
            (graph.rindptr[buffer + 1] - graph.rindptr[buffer]).sum()
        )
        buffer = buffer[mask]
    if cost is not None:
        cost.charge_dram_read(moved, segments=1 + len(buffer))
        cost.charge_shared(writes=min(moved, len(buffer) or moved))
        cost.charge_dram_write(len(buffer))
        cost.charge_instructions(moved)
    return np.ascontiguousarray(buffer)


def estimate_c_cost(graph: CSRGraph, verts: np.ndarray) -> int:
    """Modeled word movement of :func:`c_intersection` for these inputs."""
    degs = graph.indptr[verts + 1] - graph.indptr[verts]
    return int(degs.sum())


def estimate_p_cost(graph: CSRGraph, verts: np.ndarray) -> int:
    """Modeled word movement of :func:`p_intersection` for these inputs."""
    kids = graph.children(int(verts[0]))
    in_degs = graph.rindptr[kids + 1] - graph.rindptr[kids]
    return int(len(kids) + in_degs.sum())


def adaptive_intersection(
    graph: CSRGraph,
    vertices: np.ndarray | Sequence[int],
    cost: CostModel | None = None,
) -> np.ndarray:
    """Pick the cheaper of c- and p-intersection by modeled movement.

    Puts the smallest-fanout vertex first (its children seed the buffer),
    then compares the two kernels' movement estimates.
    """
    verts = _as_vertex_array(vertices)
    degs = graph.indptr[verts + 1] - graph.indptr[verts]
    order = np.argsort(degs, kind="stable")
    verts = verts[order]
    if len(verts) == 1:
        return c_intersection(graph, verts, cost)
    if estimate_p_cost(graph, verts) < estimate_c_cost(graph, verts):
        return p_intersection(graph, verts, cost)
    return c_intersection(graph, verts, cost)

"""Incremental re-matching across one version commit.

Count identity (see :mod:`.dirty` for the locality lemma): with ``B``
the radius-``diam(q)`` dirty ball around a delta's touched endpoints,

    count(G', q) = count(G, q)                      # the cached base
                 - count(G, q | root in B)          # old dirty share
                 + count(G', q | root in B)         # new dirty share

because embeddings rooted outside ``B`` are identical in ``G`` and
``G'``.  Both restricted terms run through the ordinary engine with a
``root_filter`` — the same kernels, the same counts, just a pruned
level-0 candidate set — so the incremental path inherits every parity
property of the full matcher, and the full re-match stays available as
an equivalence oracle (the randomised suite and the benchmark hard-gate
on it).

The same ball drives **cache promotion**: a cached count for ``G`` is
still exact for ``G'`` when *neither* version has a root candidate
inside ``B`` (both dirty shares are then provably zero).  That check —
:func:`promotion_safe` — is two degree-filter scans, no matching.
"""

from __future__ import annotations

import numpy as np

from ..core.candidates import root_candidates
from ..core.config import CuTSConfig
from ..core.ordering import build_order
from ..core.result import MatchResult
from ..core.stats import SearchStats
from ..graph.csr import CSRGraph, INDEX_DTYPE
from ..gpusim.cost import CostModel
from ..storage.overlay import spliced_graph
from .delta import EdgeDelta
from .dirty import DirtyRegion, query_diameter

__all__ = [
    "IncrementalMismatchError",
    "IncrementalUnsupported",
    "dirty_region_for",
    "incremental_match",
    "parent_graph_of",
    "promotion_safe",
    "union_graph_of",
]

_EMPTY_EDGES = np.zeros((0, 2), dtype=INDEX_DTYPE)


class IncrementalUnsupported(ValueError):
    """The request shape cannot take the incremental path (caller
    should fall back to a full re-match)."""


class IncrementalMismatchError(RuntimeError):
    """The base count is inconsistent with the delta (e.g. it was taken
    against a different version) — never silently served."""


def union_graph_of(child: CSRGraph, delta: EdgeDelta) -> CSRGraph:
    """Parent ∪ child edge set: the child with deleted edges restored."""
    if len(delta.deletes) == 0:
        return child
    return spliced_graph(child, delta.deletes, _EMPTY_EDGES)


def parent_graph_of(child: CSRGraph, delta: EdgeDelta) -> CSRGraph:
    """Reconstruct the parent's *edge set* from the child by inverting
    the delta.

    The vertex set stays the child's: endpoints that only the delta
    introduced become isolated vertices.  Isolated vertices cannot root
    any query with at least one edge, which is exactly the class the
    incremental path accepts — :func:`incremental_match` rejects
    edgeless queries for this reason.
    """
    return spliced_graph(child, delta.deletes, delta.inserts)


def dirty_region_for(child: CSRGraph, delta: EdgeDelta) -> DirtyRegion:
    """The commit's memoised dirty region (BFS over the union graph)."""
    return DirtyRegion(union_graph_of(child, delta), delta.touched())


def _root_set(
    graph: CSRGraph, query: CSRGraph, config: CuTSConfig
) -> np.ndarray:
    """Level-0 candidate set under ``config`` (sorted unique)."""
    q0 = build_order(query, config.ordering).sequence[0]
    return root_candidates(
        graph, query, q0, None,
        neighborhood_filter=config.neighborhood_filter,
    )


def promotion_safe(
    query: CSRGraph,
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    region: DirtyRegion,
    config: CuTSConfig,
) -> bool:
    """May a cached count for ``old_graph`` be re-keyed to
    ``new_graph`` unchanged?

    True when neither version has a level-0 root candidate inside the
    query's dirty ball: both dirty shares of the count identity are
    zero, so the counts are equal.  Conservative by construction —
    a ``False`` only costs a recompute, never correctness.
    """
    if query.num_edges == 0:
        # Every vertex roots an edgeless query; locality gives nothing.
        return False
    ball = region.ball(query_diameter(query))
    if ball.size == 0:
        return True
    for graph in (old_graph, new_graph):
        roots = _root_set(graph, query, config)
        if np.intersect1d(roots, ball, assume_unique=True).size:
            return False
    return True


def incremental_match(
    matcher: object,
    query: CSRGraph,
    *,
    base_result: "MatchResult | int",
    delta: EdgeDelta,
    old_matcher: object | None = None,
    region: DirtyRegion | None = None,
    wall_limit_s: float | None = None,
) -> MatchResult:
    """Exact count on ``matcher.data`` (version N+1) from a base count
    on version N plus the commit delta — re-matching only the dirty
    ball.

    Parameters
    ----------
    matcher:
        A :class:`~repro.core.matcher.CuTSMatcher` bound to the child
        graph.
    base_result:
        The full result (or bare count) previously computed on the
        parent graph under the *same* config.
    old_matcher:
        Optional matcher bound to the parent graph (the registry keeps
        retired versions hot); reconstructed from the delta when absent.
    region:
        The commit's :class:`DirtyRegion`, shared across queries when
        given.

    Returns a count-only :class:`MatchResult` whose cost/stats cover
    only the incremental work — the figure the benchmark compares
    against the full re-match.
    """
    from ..core.matcher import CuTSMatcher

    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")
    if query.num_edges == 0:
        raise IncrementalUnsupported(
            "edgeless queries have no locality; run a full match"
        )
    base_count = (
        base_result.count
        if isinstance(base_result, MatchResult)
        else int(base_result)
    )
    if delta.is_empty:
        raise IncrementalUnsupported("empty delta; the base result stands")
    if region is None:
        region = dirty_region_for(matcher.data, delta)  # type: ignore[attr-defined]
    ball = region.ball(query_diameter(query))
    if old_matcher is None:
        old_matcher = CuTSMatcher(
            parent_graph_of(matcher.data, delta),  # type: ignore[attr-defined]
            matcher.config,  # type: ignore[attr-defined]
            memory_budget_mb=matcher.memory_budget_mb,  # type: ignore[attr-defined]
            trace_kernels=matcher.trace_kernels,  # type: ignore[attr-defined]
            profile_expansion=matcher.profile_expansion,  # type: ignore[attr-defined]
        )
    old_share = old_matcher.match(  # type: ignore[attr-defined]
        query, root_filter=ball, wall_limit_s=wall_limit_s
    )
    new_share = matcher.match(  # type: ignore[attr-defined]
        query, root_filter=ball, wall_limit_s=wall_limit_s
    )
    count = base_count - old_share.count + new_share.count
    if count < 0:
        raise IncrementalMismatchError(
            f"incremental count went negative ({base_count} - "
            f"{old_share.count} + {new_share.count}): the base result "
            f"does not belong to this lineage"
        )
    cost = CostModel(matcher.config.device)  # type: ignore[attr-defined]
    cost.merge(old_share.cost)
    cost.merge(new_share.cost)
    stats = SearchStats()
    stats.merge(old_share.stats)
    stats.merge(new_share.stats)
    return MatchResult(
        count=count,
        matches=None,
        time_ms=old_share.time_ms + new_share.time_ms,
        cost=cost,
        stats=stats,
        order=new_share.order,
    )

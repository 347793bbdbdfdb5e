"""High-level search API with the paper's component-composition rules.

cuTS proper assumes (weakly) connected query and data graphs.  Paper §4
(final paragraph) prescribes the general case:

* disconnected **query**: solve each weakly connected component
  independently and combine as the cross product of the component
  solutions;
* disconnected **data**: solve on each component and take the union of
  the solutions (a connected query embeds entirely inside one component).

The cross-product count over query components mirrors the paper exactly.
Note the caveat (inherent to the paper's rule): the cross product admits
assignments where two query components map to overlapping data vertices,
so it is an upper bound on the strictly injective embedding count for
disconnected queries.  For connected queries — every query the paper
evaluates — the result is exact.
"""

from __future__ import annotations

import numpy as np

from .core.config import CuTSConfig
from .core.matcher import CuTSMatcher
from .core.result import MatchResult
from .core.stats import SearchStats
from .gpusim.cost import CostModel
from .graph.components import is_weakly_connected, split_components
from .graph.csr import CSRGraph
from .parallel.matcher import ParallelMatcher, resolve_workers

__all__ = [
    "subgraph_isomorphism_search",
    "match_many",
    "count_embeddings",
    "count_automorphisms",
    "count_occurrences",
]


def _match_one(
    data: CSRGraph,
    query: CSRGraph,
    config: CuTSConfig,
    materialize: bool,
    time_limit_ms: float | None,
    workers: int,
) -> MatchResult:
    """One (connected-data, connected-query) match, serial or sharded."""
    if workers > 1:
        with ParallelMatcher(data, config, workers=workers) as matcher:
            return matcher.match(
                query, materialize=materialize, time_limit_ms=time_limit_ms
            )
    return CuTSMatcher(data, config).match(
        query, materialize=materialize, time_limit_ms=time_limit_ms
    )


def _match_on_components(
    data_parts: list[tuple[CSRGraph, np.ndarray]],
    query: CSRGraph,
    config: CuTSConfig,
    materialize: bool,
    time_limit_ms: float | None,
    workers: int = 1,
) -> MatchResult:
    """Union of a connected query's results over the data components."""
    count = 0
    time_ms = 0.0
    mappings: list[np.ndarray] = []
    cost = CostModel(config.device)
    stats = SearchStats()
    order: tuple[int, ...] = ()
    for dcomp, dmap in data_parts:
        if query.num_vertices > dcomp.num_vertices:
            continue
        res = _match_one(
            dcomp, query, config, materialize, time_limit_ms, workers
        )
        count += res.count
        time_ms += res.time_ms
        cost.merge(res.cost)
        order = res.order
        stats.merge(res.stats)
        if materialize and res.matches is not None and len(res.matches):
            mappings.append(dmap[res.matches])
    matches = None
    if materialize:
        matches = (
            np.concatenate(mappings, axis=0)
            if mappings
            else np.zeros((0, query.num_vertices), dtype=np.int64)
        )
    return MatchResult(
        count=count, matches=matches, time_ms=time_ms,
        cost=cost, stats=stats, order=order,
    )


def subgraph_isomorphism_search(
    data: CSRGraph,
    query: CSRGraph,
    config: CuTSConfig | None = None,
    *,
    materialize: bool = False,
    time_limit_ms: float | None = None,
    workers: int | str = 1,
) -> MatchResult:
    """Find all embeddings of ``query`` in ``data`` (paper Definition 4).

    Handles disconnected inputs per the paper's composition rules; see
    the module docstring.  Materialisation is only supported for
    connected query graphs (the cross-product expansion of disconnected
    queries is combinatorial by design).

    ``workers`` selects the multi-core engine (``"auto"`` or ``0`` uses
    every CPU; ``1``, the default, runs in process): each
    connected-component match is sharded over worker processes via
    :class:`~repro.parallel.ParallelMatcher` with exact, bit-identical
    counts.
    """
    config = config or CuTSConfig()
    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")
    workers = resolve_workers(workers)

    if is_weakly_connected(data):
        data_parts: list[tuple[CSRGraph, np.ndarray]] = [
            (data, np.arange(data.num_vertices, dtype=np.int64))
        ]
    else:
        data_parts = split_components(data)

    query_components = split_components(query)
    if len(query_components) == 1:
        return _match_on_components(
            data_parts, query, config, materialize, time_limit_ms, workers
        )

    if materialize:
        raise ValueError(
            "materialize=True requires a weakly connected query graph"
        )
    # Cross product over query components (paper's rule).
    total = 1
    time_ms = 0.0
    cost = CostModel(config.device)
    stats = SearchStats()
    for qcomp, _ in query_components:
        res = _match_on_components(
            data_parts, qcomp, config, False, time_limit_ms, workers
        )
        total *= res.count
        time_ms += res.time_ms
        cost.merge(res.cost)
        if total == 0:
            break
    return MatchResult(
        count=total, matches=None, time_ms=time_ms,
        cost=cost, stats=stats, order=(),
    )


def match_many(
    data: CSRGraph,
    queries: list[CSRGraph],
    config: CuTSConfig | None = None,
    *,
    materialize: bool = False,
    time_limit_ms: float | None = None,
    workers: int | str = 1,
) -> list[MatchResult]:
    """Match a whole batch of queries against one data graph.

    The batch goes through the service stack
    (:class:`~repro.service.MatchingService`): the data graph is loaded
    (and, under ``workers > 1``, its shared-memory segment and process
    pool built) **once**, duplicate queries coalesce to a single
    execution, and the distinct queries run as one batched pool pass
    instead of ``len(queries)`` independent engine spin-ups.  Counts are
    bit-identical to calling :func:`subgraph_isomorphism_search` per
    query on a connected data graph; results come back in input order.

    Batch-level composition rules (disconnected inputs) follow the
    per-query path: each query must be connected, and a disconnected
    data graph falls back to per-query composition.
    """
    from .service import MatchingService

    config = config or CuTSConfig()
    if not queries:
        return []
    for query in queries:
        if query.num_vertices == 0:
            raise ValueError("query graphs must have at least one vertex")
        if not is_weakly_connected(query):
            raise ValueError(
                "match_many requires weakly connected query graphs; use "
                "subgraph_isomorphism_search for the cross-product rule"
            )
    if not is_weakly_connected(data):
        # Component composition is per query; reuse the general path.
        return [
            subgraph_isomorphism_search(
                data, query, config,
                materialize=materialize,
                time_limit_ms=time_limit_ms,
                workers=workers,
            )
            for query in queries
        ]
    with MatchingService(config, workers=workers) as service:
        fingerprint = service.register_graph(data)
        return service.match_many(
            fingerprint,
            queries,
            materialize=materialize,
            time_limit_ms=time_limit_ms,
        )


def count_embeddings(
    data: CSRGraph,
    query: CSRGraph,
    config: CuTSConfig | None = None,
    *,
    workers: int | str = 1,
) -> int:
    """Shorthand for the embedding count (``workers`` as in
    :func:`subgraph_isomorphism_search`)."""
    return subgraph_isomorphism_search(
        data, query, config, workers=workers
    ).count


def count_automorphisms(
    query: CSRGraph,
    config: CuTSConfig | None = None,
    *,
    workers: int | str = 1,
) -> int:
    """Automorphism count of a graph (embeddings of it into itself).

    Every distinct subgraph occurrence is found once per automorphism by
    the enumerator, so this is the normalisation constant between
    *embeddings* and *occurrences*.
    """
    return subgraph_isomorphism_search(
        query, query, config, workers=workers
    ).count


def count_occurrences(
    data: CSRGraph,
    query: CSRGraph,
    config: CuTSConfig | None = None,
    *,
    workers: int | str = 1,
) -> int:
    """Number of distinct subgraphs of ``data`` isomorphic to ``query``
    (embeddings divided by the query's automorphism count) — the quantity
    motif-census applications report."""
    # Queries are tiny: count their automorphisms in-process.
    autos = count_automorphisms(query, config)
    embeddings = count_embeddings(data, query, config, workers=workers)
    assert embeddings % autos == 0, "embedding count must divide evenly"
    return embeddings // autos

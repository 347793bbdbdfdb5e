"""Streaming match enumeration.

The hybrid BFS–DFS chunking (§4.1.2) writes each chunk's completed
matches out before loading the next chunk — which means results can be
*streamed*: a consumer can process embeddings batch by batch with memory
bounded by the chunk size, never holding the full (possibly huge) result
set.  :func:`iter_matches` exposes that as a generator.

It is a client of :class:`~repro.core.executor.FrontierExecutor` in its
bounded mode: every popped frontier is cut at the governor's chunk size,
so each expansion's leaf rows are at most one chunk's worth.  The leaf
sink keeps each leaf's ``(n_steps, found)`` matching-order table; the
generator runs the executor one expansion at a time and, between steps,
writes every row once, permuted to query order, into fresh
``batch_size`` buffers, yielding each as it fills.  Counts and rows (as
a set) agree with :meth:`~repro.core.matcher.CuTSMatcher.match`; the
expansion sequence is that of the durable and distributed paths, which
peel at the same bound.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..graph.csr import CSRGraph
from .executor import FrontierExecutor, FrontierItem
from .matcher import CuTSMatcher

__all__ = ["iter_matches"]


def iter_matches(
    matcher: CuTSMatcher,
    query: CSRGraph,
    *,
    batch_size: int = 1024,
) -> Iterator[np.ndarray]:
    """Yield embeddings of ``query`` as ``(k, |V_Q|)`` batches.

    Batches have at most ``batch_size`` rows (the final one may be
    smaller); columns are in query-vertex order, exactly like
    ``MatchResult.matches``.  Peak memory is bounded by the engine's
    chunk size times the query depth, independent of the total match
    count.

    Parameters
    ----------
    matcher:
        A :class:`CuTSMatcher` bound to the data graph.
    query:
        The (weakly connected) query graph.
    batch_size:
        Maximum rows per yielded batch.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")
    state = matcher.make_run_state(query, materialize=True)
    n_steps = state.order.num_steps
    inv = np.argsort(state.order.sequence)  # query vertex -> step

    if query.num_vertices > matcher.data.num_vertices:
        return

    leaves: list[np.ndarray] = []

    def sink(_item: FrontierItem, _found: int, rows: np.ndarray | None) -> None:
        if rows is not None:
            leaves.append(rows)

    executor = FrontierExecutor(
        matcher, state, sink, peel_chunk=matcher.config.chunk_size
    )
    trie = matcher.initial_frontier(state)
    roots = trie.num_paths(0)
    if roots:
        executor.stack.append(
            FrontierItem(trie, 1, np.arange(roots, dtype=np.int64))
        )
    batch = np.empty((batch_size, n_steps), dtype=np.int64)
    filled = 0
    while executor.stack:
        executor.step()
        for rows in leaves:
            done = 0
            found = rows.shape[1]
            while done < found:
                k = min(batch_size - filled, found - done)
                rows[:, done:done + k].take(
                    inv, axis=0, out=batch[filled:filled + k].T, mode="clip"
                )
                filled += k
                done += k
                if filled == batch_size:
                    yield batch
                    batch = np.empty((batch_size, n_steps), dtype=np.int64)
                    filled = 0
        leaves.clear()
    if filled:
        yield batch[:filled]

"""Streaming match enumeration.

The hybrid BFS–DFS chunking (§4.1.2) writes each chunk's completed
matches out before loading the next chunk — which means results can be
*streamed*: a consumer can process embeddings batch by batch with memory
bounded by the chunk size, never holding the full (possibly huge) result
set.  :func:`iter_matches` exposes that as a generator.

It is a client of :class:`~repro.core.executor.FrontierExecutor` in its
bounded mode: every popped frontier is cut at the governor's chunk size,
so each expansion's leaf rows are at most one chunk's worth.  The
generator runs the executor one expansion at a time and yields between
steps.  Counts and rows (as a set) agree with
:meth:`~repro.core.matcher.CuTSMatcher.match`; the expansion sequence
is that of the durable and distributed paths, which peel at the same
bound.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..graph.csr import CSRGraph
from ..storage.trie import PathTrie
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
    inv = np.empty(n_steps, dtype=np.int64)
    inv[np.asarray(state.order.sequence, dtype=np.int64)] = np.arange(
        n_steps, dtype=np.int64
    )

    if query.num_vertices > matcher.data.num_vertices:
        return

    pending: list[np.ndarray] = []
    pending_rows = 0

    def sink(_item: FrontierItem, found: int, leaf: PathTrie | None) -> None:
        nonlocal pending_rows
        if leaf is not None:
            pending.append(leaf.paths_at(leaf.depth - 1)[:, inv])
            pending_rows += found

    def flush(force: bool = False) -> Iterator[np.ndarray]:
        nonlocal pending, pending_rows
        while pending_rows >= batch_size or (force and pending_rows > 0):
            stacked = np.concatenate(pending, axis=0)
            out, rest = stacked[:batch_size], stacked[batch_size:]
            pending = [rest] if rest.size else []
            pending_rows = len(rest)
            yield np.ascontiguousarray(out)

    executor = FrontierExecutor(
        matcher, state, sink, peel_chunk=matcher.config.chunk_size
    )
    trie = matcher.initial_frontier(state)
    roots = trie.num_paths(0)
    if roots:
        executor.stack.append(
            FrontierItem(trie, 1, np.arange(roots, dtype=np.int64))
        )
    while executor.stack:
        executor.step()
        yield from flush()
    yield from flush(force=True)

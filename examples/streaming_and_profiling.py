#!/usr/bin/env python
"""Streaming enumeration + kernel-trace profiling.

Two production-facing features built on the paper's chunked execution:

1. **Streaming**: the hybrid BFS-DFS writes each chunk's matches out as
   it completes, so embeddings can be consumed batch-by-batch with
   bounded memory — here we take just the first 3 batches of a large
   result set and stop.
2. **Profiling**: with ``trace_kernels=True`` every simulated launch is
   retained; the per-kernel report shows where cycles go and confirms
   the paper's "subgraph isomorphism is a memory-bound problem".

Run:  python examples/streaming_and_profiling.py
"""

from repro.core import CuTSConfig, CuTSMatcher, iter_matches
from repro.gpusim import format_trace_report
from repro.graph import cycle_graph, social_graph


def main() -> None:
    data = social_graph(
        1500, 3, community_edges=4000, num_communities=200, seed=11,
        name="stream-demo",
    )
    query = cycle_graph(4)
    print(f"data : {data}")
    print(f"query: {query}\n")

    # --- streaming: consume the first 3 batches only ------------------
    matcher = CuTSMatcher(data, CuTSConfig(chunk_size=256))
    print("first 3 batches of embeddings (batch_size=5):")
    for i, batch in enumerate(iter_matches(matcher, query, batch_size=5)):
        for row in batch:
            print("   ", dict(enumerate(row.tolist())))
        if i == 2:
            break
    total = matcher.count(query)
    print(f"(total embeddings if fully enumerated: {total:,})\n")

    # --- profiling: the per-kernel trace -------------------------------
    traced = CuTSMatcher(data, trace_kernels=True)
    result = traced.match(query)
    print("kernel trace:")
    print(format_trace_report(result.cost.trace))


if __name__ == "__main__":
    main()

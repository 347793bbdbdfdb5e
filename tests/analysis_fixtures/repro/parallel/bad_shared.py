"""RP001 fixture: worker-side writes into shared CSR views."""

import numpy as np


def corrupt_attached_graph(graph, value):
    graph.indices[0] = value                      # line 7: subscript store
    graph.indptr[1:] += 1                         # line 8: augmented store
    graph.rindices.sort()                         # line 9: mutating method
    np.add.at(graph.indices, [0, 1], 1)           # line 10: scatter write
    local = np.array([1, 2, 3], dtype=np.int64)
    local[0] = 99  # fine: plain local array, not a CSR view
    return local


def scale_counts(counts, out):
    """Accumulate scaled counts.

    ``counts`` is read-only (a view into the shared frontier); ``out``
    receives the result.
    """
    out[:] = counts * 2  # fine: out is not documented read-only
    counts[0] = 0                                 # line 23: read-only param
    counts.fill(0)                                # line 24: read-only method


def suppressed_write(graph):
    graph.indices[0] = -1  # repro: ignore[RP001]
    return graph


def corrupt_edge_index(graph):
    graph.edge_keys[0] = 0                        # line 33: shared edge-key index

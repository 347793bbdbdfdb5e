"""Tests for the streaming match iterator."""

import numpy as np
import pytest

from repro.core import CuTSConfig, CuTSMatcher, iter_matches
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    mesh_graph,
    random_graph,
    social_graph,
)
from tests.conftest import assert_valid_embeddings


def collect(matcher, query, batch_size=64):
    batches = list(iter_matches(matcher, query, batch_size=batch_size))
    if not batches:
        return np.zeros((0, query.num_vertices), dtype=np.int64), batches
    return np.concatenate(batches, axis=0), batches


def test_stream_matches_materialized():
    data = mesh_graph(4, 4)
    q = chain_graph(4)
    m = CuTSMatcher(data)
    streamed, _ = collect(m, q)
    full = m.match(q, materialize=True)
    assert len(streamed) == full.count
    assert sorted(map(tuple, streamed.tolist())) == sorted(
        map(tuple, full.matches.tolist())
    )


def test_stream_batch_size_respected():
    data = mesh_graph(4, 4)
    q = chain_graph(4)  # 232 embeddings
    _, batches = collect(CuTSMatcher(data), q, batch_size=50)
    assert all(len(b) <= 50 for b in batches)
    assert sum(len(b) for b in batches) == 232
    # all but the last batch are full
    assert all(len(b) == 50 for b in batches[:-1])


@pytest.mark.parametrize("engine", ["columnar", "reference"])
@pytest.mark.parametrize(
    "chunk_size, batch_size",
    [(4096, 7), (2, 1000)],
    ids=["one-leaf-many-batches", "many-leaves-one-batch"],
)
def test_stream_batches_at_every_leaf_size(engine, chunk_size, batch_size):
    """One leaf spanning many batches, and many leaves filling one."""
    data = mesh_graph(6, 6)
    q = chain_graph(4)
    config = CuTSConfig(engine=engine, chunk_size=chunk_size)
    batches = list(
        iter_matches(CuTSMatcher(data, config), q, batch_size=batch_size)
    )
    assert all(len(b) == batch_size for b in batches[:-1])
    assert 0 < len(batches[-1]) <= batch_size
    full = CuTSMatcher(data, config).match(q, materialize=True)
    streamed = np.concatenate(batches)
    assert sorted(map(tuple, streamed.tolist())) == sorted(
        map(tuple, full.matches.tolist())
    )
    gen = iter_matches(CuTSMatcher(data, config), q, batch_size=batch_size)
    head = [next(gen) for _ in range(min(3, len(batches)))]
    gen.close()
    for got, want in zip(head, batches):
        assert np.array_equal(got, want)


def test_stream_valid_embeddings():
    data = social_graph(60, 3, community_edges=80, seed=1)
    q = cycle_graph(4)
    streamed, _ = collect(CuTSMatcher(data), q, batch_size=128)
    assert_valid_embeddings(data, q, streamed)


def test_stream_no_duplicates():
    data = random_graph(25, 0.3, seed=2)
    q = clique_graph(3)
    streamed, _ = collect(CuTSMatcher(data), q)
    rows = list(map(tuple, streamed.tolist()))
    assert len(rows) == len(set(rows))


def test_stream_zero_matches():
    data = mesh_graph(3, 3)  # triangle-free
    batches = list(iter_matches(CuTSMatcher(data), clique_graph(3)))
    assert batches == []


def test_stream_single_vertex_query():
    data = mesh_graph(3, 3)
    q = from_edges([], num_vertices=1)
    streamed, _ = collect(CuTSMatcher(data), q, batch_size=4)
    assert len(streamed) == 9


def test_stream_query_bigger_than_data():
    data = clique_graph(3)
    assert list(iter_matches(CuTSMatcher(data), clique_graph(4))) == []


def test_stream_invalid_batch_size():
    data = mesh_graph(2, 2)
    with pytest.raises(ValueError):
        list(iter_matches(CuTSMatcher(data), chain_graph(2), batch_size=0))


def test_stream_early_termination_cheap():
    """Consuming only the first batch must not enumerate everything."""
    data = social_graph(200, 3, community_edges=300, seed=3)
    m = CuTSMatcher(data, CuTSConfig(chunk_size=32))
    gen = iter_matches(m, cycle_graph(4), batch_size=10)
    first = next(gen)
    assert len(first) == 10
    gen.close()


def test_stream_columns_in_query_order():
    data = mesh_graph(3, 3)
    q = from_edges([(0, 1), (1, 2)])  # directed path
    streamed, _ = collect(CuTSMatcher(data), q)
    for row in streamed:
        assert data.has_edge(int(row[0]), int(row[1]))
        assert data.has_edge(int(row[1]), int(row[2]))

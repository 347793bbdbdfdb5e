"""Tests for the dual-CSR graph representation."""

import sys
import threading

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edges


def test_basic_counts(mesh44):
    assert mesh44.num_vertices == 16
    assert mesh44.num_edges == 48  # 24 undirected edges, bidirected


def test_children_sorted(mesh44):
    for u in range(mesh44.num_vertices):
        kids = mesh44.children(u)
        assert np.all(np.diff(kids) > 0)


def test_parents_sorted(mesh44):
    for u in range(mesh44.num_vertices):
        pars = mesh44.parents(u)
        assert np.all(np.diff(pars) > 0)


def test_children_are_views(mesh44):
    kids = mesh44.children(0)
    assert kids.base is mesh44.indices


def test_directed_children_parents(directed_diamond):
    g = directed_diamond
    assert g.children(0).tolist() == [1, 2]
    assert g.children(3).tolist() == []
    assert g.parents(3).tolist() == [1, 2]
    assert g.parents(0).tolist() == []


def test_degrees_directed(directed_diamond):
    g = directed_diamond
    assert g.out_degree(0) == 2
    assert g.in_degree(0) == 0
    assert g.out_degree(3) == 0
    assert g.in_degree(3) == 2
    assert g.max_out_degree == 2
    assert g.max_in_degree == 2


def test_average_out_degree(mesh44):
    assert mesh44.average_out_degree == pytest.approx(3.0)


def test_has_edge(directed_diamond):
    g = directed_diamond
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert not g.has_edge(0, 3)


def test_has_edges_vectorised(mesh44):
    src = np.array([0, 0, 5, 5, 15])
    dst = np.array([1, 15, 6, 0, 14])
    expected = [mesh44.has_edge(int(s), int(d)) for s, d in zip(src, dst)]
    assert mesh44.has_edges(src, dst).tolist() == expected


def test_has_edges_empty(mesh44):
    out = mesh44.has_edges(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert out.shape == (0,)


def test_has_edges_shape_mismatch(mesh44):
    with pytest.raises(ValueError):
        mesh44.has_edges(np.array([0]), np.array([0, 1]))


def test_has_redges_matches_reverse(directed_diamond):
    g = directed_diamond
    src = np.array([3, 3, 0])
    tgt = np.array([1, 0, 1])
    # has_redges(s, t) == edge (t, s) exists
    expected = [g.has_edge(int(t), int(s)) for s, t in zip(src, tgt)]
    assert g.has_redges(src, tgt).tolist() == expected


def test_has_redges_empty(directed_diamond):
    out = directed_diamond.has_redges(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    )
    assert out.shape == (0,)


def test_edge_list_round_trip(small_gnp):
    edges = small_gnp.edge_list()
    rebuilt = from_edges(edges, num_vertices=small_gnp.num_vertices)
    assert np.array_equal(rebuilt.indptr, small_gnp.indptr)
    assert np.array_equal(rebuilt.indices, small_gnp.indices)
    assert np.array_equal(rebuilt.rindptr, small_gnp.rindptr)
    assert np.array_equal(rebuilt.rindices, small_gnp.rindices)


def test_reverse_swaps(directed_diamond):
    rev = directed_diamond.reverse()
    assert rev.children(3).tolist() == [1, 2]
    assert rev.parents(1).tolist() == [3]
    assert rev.num_edges == directed_diamond.num_edges


def test_reverse_is_view(directed_diamond):
    rev = directed_diamond.reverse()
    assert rev.indices is directed_diamond.rindices


def test_bidirected_symmetry(mesh44):
    # For an undirected-origin graph, in == out everywhere.
    assert np.array_equal(mesh44.out_degrees, mesh44.in_degrees)


def test_validation_bad_indptr():
    with pytest.raises(ValueError, match="indptr"):
        CSRGraph(
            num_vertices=2,
            indptr=np.array([0, 1], dtype=np.int64),  # wrong length
            indices=np.array([1], dtype=np.int64),
            rindptr=np.array([0, 0, 1], dtype=np.int64),
            rindices=np.array([0], dtype=np.int64),
        )


def test_validation_inconsistent_endpoints():
    with pytest.raises(ValueError):
        CSRGraph(
            num_vertices=2,
            indptr=np.array([0, 1, 1], dtype=np.int64),
            indices=np.array([1, 0], dtype=np.int64),  # 2 edges, indptr says 1
            rindptr=np.array([0, 0, 1], dtype=np.int64),
            rindices=np.array([0], dtype=np.int64),
        )


def test_validation_edge_count_mismatch():
    with pytest.raises(ValueError, match="same edge set"):
        CSRGraph(
            num_vertices=2,
            indptr=np.array([0, 1, 1], dtype=np.int64),
            indices=np.array([1], dtype=np.int64),
            rindptr=np.array([0, 0, 0], dtype=np.int64),
            rindices=np.array([], dtype=np.int64),
        )


def test_validation_out_of_range_vertex():
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph(
            num_vertices=2,
            indptr=np.array([0, 1, 1], dtype=np.int64),
            indices=np.array([5], dtype=np.int64),
            rindptr=np.array([0, 0, 1], dtype=np.int64),
            rindices=np.array([0], dtype=np.int64),
        )


def test_validation_negative_vertices():
    with pytest.raises(ValueError, match="num_vertices"):
        CSRGraph(
            num_vertices=-1,
            indptr=np.zeros(0, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            rindptr=np.zeros(0, dtype=np.int64),
            rindices=np.zeros(0, dtype=np.int64),
        )


def test_empty_graph_properties():
    g = from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=0)
    assert g.num_edges == 0
    assert g.max_out_degree == 0
    assert g.max_in_degree == 0
    assert g.average_out_degree == 0.0


def test_edge_keys_sorted_read_only_and_cached(directed_diamond):
    keys = directed_diamond.edge_keys
    n = directed_diamond.num_vertices
    expected = [int(u) * n + int(v) for u, v in directed_diamond.edge_list()]
    assert keys.tolist() == expected
    assert np.all(np.diff(keys) > 0)
    assert not keys.flags.writeable
    assert directed_diamond.edge_keys is keys


def test_edge_keys_racing_builders_each_see_a_whole_index():
    """The index is built without a lock: threads racing to build it on
    a fresh graph must each probe a complete, correct index."""
    rng = np.random.default_rng(7)
    base = from_edges(rng.integers(0, 300, size=(3000, 2)), num_vertices=300)
    src, tgt = np.divmod(np.arange(300 * 300, dtype=np.int64), 300)
    edges = set(map(tuple, base.edge_list().tolist()))
    expect = np.array(
        [(u, v) in edges for u, v in zip(src.tolist(), tgt.tolist())]
    )
    workers = 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            graph = CSRGraph(
                base.num_vertices, base.indptr, base.indices,
                base.rindptr, base.rindices,
            )
            barrier = threading.Barrier(workers)
            results = [None] * workers

            def probe(i, graph=graph, barrier=barrier, results=results):
                barrier.wait(timeout=10)
                results[i] = graph.has_edges(src, tgt)

            threads = [
                threading.Thread(target=probe, args=(i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for got in results:
                assert np.array_equal(got, expect)
    finally:
        sys.setswitchinterval(old)

"""Property-based tests (hypothesis) on core data structures and the
matcher's correctness invariants."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import networkx_count
from repro.core import CuTSMatcher
from repro.graph import (
    from_edges,
    from_undirected_edges,
    weakly_connected_components,
)
from repro.storage import (
    CSFStore,
    PathTrie,
    compare_storage,
    deserialize_trie,
    serialize_trie,
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------- strategies
@st.composite
def undirected_graphs(draw, max_n=14, max_edges=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return from_undirected_edges(np.array(edges).reshape(-1, 2), num_vertices=n)


@st.composite
def directed_graphs(draw, max_n=12, max_edges=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edges(np.array(edges).reshape(-1, 2) if edges else np.zeros((0, 2), dtype=np.int64), num_vertices=n)


@st.composite
def connected_queries(draw, max_n=4):
    """Small connected undirected query graphs (random spanning tree +
    extra edges)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.append((parent, v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4,
        )
    )
    edges.extend(e for e in extra if e[0] != e[1])
    arr = np.array(edges).reshape(-1, 2) if edges else np.zeros((0, 2), dtype=np.int64)
    return from_undirected_edges(arr, num_vertices=n)


@st.composite
def tries(draw, max_depth=4, max_width=8):
    roots = draw(
        st.lists(st.integers(0, 50), min_size=1, max_size=max_width)
    )
    t = PathTrie.from_roots(np.array(roots, dtype=np.int64))
    depth = draw(st.integers(0, max_depth - 1))
    for _ in range(depth):
        prev = t.num_paths()
        width = draw(st.integers(1, max_width))
        pa = draw(
            st.lists(st.integers(0, prev - 1), min_size=width, max_size=width)
        )
        ca = draw(st.lists(st.integers(0, 50), min_size=width, max_size=width))
        t.append_level(np.array(pa, dtype=np.int64), np.array(ca, dtype=np.int64))
    return t


# ------------------------------------------------------------ matcher
@SETTINGS
@given(data=undirected_graphs(), query=connected_queries())
def test_matcher_count_matches_networkx(data, query):
    r = CuTSMatcher(data).match(query)
    assert r.count == networkx_count(data, query)


@SETTINGS
@given(data=directed_graphs(), query=connected_queries(max_n=3))
def test_matcher_directed_count_matches_networkx(data, query):
    r = CuTSMatcher(data).match(query)
    assert r.count == networkx_count(data, query)


@SETTINGS
@given(data=undirected_graphs(max_n=10), query=connected_queries(max_n=3))
def test_matcher_materialized_rows_are_embeddings(data, query):
    r = CuTSMatcher(data).match(query, materialize=True)
    assert len(r.matches) == r.count
    seen = set()
    for row in r.matches:
        key = tuple(row.tolist())
        assert key not in seen
        seen.add(key)
        assert len(set(key)) == len(key)
        for u, v in query.edge_list():
            assert data.has_edge(int(row[u]), int(row[v]))


@SETTINGS
@given(data=undirected_graphs(max_n=10), query=connected_queries(max_n=3))
def test_gsi_agrees_with_cuts(data, query):
    from repro.baselines import GSIMatcher

    assert (
        GSIMatcher(data).match(query).count
        == CuTSMatcher(data).match(query).count
    )


# --------------------------------------------------------------- trie
@SETTINGS
@given(t=tries())
def test_trie_serialize_round_trip(t):
    back = deserialize_trie(serialize_trie(t))
    assert back.depth == t.depth
    for a, b in zip(t.levels, back.levels):
        assert np.array_equal(a.pa, b.pa)
        assert np.array_equal(a.ca, b.ca)


@SETTINGS
@given(t=tries(), data=st.data())
def test_trie_extract_subtrie_paths_preserved(t, data):
    level = t.depth - 1
    n = t.num_paths(level)
    k = data.draw(st.integers(1, n))
    idx = np.array(
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
        ),
        dtype=np.int64,
    )
    sub = t.extract_subtrie(level, idx)
    assert np.array_equal(sub.paths_at(level), t.paths_at(level, idx))


@SETTINGS
@given(t=tries())
def test_trie_csf_equivalence(t):
    csf = CSFStore.from_path_trie(t)
    a = sorted(map(tuple, t.paths_at(t.depth - 1).tolist()))
    b = sorted(map(tuple, csf.paths().tolist()))
    assert a == b


@SETTINGS
@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=8)
)
def test_storage_accounting_identities(counts):
    comp = compare_storage(counts)
    # trie words at depth l == 2 * sum of counts up to l
    running = 0
    for lv, c in enumerate(counts):
        running += 2 * c
        assert comp.trie[lv] == running
        assert comp.naive[lv] == (lv + 1) * c


# ---------------------------------------------------------- edge probes
@SETTINGS
@example(g=from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=3))
@example(g=from_edges([(1, 0), (1, 3), (2, 1)], num_vertices=4))
@given(g=directed_graphs(max_n=12, max_edges=30))
def test_edge_probes_match_edge_set(g):
    """``has_edges`` / ``has_redges`` equal a set-of-edges oracle on every
    ``(u, v)`` pair: rows with no neighbours, vertex 0 and ``|V|-1``,
    and targets past a row's last neighbour (the second example has all
    three; the first has no edges at all)."""
    edges = set(map(tuple, g.edge_list().tolist()))
    n = g.num_vertices
    src, tgt = np.divmod(np.arange(n * n, dtype=np.int64), n)
    expect = [(u, v) in edges for u, v in zip(src.tolist(), tgt.tolist())]
    assert g.has_edges(src, tgt).tolist() == expect
    assert g.has_redges(tgt, src).tolist() == expect


# ------------------------------------------------------------------ wcc
@SETTINGS
@given(g=directed_graphs(max_n=20, max_edges=40))
def test_wcc_matches_networkx(g):
    import networkx as nx

    ours = weakly_connected_components(g)
    gx = nx.DiGraph()
    gx.add_nodes_from(range(g.num_vertices))
    gx.add_edges_from(map(tuple, g.edge_list()))
    assert int(ours.max()) + 1 == nx.number_weakly_connected_components(gx)
    for comp in nx.weakly_connected_components(gx):
        assert len({int(ours[v]) for v in comp}) == 1


@SETTINGS
@given(g=undirected_graphs())
def test_wcc_label_is_partition(g):
    comp = weakly_connected_components(g)
    assert comp.shape == (g.num_vertices,)
    # labels are consecutive from 0
    assert set(np.unique(comp)) == set(range(int(comp.max()) + 1))


# ------------------------------------------------------------- ordering
@SETTINGS
@given(query=connected_queries(max_n=6))
def test_order_is_permutation_with_constraints(query):
    from repro.core import max_degree_order

    order = max_degree_order(query)
    assert sorted(order.sequence) == list(range(query.num_vertices))
    for n in range(1, order.num_steps):
        fwd, bwd = order.constraints_at(n)
        if query.num_edges:
            assert fwd or bwd  # connected queries always constrain

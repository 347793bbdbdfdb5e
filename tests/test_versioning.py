"""Versioned mutable graphs (satellites of PR 10).

Three randomized-seed guarantees, each gated on a full-rematch oracle:

* **parity** — the incremental count identity (DESIGN.md §16) agrees
  with a full re-match across insert-only, delete-only, and mixed
  batches on random graphs;
* **cache survival** — result-cache entries whose query provably roots
  outside the commit's dirty ball are promoted across a commit and
  still *hit* (no recompute);
* **time travel** — ``as_of`` on a retired version returns the count
  archived when that version was head.

The service-level guarantees run against one rank and against a 3-rank
replicated cluster, where commits fan out to every replica of the
shard and must agree on the child fingerprint.

Plus unit tiers for the delta algebra (normalisation, JSON round-trip),
the overlay splice, dirty-ball BFS, journal recovery, and the guard
rails of the incremental path.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.fingerprint import graph_fingerprint
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    mesh_graph,
    random_graph,
    star_graph,
)
from repro.service import (
    ClusterService,
    HashRing,
    MatchingService,
    ServiceConfig,
    VersionConflictError,
)
from repro.storage.overlay import spliced_graph
from repro.versioning import (
    DeltaError,
    DirtyRegion,
    EdgeDelta,
    GraphVersion,
    IncrementalMismatchError,
    IncrementalUnsupported,
    dirty_region_for,
    promotion_safe,
    query_diameter,
    recover_chains,
    version_from_record,
    version_record,
)

NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def undirected_pairs(graph):
    arcs = graph.edge_list()
    return arcs[arcs[:, 0] < arcs[:, 1]]


def both_ways(pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return NO_EDGES
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0)


def random_delta(rng, graph, n_insert, n_delete):
    """Directed insert/delete arrays: ``n_delete`` existing undirected
    pairs removed and ``n_insert`` absent pairs added, both arcs each."""
    pairs = undirected_pairs(graph)
    dels = NO_EDGES
    if n_delete:
        picks = rng.choice(len(pairs), size=min(n_delete, len(pairs)),
                           replace=False)
        dels = pairs[picks]
    banned = {(int(u), int(v)) for u, v in pairs}
    inserts = []
    while len(inserts) < n_insert:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, size=2))
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in banned:
            continue
        banned.add((a, b))
        inserts.append((a, b))
    return both_ways(inserts), both_ways(dels)


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edge_list()}


def combo_graph():
    """A 6x6 mesh (degree <= 4) plus a disjoint K8 (degree 7): the two
    components segregate query root sets by degree, so mesh-side
    commits leave clique-rooted queries provably untouched."""
    mesh = mesh_graph(6, 6)
    k8 = clique_graph(8)
    edges = np.concatenate([mesh.edge_list(), k8.edge_list() + 36], axis=0)
    return from_edges(edges, num_vertices=44)


# ---------------------------------------------------------------------------
# Delta algebra and the overlay splice.
# ---------------------------------------------------------------------------


def test_delta_normalises_noop_edges_away():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(
        inserts=[[0, 1]],   # already present -> dropped
        deletes=[[0, 8]],   # absent -> dropped
        parent=g,
    )
    assert delta.is_empty


def test_delta_rejects_edge_on_both_sides():
    g = mesh_graph(3, 3)
    with pytest.raises(DeltaError):
        EdgeDelta.build(inserts=[[0, 5]], deletes=[[0, 5]], parent=g)


def test_delta_undirected_expands_both_arcs():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(inserts=[[0, 4]], parent=g, directed=False)
    assert edge_set(spliced_graph(g, delta.inserts, delta.deletes)) == (
        edge_set(g) | {(0, 4), (4, 0)}
    )


def test_delta_touched_is_sorted_unique_endpoints():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(
        inserts=both_ways([[0, 4], [4, 8]]), parent=g
    )
    assert delta.touched().tolist() == [0, 4, 8]


def test_delta_json_roundtrip():
    g = mesh_graph(4, 4)
    rng = np.random.default_rng(7)
    ins, dels = random_delta(rng, g, 2, 2)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=g)
    back = EdgeDelta.from_json(delta.to_json())
    assert np.array_equal(back.inserts, delta.inserts)
    assert np.array_equal(back.deletes, delta.deletes)
    assert back.fingerprint() == delta.fingerprint()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_splice_apply_then_invert_roundtrips(seed):
    rng = np.random.default_rng(seed)
    parent = random_graph(30, 0.1, seed=seed)
    ins, dels = random_delta(rng, parent, 3, 3)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=parent)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    assert edge_set(child) == (
        edge_set(parent) - {tuple(e) for e in delta.deletes.tolist()}
    ) | {tuple(e) for e in delta.inserts.tolist()}
    back = spliced_graph(child, delta.deletes, delta.inserts)
    assert edge_set(back) == edge_set(parent)


# ---------------------------------------------------------------------------
# Dirty-ball BFS.
# ---------------------------------------------------------------------------


def test_dirty_ball_on_a_path_is_the_interval():
    g = chain_graph(9)
    region = DirtyRegion(g, np.array([4], dtype=np.int64))
    assert region.ball(0).tolist() == [4]
    assert region.ball(2).tolist() == [2, 3, 4, 5, 6]


def test_dirty_ball_is_monotone_in_radius():
    g = mesh_graph(5, 5)
    region = DirtyRegion(g, np.array([0, 24], dtype=np.int64))
    previous = set()
    for radius in range(4):
        ball = set(region.ball(radius).tolist())
        assert previous <= ball
        previous = ball


def test_query_diameter_of_standard_shapes():
    assert query_diameter(chain_graph(4)) == 3
    assert query_diameter(clique_graph(3)) == 1
    assert query_diameter(star_graph(4)) == 2


# ---------------------------------------------------------------------------
# Journal recovery (pure, no filesystem).
# ---------------------------------------------------------------------------


def _link(name, fp, parent, depth, delta=None):
    kind = "root" if parent is None else ("delta" if delta else "replace")
    return GraphVersion(
        name=name, fingerprint=fp, parent=parent, depth=depth,
        kind=kind, delta=delta,
    )


def _toy_delta():
    return EdgeDelta.build(inserts=[[0, 2], [2, 0]], parent=chain_graph(3))


def test_recover_chains_head_is_latest_available():
    d = _toy_delta()
    records = [version_record(v) for v in (
        _link("g", "a", None, 0),
        _link("g", "b", "a", 1, d),
        _link("g", "c", "b", 2, d),
    )]
    chains, malformed = recover_chains(records, {"a", "b", "c"})
    assert malformed == 0
    assert [v.fingerprint for v in chains["g"]] == ["a", "b", "c"]
    # The torn-commit case: record for c landed but its graph did not
    # (impossible under the commit order, tolerated anyway).
    chains, _ = recover_chains(records, {"a", "b"})
    assert [v.fingerprint for v in chains["g"]] == ["a", "b"]
    # A pruned ancestor truncates the chain but keeps the head.
    chains, _ = recover_chains(records, {"b", "c"})
    assert [v.fingerprint for v in chains["g"]] == ["b", "c"]
    # A registered root has no record of its own (registration writes a
    # names record); the chain still reaches it while it is on disk.
    chains, _ = recover_chains(records[1:], {"a", "b", "c"})
    assert [(v.fingerprint, v.kind) for v in chains["g"]] == [
        ("a", "root"), ("b", "delta"), ("c", "delta"),
    ]


def test_recover_chains_counts_malformed_records():
    records = [
        {"nonsense": True},
        version_record(_link("g", "a", None, 0)),
        {"name": "g", "fingerprint": "x", "parent": "a",
         "depth": "not-an-int", "kind": "delta", "delta": None},
    ]
    chains, malformed = recover_chains(records, {"a"})
    assert malformed == 2
    assert [v.fingerprint for v in chains["g"]] == ["a"]


def test_version_record_roundtrips_delta():
    link = _link("g", "child", "parent", 3, _toy_delta())
    back = version_from_record(version_record(link))
    assert back.fingerprint == "child"
    assert back.delta is not None
    assert back.delta.fingerprint() == link.delta.fingerprint()


# ---------------------------------------------------------------------------
# Promotion predicate and incremental guard rails.
# ---------------------------------------------------------------------------


def test_promotion_safe_for_degree_segregated_query():
    cfg = CuTSConfig()
    parent = combo_graph()
    # Mesh-side insert that keeps every mesh degree below the star's
    # center degree: no version can root S5 inside the ball.
    delta = EdgeDelta.build(inserts=[[0, 2]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    region = dirty_region_for(child, delta)
    assert promotion_safe(star_graph(5), parent, child, region, cfg)
    # A path query roots everywhere, including inside the ball.
    assert not promotion_safe(chain_graph(3), parent, child, region, cfg)


def test_promotion_never_claims_edgeless_queries():
    cfg = CuTSConfig()
    parent = combo_graph()
    delta = EdgeDelta.build(inserts=[[0, 2]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    region = dirty_region_for(child, delta)
    lone = from_edges(NO_EDGES, num_vertices=1)
    assert not promotion_safe(lone, parent, child, region, cfg)


def test_incremental_rejects_empty_delta_and_edgeless_query():
    cfg = CuTSConfig()
    g = mesh_graph(4, 4)
    empty = EdgeDelta.build(parent=g)
    matcher = CuTSMatcher(g, cfg)
    with pytest.raises(IncrementalUnsupported):
        matcher.match(chain_graph(3), base_result=0, delta=empty)
    delta = EdgeDelta.build(inserts=[[0, 5]], parent=g, directed=False)
    child = spliced_graph(g, delta.inserts, delta.deletes)
    with pytest.raises(IncrementalUnsupported):
        CuTSMatcher(child, cfg).match(
            from_edges(NO_EDGES, num_vertices=2), base_result=0, delta=delta
        )


def test_incremental_detects_foreign_base_result():
    cfg = CuTSConfig()
    parent = clique_graph(5)
    delta = EdgeDelta.build(deletes=[[0, 1]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    with pytest.raises(IncrementalMismatchError):
        # Base count 0 cannot belong to this lineage: the K3 count
        # strictly drops across the delete, driving the merge negative.
        CuTSMatcher(child, cfg).match(
            clique_graph(3), base_result=0, delta=delta
        )


# ---------------------------------------------------------------------------
# Randomized parity: incremental == full re-match (the oracle gate).
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    chain_graph(3),
    chain_graph(4),
    star_graph(3),
    clique_graph(3),
    cycle_graph(4),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_insert,n_delete", [(4, 0), (0, 4), (3, 3)],
    ids=["insert", "delete", "mixed"],
)
def test_incremental_parity_on_random_batches(seed, n_insert, n_delete):
    cfg = CuTSConfig()
    rng = np.random.default_rng(100 + seed)
    parent = random_graph(36, 0.09, seed=seed)
    ins, dels = random_delta(rng, parent, n_insert, n_delete)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=parent)
    assert not delta.is_empty
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    old_matcher = CuTSMatcher(parent, cfg)
    new_matcher = CuTSMatcher(child, cfg)
    for query in PARITY_QUERIES:
        base = old_matcher.match(query)
        full = new_matcher.match(query)
        inc = new_matcher.match(query, base_result=base, delta=delta)
        assert inc.count == full.count, (
            f"seed={seed} ins={n_insert} dels={n_delete} "
            f"q={query.num_vertices}v: {inc.count} != {full.count}"
        )


# ---------------------------------------------------------------------------
# Service-level guarantees: promotion survival, as_of, incremental path.
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = MatchingService(CuTSConfig(), state_dir=str(tmp_path))
    yield svc
    svc.close()


BACKENDS = ("single", "cluster")


def make_backend(kind, tmp_path, service_config=None):
    """One rank, or a 3-rank cluster replicating each shard twice."""
    if kind == "single":
        return MatchingService(
            service_config=service_config, state_dir=str(tmp_path)
        )
    return ClusterService(
        service_config=service_config, ranks=3, replication=2,
        state_dir=str(tmp_path / "cluster"), auto_heal=False,
    )


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    svc = make_backend(request.param, tmp_path)
    yield svc
    svc.close()


def rank_services(svc):
    """The rank-local services behind a backend."""
    if isinstance(svc, ClusterService):
        return [
            rank.service for rank in svc.ranks.values()
            if rank.state == "live"
        ]
    return [svc]


def head_graph(svc, name):
    """Content of ``name``'s head version, from whichever rank holds it."""
    fp = svc.resolve_key(name)
    for rank_service in rank_services(svc):
        handle = rank_service.registry.by_fingerprint(fp)
        if handle is not None:
            return handle.graph
    raise KeyError(fp)


def test_cache_entry_outside_dirty_ball_survives_commit(service):
    service.register_graph(combo_graph(), "combo")
    star = star_graph(5)
    before = service.match("combo", star, timeout=30)
    summary = service.mutate_graph("combo", inserts=[[0, 2]], directed=False)
    assert summary["changed"]
    assert summary["promoted"] >= 1
    stats = service.metrics()
    hits0 = stats["result_cache"]["hits"]
    invocations0 = stats["dispatcher"]["matcher_invocations"]
    after = service.match("combo", star, timeout=30)
    stats = service.metrics()
    # Promoted entry answers under the child fingerprint: a pure hit,
    # no engine work, and (by the locality lemma) the identical count.
    assert stats["result_cache"]["hits"] == hits0 + 1
    assert stats["dispatcher"]["matcher_invocations"] == invocations0
    assert after.count == before.count


@pytest.mark.parametrize("seed", [0, 1])
def test_service_incremental_matches_full_oracle(backend, seed):
    rng = np.random.default_rng(200 + seed)
    graph = random_graph(36, 0.09, seed=seed)
    backend.register_graph(graph, "g")
    query = chain_graph(3)
    backend.match("g", query, timeout=30)
    for _ in range(3):
        head = head_graph(backend, "g")
        ins, dels = random_delta(rng, head, 1, 1)
        backend.mutate_graph("g", inserts=ins.tolist(), deletes=dels.tolist())
        got = backend.match("g", query, timeout=30)
        oracle = CuTSMatcher(
            head_graph(backend, "g"), backend.config
        ).match(query)
        assert got.count == oracle.count
    # At least one post-commit miss took the incremental path.
    assert sum(
        rank_service.metrics()["dispatcher"]["incremental_matches"]
        for rank_service in rank_services(backend)
    ) >= 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_as_of_on_retired_versions_matches_archived_oracle(kind, tmp_path):
    svc = make_backend(kind, tmp_path, ServiceConfig(max_versions=4))
    try:
        rng = np.random.default_rng(42)
        svc.register_graph(random_graph(32, 0.1, seed=9), "g")
        query = cycle_graph(4)
        archive = {}
        head_fp = svc.resolve_key("g")
        archive[head_fp] = svc.match("g", query, timeout=30).count
        for _ in range(3):
            head = head_graph(svc, "g")
            ins, dels = random_delta(rng, head, 2, 1)
            summary = svc.mutate_graph(
                "g", inserts=ins.tolist(), deletes=dels.tolist()
            )
            archive[summary["fingerprint"]] = svc.match(
                "g", query, timeout=30
            ).count
        lineage = svc.versions("g")
        assert len(lineage) == 4
        for entry in lineage:
            fp = entry["fingerprint"]
            got = svc.match("g", query, as_of=fp, timeout=30)
            assert got.count == archive[fp], fp
        with pytest.raises(KeyError):
            svc.match("g", query, as_of="no-such-version", timeout=30)
    finally:
        svc.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_pruned_version_is_not_servable(kind, tmp_path):
    svc = make_backend(kind, tmp_path, ServiceConfig(max_versions=2))
    try:
        svc.register_graph(mesh_graph(5, 5), "g")
        fp0 = svc.resolve_key("g")
        svc.mutate_graph("g", inserts=[[0, 6]], directed=False)
        svc.mutate_graph("g", inserts=[[1, 7]], directed=False)
        assert len(svc.versions("g")) == 2
        with pytest.raises(KeyError):
            svc.match("g", chain_graph(3), as_of=fp0, timeout=30)
    finally:
        svc.close()


def assert_replicas_agree(svc, name, head_fp):
    """Every live replica of the shard holds ``head_fp`` as the head."""
    if not isinstance(svc, ClusterService):
        return
    replicas = svc.graph_info(name)["replicas"]
    heads = {
        svc.ranks[r].service.resolve_key(name)
        for r in replicas
        if svc.ranks[r].state == "live"
    }
    assert heads == {head_fp}


@pytest.mark.parametrize("kind", BACKENDS)
def test_commits_are_exact_on_every_backend(kind, tmp_path):
    """Random insert/delete commits: each commit's fingerprint equals a
    local splice replay, the head and ``as_of`` every retained version
    count exactly, pruned versions are refused, and every replica of
    the shard agrees on the head — also across a secondary crashed
    between commits and healed."""
    svc = make_backend(kind, tmp_path, ServiceConfig(max_versions=3))
    try:
        rng = np.random.default_rng(17)
        head = random_graph(30, 0.12, seed=4)
        query = chain_graph(3)
        root = svc.register_graph(head, "g")
        local = {root: head}
        if kind == "cluster":
            # Never-mutated graphs are placed by their own fingerprint.
            other = svc.register_graph(mesh_graph(4, 4), "other")
            ring = HashRing(range(3))
            assert svc.graph_info("other")["replicas"] == (
                ring.replicas_for(other, 2)
            )
            assert svc.graph_info("g")["replicas"] == (
                ring.replicas_for(root, 2)
            )
        for step in range(5):
            if kind == "cluster" and step == 2:
                secondary = svc.graph_info("g")["replicas"][1]
                svc.crash_rank(secondary)
            if kind == "cluster" and step == 4:
                svc.restart_rank(secondary)
                assert_replicas_agree(svc, "g", graph_fingerprint(head))
            ins, dels = random_delta(rng, head, 2, 1)
            summary = svc.mutate_graph(
                "g", inserts=ins.tolist(), deletes=dels.tolist()
            )
            delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=head)
            head = spliced_graph(head, delta.inserts, delta.deletes)
            head_fp = graph_fingerprint(head)
            assert summary["fingerprint"] == head_fp
            local[head_fp] = head
            assert_replicas_agree(svc, "g", head_fp)
            retained = [entry["fingerprint"] for entry in svc.versions("g")]
            assert retained[-1] == head_fp
            assert svc.match("g", query, timeout=60).count == (
                CuTSMatcher(head).match(query).count
            )
            for fp in retained:
                assert svc.match("g", query, as_of=fp, timeout=60).count == (
                    CuTSMatcher(local[fp]).match(query).count
                ), (step, fp)
            for fp in set(local) - set(retained):
                with pytest.raises(KeyError):
                    svc.match("g", query, as_of=fp, timeout=60)
    finally:
        svc.close()


def test_lagging_replica_catches_up_before_the_next_commit(tmp_path):
    """A replica unreachable during a commit misses it; reads stay
    exact meanwhile (a replica lacking the head fails over), and the
    next commit replays the missed delta on it before committing."""
    svc = ClusterService(
        CuTSConfig(), ranks=3, replication=3,
        state_dir=str(tmp_path / "cluster"), auto_heal=False,
    )
    try:
        head = mesh_graph(5, 5)
        svc.register_graph(head, "g")
        query = chain_graph(3)
        lagging = svc.graph_info("g")["replicas"][0]
        svc.partition_rank(lagging, ticks=1)
        for edge in ([0, 6], [1, 7]):
            summary = svc.mutate_graph("g", inserts=[edge], directed=False)
            delta = EdgeDelta.build(inserts=[edge], parent=head, directed=False)
            head = spliced_graph(head, delta.inserts, delta.deletes)
            assert summary["fingerprint"] == graph_fingerprint(head)
            if edge == [0, 6]:
                # Still at the root: the router's head is not on it.
                assert svc.ranks[lagging].service.resolve_key("g") != (
                    summary["fingerprint"]
                )
                # The first read heals the partition; the second reaches
                # the lagging primary, which lacks the head and fails
                # over.
                for _ in range(2):
                    assert svc.match("g", query, timeout=60).count == (
                        CuTSMatcher(head, svc.config).match(query).count
                    )
                assert svc.metrics()["router"]["failovers"] >= 1
        assert_replicas_agree(svc, "g", graph_fingerprint(head))
        lineages = {
            tuple(v["fingerprint"] for v in svc.ranks[r].service.versions("g"))
            for r in svc.ranks
        }
        assert len(lineages) == 1  # replayed, not re-registered
    finally:
        svc.close()


def test_concurrent_commit_to_one_graph_is_a_conflict(tmp_path, monkeypatch):
    svc = make_backend("cluster", tmp_path)
    try:
        svc.register_graph(mesh_graph(4, 4), "g")
        primary = svc.ranks[svc.graph_info("g")["replicas"][0]].service
        entered, release = threading.Event(), threading.Event()
        commit = primary.mutate_graph

        def slow_commit(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return commit(*args, **kwargs)

        monkeypatch.setattr(primary, "mutate_graph", slow_commit)
        first = threading.Thread(
            target=svc.mutate_graph, args=("g",),
            kwargs={"inserts": [[0, 5]], "directed": False},
        )
        first.start()
        assert entered.wait(timeout=30)
        with pytest.raises(VersionConflictError):
            svc.mutate_graph("g", inserts=[[1, 6]], directed=False)
        release.set()
        first.join(timeout=30)
        assert not first.is_alive()
        assert svc.versions("g")[-1]["lineage_depth"] == 1
    finally:
        svc.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_commit_moves_the_first_name_not_an_alias(kind, tmp_path):
    """Known content registered again — inline in a match, or under a
    second name — is an alias: a commit to the first name moves that
    name (the aliases stay on the parent, as on one rank), its reads
    count the child exactly, and later commits to it still succeed."""
    svc = make_backend(kind, tmp_path)
    try:
        head = mesh_graph(5, 5)
        query = chain_graph(3)
        root = svc.register_graph(head, "g")
        svc.match(head, query, timeout=60)  # registers it as head.name
        svc.register_graph(head, "alias")
        for edge in ([0, 6], [1, 7]):
            summary = svc.mutate_graph("g", inserts=[edge], directed=False)
            delta = EdgeDelta.build(inserts=[edge], parent=head, directed=False)
            head = spliced_graph(head, delta.inserts, delta.deletes)
            assert summary["graph"] == "g"
            assert summary["fingerprint"] == graph_fingerprint(head)
            assert svc.resolve_key("g") == summary["fingerprint"]
            assert_replicas_agree(svc, "g", summary["fingerprint"])
            assert svc.match("g", query, timeout=60).count == (
                CuTSMatcher(head, svc.config).match(query).count
            )
        for alias in ("mesh5x5", "alias"):
            assert svc.resolve_key(alias) == root
            with pytest.raises(VersionConflictError):
                svc.mutate_graph(alias, inserts=[[2, 8]], directed=False)
    finally:
        svc.close()


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_replica_refusing_after_the_first_commit_is_skipped(tmp_path):
    """A commit either happens or not for the client: a secondary that
    refuses once the primary's commit is recorded (here: degraded
    read-only mode) is skipped, reads stay exact, and the next commit
    brings it to the head before committing on it."""
    svc = make_backend("cluster", tmp_path)
    try:
        head = mesh_graph(5, 5)
        query = chain_graph(3)
        root = svc.register_graph(head, "g")
        refusing = svc.ranks[svc.graph_info("g")["replicas"][1]].service
        refusing.governor.forced_pressure = 1.0
        wait_for(lambda: refusing.degraded)
        for edge in ([0, 6], [1, 7]):
            summary = svc.mutate_graph("g", inserts=[edge], directed=False)
            delta = EdgeDelta.build(inserts=[edge], parent=head, directed=False)
            head = spliced_graph(head, delta.inserts, delta.deletes)
            assert summary["fingerprint"] == graph_fingerprint(head)
            assert svc.resolve_key("g") == summary["fingerprint"]
            assert svc.match("g", query, timeout=60).count == (
                CuTSMatcher(head, svc.config).match(query).count
            )
            if edge == [0, 6]:
                assert refusing.resolve_key("g") == root
                refusing.governor.forced_pressure = None
                wait_for(lambda: not refusing.degraded)
        assert_replicas_agree(svc, "g", graph_fingerprint(head))
        lineages = {
            tuple(v["fingerprint"] for v in svc.ranks[r].service.versions("g"))
            for r in svc.graph_info("g")["replicas"]
        }
        assert len(lineages) == 1  # the missed commit was replayed
    finally:
        svc.close()

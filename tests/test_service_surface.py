"""One service surface: the single-rank service and the cluster router
answer the same HTTP requests the same way.

Every test here runs behind a live ``ServiceHTTPServer`` against a
single rank, a one-rank router (what ``python -m repro.serve`` runs by
default) and a 3-rank replicated router: split hints never change a
count, malformed bodies are typed 400s (never a 500), admission
refusals are the same 429s, a zero deadline settles ``expired``,
``/graphs`` reports the engine that served, and the versioning
endpoints — ``/edges``, ``/versions``, ``/compare`` and
``as_of`` — serve exact answers everywhere.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.fingerprint import graph_fingerprint
from repro.graph import chain_graph, cycle_graph, mesh_graph
from repro.service import (
    ClusterService,
    MatchingService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.http import serve
from repro.storage.overlay import spliced_graph
from repro.versioning import EdgeDelta

BACKENDS = ("single", "router", "cluster")


@pytest.fixture(params=BACKENDS)
def live(request):
    service_config = ServiceConfig(max_versions=3, max_query_vertices=8)
    if request.param == "single":
        service = MatchingService(service_config=service_config)
    else:
        ranks = 1 if request.param == "router" else 3
        service = ClusterService(
            service_config=service_config, ranks=ranks, replication=2,
            auto_heal=False,
        )
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(
        f"http://{host}:{port}", retry=RetryPolicy(max_attempts=1)
    )
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.mark.parametrize("num_parts", [1, 2, 3])
def test_num_parts_never_changes_a_count(live, num_parts):
    client, _ = live
    data, query = mesh_graph(6, 6), chain_graph(4)
    expected = CuTSMatcher(data, CuTSConfig()).match(query).count
    assert expected == 752
    client.register_graph(data, name="mesh")
    job = client.match("mesh", query, num_parts=num_parts)
    assert job["state"] == "done"
    assert job["result"]["count"] == expected


_P3 = {"edges": [[0, 1], [1, 0], [1, 2], [2, 1]]}


@pytest.mark.parametrize(
    "path,body",
    [
        ("/match", {"graph": "mesh", "query": {"edges": []}}),
        ("/match", {"graph": "mesh", "query": "P3", "num_parts": 0}),
        ("/match", {"graph": "mesh", "query": "P3", "num_parts": "abc"}),
        ("/match", {"graph": "mesh", "query": "P3", "num_parts": math.inf}),
        ("/match", {"graph": "mesh", "query": "P3", "priority": "abc"}),
        ("/match", {"graph": "mesh", "query": "P3", "priority": -math.inf}),
        ("/match", {"graph": "mesh", "query": "P3", "timeout_s": math.nan}),
        ("/match", {"graph": "mesh", "query": "P3", "deadline_ms": -5}),
        ("/match", {"graph": "mesh", "query": "P3", "deadline_ms": "abc"}),
        ("/match", {"graph": "mesh", "query": "P3", "timeout_s": "abc"}),
        ("/match", {"graph": "mesh", "query": dict(_P3, labels=[1, 2])}),
        ("/match", {"graph": "mesh", "query": "P3", "num_parts": 2,
                    "materialize": True}),
        ("/match", {"graph": "mesh", "query": "P3", "part": 1}),
        ("/graphs", {"graph": dict(_P3, labels=[1, 2])}),
        ("/graphs", {"graph": {"edges": []}}),
    ],
    ids=[
        "empty-query", "num_parts-0", "num_parts-abc", "num_parts-inf",
        "priority-abc", "priority-minus-inf", "timeout-nan",
        "deadline-negative", "deadline-abc", "timeout-abc",
        "labels-length", "split-materialize", "unknown-field",
        "graph-labels-length", "graph-empty",
    ],
)
def test_malformed_bodies_are_400(live, path, body):
    client, _ = live
    client.register_graph(mesh_graph(4, 4), name="mesh")
    with pytest.raises(ServiceError) as exc:
        client._request("POST", path, body)
    assert exc.value.status == 400, exc.value
    assert client.healthz()["status"] == "ok"


def test_oversized_query_is_429_at_submit(live):
    client, _ = live
    client.register_graph(mesh_graph(4, 4), name="mesh")
    with pytest.raises(ServiceError) as exc:
        client.match("mesh", "K9", wait=False)
    assert exc.value.status == 429
    assert exc.value.reason == "oversized-query"
    metrics = client.metrics()
    # One refusal, as one rank counts it: every replica would refuse
    # alike, so the router neither retries it nor counts a failover.
    assert metrics["scheduler"]["rejected"]["oversized-query"] == 1
    assert metrics.get("router", {}).get("failovers", 0) == 0


def test_graphs_report_the_serving_engine(live):
    """``/graphs`` carries the engine fields of the handle that served,
    not those of a router's catalog entry, which never serves."""
    client, _ = live
    client.register_graph(mesh_graph(4, 4), name="mesh")
    client.match("mesh", "P3")
    (row,) = client.graphs()
    assert (row["queries_served"], row["workers"]) == (1, 1)


def test_zero_deadline_settles_expired(live):
    client, _ = live
    client.register_graph(mesh_graph(4, 4), name="mesh")
    job = client.match("mesh", "P3", deadline_ms=0)
    assert job["state"] == "expired"
    assert client.metrics()["scheduler"]["expired"] >= 1


def _count(graph, query) -> int:
    return CuTSMatcher(graph, CuTSConfig()).match(query).count


def test_versioning_endpoints_over_http(live):
    """Commits, the version chain, ``as_of`` and ``/compare`` agree
    with a local replay of the same deltas; a pruned version is 404."""
    client, _ = live
    rng = np.random.default_rng(3)
    head = mesh_graph(5, 5)
    query = cycle_graph(4)
    client.register_graph(head, name="g")
    chain = [(graph_fingerprint(head), head)]
    for _ in range(4):
        n = head.num_vertices
        while True:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v and not head.has_edge(u, v):
                break
        summary = client.mutate_edges(
            "g", insert=[[u, v]], directed=False
        )
        delta = EdgeDelta.build(
            inserts=[[u, v]], parent=head, directed=False
        )
        head = spliced_graph(head, delta.inserts, delta.deletes)
        assert summary["fingerprint"] == graph_fingerprint(head)
        chain.append((summary["fingerprint"], head))

        versions = client.versions("g")
        assert versions[-1]["head"]
        assert versions[-1]["fingerprint"] == chain[-1][0]
        assert [v["fingerprint"] for v in versions] == [
            fp for fp, _ in chain[-len(versions):]
        ]
        job = client.match("g", query)
        assert job["result"]["count"] == _count(head, query)
        parent_fp, parent = chain[-2]
        old = client.match("g", query, as_of=parent_fp)
        assert old["graph"] == parent_fp
        assert old["result"]["count"] == _count(parent, query)
        diff = client.compare("g", query)
        assert diff["base_fingerprint"] == parent_fp
        assert diff["base_count"] == _count(parent, query)
        assert diff["count_delta"] == (
            diff["head_count"] - diff["base_count"]
        )
    # max_versions=3: the root and the first child are gone.
    for pruned_fp, _ in chain[:2]:
        with pytest.raises(ServiceError) as exc:
            client.match("g", query, as_of=pruned_fp)
        assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.mutate_edges("nope", insert=[[0, 1]])
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.versions("nope")
    assert exc.value.status == 404

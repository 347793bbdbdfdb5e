"""Tests for the HTTP face (`python -m repro.serve`) and ServiceClient.

Boots a real ``ServiceHTTPServer`` on an ephemeral port inside the test
process and drives it exclusively through :class:`ServiceClient`, so the
wire format, status codes, and admission semantics are exercised exactly
as an external caller sees them.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.matcher import CuTSMatcher
from repro.graph import chain_graph, clique_graph, cycle_graph, mesh_graph
from repro.service import (
    MatchingService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.cluster import ClusterService
from repro.service.http import BadRequest, parse_graph_spec, serve


@pytest.fixture()
def live_service():
    service = MatchingService(
        service_config=ServiceConfig(max_query_vertices=8)
    )
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


# ---------------------------------------------------------------------------
# Graph-spec parsing (pure).
# ---------------------------------------------------------------------------


def test_parse_pattern_strings():
    assert parse_graph_spec("K4").num_vertices == 4
    assert parse_graph_spec("C5").num_vertices == 5
    assert parse_graph_spec("P3").num_vertices == 3
    assert parse_graph_spec("S4").num_vertices == 5  # hub + leaves
    assert parse_graph_spec({"pattern": "K3"}).num_vertices == 3


def test_parse_edge_list_spec():
    g = parse_graph_spec(
        {"edges": [[0, 1], [1, 0], [1, 2], [2, 1]], "name": "path"}
    )
    assert g.num_vertices == 3
    assert g.name == "path"
    labelled = parse_graph_spec(
        {"edges": [[0, 1], [1, 0]], "labels": [3, 4]}
    )
    assert labelled.labels is not None


def test_parse_generator_spec():
    g = parse_graph_spec({"generator": "mesh", "args": [3, 3]})
    assert g.num_vertices == 9
    with pytest.raises(BadRequest):
        parse_graph_spec({"generator": "os_system", "args": []})


@pytest.mark.parametrize(
    "spec",
    [
        "K",  # no size
        "X5",  # unknown family
        42,  # wrong type
        {},  # no recognised key
        {"edges": "nope"},
        {"generator": "mesh", "args": "3,3"},
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(BadRequest):
        parse_graph_spec(spec)


def test_roundtrip_csr_graph_preserves_fingerprint():
    from repro.fingerprint import graph_fingerprint
    from repro.service.client import graph_to_spec

    g = mesh_graph(4, 4)
    assert graph_fingerprint(parse_graph_spec(graph_to_spec(g))) == (
        graph_fingerprint(g)
    )


# ---------------------------------------------------------------------------
# Live endpoint behaviour.
# ---------------------------------------------------------------------------


def test_healthz_metrics_and_graphs(live_service):
    client, _ = live_service
    assert client.healthz()["status"] == "ok"
    fp = client.register_graph(mesh_graph(4, 4), name="mesh44")
    assert len(fp) == 64
    assert [g["name"] for g in client.graphs()] == ["mesh44"]
    metrics = client.metrics()
    assert metrics["graphs"] == 1
    assert "scheduler" in metrics and "result_cache" in metrics


def test_blocking_match_returns_exact_count(live_service):
    client, service = live_service
    g = mesh_graph(5, 5)
    expected = CuTSMatcher(g, service.config).match(chain_graph(4)).count
    fp = client.register_graph(g)
    job = client.match(fp, "P4")
    assert job["state"] == "done"
    assert job["result"]["count"] == expected


def test_async_match_polls_to_completion(live_service):
    client, _ = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    resp = client.match(fp, "C4", wait=False)
    job = client.wait_job(resp["job_id"])
    assert job["state"] == "done"
    assert job["result"]["count"] > 0


def test_oversized_query_is_429_with_reason(live_service):
    client, _ = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    with pytest.raises(ServiceError) as exc:
        client.match(fp, "K9")
    assert exc.value.status == 429
    assert exc.value.reason == "oversized-query"


def test_deadline_expiry_over_http(live_service):
    client, _ = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    job = client.match(fp, "P3", deadline_ms=0)
    assert job["state"] == "expired"
    assert "deadline" in job["error"]


def test_unknown_routes_and_jobs_are_404(live_service):
    client, _ = live_service
    with pytest.raises(ServiceError) as exc:
        client.job("job-99999999")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404


def test_bad_bodies_are_400(live_service):
    client, _ = live_service
    with pytest.raises(ServiceError) as exc:
        client._request("POST", "/match", {"graph": "K3"})  # no query
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client._request("POST", "/graphs", {"graph": {"edges": "x"}})
    assert exc.value.status == 400


def test_inline_graph_specs_register_on_the_fly(live_service):
    client, service = live_service
    job = client.match({"generator": "chain", "args": [6]}, "P3")
    assert job["result"]["count"] == 8
    assert len(service.registry.handles()) == 1


def test_materialized_rows_cross_the_wire(live_service):
    client, _ = live_service
    fp = client.register_graph(mesh_graph(3, 3))
    job = client.match(fp, "P3", materialize=True)
    assert job["result"]["count"] == len(job["matches"])


def test_warm_cache_over_http(live_service):
    client, service = live_service
    fp = client.register_graph(mesh_graph(5, 5))
    first = client.match(fp, "C4")
    inv = service.dispatcher.matcher_invocations
    second = client.match(fp, "C4")
    assert second["result"]["count"] == first["result"]["count"]
    assert second["cached"]
    assert service.dispatcher.matcher_invocations == inv


def test_mixed_burst_matches_serial_oracle(live_service):
    """The CI-smoke contract, in-process: a burst of mixed requests all
    come back exact against a serial oracle."""
    client, service = live_service
    g = mesh_graph(5, 5)
    queries = {
        "K3": clique_graph(3),
        "P4": chain_graph(4),
        "C4": cycle_graph(4),
    }
    oracle = {
        name: CuTSMatcher(g, service.config).match(q).count
        for name, q in queries.items()
    }
    fp = client.register_graph(g)
    names = [n for _ in range(5) for n in queries]  # 15 mixed requests
    pending = [
        (n, client.match(fp, n, wait=False)["job_id"]) for n in names
    ]
    for name, job_id in pending:
        job = client.wait_job(job_id)
        assert job["state"] == "done"
        assert job["result"]["count"] == oracle[name]


# ---------------------------------------------------------------------------
# Resilience over the wire.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def boot(service_config, **service_kwargs):
    """A live server for one test with non-default serving knobs."""
    service = MatchingService(service_config=service_config, **service_kwargs)
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5.0)


def test_oversized_body_is_413():
    with boot(ServiceConfig(max_body_bytes=1024)) as (client, _):
        big = {"graph": {"edges": [[0, 1]] * 400, "num_vertices": 2}}
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/graphs", big)
        assert exc.value.status == 413
        assert "max_body_bytes" in str(exc.value)
        # Small requests still flow on the same server.
        assert client.healthz()["status"] == "ok"


def test_stalled_request_cannot_pin_a_thread():
    with boot(ServiceConfig(request_timeout_s=0.2)) as (client, _):
        host, port = client.base_url.rsplit(":", 2)[-2:]
        with socket.create_connection(
            (host.lstrip("/"), int(port)), timeout=5.0
        ) as sock:
            # Promise a body, never send it: the server must give up
            # after request_timeout_s instead of waiting forever.
            sock.sendall(
                b"POST /match HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n"
            )
            sock.settimeout(5.0)
            data = sock.recv(4096)
        assert b"408" in data.split(b"\r\n", 1)[0]
        assert client.healthz()["status"] == "ok"  # thread survived


def test_degraded_mode_is_503_with_retry_after(live_service):
    client, service = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    service.governor.forced_pressure = 1.0
    try:
        deadline = 50
        while not service.degraded and deadline:
            deadline -= 1
            threading.Event().wait(0.05)  # loop thread accrues strikes
        assert service.degraded
        bare = ServiceClient(
            client.base_url, retry=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(ServiceError) as exc:
            bare.match(fp, "C5")
        assert exc.value.status == 503
        assert exc.value.reason == "degraded"
        assert exc.value.retry_after == pytest.approx(1.0)
        assert bare.healthz()["status"] == "degraded"
    finally:
        service.governor.forced_pressure = None


def test_idempotency_key_deduplicates_over_http(live_service):
    client, service = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    first = client.match(fp, "K3", idempotency_key="wire-key")
    admitted = service.scheduler.admitted
    second = client.match(fp, "K3", idempotency_key="wire-key")
    assert second["id"] == first["id"]
    assert second["result"]["count"] == first["result"]["count"]
    assert service.scheduler.admitted == admitted  # nothing re-ran


def test_deadline_header_propagates(live_service):
    client, _ = live_service
    fp = client.register_graph(mesh_graph(4, 4))
    body = json.dumps(
        {"graph": fp, "query": "P3", "wait": True}
    ).encode("utf-8")
    req = urllib.request.Request(
        client.base_url + "/match",
        data=body,
        headers={
            "Content-Type": "application/json",
            "X-Deadline-Ms": "0",  # a proxy-attached deadline
        },
    )
    with urllib.request.urlopen(req, timeout=30.0) as resp:
        job = json.loads(resp.read())
    assert job["state"] == "expired"


def test_bad_deadline_header_is_400(live_service):
    client, _ = live_service
    body = json.dumps({"graph": "K3", "query": "P3"}).encode("utf-8")
    req = urllib.request.Request(
        client.base_url + "/match",
        data=body,
        headers={
            "Content-Type": "application/json",
            "X-Deadline-Ms": "soon",
        },
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=30.0)
    assert exc_info.value.code == 400


# ---------------------------------------------------------------------------
# The reply path: keep-alive connections, one send per reply.
# ---------------------------------------------------------------------------


@pytest.fixture(params=["single", "cluster"])
def backend_server(request):
    """A live server on either backend: ``(host, port, service)``."""
    service = (
        MatchingService() if request.param == "single"
        else ClusterService(ranks=1)
    )
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield host, port, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5.0)


def _call(conn, method, path, body=None):
    conn.request(
        method, path,
        body=None if body is None else json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    reply = conn.getresponse()
    return reply.status, json.loads(reply.read())


def test_keep_alive_round_trips_are_not_stalled(backend_server):
    """Sequential requests on one keep-alive connection: a reply
    written as two sends with Nagle on waits for the client's delayed
    ACK, about 40 ms a round trip; a stall-free reply takes a few."""
    host, port, service = backend_server
    fp = service.register_graph(mesh_graph(10, 10))
    match = {"graph": fp, "query": "C4"}
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        assert _call(conn, "POST", "/match", match)[0] == 200  # warm
        for method, path, body in (
            ("GET", "/healthz", None), ("POST", "/match", match),
        ):
            rtts = []
            for _ in range(30):
                start = time.perf_counter()
                status, reply = _call(conn, method, path, body)
                rtts.append(time.perf_counter() - start)
                assert status == 200
            assert statistics.median(rtts) < 0.020, (path, rtts)
        assert reply["cached"]
    finally:
        conn.close()


def test_a_small_reply_is_one_send(backend_server, monkeypatch):
    """Timing-free: the status line, headers and body of a small reply
    leave the accepted socket in a single send."""
    host, port, service = backend_server
    fp = service.register_graph(mesh_graph(4, 4))
    sends: list[int] = []
    real_send, real_sendall = socket.socket.send, socket.socket.sendall

    def on_server_side(sock):
        try:
            return sock.getsockname()[1] == port
        except OSError:
            return False

    def send(self, data, *args):
        if on_server_side(self):
            sends.append(len(data))
        return real_send(self, data, *args)

    def sendall(self, data, *args):
        if on_server_side(self):
            sends.append(len(data))
        return real_sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "send", send)
    monkeypatch.setattr(socket.socket, "sendall", sendall)
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        for method, path, body in (
            ("GET", "/healthz", None),
            ("POST", "/match", {"graph": fp, "query": "P3"}),
            ("GET", "/jobs/none", None),
        ):
            sends.clear()
            _call(conn, method, path, body)
            assert len(sends) == 1, (path, sends)
    finally:
        conn.close()


def _raw_exchange(host, port, request: bytes) -> bytes:
    """Send ``request`` raw and read until the server closes."""
    chunks = []
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request)
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "declared, status",
    [
        ("abc", 400), ("-5", 400), ("1e3", 400), ("", 400),
        (str(10**12), 413),
    ],
)
def test_an_unread_body_gets_one_reply_and_the_connection_closes(
    backend_server, declared, status
):
    """A malformed Content-Length is a 400, not a 500; an oversized one
    a 413.  Either way the body stays unread, so the reply closes the
    connection instead of parsing the body as the next request."""
    host, port, _ = backend_server
    reply = _raw_exchange(
        host, port,
        b"POST /match HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + declared.encode() + b"\r\n\r\n{}",
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n", 1)[0].split(b" ")[:2] == [
        b"HTTP/1.1", str(status).encode()
    ]
    assert b"Connection: close" in head
    assert b"HTTP/1.1" not in body
    error = json.loads(body)["error"]
    assert ("Content-Length" if status == 400 else "max_body_bytes") in error


def test_expect_100_continue_is_answered_before_the_body(backend_server):
    """The interim 100 is flushed at once: a client that waits for it
    before sending the body is not left waiting on the reply buffer."""
    host, port, _ = backend_server
    body = json.dumps({"graph": "K4", "query": "K3"}).encode()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            b"POST /match HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        sock.settimeout(2.0)
        assert sock.recv(4096).startswith(b"HTTP/1.1 100 Continue")
        sock.sendall(body)
        sock.settimeout(10.0)
        reply = b""
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(4096)
    assert reply.startswith(b"HTTP/1.1 200")

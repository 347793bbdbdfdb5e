"""Stdlib HTTP face of the matching service (``python -m repro.serve``).

Dependency-free serving: a ``ThreadingHTTPServer`` whose handler
translates JSON bodies into :class:`~repro.service.MatchingService`
calls.  Handler threads only ever *submit and wait* — all matching work
happens on the service's dispatch thread and its per-graph engines — so
slow requests don't block the accept loop and the scheduler's admission
rules apply identically to HTTP and embedded callers.

Endpoints
---------
``GET  /healthz``       liveness + queue depth (+ degraded flag)
``GET  /metrics``       every counter (scheduler, dispatcher, caches,
                        governor, faults, state dir) as one JSON object
``GET  /graphs``        registered graphs (with version fingerprint,
                        lineage depth, and retired flag per entry)
``POST /graphs``        register a graph: ``{"graph": <spec>, "name"?}``
``POST /graphs/<name>/edges``
                        commit an edge delta against the head of the
                        named graph's version chain:
                        ``{"insert"?: [[u, v], ...],
                        "delete"?: [[u, v], ...], "directed"?: true}``
                        — returns the commit summary (new fingerprint,
                        cache promotion counts, pruned versions);
                        409 on a concurrent-commit conflict
``GET  /graphs/<name>/versions``
                        the retained version chain, oldest first
``POST /graphs/<name>/compare``
                        shadow-compare one query across a version
                        boundary: ``{"query": <spec>, "base"?: <fp>}``
                        — counts on base (default: the head's parent)
                        and head plus their delta
``POST /match``         ``{"graph": <fp|name|spec>, "query": <spec>,
                        "wait"?: true, "priority"?, "deadline_ms"?,
                        "materialize"?, "time_limit_ms"?,
                        "idempotency_key"?, "num_parts"?, "as_of"?}`` —
                        202 + job id when ``wait`` is false,
                        429 + reason when admission rejects,
                        503 + ``Retry-After`` in degraded mode or
                        when a cluster shard is below quorum;
                        ``as_of`` runs against a retained past version
``GET  /jobs/<id>``     job state / result (cluster jobs also carry
                        the serving ``replica`` and failover count)

Malformed input is a 400 (an unknown ``/match`` field, a non-number,
an argument the service refuses), an unknown graph or version a 404.

Resilience guardrails (the backend's
:class:`~repro.service.config.ServiceConfig`): each connection carries
a socket timeout of ``request_timeout_s`` so a stalled peer cannot pin
a handler thread forever (a mid-body stall gets 408 and the connection
is closed), and request bodies above ``max_body_bytes`` are refused
with 413 *before* any bytes are read.  ``deadline_ms`` may also
arrive as an ``X-Deadline-Ms`` header — proxies can attach deadlines
without rewriting bodies — and propagates through the scheduler into
the engine's cooperative wall-clock limit.

Graph specs are JSON: a pattern shorthand string (``"K5"``, ``"C6"``,
``"P4"``, ``"S5"`` — same grammar as the CLI), an explicit edge list
``{"edges": [[u, v], ...], "num_vertices"?, "name"?}``, or a whitelisted
generator ``{"generator": "mesh", "args": [8, 8]}``.

The handler serves a :class:`~repro.service.service.FrontDoor`:
``--ranks N`` (``N > 1``) puts a replicated
:class:`~repro.service.cluster.ClusterService` behind the same
endpoints, visible to clients only in the ``replica`` job field and
the ``shard-unavailable`` 503 reason.
"""

from __future__ import annotations

import argparse
import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from ..graph.build import from_edges
from ..graph.csr import CSRGraph, GraphFormatError
from ..graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    mesh_graph,
    random_graph,
    social_graph,
    star_graph,
)
from ..versioning.delta import DeltaError
from .cluster import ClusterService
from .config import ServiceConfig
from .faults import ServiceFaultPlan
from .registry import VersionConflictError
from .scheduler import AdmissionError
from .service import FrontDoor, MatchingService

__all__ = [
    "BadRequest",
    "PayloadTooLarge",
    "ServiceHTTPServer",
    "main",
    "parse_graph_spec",
    "serve",
]

_GENERATORS = {
    "mesh": mesh_graph,
    "chain": chain_graph,
    "clique": clique_graph,
    "star": star_graph,
    "cycle": cycle_graph,
    "random": random_graph,
    "social": social_graph,
}

# Every field a /match body may carry; anything else is a 400 (the
# router's internal part index among them).
_MATCH_FIELDS = frozenset({
    "graph", "query", "wait", "priority", "deadline_ms", "materialize",
    "time_limit_ms", "idempotency_key", "num_parts", "as_of", "timeout_s",
})

_PATTERNS = {
    "K": clique_graph,
    "C": cycle_graph,
    "P": chain_graph,
    "S": star_graph,
}


class BadRequest(ValueError):
    """A request body that cannot be turned into work."""


class PayloadTooLarge(ValueError):
    """A declared request body above ``ServiceConfig.max_body_bytes``."""


def _pattern_graph(spec: str) -> CSRGraph:
    if len(spec) >= 2 and spec[0] in _PATTERNS and spec[1:].isdigit():
        return _PATTERNS[spec[0]](int(spec[1:]))
    raise BadRequest(
        f"unknown pattern {spec!r}: expected K<n>/C<n>/P<n>/S<n>"
    )


def parse_graph_spec(spec: Any) -> CSRGraph:
    """Materialise a JSON graph spec (see module docstring)."""
    if isinstance(spec, str):
        return _pattern_graph(spec)
    if not isinstance(spec, dict):
        raise BadRequest("graph spec must be a string or an object")
    if "pattern" in spec:
        return _pattern_graph(str(spec["pattern"]))
    if "edges" in spec:
        edges = spec["edges"]
        if not isinstance(edges, list):
            raise BadRequest("'edges' must be a list of [u, v] pairs")
        try:
            graph = from_edges(
                np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                if edges
                else [],
                num_vertices=spec.get("num_vertices"),
                name=str(spec.get("name", "graph")),
            )
        except (ValueError, GraphFormatError) as exc:
            raise BadRequest(f"bad edge list: {exc}")
        labels = spec.get("labels")
        if labels is not None:
            try:
                graph = graph.with_labels(np.asarray(labels, dtype=np.int64))
            except (TypeError, ValueError) as exc:
                raise BadRequest(f"bad labels: {exc}")
        return graph
    if "generator" in spec:
        kind = str(spec["generator"])
        maker = _GENERATORS.get(kind)
        if maker is None:
            raise BadRequest(
                f"unknown generator {kind!r}: one of {sorted(_GENERATORS)}"
            )
        args = spec.get("args", [])
        kwargs = spec.get("kwargs", {})
        if not isinstance(args, list) or not isinstance(kwargs, dict):
            raise BadRequest("'args' must be a list and 'kwargs' an object")
        try:
            return maker(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad generator arguments: {exc}")
    raise BadRequest(
        "graph spec needs one of 'pattern', 'edges', or 'generator'"
    )


def _number(source: Any, key: str, kind: type = float, default: Any = None) -> Any:
    """``source[key]`` (a JSON body or the headers) as ``kind``, else
    ``default``; a value that is not a finite number is a 400."""
    value = source.get(key)
    if value is None:
        return default
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):  # int(Infinity) overflows
        raise BadRequest(f"'{key}' must be a finite number, got {value!r}")
    if not math.isfinite(number):
        raise BadRequest(f"'{key}' must be a finite number, got {value!r}")
    return number


class _Handler(BaseHTTPRequestHandler):
    """JSON request handler; the service hangs off the server object."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # -------------------------------------------------------------- util
    @property
    def service(self) -> FrontDoor:
        return self.server.service

    def setup(self) -> None:
        # A stalled peer must not pin this handler thread: the
        # per-connection socket timeout turns a dead read into a
        # TimeoutError the request loop can answer (408) and close.
        self.timeout = self.server.request_timeout_s
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0"))
        cap = self.server.max_body_bytes
        if length > cap:
            raise PayloadTooLarge(
                f"request body declares {length} bytes; "
                f"max_body_bytes is {cap}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    # ---------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            if self.path == "/healthz":
                self._send_json(200, self.service.healthz())
            elif self.path == "/metrics":
                self._send_json(200, self.service.metrics())
            elif self.path == "/graphs":
                self._send_json(200, {"graphs": self.service.graphs()})
            elif self.path.startswith("/graphs/") and self.path.endswith(
                "/versions"
            ):
                name = self.path[len("/graphs/"):-len("/versions")]
                self._get_versions(name)
            elif self.path.startswith("/jobs/"):
                self._get_job(self.path[len("/jobs/"):])
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            body = self._read_body()
            if self.path == "/graphs":
                self._post_graph(body)
            elif self.path == "/match":
                self._post_match(body)
            elif self.path.startswith("/graphs/") and self.path.endswith(
                "/edges"
            ):
                name = self.path[len("/graphs/"):-len("/edges")]
                self._post_edges(name, body)
            elif self.path.startswith("/graphs/") and self.path.endswith(
                "/compare"
            ):
                name = self.path[len("/graphs/"):-len("/compare")]
                self._post_compare(name, body)
            else:
                self._send_json(404, {"error": f"no route {self.path!r}"})
        except PayloadTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionError as exc:
            # Degraded read-only mode and a below-quorum shard are
            # service conditions (503, try again once they heal); the
            # admission limits are a client pacing problem (429).  All
            # carry Retry-After so the self-healing client can back off
            # precisely — the rejecting layer's own estimate when it
            # gave one (the cluster router knows its heal cadence).
            status = (
                503
                if exc.reason in ("degraded", "shard-unavailable")
                else 429
            )
            retry_after = (
                exc.retry_after if exc.retry_after is not None else 1.0
            )
            self._send_json(
                status,
                {"error": "rejected", "reason": exc.reason,
                 "detail": str(exc)},
                headers={"Retry-After": f"{retry_after:g}"},
            )
        except TimeoutError:
            # The peer stalled mid-body past request_timeout_s.
            try:
                self._send_json(
                    408, {"error": "timed out reading request body"}
                )
            finally:
                self.close_connection = True
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": str(exc)})

    # --------------------------------------------------------- handlers
    def _get_job(self, job_id: str) -> None:
        try:
            job = self.service.job(job_id)
        except KeyError:
            self._send_json(404, {"error": f"no job {job_id!r}"})
            return
        self._send_json(200, job.to_json())

    def _post_graph(self, body: dict[str, Any]) -> None:
        if "graph" not in body:
            raise BadRequest("body needs a 'graph' spec")
        graph = parse_graph_spec(body["graph"])
        name = body.get("name")
        try:
            fp = self.service.register_graph(
                graph, str(name) if name is not None else None
            )
        except ValueError as exc:
            raise BadRequest(str(exc))
        self._send_json(200, self.service.graph_info(fp))

    @staticmethod
    def _edge_array(value: Any, field: str) -> np.ndarray:
        if value is None:
            value = []
        if not isinstance(value, list):
            raise BadRequest(f"'{field}' must be a list of [u, v] pairs")
        try:
            return (
                np.asarray(value, dtype=np.int64).reshape(-1, 2)
                if value
                else np.zeros((0, 2), dtype=np.int64)
            )
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad '{field}' edge list: {exc}")

    def _post_edges(self, name: str, body: dict[str, Any]) -> None:
        inserts = self._edge_array(
            body.get("insert", body.get("inserts")), "insert"
        )
        deletes = self._edge_array(
            body.get("delete", body.get("deletes")), "delete"
        )
        try:
            summary = self.service.mutate_graph(
                name,
                inserts=inserts,
                deletes=deletes,
                directed=bool(body.get("directed", True)),
            )
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except (DeltaError, GraphFormatError, ValueError) as exc:
            raise BadRequest(str(exc))
        except VersionConflictError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        self._send_json(200, summary)

    def _get_versions(self, name: str) -> None:
        try:
            versions = self.service.versions(name)
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, {"graph": name, "versions": versions})

    def _post_compare(self, name: str, body: dict[str, Any]) -> None:
        if "query" not in body:
            raise BadRequest("body needs a 'query' spec")
        query = parse_graph_spec(body["query"])
        base = body.get("base")
        timeout = _number(body, "timeout_s")
        try:
            summary = self.service.compare(
                name,
                query,
                base=str(base) if base is not None else None,
                timeout=timeout,
            )
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except ValueError as exc:
            raise BadRequest(str(exc))
        self._send_json(200, summary)

    def _resolve_graph_arg(self, spec: Any) -> str:
        """A /match 'graph' value: fingerprint, name, or inline spec."""
        if isinstance(spec, str):
            try:
                return self.service.resolve_key(spec)
            except KeyError:
                # Not a registered key — maybe a pattern shorthand.
                graph = _pattern_graph(spec)
        else:
            graph = parse_graph_spec(spec)
        try:
            return self.service.register_graph(graph)
        except ValueError as exc:
            raise BadRequest(str(exc))

    def _post_match(self, body: dict[str, Any]) -> None:
        unknown = sorted(set(body) - _MATCH_FIELDS)
        if unknown:
            raise BadRequest(f"unknown /match field(s): {', '.join(unknown)}")
        if "graph" not in body or "query" not in body:
            raise BadRequest("body needs 'graph' and 'query'")
        query = parse_graph_spec(body["query"])
        timeout = _number(body, "timeout_s")
        idempotency_key = body.get("idempotency_key")
        as_of = body.get("as_of")
        options: dict[str, Any] = {
            "priority": _number(body, "priority", int, 0),
            # A proxy may attach the deadline as a header instead.
            "deadline_ms": _number(
                body, "deadline_ms",
                default=_number(self.headers, "X-Deadline-Ms"),
            ),
            "materialize": bool(body.get("materialize", False)),
            "time_limit_ms": _number(body, "time_limit_ms"),
            "idempotency_key": (
                str(idempotency_key) if idempotency_key is not None else None
            ),
            "num_parts": _number(body, "num_parts", int, 1),
            "as_of": str(as_of) if as_of is not None else None,
        }
        graph_fp = self._resolve_graph_arg(body["graph"])
        try:
            job_id = self.service.submit(graph_fp, query, **options)
        except KeyError as exc:
            # An unknown graph key or a pruned/foreign as_of version.
            self._send_json(404, {"error": str(exc)})
            return
        except ValueError as exc:
            raise BadRequest(str(exc))
        if not body.get("wait", True):
            self._send_json(202, {"job_id": job_id})
            return
        job = self.service.wait(job_id, timeout=timeout)
        status = 200 if job.done.is_set() else 504
        self._send_json(status, job.to_json())


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one service backend — a single
    :class:`MatchingService` or a replicated :class:`ClusterService`,
    served through their shared :class:`FrontDoor` surface."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: FrontDoor,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.request_timeout_s = service.service_config.request_timeout_s
        self.max_body_bytes = service.service_config.max_body_bytes


def serve(
    service: FrontDoor,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (``port=0`` = ephemeral) without blocking; the caller runs
    ``serve_forever`` (or drives ``handle_request`` in tests)."""
    return ServiceHTTPServer((host, port), service, verbose=verbose)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="serve subgraph-isomorphism matching over HTTP",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    parser.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="worker processes per graph engine ('auto' = all CPUs; "
        "default 1 = in-process engines)",
    )
    parser.add_argument(
        "--ranks", type=int, default=1, metavar="N",
        help="service replicas; N > 1 serves a shard-routed cluster "
        "that fails over across replicas on rank crashes (default: 1)",
    )
    parser.add_argument(
        "--replication", type=int, default=2, metavar="R",
        help="replicas per graph shard (clamped to --ranks; default: 2)",
    )
    parser.add_argument(
        "--route-timeout-s", type=float, default=ServiceConfig.route_timeout_s,
        metavar="S",
        help="per-attempt routing timeout before the cluster fails "
        "over to the next replica",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=ServiceConfig.queue_depth, metavar="N",
        help="admission bound on queued requests",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=ServiceConfig.cache_bytes, metavar="B",
        help="result/plan cache budget in bytes",
    )
    parser.add_argument(
        "--max-query-vertices", type=int, default=ServiceConfig.max_query_vertices,
        metavar="N",
        help="reject queries larger than N vertices (admission control)",
    )
    parser.add_argument(
        "--memory-budget-mb", type=int, default=ServiceConfig.memory_budget_mb,
        metavar="MB",
        help="governor budget; admission rejects past it",
    )
    parser.add_argument(
        "--max-versions", type=int, default=ServiceConfig.max_versions, metavar="N",
        help="retained versions per mutable graph (as_of targets); "
        "commits past this depth prune the oldest version "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--preload", action="append", default=[], metavar="SPEC",
        help="register a graph at boot (pattern like K5, or "
        "generator:mesh:8,8); repeatable",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable journal + graph manifest; restarts recover "
        "graphs, pending jobs, and terminal results from it",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault plan, key=value[,key=value...] "
        "(keys: seed, engine_fault_prob, stall_prob, stall_ms, "
        "worker_kill_prob, cache_corrupt_prob, oom_prob, oom_pressure, "
        "oom_hold_ticks, rank_crash_prob, partition_prob, "
        "partition_ticks, slow_replica_prob, slow_replica_ms); "
        "default: $REPRO_SERVICE_FAULTS",
    )
    parser.add_argument(
        "--request-timeout-s", type=float, default=ServiceConfig.request_timeout_s,
        metavar="S",
        help="per-connection socket timeout",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=ServiceConfig.max_body_bytes, metavar="B",
        help="reject request bodies above B bytes with 413",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    service_config = ServiceConfig(
        queue_depth=args.queue_depth,
        cache_bytes=args.cache_bytes,
        max_query_vertices=args.max_query_vertices,
        memory_budget_mb=args.memory_budget_mb,
        request_timeout_s=args.request_timeout_s,
        max_body_bytes=args.max_body_bytes,
        route_timeout_s=args.route_timeout_s,
        max_versions=args.max_versions,
    )

    plan = (
        ServiceFaultPlan.from_spec(args.faults)
        if args.faults is not None
        else ServiceFaultPlan.from_env()
    )
    faults = None if plan is None or plan.is_null else plan
    service: FrontDoor
    if args.ranks > 1:
        service = ClusterService(
            service_config=service_config,
            ranks=args.ranks,
            replication=args.replication,
            workers=args.workers,
            state_dir=args.state_dir,
            faults=faults,
        )
    else:
        service = MatchingService(
            service_config=service_config,
            workers=args.workers,
            state_dir=args.state_dir,
            faults=faults,
        )
    for spec in args.preload:
        if spec.startswith("generator:"):
            _, kind, raw = spec.split(":", 2)
            gen_args = [int(x) for x in raw.split(",") if x]
            graph = parse_graph_spec(
                {"generator": kind, "args": gen_args}
            )
        else:
            graph = parse_graph_spec(spec)
        service.register_graph(graph)

    server = serve(service, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("interrupted; shutting down", flush=True)
    finally:
        server.server_close()
        service.close()
    return 0

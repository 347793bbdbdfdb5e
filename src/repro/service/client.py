"""Self-healing stdlib client for a running ``repro.serve`` endpoint.

Mirrors the embedded :class:`~repro.service.MatchingService` surface
over HTTP: register graphs, submit matches (blocking or async), poll
jobs, read health and metrics.  Uses only :mod:`urllib`, so scripts and
CI smoke tests need nothing beyond the interpreter.

HTTP errors carry the server's JSON body: an admission rejection
surfaces as :class:`ServiceError` with ``status == 429`` (or ``503``
for degraded mode) and ``reason`` set to the machine-readable admission
code (``queue-full`` / ``oversized-query`` / ``memory-budget`` /
``degraded`` / ``shutdown``).  Transport-level failures — connection
refused, a connection dropped mid-body, a response that is not valid
JSON — surface with ``status == 0``.

The client heals itself rather than surfacing every transient blip:

* a :class:`RetryPolicy` retries transient failures (transport errors,
  502/503/504, and 429s whose reason is load — never ``oversized-query``
  or other caller bugs) with capped exponential backoff plus
  deterministic jitter, honouring a server ``Retry-After`` when one is
  sent;
* every ``/match`` carries an **idempotency key** (caller-supplied or
  auto-generated once per logical request) that is reused verbatim
  across retries, so a retry after an ambiguous failure can never make
  the server count the same query twice;
* a rolling-window :class:`CircuitBreaker` fails fast (``reason ==
  "circuit-open"``) while the server is clearly down, then lets one
  probe through after a cooldown (half-open) and closes again on its
  success.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.sanitizer import make_lock
from ..graph.csr import CSRGraph
from ..graph.io import graph_to_spec

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "graph_to_spec",
]


class ServiceError(RuntimeError):
    """A non-2xx response, with the server's status and reason code.

    ``status == 0`` marks transport-level failures (unreachable host,
    mid-body disconnect, malformed response body, open circuit).
    ``retry_after`` carries the server's ``Retry-After`` header in
    seconds when one was sent.  ``replica`` is the cluster rank the
    request was routed to when the server reported one — against a
    replicated service it says *which* replica produced the failure.
    """

    def __init__(
        self,
        status: int,
        message: str,
        reason: str | None = None,
        retry_after: float | None = None,
        replica: int | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after = retry_after
        self.replica = replica


@dataclass(frozen=True)
class RetryPolicy:
    """When and how the client retries a failed request.

    Backoff for attempt *k* (0-based) is ``backoff_base_s * 2**k``
    capped at ``backoff_cap_s``, stretched by up to ``jitter`` of
    itself (deterministic per-client via ``seed``).  A server
    ``Retry-After`` overrides the computed backoff (still capped).
    Only *transient* failures retry: transport errors (status 0),
    ``retry_statuses``, and 429s whose ``reason`` is in
    ``retry_reasons`` — a 429 for ``oversized-query`` is the caller's
    bug and retrying it would loop forever.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    retry_statuses: tuple[int, ...] = (502, 503, 504)
    retry_reasons: tuple[str, ...] = ("queue-full", "memory-budget", "degraded")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, error: ServiceError) -> bool:
        if error.reason == "circuit-open":
            return False  # the breaker already decided; don't spin on it
        if error.status == 0:
            return True
        if error.status in self.retry_statuses:
            return True
        return error.status == 429 and error.reason in self.retry_reasons


class CircuitBreaker:
    """Rolling-window circuit breaker over one endpoint.

    Tracks the last ``window`` request outcomes; ``failure_threshold``
    failures among them opens the circuit, after which every request
    fails fast (``ServiceError`` with ``reason == "circuit-open"``)
    until ``cooldown_s`` has passed.  Then exactly one probe is let
    through (half-open): its success closes the circuit and clears the
    window, its failure re-opens it for another cooldown.  Only
    failures that indicate a *down server* count — transport errors and
    5xx; a 4xx proves the server is alive and records as a success.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= failure_threshold <= window:
            raise ValueError("failure_threshold must be in [1, window]")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = make_lock("CircuitBreaker._lock")
        self._events: deque[bool] = deque(maxlen=window)
        self.state = self.CLOSED
        self._opened_at = 0.0
        self.opens = 0
        self.fast_fails = 0

    def before_request(self) -> None:
        """Gate one request: raises ``circuit-open`` when failing fast,
        silently admits the single half-open probe otherwise."""
        with self._lock:
            if self.state == self.OPEN:
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self.state = self.HALF_OPEN  # this caller is the probe
                    return
                self.fast_fails += 1
                raise ServiceError(
                    0,
                    f"circuit breaker open "
                    f"(cooldown {self.cooldown_s}s after "
                    f"{self.failure_threshold} failures)",
                    reason="circuit-open",
                )
            if self.state == self.HALF_OPEN:
                self.fast_fails += 1
                raise ServiceError(
                    0,
                    "circuit breaker half-open: probe already in flight",
                    reason="circuit-open",
                )

    def record_success(self) -> None:
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._events.clear()
            self.state = self.CLOSED
            self._events.append(True)

    def record_failure(self) -> None:
        with self._lock:
            now = self._clock()
            if self.state == self.HALF_OPEN:
                self.state = self.OPEN
                self._opened_at = now
                return
            self._events.append(False)
            failures = sum(1 for ok in self._events if not ok)
            if self.state == self.CLOSED and failures >= self.failure_threshold:
                self.state = self.OPEN
                self._opened_at = now
                self.opens += 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self.state,
                "window_failures": sum(1 for ok in self._events if not ok),
                "opens": self.opens,
                "fast_fails": self.fast_fails,
            }


class ServiceClient:
    """Talk to one ``repro.serve`` endpoint.

    >>> client = ServiceClient("http://127.0.0.1:8080")
    >>> fp = client.register_graph(mesh_graph(8, 8))
    >>> client.match(fp, "K3")["result"]["count"]

    Retries and the circuit breaker are on by default (see
    :class:`RetryPolicy` / :class:`CircuitBreaker`); pass
    ``RetryPolicy(max_attempts=1)`` to make every failure surface
    immediately.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retries = 0
        self._rng = random.Random(self.retry.seed)
        self._sleep: Callable[[float], None] = time.sleep

    # ------------------------------------------------------------------
    def _backoff_s(self, attempt: int, retry_after: float | None) -> float:
        if retry_after is not None:
            return min(max(retry_after, 0.0), self.retry.backoff_cap_s)
        base = min(
            self.retry.backoff_cap_s,
            self.retry.backoff_base_s * (2.0 ** attempt),
        )
        return base * (1.0 + self.retry.jitter * self._rng.random())

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            raw_text = exc.read().decode("utf-8", errors="replace")
            try:
                payload = json.loads(raw_text)
            except json.JSONDecodeError:
                payload = {"error": raw_text}
            header = exc.headers.get("Retry-After")
            try:
                retry_after = float(header) if header is not None else None
            except ValueError:
                retry_after = None
            replica = payload.get("replica")
            raise ServiceError(
                exc.code,
                str(
                    payload.get("detail") or payload.get("error") or raw_text
                ),
                reason=payload.get("reason"),
                retry_after=retry_after,
                replica=int(replica) if replica is not None else None,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        except (http.client.HTTPException, TimeoutError, OSError) as exc:
            # Connection dropped mid-response (e.g. the server was
            # killed between headers and body): ambiguous, transient.
            raise ServiceError(
                0, f"connection to {self.base_url} broke mid-response: {exc}"
            ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                0, f"malformed JSON response from {self.base_url}: {exc}"
            ) from None

    def _request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One logical request: breaker-gated, retried per policy.

        The same ``body`` object is resent on every attempt — which is
        exactly what makes idempotency keys work: the server sees one
        key no matter how many wire-level tries it took.
        """
        attempt = 0
        while True:
            self.breaker.before_request()
            try:
                result = self._request_once(method, path, body)
            except ServiceError as exc:
                if exc.reason != "circuit-open":
                    if exc.status == 0 or exc.status >= 500:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                attempt += 1
                if attempt >= self.retry.max_attempts or not (
                    self.retry.should_retry(exc)
                ):
                    raise
                self.retries += 1
                self._sleep(self._backoff_s(attempt - 1, exc.retry_after))
                continue
            self.breaker.record_success()
            return result

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def graphs(self) -> list[dict[str, Any]]:
        return list(self._request("GET", "/graphs")["graphs"])

    def register_graph(
        self, graph: CSRGraph | str | dict[str, Any], name: str | None = None
    ) -> str:
        """Register a graph (CSRGraph, pattern string, or raw spec);
        returns its content fingerprint.  Safe to retry: registration
        is content-addressed and idempotent server-side."""
        spec: Any = (
            graph_to_spec(graph) if isinstance(graph, CSRGraph) else graph
        )
        body: dict[str, Any] = {"graph": spec}
        if name is not None:
            body["name"] = name
        return str(self._request("POST", "/graphs", body)["fingerprint"])

    # ------------------------------------------------------------------
    # Versioned mutation / time travel
    # ------------------------------------------------------------------
    def mutate_edges(
        self,
        name: str,
        *,
        insert: list[list[int]] | None = None,
        delete: list[list[int]] | None = None,
        directed: bool = True,
    ) -> dict[str, Any]:
        """Commit an edge delta against the named graph's head version;
        returns the commit summary (child fingerprint, lineage depth,
        cache promotion counts, pruned versions).

        Safe to retry after an ambiguous failure: the server normalises
        the delta against the *current* head, so replaying a commit
        that already landed drops every already-present insert and
        already-absent delete and reduces to a no-op commit
        (``changed: false``) — it can never fork the chain or apply
        twice.  A 409 means someone else committed concurrently; re-read
        the head before deciding to retry.
        """
        body: dict[str, Any] = {"directed": directed}
        if insert:
            body["insert"] = insert
        if delete:
            body["delete"] = delete
        return self._request("POST", f"/graphs/{name}/edges", body)

    def versions(self, name: str) -> list[dict[str, Any]]:
        """The retained version chain of a named graph, oldest first;
        each entry carries ``fingerprint``, ``parent_fingerprint``,
        ``lineage_depth``, ``retired``, and ``head``."""
        return list(
            self._request("GET", f"/graphs/{name}/versions")["versions"]
        )

    def compare(
        self,
        name: str,
        query: CSRGraph | str | dict[str, Any],
        *,
        base: str | None = None,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Shadow-compare ``query`` across a version boundary of the
        named graph (base defaults to the head's parent); returns both
        counts and their delta."""
        body: dict[str, Any] = {
            "query": (
                graph_to_spec(query) if isinstance(query, CSRGraph) else query
            ),
        }
        if base is not None:
            body["base"] = base
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._request("POST", f"/graphs/{name}/compare", body)

    # ------------------------------------------------------------------
    def match(
        self,
        graph: CSRGraph | str | dict[str, Any],
        query: CSRGraph | str | dict[str, Any],
        *,
        wait: bool = True,
        priority: int = 0,
        deadline_ms: float | None = None,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        timeout_s: float | None = None,
        idempotency_key: str | None = None,
        num_parts: int = 1,
        as_of: str | None = None,
    ) -> dict[str, Any]:
        """Submit one match.  ``wait=True`` returns the finished job
        JSON; ``wait=False`` returns ``{"job_id": ...}`` immediately.
        ``as_of`` time-travels the request to a retained past version
        of the named graph (404 for pruned or foreign fingerprints).

        An ``idempotency_key`` is generated when not supplied and sent
        on every retry of this call, so the server deduplicates — a
        retry after an ambiguous failure can never double-count.
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        body: dict[str, Any] = {
            "graph": (
                graph_to_spec(graph) if isinstance(graph, CSRGraph) else graph
            ),
            "query": (
                graph_to_spec(query) if isinstance(query, CSRGraph) else query
            ),
            "wait": wait,
            "priority": priority,
            "materialize": materialize,
            "idempotency_key": idempotency_key,
        }
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if time_limit_ms is not None:
            body["time_limit_ms"] = time_limit_ms
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        if num_parts != 1:
            # Against a cluster the router stripes the query across its
            # shard's replicas and resumes surviving parts on failure.
            body["num_parts"] = num_parts
        if as_of is not None:
            body["as_of"] = as_of
        return self._request("POST", "/match", body)

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def wait_job(
        self, job_id: str, *, timeout: float = 60.0, poll_s: float = 0.05
    ) -> dict[str, Any]:
        """Poll ``/jobs/<id>`` until it leaves pending/running."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["state"] not in ("pending", "running"):
                return payload
            if time.monotonic() >= deadline:
                raise ServiceError(
                    0, f"job {job_id} still {payload['state']} "
                    f"after {timeout}s"
                )
            time.sleep(poll_s)

"""Serving knobs: what the matching service admits, caches and retains.

None of these can change a count, so none of them is fingerprinted
(the engine choices are :class:`~repro.core.config.CuTSConfig`).  Both
serving backends take one :class:`ServiceConfig`; the cluster router
hands the same object to every rank.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the matching service.

    Attributes
    ----------
    queue_depth:
        Scheduler queue bound; a submit past it is rejected with reason
        ``queue-full`` (admission control), never silently dropped.
    cache_bytes:
        Byte budget of the LRU result+plan cache (charged against the
        memory governor; ``0`` = no cache).
    max_query_vertices:
        Larger queries are rejected as ``oversized-query`` (``0`` = no
        bound).
    request_timeout_s:
        HTTP per-connection socket timeout: a client that stalls
        mid-request is disconnected instead of pinning a handler.
    max_body_bytes:
        HTTP request bodies above this are refused with 413 unread.
    route_timeout_s:
        Router wall clock per routed attempt; a replica silent that long
        is treated as failed and its late answer is never integrated.
    max_versions:
        Retained versions per named graph, head included (>= 1); a
        commit past it prunes the oldest, which ``as_of`` then refuses.
    memory_budget_mb:
        Budget (MiB) of the service's memory governor — registered graph
        bytes plus live cache bytes; admission rejects past it — and of
        each graph engine.  ``0`` (default) = unlimited.
    """

    queue_depth: int = 64
    cache_bytes: int = 32 * 1024 * 1024
    max_query_vertices: int = 0
    request_timeout_s: float = 30.0
    max_body_bytes: int = 8 * 1024 * 1024
    route_timeout_s: float = 10.0
    max_versions: int = 4
    memory_budget_mb: int = 0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0 (0 = no cache)")
        if self.max_query_vertices < 0:
            raise ValueError("max_query_vertices must be >= 0 (0 = unlimited)")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.max_body_bytes < 1024:
            raise ValueError("max_body_bytes must be >= 1024")
        if self.route_timeout_s <= 0:
            raise ValueError("route_timeout_s must be positive")
        if self.max_versions < 1:
            raise ValueError("max_versions must be >= 1")
        if self.memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0 (0 = unlimited)")

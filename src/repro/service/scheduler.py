"""Bounded priority scheduler with admission control.

A server that "serves heavy traffic" needs a front door that says **no**
early and legibly, not a queue that grows until the host dies.  Three
admission rules run synchronously at submit, each rejecting with a
machine-readable reason (never a silent drop):

* ``queue-full`` — the bounded queue is at ``ServiceConfig.queue_depth``;
* ``oversized-query`` — the query exceeds
  ``ServiceConfig.max_query_vertices`` (when set);
* ``memory-budget`` — the :class:`~repro.core.governor.MemoryGovernor`
  reports pressure at or past its budget (registered graphs plus live
  cache bytes already fill it).

Admitted requests wait in a priority heap (lower ``priority`` value
first, FIFO within a priority).  Each request may carry a **deadline**:
if the dispatcher has not picked it up by then it expires and its job
fails with ``deadline-expired`` — late work is dropped at the cheapest
possible point, before any matcher runs.  Pending requests can also be
**cancelled**; cancellation wins the race against dispatch the same way.

Batch pops are graph-affine: the head request is taken together with
every queued request for the *same* data graph (up to the service's
``BATCH_MAX``), which is what lets the dispatcher turn a burst
of same-graph traffic into one batched matcher pass.  Requests for
other graphs are pushed back untouched, preserving their order.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field

from ..analysis.sanitizer import make_condition
from ..core.governor import MemoryGovernor
from ..graph.csr import CSRGraph

__all__ = ["AdmissionError", "Request", "Scheduler"]


class AdmissionError(RuntimeError):
    """A request was rejected at the front door, with a reason code.

    ``retry_after`` (seconds) is set when the rejecting layer knows how
    long the condition is expected to last — the cluster router sets it
    on ``shard-unavailable`` so the HTTP face can send a precise
    ``Retry-After`` header.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


@dataclass
class Request:
    """One admitted unit of work, as the scheduler and dispatcher see it."""

    job_id: str
    graph_fp: str
    query: CSRGraph
    query_fp: str
    materialize: bool = False
    time_limit_ms: float | None = None
    priority: int = 0
    deadline: float | None = None  # absolute time.monotonic() instant
    seq: int = 0
    # num_parts is the client's split hint.  The cluster router acts on
    # it by sending num_parts requests with ``part`` set; each executes
    # only roots[part::num_parts], and the root sets partition.
    part: int | None = None
    num_parts: int = 1
    cancelled: threading.Event = field(default_factory=threading.Event)

    @property
    def stride(self) -> tuple[int, int]:
        """``(part, num_parts)`` of the roots this request executes:
        ``(0, 1)``, the whole query, unless ``part`` is set."""
        return (0, 1) if self.part is None else (self.part, self.num_parts)


class Scheduler:
    """Bounded priority queue + admission control + deadlines."""

    def __init__(
        self,
        *,
        max_depth: int,
        max_query_vertices: int = 0,
        governor: MemoryGovernor | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.max_query_vertices = max_query_vertices
        self.governor = governor
        self._cond = make_condition("Scheduler._cond")
        self._heap: list[tuple[int, int, Request]] = []
        self._seq = 0
        self._closed = False
        self.admitted = 0
        self.rejected: dict[str, int] = {}
        self.expired = 0
        self.cancelled = 0
        self.cancelled_at_dispatch = 0
        self.expired_at_dispatch = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._heap)

    def _reject(
        self,
        reason: str,
        message: str,
        retry_after: float | None = None,
    ) -> AdmissionError:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return AdmissionError(reason, message, retry_after=retry_after)

    def submit(self, request: Request) -> None:
        """Admit ``request`` or raise :class:`AdmissionError`."""
        with self._cond:
            if self._closed:
                raise self._reject(
                    "shutdown", "the matching service is shutting down"
                )
            if len(self._heap) >= self.max_depth:
                raise self._reject(
                    "queue-full",
                    f"queue depth {self.max_depth} reached; retry later",
                )
            if (
                self.max_query_vertices
                and request.query.num_vertices > self.max_query_vertices
            ):
                raise self._reject(
                    "oversized-query",
                    f"query has {request.query.num_vertices} vertices, "
                    f"admission bound is {self.max_query_vertices}",
                )
            if (
                self.governor is not None
                and self.governor.budget_bytes is not None
                and self.governor.pressure >= 1.0
            ):
                raise self._reject(
                    "memory-budget",
                    f"memory budget exhausted "
                    f"({self.governor.tracked_bytes} of "
                    f"{self.governor.budget_bytes} bytes in use)",
                )
            self._seq += 1
            request.seq = self._seq
            heapq.heappush(
                self._heap, (request.priority, request.seq, request)
            )
            self.admitted += 1
            self._cond.notify()

    def reject(
        self,
        reason: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> AdmissionError:
        """Mint (and count) an admission rejection on the service's
        behalf — used for rejections decided outside the queue itself,
        e.g. degraded read-only mode or a below-quorum shard."""
        with self._cond:
            return self._reject(reason, message, retry_after)

    def note_dispatch_skips(self, *, cancelled: int = 0, expired: int = 0) -> None:
        """Record requests the dispatcher skipped at dispatch time — a
        cancellation or deadline that landed after pop but before the
        engine pass (the last chance to avoid burning a matcher run)."""
        with self._cond:
            self.cancelled += cancelled
            self.expired += expired
            self.cancelled_at_dispatch += cancelled
            self.expired_at_dispatch += expired

    def pop_batch(
        self, max_batch: int, timeout: float
    ) -> tuple[list["Request"], list["Request"]]:
        """One graph-affine batch, waiting up to ``timeout`` seconds.

        Returns ``(batch, dead)``: ``batch`` holds up to ``max_batch``
        runnable requests all targeting the same data graph (priority
        order, the head request's graph wins); ``dead`` holds requests
        discovered expired or cancelled while scanning — the caller
        settles their jobs.  Both may be empty on timeout.
        """
        with self._cond:
            if not self._heap:
                self._cond.wait(timeout=timeout)
            now = time.monotonic()
            batch: list[Request] = []
            dead: list[Request] = []
            skipped: list[tuple[int, int, Request]] = []
            graph_fp: str | None = None
            while self._heap and len(batch) < max_batch:
                entry = heapq.heappop(self._heap)
                request = entry[2]
                if request.cancelled.is_set():
                    self.cancelled += 1
                    dead.append(request)
                    continue
                if request.deadline is not None and now >= request.deadline:
                    self.expired += 1
                    dead.append(request)
                    continue
                if graph_fp is None:
                    graph_fp = request.graph_fp
                if request.graph_fp != graph_fp:
                    skipped.append(entry)
                    continue
                batch.append(request)
            for entry in skipped:
                heapq.heappush(self._heap, entry)
            return batch, dead

    def close(self) -> list[Request]:
        """Refuse new work and drain what is still queued (the caller
        fails the drained jobs as ``shutdown``)."""
        with self._cond:
            self._closed = True
            drained = [entry[2] for entry in self._heap]
            self._heap.clear()
            self._cond.notify_all()
            return drained

    def snapshot(self) -> dict[str, object]:
        """Counter snapshot for ``/metrics``."""
        with self._cond:
            return {
                "depth": len(self._heap),
                "max_depth": self.max_depth,
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "expired": self.expired,
                "cancelled": self.cancelled,
                "cancelled_at_dispatch": self.cancelled_at_dispatch,
                "expired_at_dispatch": self.expired_at_dispatch,
            }

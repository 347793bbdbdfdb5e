"""The embedded matching service: registry + scheduler + dispatcher +
caches behind one long-lived object.

``MatchingService`` is the rank-local executor of the serving stack.  It
and the cluster router share one public surface, :class:`FrontDoor`
(job model, validation, ``submit``/``match``/``compare``), which the
HTTP face in :mod:`repro.service.http` is a thin shell over.  One
background dispatch thread drains the scheduler in graph-affine batches;
all matching parallelism lives *inside* the batch pass (the registry
handles' persistent engines), so one drainer is enough and the
scheduler's ordering guarantees stay trivially true.

Memory accounting: registered graph bytes plus live cache bytes are
charged to one :class:`~repro.core.governor.MemoryGovernor` (built from
``ServiceConfig.memory_budget_mb``).  When that budget is exhausted,
admission rejects new work with ``memory-budget`` — the serving-side
analogue of the engine's degrade-don't-die rule.  Under *sustained*
pressure at the governor's high-water mark (:data:`DEGRADED_AFTER`
consecutive dispatch ticks) the service drops into **degraded read-only
mode**: verified cache hits for count-only queries are still served,
everything else is rejected with reason ``degraded`` (HTTP 503 +
``Retry-After``), and the same count of healthy ticks exits the mode.

Resilience (see DESIGN.md §12):

* ``state_dir`` makes the service crash-recoverable: graphs, names,
  versions and job transitions go to one durable log
  (:mod:`repro.service.state`) and a restart re-registers graphs,
  re-enqueues pending jobs, restores retained terminal ones, and marks
  formerly-running jobs ``retryable``.
* The job table keeps every pending and running job and the
  :data:`~repro.service.state.RETAINED_JOBS` most recently settled
  ones.  An evicted id answers ``KeyError`` (HTTP 404), and an evicted
  idempotency key runs again.
* ``idempotency_key`` on :meth:`submit` deduplicates client retries:
  a key already bound to a live or completed job returns that job's id
  instead of executing again — retries can never double-count.
* ``faults`` arms the deterministic chaos injector
  (:mod:`repro.service.faults`); the dispatcher and this loop consult
  it so tests drive the real service under seeded fault schedules.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..analysis.sanitizer import make_rlock
from ..core.config import CuTSConfig
from ..core.governor import MemoryGovernor
from ..core.result import (
    MatchResult,
    payload_from_result,
    result_from_payload,
    verify_payload,
)
from ..core.stats import SearchStats
from ..fingerprint import config_fingerprint, graph_fingerprint
from ..graph.csr import CSRGraph
from ..parallel.matcher import resolve_workers
from ..versioning.incremental import dirty_region_for, promotion_safe
from ..versioning.lineage import (
    KIND_DELTA,
    GraphVersion,
    recover_chains,
    version_record,
)
from .cache import CacheKey, LRUBytesCache
from .config import ServiceConfig
from .dispatcher import Dispatcher
from .faults import ServiceFaultInjector, ServiceFaultPlan
from .registry import GraphRegistry, VersionCommit
from .scheduler import AdmissionError, Request, Scheduler
from .state import (
    DROPPED,
    RETAINED_JOBS,
    LogState,
    ServiceState,
    graph_from_record,
    graph_record,
)

__all__ = [
    "DeadlineExpired",
    "FrontDoor",
    "Job",
    "JobFailed",
    "MatchingService",
]

# Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"
CANCELLED = "cancelled"
RETRYABLE = "retryable"

# Journal states that are settled (no further transitions).
_TERMINAL = frozenset({DONE, FAILED, EXPIRED, CANCELLED, RETRYABLE})

BATCH_MAX = 16
"""Most requests the dispatch loop hands the dispatcher as one batched
same-graph matcher pass."""
DEGRADED_AFTER = 3
"""Consecutive dispatch ticks at or above the governor's high-water
pressure before the service enters degraded read-only mode; the same
count of healthy ticks exits it.  Hysteresis keeps one transient spike
from flapping the mode."""

# The request fields a job record carries beside its query graph.
_RECORD_FIELDS = (
    "job_id", "graph_fp", "query_fp", "materialize", "time_limit_ms",
    "priority", "part", "num_parts",
)


class DeadlineExpired(RuntimeError):
    """The request's deadline passed before the dispatcher reached it."""


class JobFailed(RuntimeError):
    """The underlying match raised; the message carries the cause."""


@dataclass
class Job:
    """One submitted request's lifecycle, visible to clients.

    A rank-local job and a routed cluster job are the same record.  The
    router-only fields (``replica``, ``failovers``, ``parts_recovered``,
    ``reason``, ``retry_after``) stay unset on a single rank and appear
    in :meth:`to_json` only when set.
    """

    id: str
    request: Request
    state: str = PENDING
    result: MatchResult | None = None
    error: str | None = None
    cached: bool = False
    coalesced: bool = False
    plan_hit: bool = False
    fallback: bool = False
    incremental: bool = False
    idempotency_key: str | None = None
    stats: SearchStats | None = None
    # The client's relative budget, handed unchanged to every routed
    # attempt (``request.deadline`` is this process's absolute instant).
    deadline_ms: float | None = None
    replica: int | None = None
    failovers: int = 0
    parts_recovered: int = 0
    reason: str | None = None
    retry_after: float | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def to_json(self) -> dict[str, object]:
        """JSON description for ``/jobs/<id>``."""
        out: dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "graph": self.request.graph_fp,
            "query": self.request.query_fp,
            "priority": self.request.priority,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        optional: dict[str, object] = {
            "num_parts": (
                self.request.num_parts if self.request.num_parts > 1 else None
            ),
            "replica": self.replica,
            "failovers": self.failovers or None,
            "parts_recovered": self.parts_recovered or None,
            "reason": self.reason,
            "retry_after": self.retry_after,
            "fallback": self.fallback or None,
            "incremental": self.incremental or None,
            "idempotency_key": self.idempotency_key,
            "error": self.error,
        }
        out.update((k, v) for k, v in optional.items() if v is not None)
        if self.result is not None:
            out["result"] = payload_from_result(self.result)
            if self.result.matches is not None:
                out["matches"] = self.result.matches.tolist()
        elif self.stats is not None:
            out["stats"] = self.stats.to_json()
        return out


class FrontDoor(ABC):
    """The public surface both serving backends share.

    Validation, job ids, idempotency dedupe, job retention and
    ``submit`` ... ``compare`` are written once, here.  A backend
    resolves graphs (:meth:`_graph_key`), runs admitted jobs
    (:meth:`_start`) and settles them (:meth:`_settle`):
    :class:`MatchingService` queues them on its scheduler, and
    :class:`~repro.service.cluster.ClusterService` routes them to the
    replicas of the graph's shard.

    Retention: the table keeps every pending and running job and the
    :data:`~repro.service.state.RETAINED_JOBS` most recently settled
    ones.  Evicting a job drops its idempotency binding and any query
    shape no retained job uses, so an evicted id answers ``KeyError``
    and an evicted idempotency key runs again.  Ids are never reused.
    """

    _JOB_PREFIX = "job"
    config: CuTSConfig
    service_config: ServiceConfig

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = make_rlock("FrontDoor._jobs_lock")
        self._job_seq = 0
        self._idempotency: dict[str, str] = {}
        # Settled jobs, oldest-settled first: the eviction order.
        self._settled: OrderedDict[str, Job] = OrderedDict()
        # Query index: query_fp -> (query graph, retained jobs using
        # it).  Cache promotion needs the query *shape* (its diameter
        # and root set) to prove an entry unaffected by a delta; a
        # cache key alone cannot reconstruct it.
        self._queries: dict[str, tuple[CSRGraph, int]] = {}

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Backend surface
    # ------------------------------------------------------------------
    @abstractmethod
    def _graph_key(self, graph: CSRGraph | str) -> str:
        """Fingerprint of ``graph``: inline content is registered, a
        name or fingerprint resolved (``KeyError`` when unknown)."""

    @abstractmethod
    def _start(self, job: Job) -> None:
        """Hand an admitted job to execution; raising
        :class:`AdmissionError` withdraws it."""

    # The rest of the surface each backend implements (the HTTP face
    # maps one endpoint to each).
    @abstractmethod
    def register_graph(self, graph: CSRGraph, name: str | None = None) -> str: ...

    @abstractmethod
    def resolve_key(self, key: str) -> str: ...

    @abstractmethod
    def graph_info(self, key: str) -> dict[str, object]: ...

    @abstractmethod
    def graphs(self) -> list[dict[str, object]]: ...

    @abstractmethod
    def versions(self, key: str) -> list[dict[str, object]]: ...

    @abstractmethod
    def mutate_graph(
        self, key: str, *, inserts: object = (), deletes: object = (),
        directed: bool = True,
    ) -> dict[str, object]: ...

    @abstractmethod
    def healthz(self) -> dict[str, object]: ...

    @abstractmethod
    def metrics(self) -> dict[str, object]: ...

    @abstractmethod
    def close(self) -> None: ...

    # ------------------------------------------------------------------
    # Submission / results
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: CSRGraph | str,
        query: CSRGraph,
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        idempotency_key: str | None = None,
        num_parts: int = 1,
        as_of: str | None = None,
        _part: int | None = None,
    ) -> str:
        """Validate and admit one match request; returns its job id.

        Everything is checked before a job exists: ``ValueError`` for
        malformed arguments, ``KeyError`` for an unknown graph or an
        ``as_of`` that is not a retained version of the graph's chain,
        and :class:`~repro.service.scheduler.AdmissionError` when
        admission refuses (its reason code says which limit was hit).
        ``deadline_ms`` bounds queue wait and propagates into the
        engine's cooperative wall-clock limit.  ``idempotency_key``
        deduplicates retries: a key already bound to a job that is not
        ``retryable`` returns that job's id without executing anything.
        ``num_parts`` asks the cluster router to stripe the query
        across its shard's replicas; it never changes a count.
        ``as_of`` runs the request against that retained version
        instead of the head.  ``_part`` is the router's channel to a
        rank: run only the ``_part``-th of ``num_parts`` root strides.
        """
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0")
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if num_parts > 1 and materialize:
            raise ValueError("split queries are count-only")
        if _part is not None and not 0 <= _part < num_parts:
            raise ValueError(
                f"need 0 <= part < num_parts, got part={_part} "
                f"num_parts={num_parts}"
            )
        graph_fp = self._graph_key(graph)
        if idempotency_key is not None:
            with self._jobs_lock:
                known = self._idempotency.get(idempotency_key)
                if known is not None and known in self._jobs:
                    return known
        if as_of is not None:
            chain = self.versions(graph_fp)
            if as_of not in {entry["fingerprint"] for entry in chain}:
                raise KeyError(
                    f"version {as_of!r} is not a retained version of graph "
                    f"{chain[-1]['name']!r} (unknown, pruned, or from "
                    f"another lineage)"
                )
            graph_fp = as_of
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"{self._JOB_PREFIX}-{self._job_seq:08d}"
        request = Request(
            job_id=job_id,
            graph_fp=graph_fp,
            query=query,
            query_fp=graph_fingerprint(query),
            materialize=materialize,
            time_limit_ms=time_limit_ms,
            priority=priority,
            deadline=(
                time.monotonic() + deadline_ms / 1000.0
                if deadline_ms is not None
                else None
            ),
            part=_part,
            num_parts=num_parts,
        )
        job = Job(
            id=job_id,
            request=request,
            idempotency_key=idempotency_key,
            deadline_ms=deadline_ms,
        )
        with self._jobs_lock:
            self._track(job)
        try:
            self._start(job)
        except AdmissionError:
            with self._jobs_lock:
                self._forget(job)
            raise
        return job_id

    def _track(self, job: Job) -> None:
        """Add ``job`` to the table.  Caller holds ``_jobs_lock``."""
        self._jobs[job.id] = job
        if job.idempotency_key is not None and job.state != RETRYABLE:
            self._idempotency[job.idempotency_key] = job.id
        fp = job.request.query_fp
        query, uses = self._queries.get(fp, (job.request.query, 0))
        self._queries[fp] = (query, uses + 1)

    def _forget(self, job: Job) -> None:
        """Drop ``job``, its idempotency binding, and its query shape
        once no retained job uses it.  Caller holds ``_jobs_lock``."""
        del self._jobs[job.id]
        key = job.idempotency_key
        if key is not None and self._idempotency.get(key) == job.id:
            del self._idempotency[key]
        fp = job.request.query_fp
        query, uses = self._queries[fp]
        if uses > 1:
            self._queries[fp] = (query, uses - 1)
        else:
            del self._queries[fp]

    def _settle(self, job: Job) -> None:
        """Wake ``job``'s waiters, and evict the oldest-settled job once
        more than :data:`RETAINED_JOBS` are settled."""
        with self._jobs_lock:
            if self._jobs.get(job.id) is job:
                self._settled[job.id] = job
                while len(self._settled) > RETAINED_JOBS:
                    self._forget(self._settled.popitem(last=False)[1])
        job.done.set()

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no job {job_id!r}")
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job settles (or ``timeout`` elapses)."""
        job = self.job(job_id)
        job.done.wait(timeout=timeout)
        return job

    def result(self, job_id: str, timeout: float | None = None) -> MatchResult:
        """The job's :class:`MatchResult`, raising typed errors for the
        unhappy terminal states."""
        return self._outcome(self.job(job_id), timeout)

    def _outcome(self, job: Job, timeout: float | None) -> MatchResult:
        job_id = job.id
        if not job.done.wait(timeout=timeout):
            raise TimeoutError(f"job {job_id} still {job.state}")
        if job.state == DONE:
            if job.result is None:
                # Completed before a restart with materialize=True:
                # only count-mode payloads are journaled, so the rows
                # did not survive.
                raise JobFailed(
                    f"job {job_id} completed before a service restart and "
                    f"its materialized rows were not journaled; resubmit"
                )
            return job.result
        if job.reason is not None:
            # A mid-request shed (e.g. the shard fell below quorum
            # while routing) surfaces with the same typed reason a
            # submit-time rejection carries.
            raise AdmissionError(
                job.reason,
                job.error or f"job {job_id} was rejected",
                retry_after=job.retry_after,
            )
        if job.state == EXPIRED:
            raise DeadlineExpired(f"job {job_id}: {job.error}")
        if job.state == CANCELLED:
            raise JobFailed(f"job {job_id} was cancelled")
        raise JobFailed(f"job {job_id} failed: {job.error}")

    def match(
        self,
        graph: CSRGraph | str,
        query: CSRGraph,
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        idempotency_key: str | None = None,
        num_parts: int = 1,
        as_of: str | None = None,
        timeout: float | None = None,
    ) -> MatchResult:
        """Submit and wait: the one-call serving equivalent of
        :meth:`CuTSMatcher.match`."""
        job_id = self.submit(
            graph,
            query,
            priority=priority,
            deadline_ms=deadline_ms,
            materialize=materialize,
            time_limit_ms=time_limit_ms,
            idempotency_key=idempotency_key,
            num_parts=num_parts,
            as_of=as_of,
        )
        return self.result(job_id, timeout=timeout)

    def match_many(
        self,
        graph: CSRGraph | str,
        queries: list[CSRGraph],
        *,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        timeout: float | None = None,
    ) -> list[MatchResult]:
        """Submit a whole batch at once and gather results in order.

        Submitting everything before waiting is what lets a scheduler
        hand its dispatcher one graph-affine batch and the engine run
        it as a single batched pool pass.
        """
        # Hold the jobs themselves: a batch larger than RETAINED_JOBS
        # may see its first jobs evicted before their turn comes.
        jobs = [
            self.job(
                self.submit(
                    graph,
                    query,
                    materialize=materialize,
                    time_limit_ms=time_limit_ms,
                )
            )
            for query in queries
        ]
        return [self._outcome(job, timeout) for job in jobs]

    def compare(
        self,
        key: str,
        query: CSRGraph,
        *,
        base: str | None = None,
        timeout: float | None = None,
    ) -> dict[str, object]:
        """Shadow-compare: the same count-only query against two
        retained versions of one graph (``POST /graphs/<name>/compare``).

        ``base`` defaults to the head's parent, making the default call
        "what did the last commit change for this query?".  Both sides
        go through the ordinary submit path, so retained cache entries
        and the incremental probe both apply.
        """
        head = self.versions(key)[-1]
        head_fp = str(head["fingerprint"])
        base_fp = base if base is not None else head["parent_fingerprint"]
        if base_fp is None:
            raise KeyError(
                f"graph {head['name']!r} has no parent version to compare "
                f"against"
            )
        base_count = self.match(
            head_fp, query, as_of=str(base_fp), timeout=timeout
        ).count
        head_count = self.match(head_fp, query, timeout=timeout).count
        return {
            "graph": head["name"],
            "base_fingerprint": base_fp,
            "head_fingerprint": head_fp,
            "base_count": int(base_count),
            "head_count": int(head_count),
            "count_delta": int(head_count) - int(base_count),
        }


class MatchingService(FrontDoor):
    """Long-lived query server over the cuTS engine (embedded form).

    Parameters
    ----------
    config:
        Engine choices every graph engine runs under (fingerprinted).
    service_config:
        Serving knobs: queue and query-size admission, cache budget,
        version retention and the memory budget that funds the
        governor admission control consults.
    workers:
        Worker processes per graph engine (``"auto"``/``0`` → every
        CPU).  ``1`` (default) serves with persistent in-process
        matchers.
    start:
        Start the dispatch thread immediately (default).  Tests that
        want to inspect queued state before dispatch pass ``False`` and
        call :meth:`start` themselves.
    state_dir:
        Directory for the durable state log and graph store
        (:class:`~repro.service.state.ServiceState`).  ``None``
        (default) serves purely in memory.  An existing state dir is
        recovered before the dispatch thread starts.
    faults:
        A :class:`~repro.service.faults.ServiceFaultPlan` (or
        ready-made injector) arming deterministic chaos on the request
        path.  ``None`` (default) injects nothing.
    """

    _POLL_S = 0.05

    def __init__(
        self,
        config: CuTSConfig | None = None,
        *,
        service_config: ServiceConfig | None = None,
        workers: int | str = 1,
        start: bool = True,
        state_dir: str | None = None,
        faults: ServiceFaultPlan | ServiceFaultInjector | None = None,
    ) -> None:
        self.config = config or CuTSConfig()
        self.service_config = sc = service_config or ServiceConfig()
        self.workers = resolve_workers(workers)
        self.config_fp = config_fingerprint(self.config)
        if isinstance(faults, ServiceFaultPlan):
            faults = ServiceFaultInjector(faults)
        self.faults = faults
        self.governor = MemoryGovernor(sc.memory_budget_mb * 1024 * 1024 or None)
        self.result_cache = LRUBytesCache(
            sc.cache_bytes, on_bytes=lambda _total: self._recharge()
        )
        # Plans are tiny; an eighth of the budget is already generous.
        self.plan_cache = LRUBytesCache(
            max(4096, sc.cache_bytes // 8),
            on_bytes=lambda _total: self._recharge(),
        )
        self.registry = GraphRegistry(
            self.config,
            service_config=sc,
            workers=self.workers,
            on_replace=self._invalidate_graph,
        )
        self.scheduler = Scheduler(
            max_depth=sc.queue_depth,
            max_query_vertices=sc.max_query_vertices,
            governor=self.governor,
        )
        self.dispatcher = Dispatcher(
            self.config, self.result_cache, self.plan_cache, self.config_fp,
            faults=self.faults,
        )
        super().__init__()
        self.version_commits = 0
        self.recovered_versions = 0
        self._degraded = False
        self._killed = False
        self._pressure_strikes = 0
        self._healthy_strikes = 0
        self.degraded_entries = 0
        self.recovered_pending = 0
        self.recovered_retryable = 0
        self.recovered_terminal = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.started_at = time.time()
        self.state: ServiceState | None = None
        self.journal_errors = 0
        # Job records, flush events, and None to stop the writer.
        self._journal_q: queue.Queue[
            dict[str, Any] | threading.Event | None
        ] | None = None
        self._journal_thread: threading.Thread | None = None
        if state_dir is not None:
            self.state = ServiceState(state_dir)
            self._journal_q = queue.Queue()
            self._recover(self.state.open(self.config_fp))
            # Job records (up to 3 per job) ride a dedicated writer
            # thread so they never sit on the request path; the FIFO
            # queue preserves per-job transition order, which is what
            # makes a crash unable to roll a job back past a completed
            # result, and the writer appends each drain as one batch.
            # It starts after recovery, which reads the log's live state.
            self._journal_thread = threading.Thread(
                target=self._journal_loop, name="service-journal",
                daemon=True,
            )
            self._journal_thread.start()
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="matching-service", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop dispatching, fail queued jobs, release every engine.

        A killed service settles nothing: its writer only finishes the
        batch it held when the kill landed (a restart follows the
        death, it never races it), then the engines are released.
        """
        if not self._killed:
            self._stop.set()
            for request in self.scheduler.close():
                self._finish_failure(request, "shutdown", state=FAILED)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
                self._thread = None
            if self._journal_q is not None:
                self._journal_q.put(None)  # stop after the last batch
        if self._journal_thread is not None:
            self._journal_thread.join(timeout=10.0)
            self._journal_thread = None
        self.registry.close()
        if self.state is not None:
            self.state.close()

    def kill(self) -> None:
        """Abandon the service abruptly — the in-process analogue of a
        ``kill -9`` landing on a replica.

        Unlike :meth:`close`: queued jobs are not failed, in-flight
        work never settles (its waiters stay blocked, exactly as a
        client of a dead process would), nothing further is journaled
        (records already queued at the writer may still land, the same
        way writes racing a real SIGKILL may), and pool worker
        processes are SIGKILLed instead of joined.  The journal on
        disk is left for the next incarnation's recovery to replay.
        """
        self._killed = True
        self._stop.set()
        for pid in self._live_worker_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # repro: ignore[RP008] — kill raced its exit
                continue
        if self._journal_q is not None:
            # Stop the writer without draining or waiting: anything
            # enqueued after this marker is lost, like an unflushed
            # buffer at SIGKILL (the _killed guard means nothing new
            # is enqueued anyway).
            self._journal_q.put(None)

    @property
    def killed(self) -> bool:
        """Whether :meth:`kill` has been called on this incarnation."""
        return self._killed

    def _live_worker_pids(self) -> list[int]:
        pids: list[int] = []
        for handle in self.registry.handles():
            pids.extend(handle.live_worker_pids())
        return pids

    def flush_journal(self, timeout: float | None = 10.0) -> None:
        """Block until every queued journal write has reached disk."""
        if self._journal_q is None:
            return
        flushed = threading.Event()
        self._journal_q.put(flushed)
        flushed.wait(timeout)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _recover(self, log: LogState) -> None:
        """Rebuild registry + job table from the replayed log (runs
        before the dispatch thread starts, so nothing races it)."""
        assert self.state is not None
        graphs = self.state.load_graphs()
        # Version chains first, so retained ancestors come back
        # retired and still addressable for ``as_of`` time travel.  The
        # log's order already decided each name's head, and opening it
        # kept only the chains that end at one.
        chains, _ = recover_chains(log.versions, set(graphs))
        for name, chain in chains.items():
            for version in chain:
                self.registry.adopt_version(
                    graphs[version.fingerprint],
                    name,
                    parent_fp=version.parent,
                    lineage_depth=version.depth,
                    head=version is chain[-1],
                    delta=version.delta,
                )
                self.recovered_versions += 1
        # Then the name map, in its saved order, so each handle comes
        # back under the primary name it had (later names for the same
        # content become aliases, as they were).
        for name, fp in log.names.items():
            if fp in graphs:
                self.registry.register(graphs[fp], name)
        # Stored content no name or retained chain reaches (bytes a
        # replacement released before a crash could delete them) goes.
        self._release_unreachable()
        self._recharge()
        with self._jobs_lock:
            # The sequence counter's discipline is _jobs_lock
            # everywhere else; keeping it here keeps the invariant
            # machine-checkable (RP009).
            self._job_seq = log.job_seq
        for record in log.job_records():
            self._recover_job(record)

    def _recover_job(self, record: dict[str, Any]) -> None:
        try:
            request = Request(
                query=graph_from_record(record["query"]),
                **{k: record[k] for k in _RECORD_FIELDS if k in record},
            )
        except (KeyError, TypeError, ValueError):
            return  # a malformed record: skip rather than crash boot
        job = Job(
            id=request.job_id,
            request=request,
            idempotency_key=record.get("idempotency_key"),
        )
        state = record["state"]
        if state == PENDING:
            # Journaled but never dispatched: run it now, original id.
            # (Its deadline, if any, was relative to the dead process's
            # clock and is dropped.)  The dispatch thread has not
            # started, so nothing pops it before it is tracked.
            try:
                self.scheduler.submit(request)
                self.recovered_pending += 1
            except AdmissionError as exc:
                job.state = RETRYABLE
                job.error = f"recovery re-enqueue rejected: {exc}"
        elif state == RUNNING:
            # In flight when the process died.  The engine pass died
            # with it and nothing was journaled as completed, so a
            # retry cannot double-count.
            job.state = RETRYABLE
            job.error = (
                "service crashed while this job was running; "
                "resubmit to retry"
            )
            self.recovered_retryable += 1
        elif state in _TERMINAL:
            job.state = state
            job.error = record.get("error")
            job.finished_at = record.get("finished_at") or time.time()
            payload = record.get("result")
            if isinstance(payload, dict) and verify_payload(payload):
                job.result = result_from_payload(payload, self.config)
                job.cached = True
            self.recovered_terminal += 1
        else:
            return
        with self._jobs_lock:
            self._track(job)
        if job.state == PENDING:
            return
        if job.finished_at is None:  # settled by this recovery
            job.finished_at = time.time()
            self._journal(job, RETRYABLE)
        self._settle(job)

    # ------------------------------------------------------------------
    # Graph management
    # ------------------------------------------------------------------
    def register_graph(
        self, graph: CSRGraph, name: str | None = None
    ) -> str:
        """Load ``graph`` into the registry (idempotent); returns its
        fingerprint, the key to pass to :meth:`submit`/:meth:`match`."""
        if self._degraded:
            raise self.scheduler.reject(
                "degraded",
                "service is in degraded read-only mode; graph "
                "registration is paused",
            )
        return self._register(graph, name)

    def _register(self, graph: CSRGraph, name: str | None = None) -> str:
        handle = self.registry.register(graph, name)
        if self.state is not None:
            # The new bytes and the name move land before the bytes a
            # replacement released are deleted, so a crash in between
            # leaves an orphan, never a name without its graph.
            self.state.save_graph(graph, handle.fingerprint)
            self.state.save_names(self.registry.names())
            self._release_unreachable()
        self._recharge()
        return handle.fingerprint

    def _release_unreachable(self) -> None:
        """Delete stored graphs the registry no longer holds.  The store
        is listed first: a handle enters the registry before its bytes
        are saved, so a graph saved meanwhile is still held."""
        assert self.state is not None
        stored = self.state.stored_fingerprints()
        for fp in stored - {h.fingerprint for h in self.registry.handles()}:
            self.state.forget_graph(fp)

    def unregister_graph(self, key: str) -> bool:
        removed = self.registry.unregister(key)
        if removed and self.state is not None:
            self.state.save_names(self.registry.names())
            self._release_unreachable()
        self._recharge()
        return removed

    def graphs(self) -> list[dict[str, object]]:
        return [h.info() for h in self.registry.handles()]

    def resolve_key(self, key: str) -> str:
        """Fingerprint for a registered name or fingerprint.  Raises
        ``KeyError`` for unknown keys."""
        return self.registry.resolve(key).fingerprint

    def graph_info(self, key: str) -> dict[str, object]:
        """The ``/graphs`` JSON entry for one registered graph."""
        return self.registry.resolve(key).info()

    # ------------------------------------------------------------------
    # Versioned mutation / time travel
    # ------------------------------------------------------------------
    def mutate_graph(
        self,
        key: str,
        *,
        inserts: object = (),
        deletes: object = (),
        directed: bool = True,
    ) -> dict[str, object]:
        """Commit an edge delta against the head of ``key``'s version
        chain; returns the commit summary ``POST /graphs/<name>/edges``
        serves.

        The registry builds the child by non-mutating overlay splice
        (live matches on the parent are never torn), durability follows
        the commit order of :mod:`repro.service.state` (graph bytes,
        then the lineage record that also moves the name), and the
        result cache carries provably-unaffected entries over to the
        child fingerprint (:meth:`LRUBytesCache.promote` under the
        dirty-ball predicate).
        A request that reduces to a no-op (all inserts present, all
        deletes absent) changes nothing and says so.
        """
        if self._killed:
            raise self.scheduler.reject(
                "shutdown", "this service incarnation was killed"
            )
        if self._degraded:
            raise self.scheduler.reject(
                "degraded",
                "service is in degraded read-only mode; graph mutation "
                "is paused",
            )
        commit = self.registry.mutate_edges(
            key, inserts=inserts, deletes=deletes, directed=directed
        )
        summary: dict[str, object] = {
            "graph": commit.name,
            "parent_fingerprint": commit.parent.fingerprint,
            "fingerprint": commit.child.fingerprint,
            "lineage_depth": commit.child.lineage_depth,
            "changed": commit.changed,
        }
        if not commit.changed:
            summary.update(
                inserted=0, deleted=0, promoted=0, retained=0, pruned=[]
            )
            return summary
        delta = commit.delta
        assert delta is not None
        self.version_commits += 1
        if self.state is not None:
            # Commit order (see repro.service.state): child graph
            # bytes, then the lineage record, which also moves the
            # name.  A crash between the two leaves an orphan graph
            # and the head at the parent: the commit never happened.
            self.state.save_graph(commit.child.graph, commit.child.fingerprint)
            self.state.append_version(
                version_record(
                    GraphVersion(
                        name=commit.name,
                        fingerprint=commit.child.fingerprint,
                        parent=commit.parent.fingerprint,
                        depth=commit.child.lineage_depth,
                        kind=KIND_DELTA,
                        delta=delta,
                    )
                )
            )
        promoted, retained = self._promote_caches(commit)
        for fp in commit.pruned:
            self._invalidate_graph(fp)
            if self.state is not None:
                self.state.forget_graph(fp)
        self._recharge()
        summary.update(
            inserted=len(delta.inserts),
            deleted=len(delta.deletes),
            touched=[int(v) for v in delta.touched()],
            promoted=promoted,
            retained=retained,
            pruned=list(commit.pruned),
        )
        return summary

    def _promote_caches(self, commit: VersionCommit) -> tuple[int, int]:
        """Delta-aware cache carry-over for one commit.

        A result entry is re-keyed to the child fingerprint only when
        :func:`~repro.versioning.promotion_safe` proves both dirty
        shares of its query zero (no root candidate of either version
        inside the query's dirty ball).  Rejected entries stay behind
        under the parent fingerprint — still exact for ``as_of`` time
        travel and still the dispatcher's incremental base — and die
        when retention prunes that version.  Plan entries promote
        unconditionally: a plan is a performance hint (interval count,
        ordering), not an answer — a stale hint can cost balance, never
        a count.
        """
        delta = commit.delta
        assert delta is not None
        parent_graph = commit.parent.graph
        child_graph = commit.child.graph
        region = dirty_region_for(child_graph, delta)

        def should_promote(cache_key: CacheKey) -> bool:
            if cache_key[2] != self.config_fp:
                # An entry written under a different config: its
                # promotion proof would need that config's root
                # filter, which we cannot reconstruct.  Retain it.
                return False
            query = self._query_for(cache_key[1])
            if query is None:
                # Unknown query shape (e.g. the index predates this
                # entry's writer): no proof, no promotion.
                return False
            return promotion_safe(
                query, parent_graph, child_graph, region, self.config
            )

        promoted, retained = self.result_cache.promote(
            commit.parent.fingerprint, commit.child.fingerprint,
            should_promote,
        )
        self.plan_cache.promote(
            commit.parent.fingerprint, commit.child.fingerprint,
            lambda _key: True,
        )
        return promoted, retained

    def _query_for(self, query_fp: str) -> CSRGraph | None:
        with self._jobs_lock:
            entry = self._queries.get(query_fp)
        return None if entry is None else entry[0]

    def versions(self, key: str) -> list[dict[str, object]]:
        """The retained version chain of ``key``'s graph, oldest first
        (``GET /graphs/<name>/versions``)."""
        return self.registry.lineage(key)

    # ------------------------------------------------------------------
    # Submission / results
    # ------------------------------------------------------------------
    def _graph_key(self, graph: CSRGraph | str) -> str:
        if self._killed:
            raise self.scheduler.reject(
                "shutdown", "this service incarnation was killed"
            )
        if isinstance(graph, CSRGraph):
            # Inline content registers even in degraded mode, so a
            # cached count for it can still be served.
            return self._register(graph)
        return self.registry.resolve(graph).fingerprint

    def _start(self, job: Job) -> None:
        if self._degraded:
            self._serve_degraded(job)
            return
        # Enqueue the pending record *before* the request becomes
        # visible to the dispatch thread: once the scheduler holds it,
        # the loop may enqueue running/done for this job at any moment,
        # and the journal queue's FIFO order is what keeps a later
        # pending write from rolling the journal back past a completed
        # result.
        self._journal(job, PENDING)
        try:
            self.scheduler.submit(job.request)
        except AdmissionError:
            self._journal(job, DROPPED)
            raise

    def _serve_degraded(self, job: Job) -> None:
        """Degraded read-only mode: settle verified count-only cache
        hits synchronously; reject everything else with ``degraded``."""
        request = job.request
        payload = None
        if (
            not request.materialize
            and request.time_limit_ms is None
            and request.stride == (0, 1)
        ):
            key = (request.graph_fp, request.query_fp, self.config_fp)
            candidate = self.result_cache.get(key)
            if candidate is not None and verify_payload(candidate):
                payload = candidate
        if payload is None:
            raise self.scheduler.reject(
                "degraded",
                "service is in degraded read-only mode (sustained memory "
                "pressure); only cached count queries are served",
            )
        job.state = DONE
        job.result = result_from_payload(payload, self.config)
        job.cached = True
        job.finished_at = time.time()
        self._journal(job, DONE, result_payload=payload)
        self._settle(job)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-pending job (returns whether it was pending)."""
        job = self.job(job_id)
        if job.done.is_set() or job.state != PENDING:
            return False
        job.request.cancelled.set()
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the service is in degraded read-only mode."""
        return self._degraded

    def metrics(self) -> dict[str, object]:
        """All counters, for ``/metrics`` and the benchmark gates."""
        out: dict[str, object] = {
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "config_fingerprint": self.config_fp,
            "graphs": len(self.registry.handles()),
            "graph_resident_bytes": self.registry.resident_bytes,
            "degraded": self._degraded,
            "degraded_entries": self.degraded_entries,
            "governor": {
                "budget_bytes": self.governor.budget_bytes,
                "tracked_bytes": self.governor.tracked_bytes,
                "pressure": self.governor.pressure,
            },
            "scheduler": self.scheduler.snapshot(),
            "dispatcher": self.dispatcher.snapshot(),
            "result_cache": self.result_cache.snapshot(),
            "plan_cache": self.plan_cache.snapshot(),
            "versioning": {
                "commits": self.version_commits,
                "registry_commits": self.registry.commits,
                "recovered_versions": self.recovered_versions,
            },
        }
        if self.state is not None:
            out["state"] = dict(self.state.snapshot()) | {
                "recovered_pending": self.recovered_pending,
                "recovered_retryable": self.recovered_retryable,
                "recovered_terminal": self.recovered_terminal,
                "journal_errors": self.journal_errors,
            }
        if self.faults is not None:
            out["faults"] = self.faults.snapshot()
        return out

    def healthz(self) -> dict[str, object]:
        return {
            "status": "degraded" if self._degraded else "ok",
            "degraded": self._degraded,
            "uptime_s": time.time() - self.started_at,
            "graphs": len(self.registry.handles()),
            "queue_depth": self.scheduler.depth,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _invalidate_graph(self, graph_fp: str) -> None:
        self.result_cache.invalidate_graph(graph_fp)
        self.plan_cache.invalidate_graph(graph_fp)

    def _recharge(self) -> None:
        """Re-point the governor at the service's live footprint."""
        total = (
            self.registry.resident_bytes
            + self.result_cache.current_bytes
            + self.plan_cache.current_bytes
        )
        self.governor.observe_words(total // 8)

    def _journal(
        self,
        job: Job,
        state: str,
        *,
        result_payload: dict[str, object] | None = None,
    ) -> None:
        """Persist one job transition (no-op without a state dir, and
        suppressed after :meth:`kill` — a dead process writes nothing)."""
        if self.state is None or self._killed:
            return
        request = job.request
        record = {k: getattr(request, k) for k in _RECORD_FIELDS}
        record.update(
            state=state,
            query=graph_record(request.query),
            idempotency_key=job.idempotency_key,
            error=job.error,
            submitted_at=job.submitted_at,
            finished_at=job.finished_at,
        )
        if result_payload is not None:
            record["result"] = result_payload
        assert self._journal_q is not None
        self._journal_q.put(record)

    _GATHER_S = 0.0015

    def _journal_loop(self) -> None:
        """Writer thread: group commit.

        Drains the queue in bursts: after the first op arrives it waits
        a hair (``_GATHER_S``) so a job's pending -> running burst lands
        in the same drain, keeps the *newest* record per job (replay
        keeps the last record per job, so intermediate states carry no
        information) and appends the batch with one write and one
        fsync.  Per-job order is still queue order, so a crash can
        truncate history but never roll a job back past a completed
        result.
        """
        assert self.state is not None and self._journal_q is not None
        while True:
            ops = [self._journal_q.get()]
            time.sleep(self._GATHER_S)
            while True:
                try:
                    ops.append(self._journal_q.get_nowait())
                except queue.Empty:  # repro: ignore[RP008] — drain done
                    break
            writes = {op["job_id"]: op for op in ops if isinstance(op, dict)}
            try:
                if writes:
                    self.state.record_jobs(list(writes.values()))
            except OSError:
                # A full/broken disk must not kill the writer: the
                # service keeps serving, the journal just goes stale
                # (and the metric below says so).
                self.journal_errors += 1
            # Flush waiters release only after the batch is on disk —
            # everything enqueued before them has been applied.
            for op in ops:
                if isinstance(op, threading.Event):
                    op.set()
            if None in ops:
                return

    def _observe_pressure(self) -> None:
        """One dispatch-tick reading of governor pressure, driving the
        degraded-mode hysteresis (and the OOM fault schedule)."""
        if self.faults is not None:
            self.governor.forced_pressure = self.faults.tick_oom()
        if self.governor.pressure >= self.governor.high_water:
            self._pressure_strikes += 1
            self._healthy_strikes = 0
            if not self._degraded and self._pressure_strikes >= DEGRADED_AFTER:
                self._degraded = True
                self.degraded_entries += 1
        else:
            self._healthy_strikes += 1
            self._pressure_strikes = 0
            if self._degraded and self._healthy_strikes >= DEGRADED_AFTER:
                self._degraded = False

    def _finish_failure(
        self, request: Request, message: str, *, state: str
    ) -> None:
        if self._killed:
            return
        with self._jobs_lock:
            job = self._jobs.get(request.job_id)
        if job is None or job.done.is_set():
            return
        job.state = state
        job.error = message
        job.finished_at = time.time()
        self._journal(job, state)
        self._settle(job)

    def _settle_outcomes(self, outcomes: list[object]) -> None:
        if self._killed:
            # The process "died" mid-batch: results computed but never
            # delivered, jobs left running in the journal — exactly the
            # state recovery marks retryable.  Settling them here would
            # resurrect work a real SIGKILL would have lost.
            return
        now = time.time()
        for outcome in outcomes:  # type: ignore[assignment]
            with self._jobs_lock:
                job = self._jobs.get(outcome.request.job_id)  # type: ignore[attr-defined]
            if job is None:
                continue
            job.cached = outcome.cached  # type: ignore[attr-defined]
            job.coalesced = outcome.coalesced  # type: ignore[attr-defined]
            job.plan_hit = outcome.plan_hit  # type: ignore[attr-defined]
            job.fallback = outcome.fallback  # type: ignore[attr-defined]
            job.incremental = outcome.incremental  # type: ignore[attr-defined]
            job.stats = outcome.stats  # type: ignore[attr-defined]
            payload: dict[str, object] | None = None
            if outcome.cancelled:  # type: ignore[attr-defined]
                job.state = CANCELLED
                job.error = outcome.error  # type: ignore[attr-defined]
            elif outcome.expired:  # type: ignore[attr-defined]
                job.state = EXPIRED
                job.error = outcome.error  # type: ignore[attr-defined]
            elif outcome.error is not None:  # type: ignore[attr-defined]
                job.state = FAILED
                job.error = outcome.error  # type: ignore[attr-defined]
            else:
                job.state = DONE
                job.result = outcome.result  # type: ignore[attr-defined]
                if job.result is not None and job.result.matches is None:
                    payload = payload_from_result(job.result)
            job.finished_at = now
            # Enqueue the terminal record before waking waiters.  The
            # write itself is asynchronous, but it is ordered after the
            # job's pending/running records — so a crash can only lose
            # the *tail* of a job's history, never reorder it, and an
            # idempotent retry after such a crash re-executes cleanly.
            self._journal(job, job.state, result_payload=payload)
            self._settle(job)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._observe_pressure()
            batch, dead = self.scheduler.pop_batch(
                BATCH_MAX, timeout=self._POLL_S
            )
            for request in dead:
                if request.cancelled.is_set():
                    self._finish_failure(
                        request, "cancelled before dispatch", state=CANCELLED
                    )
                else:
                    self._finish_failure(
                        request,
                        "deadline-expired: request waited past its deadline",
                        state=EXPIRED,
                    )
            if not batch:
                continue
            handle = self.registry.by_fingerprint(batch[0].graph_fp)
            if handle is None:
                for request in batch:
                    self._finish_failure(
                        request, "graph was unregistered while queued",
                        state=FAILED,
                    )
                continue
            for request in batch:
                with self._jobs_lock:
                    job = self._jobs.get(request.job_id)
                if job is not None:
                    job.state = RUNNING
                    self._journal(job, RUNNING)
            outcomes = self.dispatcher.dispatch(handle, batch)
            skipped_cancelled = sum(1 for o in outcomes if o.cancelled)
            skipped_expired = sum(1 for o in outcomes if o.expired)
            if skipped_cancelled or skipped_expired:
                self.scheduler.note_dispatch_skips(
                    cancelled=skipped_cancelled, expired=skipped_expired
                )
            self._settle_outcomes(list(outcomes))
            self._recharge()

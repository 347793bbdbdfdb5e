"""Process-parallel root-interval sharding: Algorithm 3 on CPU cores.

cuTS scales one search across *G* GPUs by striding the level-0 candidate
set — rank ``r`` keeps candidates ``r::G`` and runs the whole search
below its slice (§4.2).  This module runs the same decomposition across
worker **processes** on one host: each interval is an independent
:meth:`CuTSMatcher.match(part=..., num_parts=...)
<repro.core.matcher.CuTSMatcher.match>` call, so parallelism never
touches the algorithm's semantics — interval results reduce exactly via
:meth:`MatchResult.merge <repro.core.result.MatchResult.merge>` (counts
sum, materialised rows concatenate under ``max_materialized``, modeled
``time_ms`` takes the max across shards as concurrent devices would).

Two mechanisms make this fast rather than merely correct:

* the data graph lives in a :class:`~repro.parallel.sharedmem.SharedCSR`
  segment that workers attach **zero-copy** — per-task payload is just
  the (tiny) query plus two integers;
* the root set is **over-split** into ``oversplit x workers`` strided
  intervals served from one persistent :class:`ProcessPoolExecutor`
  queue, so a worker that drew cheap intervals steals the slack of one
  that drew expensive ones — the load-balance margin the paper gets from
  strided placement, applied at interval granularity.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from ..checkpoint.store import FORMAT_VERSION, CheckpointStore
from ..fingerprint import check_fingerprints, config_fingerprint
from ..fingerprint import graph_fingerprint as _graph_fp
from ..core.candidates import root_candidates
from ..core.config import CuTSConfig
from ..core.matcher import CuTSMatcher
from ..core.ordering import build_order
from ..core.result import (
    MatchResult,
    payload_from_result,
    result_from_payload,
    verify_payload,
)
from ..graph.csr import CSRGraph
from .sharedmem import SharedCSR, SharedCSRMeta

__all__ = ["ParallelMatcher", "ShardLeaseError", "parallel_match", "resolve_workers"]


class ShardLeaseError(RuntimeError):
    """A root-interval shard exhausted its re-lease budget."""


def resolve_workers(workers: int | str | None) -> int:
    """Normalise a worker request: ``"auto"``/``0`` → ``os.cpu_count()``."""
    if workers in (None, "auto", 0):
        return os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1 (or 'auto')")
    return workers


# ----------------------------------------------------------------------
# Worker-process side.  One attach + one matcher per process lifetime;
# tasks only carry (query, interval) — the zero-copy contract.
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _worker_init(
    meta: SharedCSRMeta, config: CuTSConfig, memory_budget_mb: int
) -> None:
    shared = SharedCSR.attach(meta)
    _WORKER["shared"] = shared
    _WORKER["matcher"] = CuTSMatcher(
        shared.graph, config, memory_budget_mb=memory_budget_mb
    )


def _worker_pid() -> int:
    """Warm-up no-op task (see :meth:`ParallelMatcher.worker_pids`)."""
    return os.getpid()


def _run_interval(
    query: CSRGraph,
    part: int,
    num_parts: int,
    materialize: bool,
    time_limit_ms: float | None,
    heartbeat_path: str | None = None,
    test_delay_s: float = 0.0,
) -> MatchResult:
    """One shard lease: match the strided interval ``part::num_parts``.

    ``heartbeat_path`` is the watchdog's liveness file: touched at lease
    start and (throttled) once per fused expansion, so a SIGKILLed or
    hung worker goes silent and the parent re-leases the shard.
    ``test_delay_s`` is a fault-injection knob for the watchdog tests
    (simulates a hung worker by stalling before the search starts).
    """
    matcher: CuTSMatcher = _WORKER["matcher"]
    if heartbeat_path is not None:
        _touch(heartbeat_path)
        last = time.monotonic()

        def beat(_state: object) -> None:
            nonlocal last
            now = time.monotonic()
            if now - last >= _HEARTBEAT_MIN_INTERVAL_S:
                _touch(heartbeat_path)
                last = now

        matcher.on_tick = beat
    if test_delay_s > 0.0:
        time.sleep(test_delay_s)
    try:
        result = matcher.match(
            query,
            materialize=materialize,
            time_limit_ms=time_limit_ms,
            part=part,
            num_parts=num_parts,
        )
    finally:
        matcher.on_tick = None
    result.shards = (part,)
    return result


_HEARTBEAT_MIN_INTERVAL_S = 0.05
LEASE_TIMEOUT_S = 30.0
"""Worker watchdog: heartbeat silence past which a shard lease is
considered lost and the shard is re-leased to another worker."""
LEASE_RETRIES = 2
"""Re-leases per shard (beyond the first lease) before the engine gives
up with :class:`ShardLeaseError`."""


def _touch(path: str) -> None:
    """Create/refresh a heartbeat file's mtime."""
    with open(path, "a"):
        pass
    os.utime(path)


class ParallelMatcher:
    """Multi-core cuTS engine bound to one data graph.

    Mirrors :class:`~repro.core.matcher.CuTSMatcher`'s public surface
    (:meth:`match` / :meth:`count`) but fans each query out over a
    persistent pool of worker processes.  The shared-memory segment and
    the pool live until :meth:`close` (or context-manager exit); reusing
    one instance across queries amortises both.

    Parameters
    ----------
    data:
        The data graph; copied **once** into shared memory.
    config:
        Engine choices, shipped to every worker at pool start.
    workers:
        Worker processes (``"auto"``/``0`` → every CPU).
    oversplit:
        Strided intervals submitted per worker (the work queue holds
        ``oversplit * workers`` intervals), so a fast worker steals the
        slack of a slow one — the load-balance margin of §4.2.
    memory_budget_mb:
        Each worker engine's memory budget (see
        :class:`~repro.core.matcher.CuTSMatcher`).
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``fork`` where
        available (cheapest start; the segment is attached either way)
        and the platform default elsewhere.
    """

    def __init__(
        self,
        data: CSRGraph,
        config: CuTSConfig | None = None,
        *,
        workers: int | str = 1,
        oversplit: int = 4,
        memory_budget_mb: int = 0,
        mp_context: str | None = None,
    ) -> None:
        if oversplit < 1:
            raise ValueError("oversplit must be >= 1")
        if memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0 (0 = unlimited)")
        self.data = data
        self.config = config or CuTSConfig()
        self.workers = resolve_workers(workers)
        self.oversplit = oversplit
        self.memory_budget_mb = memory_budget_mb
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp_context = mp_context
        self._shared: SharedCSR | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        # Fault injection for the watchdog tests: part id -> seconds the
        # first lease of that shard stalls before searching (simulating
        # a hung worker).  Consumed on lease; never set in production.
        self._test_part_delays: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Pool / segment lifetime
    # ------------------------------------------------------------------
    def _ensure_segment(self) -> SharedCSR:
        if self._closed:
            raise ValueError("ParallelMatcher is closed")
        if self._shared is None:
            self._shared = SharedCSR.create(self.data)
        return self._shared

    def _make_pool(self) -> ProcessPoolExecutor:
        shared = self._ensure_segment()
        ctx = (
            multiprocessing.get_context(self._mp_context)
            if self._mp_context
            else None
        )
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(shared.meta, self.config, self.memory_budget_mb),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValueError("ParallelMatcher is closed")
        if self._pool is None:
            self._pool = self._make_pool()
        elif getattr(self._pool, "_broken", False):
            # A worker died between matches (the executor poisons itself
            # permanently); replace it before leasing new shards.
            self._pool = self._rebuild_pool()
        return self._pool

    def _rebuild_pool(self) -> ProcessPoolExecutor:
        """Replace a broken executor.  The shared-memory segment is
        owned by this (parent) process and survives worker deaths, so a
        rebuild costs only process start-up, not a graph copy."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        return self._pool

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool workers (spinning the pool up if
        needed).  Exists for fault injection: the service chaos harness
        SIGKILLs one of these mid-batch and asserts the lease/rebuild
        machinery still produces exact counts."""
        pool = self._ensure_pool()
        procs = getattr(pool, "_processes", None) or {}
        if not procs:
            # The executor spawns workers lazily on first submit; force
            # at least one up so there is a pid to report.
            pool.submit(_worker_pid).result()
            procs = getattr(pool, "_processes", None) or {}
        return [p.pid for p in procs.values() if p.is_alive() and p.pid]

    def close(self) -> None:
        """Shut the pool down and unlink the shared-memory segment."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def __enter__(self) -> "ParallelMatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def num_intervals(self, query: CSRGraph) -> int:
        """Interval count for this query: ``oversplit * workers``, never
        more than there are root candidates (an empty stride is a no-op
        task), never fewer than one."""
        q0 = build_order(query, self.config.ordering).sequence[0]
        num_roots = len(
            root_candidates(
                self.data, query, q0,
                neighborhood_filter=self.config.neighborhood_filter,
            )
        )
        return max(1, min(num_roots, self.oversplit * self.workers))

    def _fingerprints(self, query: CSRGraph, num_parts: int) -> dict[str, str]:
        return {
            "version": str(FORMAT_VERSION),
            "mode": "parallel",
            "config": config_fingerprint(self.config),
            "data": _graph_fp(self.data),
            "query": _graph_fp(query),
            "num_parts": str(num_parts),
        }

    def match(
        self,
        query: CSRGraph,
        *,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
    ) -> MatchResult:
        """Exact equivalent of :meth:`CuTSMatcher.match`, sharded.

        The merged result's ``count`` and (as a set of rows) ``matches``
        are identical to the serial engine's; ``stats.paths_per_depth``
        sums to the serial totals; ``time_ms`` models the makespan of
        concurrent devices (max over shards).

        Every run is supervised by a **watchdog**: each shard is a lease
        stamped by a heartbeat file the worker touches per expansion.  A
        SIGKILLed worker breaks the pool — the pool is rebuilt and every
        incomplete shard re-leased; a *hung* worker (heartbeat silent
        past :data:`LEASE_TIMEOUT_S`) gets its shard duplicated onto
        a live worker, with the first completion winning (shards merge
        exactly once — see :attr:`MatchResult.shards`).  Each shard is
        re-leased at most :data:`LEASE_RETRIES` times before
        :class:`ShardLeaseError` is raised.

        With ``checkpoint_dir``, completed shards are persisted
        atomically as they land, and ``resume=True`` re-runs only the
        missing shards (count-only; fingerprints must match).
        """
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        if checkpoint_dir is not None and materialize:
            raise ValueError(
                "checkpointed runs are count-only; materialize=True is "
                "not supported with checkpoint_dir"
            )
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")

        num_parts = self.num_intervals(query)
        store: CheckpointStore | None = None
        completed: dict[int, MatchResult] = {}
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            manifest = store.read_manifest()
            if manifest is not None:
                if not resume:
                    raise ValueError(
                        f"checkpoint directory {store.directory!r} already "
                        "holds a job; pass resume=True to continue it"
                    )
                # The stored shard count wins: resuming with a different
                # worker count must not change the partitioning.
                num_parts = int(manifest.get("num_parts", num_parts))
                check_fingerprints(
                    dict(manifest.get("fingerprints", {})),
                    self._fingerprints(query, num_parts),
                )
                if manifest.get("complete"):
                    num_parts = int(manifest["num_parts"])
                for part, payload in store.load_parts().items():
                    if 0 <= part < num_parts and verify_payload(payload):
                        completed[part] = result_from_payload(
                            payload, self.config, shards=(part,)
                        )
            else:
                if resume:
                    raise ValueError(
                        f"nothing to resume: {store.directory!r} has no "
                        "manifest"
                    )
                store.write_manifest(
                    {
                        "version": FORMAT_VERSION,
                        "fingerprints": self._fingerprints(query, num_parts),
                        "num_parts": num_parts,
                        "complete": False,
                    }
                )

        hb_tmp: tempfile.TemporaryDirectory[str] | None = None
        if store is not None:
            hb_dir = store.heartbeat_dir
        else:
            hb_tmp = tempfile.TemporaryDirectory(prefix="cuts-hb-")
            hb_dir = hb_tmp.name
        keyed = {(0, part): res for part, res in completed.items()}
        try:
            self._supervise_jobs(
                [(query, num_parts)], materialize, [time_limit_ms],
                keyed, store, hb_dir,
            )
        finally:
            if hb_tmp is not None:
                hb_tmp.cleanup()

        merged = self._merge_job(keyed, 0, num_parts)
        if store is not None:
            store.write_manifest(
                {
                    "version": FORMAT_VERSION,
                    "fingerprints": self._fingerprints(query, num_parts),
                    "num_parts": num_parts,
                    "complete": True,
                    "count": int(merged.count),
                    "time_ms": float(merged.time_ms),
                }
            )
        return merged

    def match_many(
        self,
        queries: Sequence[CSRGraph],
        *,
        materialize: bool = False,
        time_limit_ms: float | Sequence[float | None] | None = None,
        num_parts: Sequence[int | None] | None = None,
    ) -> list[MatchResult]:
        """Batch form of :meth:`match`: one supervised pool pass for a
        whole set of queries against the shared data graph.

        Every query is split into its own strided root intervals and
        **all** intervals are leased onto the one persistent pool
        together, so a query that drew cheap intervals donates its slack
        to an expensive one — the same load-balance margin :meth:`match`
        gets within a single query, extended across the batch.  Each
        query's result is merged in shard order and is bit-identical to
        what a standalone :meth:`match` call would return; results come
        back in input order.

        ``time_limit_ms`` may be a scalar (applied to every query) or a
        per-query sequence.  ``num_parts`` optionally supplies per-query
        interval counts (a plan-cache hint from the matching service);
        ``None`` entries fall back to :meth:`num_intervals`.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            if query.num_vertices == 0:
                raise ValueError("query graph must have at least one vertex")
        if isinstance(time_limit_ms, (int, float)) or time_limit_ms is None:
            limits: list[float | None] = [time_limit_ms] * len(queries)
        else:
            limits = list(time_limit_ms)
            if len(limits) != len(queries):
                raise ValueError(
                    "time_limit_ms sequence must match the query count"
                )
        hints: list[int | None] = (
            list(num_parts) if num_parts is not None else [None] * len(queries)
        )
        if len(hints) != len(queries):
            raise ValueError("num_parts sequence must match the query count")
        jobs = [
            (query, hint if hint else self.num_intervals(query))
            for query, hint in zip(queries, hints)
        ]
        completed: dict[tuple[int, int], MatchResult] = {}
        with tempfile.TemporaryDirectory(prefix="cuts-hb-") as hb_dir:
            self._supervise_jobs(
                jobs, materialize, limits, completed, None, hb_dir
            )
        return [
            self._merge_job(completed, j, parts)
            for j, (_, parts) in enumerate(jobs)
        ]

    def _merge_job(
        self,
        completed: dict[tuple[int, int], MatchResult],
        job: int,
        num_parts: int,
    ) -> MatchResult:
        """Reduce one job's shards in shard order: deterministic row
        order regardless of which worker finished first."""
        cap = self.config.max_materialized
        merged: MatchResult | None = None
        for part in range(num_parts):
            result = completed[(job, part)]
            merged = (
                result
                if merged is None
                else merged.merge(result, max_materialized=cap)
            )
        assert merged is not None
        return merged

    def _supervise_jobs(
        self,
        jobs: list[tuple[CSRGraph, int]],
        materialize: bool,
        time_limits: list[float | None],
        completed: dict[tuple[int, int], MatchResult],
        store: CheckpointStore | None,
        hb_dir: str,
    ) -> None:
        """The watchdog loop: lease shards, heartbeat-check, re-lease.

        ``jobs`` is a list of ``(query, num_parts)``; shard keys are
        ``(job_index, part)``.  ``store`` (single-job durable runs only)
        persists completed shards under their part index.
        """
        pool = self._ensure_pool()
        timeout_s = LEASE_TIMEOUT_S
        poll_s = max(0.02, min(0.5, timeout_s / 4.0))
        max_leases = 1 + LEASE_RETRIES
        all_keys = [
            (j, part)
            for j, (_, num_parts) in enumerate(jobs)
            for part in range(num_parts)
        ]
        leases: dict[tuple[int, int], int] = dict.fromkeys(all_keys, 0)
        lease_at: dict[tuple[int, int], float] = {}
        pending: dict[Future[MatchResult], tuple[int, int]] = {}

        def hb_path(key: tuple[int, int]) -> str:
            j, part = key
            if len(jobs) == 1:
                # Single-job naming matches CheckpointStore.heartbeat_path.
                return os.path.join(hb_dir, f"part-{part:05d}")
            return os.path.join(hb_dir, f"job{j:04d}-part-{part:05d}")

        def lease(key: tuple[int, int]) -> None:
            nonlocal pool
            j, part = key
            query, num_parts = jobs[j]
            leases[key] += 1
            if leases[key] > max_leases:
                raise ShardLeaseError(
                    f"shard {part}/{num_parts} of job {j} failed "
                    f"{max_leases} leases"
                )
            delay = float(self._test_part_delays.get(part, 0.0)) if j == 0 else 0.0
            # A re-leased shard must not replay the injected hang.
            if j == 0:
                self._test_part_delays.pop(part, None)
            args = (
                query, part, num_parts, materialize, time_limits[j],
                hb_path(key), delay,
            )
            try:
                fut = pool.submit(_run_interval, *args)
            except BrokenProcessPool:
                pool = self._rebuild_pool()
                fut = pool.submit(_run_interval, *args)
            pending[fut] = key
            lease_at[key] = time.monotonic()

        def settle(key: tuple[int, int], result: MatchResult) -> None:
            if key in completed:
                return  # duplicate delivery (slow original after re-lease)
            completed[key] = result
            if store is not None and key[0] == 0:
                store.save_part(key[1], payload_from_result(result))

        for key in all_keys:
            if key not in completed:
                lease(key)

        # Stop as soon as every shard has settled: an abandoned duplicate
        # (the hung original of a re-leased shard) must not block the
        # merge — its eventual result is dropped by the dedupe.
        while pending and len(completed) < len(all_keys):
            done, _ = wait(
                set(pending), timeout=poll_s, return_when=FIRST_COMPLETED
            )
            broken = False
            for fut in done:
                key = pending.pop(fut)
                try:
                    settle(key, fut.result())
                except BrokenProcessPool:
                    broken = True
                except Exception:
                    raise
            if broken:
                # A SIGKILLed worker poisons the whole executor: every
                # pending future fails together.  Rebuild and re-lease
                # all incomplete shards.
                pending.clear()
                pool = self._rebuild_pool()
                for key in all_keys:
                    if key not in completed:
                        lease(key)
                continue
            # Hung-worker check: a leased, incomplete shard whose
            # heartbeat (and lease) are both older than the timeout is
            # presumed stuck; duplicate it onto a live worker.
            now = time.monotonic()
            wall_now = time.time()
            for key in set(pending.values()):
                if key in completed:
                    continue
                if now - lease_at.get(key, now) <= timeout_s:
                    continue
                try:
                    silent = wall_now - os.stat(hb_path(key)).st_mtime
                except OSError:
                    silent = timeout_s + 1.0
                if silent > timeout_s:
                    lease(key)

    def count(self, query: CSRGraph, **kwargs: object) -> int:
        """Convenience: number of embeddings only."""
        return self.match(query, **kwargs).count


def parallel_match(
    data: CSRGraph,
    query: CSRGraph,
    config: CuTSConfig | None = None,
    *,
    workers: int | str = "auto",
    materialize: bool = False,
    time_limit_ms: float | None = None,
) -> MatchResult:
    """One-shot helper: build a :class:`ParallelMatcher`, match, clean up."""
    with ParallelMatcher(data, config, workers=workers) as matcher:
        return matcher.match(
            query, materialize=materialize, time_limit_ms=time_limit_ms
        )

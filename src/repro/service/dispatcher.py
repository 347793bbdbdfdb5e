"""Batching dispatcher: one matcher pass per burst of same-graph work.

The scheduler hands over graph-affine batches; this module turns each
batch into the fewest possible matcher invocations:

1. **Coalescing** — requests inside the batch with the same execution
   key ``(query_fp, materialize, time_limit_ms)`` are duplicates of one
   computation; exactly one runs, the rest share its result (demuxed
   per request, each with its own job).
2. **Result cache** — cacheable groups (count-only, no time limit)
   probe the LRU result cache first; a hit costs zero matcher
   invocations and rebuilds the result from the cached payload.  Every
   payload carries a content **checksum** computed at store time and
   verified on read: a corrupt entry (torn read, chaos injection) is
   dropped and treated as a miss, never served.
3. **Batched execution** — the distinct remaining queries go to the
   graph handle's persistent engine.  Under a
   :class:`~repro.parallel.ParallelMatcher` they run as **one**
   :meth:`~repro.parallel.ParallelMatcher.match_many` pass: every
   query's strided ``part=/num_parts=`` root intervals are leased onto
   the shared process pool together, so the pool load-balances across
   the whole batch, not per query.  The **plan cache** supplies each
   query's interval count when it has seen the triple before, skipping
   the ordering + root-candidate planning pass.

Failure isolation is **per job, not per batch**:

* a group whose engine pass raises settles only that group's requests
  as failed — the rest of the batch is unaffected (the serial path
  always worked this way; the pooled path gets it via fallback);
* when the *pool itself* fails mid-batch (workers SIGKILLed beyond the
  lease machinery's patience, chaos injection), the dispatcher retries
  the batch **once, serially** on the handle's fallback engine — a
  degraded-but-exact answer beats a failed batch;
* a request whose cancellation or deadline landed after pop but before
  the engine pass is settled here without burning a matcher run, and
  the skip is attributed in its :class:`~repro.core.stats.SearchStats`
  (``cancelled_at_dispatch``);
* requests carrying a **deadline** execute serially with the remaining
  time as the engine's cooperative ``wall_limit_s`` — the matcher's
  chunk loop aborts mid-search instead of running away past the
  deadline.

Per-request attribution: the result handed to each request carries the
full :class:`~repro.core.stats.SearchStats` of its execution; requests
that shared an execution (coalesced or cache hits) are flagged so
metrics can distinguish computed work from amortized work.  Cache-hit
results rebuild with an empty hardware-counter model — counters belong
to the run that actually executed, exactly like a checkpoint-resumed
shard.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass

from ..analysis.sanitizer import make_lock
from ..core.config import CuTSConfig
from ..core.matcher import CuTSMatcher, SearchTimeout
from ..core.result import (
    MatchResult,
    payload_checksum,
    payload_from_result,
    result_from_payload,
    verify_payload,
)
from ..core.stats import SearchStats
from ..parallel.matcher import ParallelMatcher
from .cache import LRUBytesCache
from .faults import InjectedEngineFault, ServiceFaultInjector
from .registry import GraphHandle
from .scheduler import Request

__all__ = ["DispatchOutcome", "Dispatcher", "payload_checksum",
           "payload_from_result", "result_from_payload", "verify_payload"]

# (key, members) pairs as produced by coalescing: the execution key is
# (query_fp, materialize, time_limit_ms, part, num_parts) — two
# requests are the same computation only when their striding matches.
_Group = tuple[tuple[str, bool, float | None, int, int], list[Request]]


def _payload_bytes(payload: dict[str, object]) -> int:
    return len(json.dumps(payload, sort_keys=True).encode("utf-8"))


@dataclass
class DispatchOutcome:
    """What happened to one request of a dispatched batch."""

    request: Request
    result: MatchResult | None = None
    error: str | None = None
    cached: bool = False
    coalesced: bool = False
    plan_hit: bool = False
    cancelled: bool = False
    expired: bool = False
    fallback: bool = False
    incremental: bool = False
    stats: SearchStats | None = None


class Dispatcher:
    """Executes scheduler batches against registry handles."""

    def __init__(
        self,
        config: CuTSConfig,
        result_cache: LRUBytesCache,
        plan_cache: LRUBytesCache,
        config_fp: str,
        *,
        faults: ServiceFaultInjector | None = None,
    ) -> None:
        self.config = config
        self.result_cache = result_cache
        self.plan_cache = plan_cache
        self.config_fp = config_fp
        self.faults = faults
        # Counters are bumped by the dispatch thread and read by HTTP
        # threads via snapshot(); unguarded, the stage_wall_s dict walk
        # could see a mid-resize dict.  The lock is held only around
        # counter touches, never across engine or cache calls.
        self._stats_lock = make_lock("Dispatcher._stats_lock")
        self.matcher_invocations = 0
        self.batches_dispatched = 0
        self.requests_dispatched = 0
        self.requests_coalesced = 0
        self.cancelled_at_dispatch = 0
        self.expired_at_dispatch = 0
        self.serial_fallbacks = 0
        self.pool_failures = 0
        self.corrupt_cache_drops = 0
        self.incremental_matches = 0
        self.incremental_rejects = 0
        # Per-stage expansion wall totals (anchor_gather / filter /
        # intersection / injectivity / bookkeeping / write_out / carry /
        # unaccounted), folded
        # from every settled result's SearchStats.  Empty unless the
        # engines run with ``profile_expansion`` on.
        self.stage_wall_s: dict[str, float] = {}

    # ------------------------------------------------------------------
    def dispatch(
        self, handle: GraphHandle, batch: list[Request]
    ) -> list[DispatchOutcome]:
        """Run one graph-affine batch; never raises per-request errors
        (they come back in the outcomes)."""
        with self._stats_lock:
            self.batches_dispatched += 1
            self.requests_dispatched += len(batch)
        outcomes = {id(req): DispatchOutcome(req) for req in batch}

        if self.faults is not None:
            stall = self.faults.stall_s()
            if stall > 0.0:
                time.sleep(stall)

        # 0. Last-chance liveness check: a cancellation or deadline that
        # landed after pop must not burn an engine pass.
        live = self._drop_dead(batch, outcomes)

        # 1. Coalesce identical executions.
        groups: dict[
            tuple[str, bool, float | None, int, int], list[Request]
        ] = {}
        for req in live:
            key = (
                req.query_fp, req.materialize, req.time_limit_ms,
                *req.stride,
            )
            groups.setdefault(key, []).append(req)

        to_run: list[_Group] = []
        for key, members in groups.items():
            if len(members) > 1:
                with self._stats_lock:
                    self.requests_coalesced += len(members) - 1
                for req in members:
                    outcomes[id(req)].coalesced = True
            # 2. Result-cache probe (count-only, untimed, unsplit
            # groups only: a time limit can truncate counts,
            # materialised rows are too big to be worth caching, and a
            # strided part's count must never alias the full query's).
            query_fp, materialize, time_limit, _part, num_parts = key
            if not materialize and time_limit is None and num_parts == 1:
                payload = self._cache_probe(handle.fingerprint, query_fp)
                if payload is not None:
                    result = result_from_payload(payload, self.config)
                    for req in members:
                        outcomes[id(req)].result = result
                        outcomes[id(req)].cached = True
                    continue
                # 2b. Incremental probe: a miss on a freshly committed
                # version whose *parent* still has a verified cached
                # count can be answered by re-matching only the dirty
                # ball (repro.versioning) — the commit's delta plus an
                # arithmetic merge, instead of a whole-graph pass.
                incremental = self._incremental_probe(
                    handle, members[0].query, query_fp
                )
                if incremental is not None:
                    for req in members:
                        outcomes[id(req)].incremental = True
                    self._settle(handle, key, members, incremental, outcomes)
                    continue
            to_run.append((key, members))

        # 3. Execute the distinct remaining queries.
        if to_run:
            self._execute(handle, to_run, outcomes)
        handle.note_served(len(batch))
        return [outcomes[id(req)] for req in batch]

    # ------------------------------------------------------------------
    def _drop_dead(
        self, batch: list[Request], outcomes: dict[int, DispatchOutcome]
    ) -> list[Request]:
        """Settle requests cancelled/expired between pop and dispatch;
        the skip is attributed in ``SearchStats`` so metrics can show
        how many engine passes the recheck saved."""
        now = time.monotonic()
        live: list[Request] = []
        for req in batch:
            if req.cancelled.is_set():
                with self._stats_lock:
                    self.cancelled_at_dispatch += 1
                out = outcomes[id(req)]
                out.cancelled = True
                out.error = "cancelled at dispatch"
                out.stats = SearchStats(cancelled_at_dispatch=1)
            elif req.deadline is not None and now >= req.deadline:
                with self._stats_lock:
                    self.expired_at_dispatch += 1
                out = outcomes[id(req)]
                out.expired = True
                out.error = (
                    "deadline-expired: request reached dispatch past its "
                    "deadline"
                )
                out.stats = SearchStats(cancelled_at_dispatch=1)
            else:
                live.append(req)
        return live

    def _cache_probe(
        self, graph_fp: str, query_fp: str
    ) -> dict[str, object] | None:
        """A verified cache payload, or ``None``.  Corrupt entries (and
        chaos-injected corrupt *reads*) fail verification, are dropped,
        and count as misses."""
        key = (graph_fp, query_fp, self.config_fp)
        payload = self.result_cache.get(key)
        if payload is None:
            return None
        if self.faults is not None and self.faults.should_corrupt():
            payload = self.faults.corrupt_payload(payload)
        if not verify_payload(payload):
            with self._stats_lock:
                self.corrupt_cache_drops += 1
            self.result_cache.pop(key)
            return None
        return payload

    def _incremental_probe(
        self,
        handle: GraphHandle,
        query: object,
        query_fp: str,
    ) -> MatchResult | None:
        """Serve a cache miss on a freshly committed version from the
        parent's cached count plus the commit delta.

        Returns ``None`` — and the miss falls through to an ordinary
        full match — whenever the probe cannot run or cannot be trusted:
        the handle has no delta lineage (root or whole-graph
        replacement), the parent's entry is gone or fails checksum
        verification, the query shape is unsupported (edgeless), or the
        incremental arithmetic detects a mismatched base.  The probe
        runs on the handle's serial engine: the dirty ball is small by
        construction, and the serial matcher is the one that implements
        ``delta=``.
        """
        parent_fp, delta = handle.incremental_basis()
        if parent_fp is None or delta is None:
            return None
        base = self.result_cache.get((parent_fp, query_fp, self.config_fp))
        if base is None or not verify_payload(base):
            return None
        try:
            with self._stats_lock:
                self.matcher_invocations += 1
            result = handle.fallback_matcher().match(
                query,  # type: ignore[arg-type]
                base_result=int(base["count"]),  # type: ignore[arg-type]
                delta=delta,
            )
        except Exception:
            # The probe is an optimisation; any failure — unsupported
            # shape, mismatched base, engine error — must cost exactly
            # the full match it was trying to save, never the batch.
            with self._stats_lock:
                self.incremental_rejects += 1
            return None
        with self._stats_lock:
            self.incremental_matches += 1
        return result

    # ------------------------------------------------------------------
    def _execute(
        self,
        handle: GraphHandle,
        to_run: list[_Group],
        outcomes: dict[int, DispatchOutcome],
    ) -> None:
        try:
            matcher = handle.matcher()
        except Exception as exc:  # handle closed under us
            self._fail_all(to_run, outcomes, str(exc))
            return
        if isinstance(matcher, ParallelMatcher):
            # Deadline-carrying groups run serially: the serial engine's
            # cooperative wall_limit_s is the cancellation channel the
            # chunk loop honours mid-search.  Strided parts run serially
            # too — the pool pass leases whole queries, while a part is
            # already one replica's slice of a cluster-split query.
            deadline_groups = [
                g for g in to_run
                if any(r.deadline is not None for r in g[1])
                or g[0][4] > 1
            ]
            pool_groups = [
                g for g in to_run
                if not any(r.deadline is not None for r in g[1])
                and g[0][4] == 1
            ]
            if deadline_groups:
                self._execute_serial(
                    handle, handle.fallback_matcher(), deadline_groups,
                    outcomes,
                )
            if pool_groups:
                self._execute_parallel(handle, matcher, pool_groups, outcomes)
        else:
            self._execute_serial(handle, matcher, to_run, outcomes)

    def _group_wall_limit(self, members: list[Request]) -> float | None:
        """Remaining seconds before the group's furthest deadline
        (``None`` when any member is deadline-free)."""
        deadlines = [req.deadline for req in members]
        if any(d is None for d in deadlines):
            return None
        remaining = max(d for d in deadlines if d is not None) - time.monotonic()
        return max(1e-3, remaining)

    def _execute_serial(
        self,
        handle: GraphHandle,
        matcher: CuTSMatcher,
        to_run: list[_Group],
        outcomes: dict[int, DispatchOutcome],
    ) -> None:
        for key, members in to_run:
            query_fp, materialize, time_limit, part, num_parts = key
            wall_limit = self._group_wall_limit(members)
            try:
                if (
                    self.faults is not None
                    and self.faults.should_engine_fault()
                ):
                    raise InjectedEngineFault(
                        "injected engine fault (chaos schedule)"
                    )
                with self._stats_lock:
                    self.matcher_invocations += 1
                result = matcher.match(
                    members[0].query,
                    materialize=materialize,
                    time_limit_ms=time_limit,
                    wall_limit_s=wall_limit,
                    part=part,
                    num_parts=num_parts,
                )
            except SearchTimeout as exc:
                self._settle_timeout(members, outcomes, exc, wall_limit)
                continue
            except Exception as exc:
                self._settle_error(members, outcomes, str(exc))
                continue
            self._settle(
                handle, key, members, result, outcomes,
            )

    def _settle_timeout(
        self,
        members: list[Request],
        outcomes: dict[int, DispatchOutcome],
        exc: SearchTimeout,
        wall_limit: float | None,
    ) -> None:
        """A SearchTimeout is a deadline expiry when the group was
        running under one; otherwise it is the caller's own
        ``time_limit_ms`` firing, i.e. an ordinary failure."""
        if wall_limit is not None:
            for req in members:
                out = outcomes[id(req)]
                out.expired = True
                out.error = "deadline-expired during execution"
            return
        self._settle_error(members, outcomes, str(exc))

    def _execute_parallel(
        self,
        handle: GraphHandle,
        matcher: ParallelMatcher,
        to_run: list[_Group],
        outcomes: dict[int, DispatchOutcome],
    ) -> None:
        if self.faults is not None and self.faults.should_kill_worker():
            self._kill_one_worker(matcher)
        # Chaos-injected engine faults hit individual groups here too —
        # they must fail exactly those jobs, not the pool pass.
        if self.faults is not None:
            faulted = [
                g for g in to_run if self.faults.should_engine_fault()
            ]
            if faulted:
                doomed = {id(g[1]) for g in faulted}
                self._fail_all(
                    faulted, outcomes,
                    "injected engine fault (chaos schedule)",
                )
                to_run = [g for g in to_run if id(g[1]) not in doomed]
                if not to_run:
                    return
        # One pool pass for every materialize flavour present (almost
        # always just the count-only one).
        by_flavour: dict[bool, list[_Group]] = {}
        for item in to_run:
            by_flavour.setdefault(item[0][1], []).append(item)
        for materialize, items in by_flavour.items():
            queries = [members[0].query for _, members in items]
            limits = [key[2] for key, _ in items]
            hints: list[int | None] = []
            plan_hits: list[bool] = []
            for key, _ in items:
                plan = self.plan_cache.get(
                    (handle.fingerprint, key[0], self.config_fp)
                )
                hints.append(
                    int(plan["num_parts"]) if plan is not None else None
                )
                plan_hits.append(plan is not None)
            try:
                with self._stats_lock:
                    self.matcher_invocations += len(queries)
                results = matcher.match_many(
                    queries,
                    materialize=materialize,
                    time_limit_ms=limits,
                    num_parts=hints,
                )
            except Exception as exc:
                # The pool pass itself died (workers killed past the
                # lease machinery's patience, executor poisoned, ...).
                # Retry once, serially: degraded throughput, same
                # answers.
                with self._stats_lock:
                    self.pool_failures += 1
                self._retry_serial(handle, items, outcomes, str(exc))
                continue
            for (key, members), result, hint, plan_hit in zip(
                items, results, hints, plan_hits
            ):
                for req in members:
                    outcomes[id(req)].plan_hit = plan_hit
                if hint is None:
                    plan_payload = {
                        "num_parts": matcher.num_intervals(members[0].query),
                        "order": [int(q) for q in result.order],
                    }
                    self.plan_cache.put(
                        (handle.fingerprint, key[0], self.config_fp),
                        plan_payload,
                        _payload_bytes(plan_payload),
                    )
                self._settle(
                    handle, key, members, result, outcomes,
                )

    def _kill_one_worker(self, matcher: ParallelMatcher) -> None:
        """SIGKILL one live pool worker (chaos injection).  Recovery is
        the engine's own job: heartbeat loss → re-lease, broken pool →
        rebuild; counts must come out exact regardless."""
        assert self.faults is not None
        try:
            pids = matcher.worker_pids()
        except Exception:
            return
        if not pids:
            return
        self.faults.note_kill()
        os.kill(pids[0], signal.SIGKILL)

    def _retry_serial(
        self,
        handle: GraphHandle,
        items: list[_Group],
        outcomes: dict[int, DispatchOutcome],
        cause: str,
    ) -> None:
        """One serial retry for a failed pool pass, isolating failures
        per group from here on."""
        try:
            matcher = handle.fallback_matcher()
        except Exception as exc:
            self._fail_all(
                items, outcomes, f"{cause}; serial fallback unavailable: {exc}"
            )
            return
        with self._stats_lock:
            self.serial_fallbacks += 1
        for key, members in items:
            query_fp, materialize, time_limit, part, num_parts = key
            try:
                with self._stats_lock:
                    self.matcher_invocations += 1
                result = matcher.match(
                    members[0].query,
                    materialize=materialize,
                    time_limit_ms=time_limit,
                    part=part,
                    num_parts=num_parts,
                )
            except Exception as exc:
                self._settle_error(
                    members, outcomes, f"{cause}; serial retry failed: {exc}"
                )
                continue
            for req in members:
                outcomes[id(req)].fallback = True
            self._settle(
                handle, key, members, result, outcomes,
            )

    # ------------------------------------------------------------------
    def _settle(
        self,
        handle: GraphHandle,
        key: tuple[str, bool, float | None, int, int],
        members: list[Request],
        result: MatchResult,
        outcomes: dict[int, DispatchOutcome],
    ) -> None:
        query_fp, materialize, time_limit, _part, num_parts = key
        with self._stats_lock:
            for stage, seconds in result.stats.stage_wall_s.items():
                self.stage_wall_s[stage] = (
                    self.stage_wall_s.get(stage, 0.0) + seconds
                )
        if not materialize and time_limit is None and num_parts == 1:
            payload = payload_from_result(result)
            self.result_cache.put(
                (handle.fingerprint, query_fp, self.config_fp),
                payload,
                _payload_bytes(payload),
            )
        for req in members:
            outcomes[id(req)].result = result

    def _settle_error(
        self,
        members: list[Request],
        outcomes: dict[int, DispatchOutcome],
        message: str,
    ) -> None:
        for req in members:
            outcomes[id(req)].error = message

    def _fail_all(
        self,
        items: list[_Group],
        outcomes: dict[int, DispatchOutcome],
        message: str,
    ) -> None:
        for _, members in items:
            self._settle_error(members, outcomes, message)

    def snapshot(self) -> dict[str, object]:
        """Counter snapshot for ``/metrics`` (HTTP threads; the lock
        makes the ``stage_wall_s`` copy safe against a concurrent
        ``_settle`` resizing the dict mid-iteration)."""
        with self._stats_lock:
            return {
                "matcher_invocations": self.matcher_invocations,
                "batches_dispatched": self.batches_dispatched,
                "requests_dispatched": self.requests_dispatched,
                "requests_coalesced": self.requests_coalesced,
                "cancelled_at_dispatch": self.cancelled_at_dispatch,
                "expired_at_dispatch": self.expired_at_dispatch,
                "serial_fallbacks": self.serial_fallbacks,
                "pool_failures": self.pool_failures,
                "corrupt_cache_drops": self.corrupt_cache_drops,
                "incremental_matches": self.incremental_matches,
                "incremental_rejects": self.incremental_rejects,
                "stage_wall_s": dict(self.stage_wall_s),
            }

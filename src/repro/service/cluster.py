"""Replicated, shard-routed serving: the matching service on N ranks.

The single-process :class:`~repro.service.MatchingService` owns every
graph, so one crash takes the whole registry down.  This module runs
**N replicas** of it behind a router so capacity and fault domains grow
by adding ranks — the serving-side form of the paper's multi-GPU
scale-out, built from the same reliability pieces as the distributed
runtime (DESIGN.md §15).  The router is what ``python -m repro.serve``
runs for every ``--ranks``, one rank by default:

* :class:`HashRing` — a consistent-hash ring over the live ranks maps
  each graph's ring key to ``replication`` distinct replicas.  The
  ring is a pure function of the sorted live-member set (SHA-256 over
  rank/vnode labels), so every membership change rebuilds it
  deterministically: two routers that agree on membership agree on
  placement.
* :class:`ClusterRank` — one replica: a ``MatchingService`` over its
  own durable state dir.  A crash is *abrupt abandonment*
  (:meth:`MatchingService.kill` — pool workers SIGKILLed, nothing
  settles, nothing flushes); a restart builds a fresh incarnation over
  the same state dir, replaying the durable job journal.
* :class:`ClusterService` — the router, with the same
  :class:`~repro.service.service.FrontDoor` surface, job model, graph
  catalog and state log as one rank.  A match goes to the primary
  replica by graph affinity and **fails over** to a secondary on rank
  crash, partition, or route timeout.  Each routed attempt is collected
  once, by its job's route thread, and carries its own ``revoked`` and
  ``integrated`` flags: a timed-out or crashed attempt is *revoked*
  before the failover is dispatched, so a late answer from the old
  replica is never integrated, and the same idempotency key rides every
  attempt, so a replica that did execute before dying answers the retry
  from its journal instead of running again — together, exactly-once
  integration.

**Split queries** reuse the engine's root striding: ``num_parts > 1``
fans one query out as strided part-requests across the shard's
replicas; an unsplit query is the one-part case of the same loop.  A
replica failure mid-split re-dispatches every part that replica held
and the router has not collected yet; collected parts keep their
counts, so the query *resumes* on the survivors instead of
restarting.  The parts reduce with
:meth:`~repro.core.result.MatchResult.merge`, as a multi-core match's
do.

**Names and versions** are decided once, by the router's registry:
registering a graph pushes its name to the shard's replicas, and a
version the registry releases is unregistered on every live rank.  A
commit runs on every reachable replica of the shard (each first
brought to the router's head by replaying the commits it missed) and
must land on one child fingerprint everywhere; the router adopts the
first replica's child.  The child keeps its parent's ring key, which
the router's log records, so all versions of a graph share one replica
set across retention pruning and restarts.

**Degradation and healing**: a shard with fewer than a majority of its
replicas reachable is below quorum; the router sheds those requests
(reason ``shard-unavailable``, HTTP 503 + ``Retry-After``) instead of
queueing doomed work.  A supervisor thread restarts a crashed rank
after :data:`HEAL_AFTER_TICKS` ticks and re-admits it to the ring
**only after** it has caught up — brought every shard it will serve to
its head version from the router's content-addressed catalog; the ring
rebuild then returns the shard to full R-way replication.  A router
restarted on its state dir catches every rank up the same way before
it serves.

Fault injection is end-to-end: the same ``--faults`` spec that drives
the single service adds ``rank_crash_prob`` / ``partition_prob`` /
``slow_replica_prob`` here, consulted once per routed attempt, and
``scripts/cluster_chaos.py`` gates the whole loop against the serial
oracle.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..analysis.sanitizer import make_lock
from ..core.config import CuTSConfig
from ..core.result import MatchResult
from ..fingerprint import CheckpointMismatchError
from ..graph.csr import CSRGraph
from ..parallel.matcher import resolve_workers
from ..versioning.delta import EdgeDelta
from ..versioning.lineage import KIND_DELTA, GraphVersion
from .config import ServiceConfig
from .faults import ServiceFaultInjector, ServiceFaultPlan
from .registry import GraphHandle, VersionConflictError
from .scheduler import AdmissionError
from .service import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    PENDING,
    RUNNING,
    FrontDoor,
    Job,
    JobFailed,
    MatchingService,
)
from .state import LOG_NAME, LogState

__all__ = [
    "ClusterRank",
    "ClusterService",
    "HashRing",
    "RankUnavailable",
]

# Rank lifecycle states.
LIVE = "live"
CRASHED = "crashed"
RECOVERING = "recovering"

# Protocol phases at which the router hands control to a test hook.
PHASES = ("pre-dispatch", "mid-shard", "post-commit-pre-reply")

_REQUEST_REFUSALS = frozenset({"oversized-query"})
"""Admission reasons that depend only on the request, not on the rank
that gives them."""

HEAL_AFTER_TICKS = 2
"""Supervisor ticks a rank must stay crashed before the cluster restarts
it from its durable state dir; the restarted replica is re-admitted to
the ring only after it has caught up from the content-addressed graph
store."""


class RankUnavailable(RuntimeError):
    """One routed attempt failed (crash/partition/timeout); the router
    revokes the attempt and fails over to the next replica."""

    def __init__(self, rank_id: int, message: str) -> None:
        super().__init__(message)
        self.rank_id = rank_id


def _summed(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Counter snapshots added key by key (nested dicts recursively)."""
    out: dict[str, Any] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                out[key] = _summed([out.get(key, {}), value])
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ring_hash(label: str) -> int:
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Deterministic consistent-hash ring with virtual nodes.

    The layout is a pure function of the member set: every member
    contributes ``vnodes`` points hashed from ``rank-<id>-vnode-<k>``,
    sorted once.  Rebuilding with the same members yields the same
    ring, so routers (and restarted routers) agree on placement
    without coordination.
    """

    def __init__(self, members: Iterable[int], *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.members = tuple(sorted(set(members)))
        points = [
            (_ring_hash(f"rank-{rank}-vnode-{v}"), rank)
            for rank in self.members
            for v in range(vnodes)
        ]
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def replicas_for(self, key: str, count: int) -> list[int]:
        """The first ``count`` distinct members clockwise from
        ``key``'s position — the shard's replica set, primary first."""
        if not self.members:
            return []
        count = min(count, len(self.members))
        start = bisect.bisect_right(self._hashes, _ring_hash(key))
        out: list[int] = []
        total = len(self._points)
        for step in range(total):
            rank = self._points[(start + step) % total][1]
            if rank not in out:
                out.append(rank)
                if len(out) == count:
                    break
        return out

    def primary_for(self, key: str) -> int:
        replicas = self.replicas_for(key, 1)
        if not replicas:
            raise LookupError("hash ring has no members")
        return replicas[0]


class ClusterRank:
    """One replica: a :class:`MatchingService` plus liveness state.

    The lifecycle is ``live -> crashed -> recovering -> live``.  A
    crash abandons the running incarnation exactly as ``kill -9``
    would (see :meth:`MatchingService.kill`); recovery builds a fresh
    incarnation over the same durable state dir, so the job journal
    and graph store written before the crash are replayed, not lost.
    """

    def __init__(
        self,
        rank_id: int,
        config: CuTSConfig,
        service_config: ServiceConfig,
        *,
        workers: int | str = 1,
        state_dir: str | None = None,
        faults: ServiceFaultPlan | None = None,
    ) -> None:
        self.rank_id = rank_id
        # Every incarnation boots with the same settings and state dir.
        self._boot = functools.partial(
            MatchingService, config, service_config=service_config,
            workers=workers, state_dir=state_dir, faults=faults,
        )
        self.state = LIVE
        self.generation = 0
        self.crashes = 0
        self.service = self._boot()

    def crash(self) -> None:
        """SIGKILL this replica: mark it dead first (routes start
        failing immediately), then kill the service abruptly."""
        if self.state == CRASHED:
            return
        self.state = CRASHED
        self.crashes += 1
        self.service.kill()

    def begin_recovery(self) -> None:
        """Boot a fresh incarnation over the durable state dir.  The
        rank stays out of the ring (``recovering``) until the router
        has finished catch-up and calls :meth:`admit`."""
        self.state = RECOVERING
        self.service.close()  # the dead incarnation's last writes land first
        self.service = self._boot()
        self.generation += 1

    def admit(self) -> None:
        self.state = LIVE

    def snapshot(self) -> dict[str, object]:
        return {
            "rank": self.rank_id,
            "state": self.state,
            "generation": self.generation,
            "crashes": self.crashes,
            "graphs": len(self.service.registry.handles()),
        }


@dataclass
class _Attempt:
    """One routed attempt: where it went, and whether the router revoked
    it or integrated its answer.  Its job's route thread collects it
    once."""

    rank_id: int
    generation: int
    rank_job_id: str = ""
    revoked: bool = False
    integrated: bool = False


class ClusterService(FrontDoor):
    """Router over N replicated :class:`MatchingService` ranks.

    It serves the same :class:`~repro.service.service.FrontDoor`
    surface as a single rank, so the HTTP face serves either one, and
    ``ranks=1`` answers as a single rank does.
    Every rank runs under the same ``config``, ``service_config`` and
    ``workers`` a :class:`MatchingService` takes.
    ``replication`` is clamped to ``ranks``.  ``state_dir`` holds the
    router's own log and graph store, and gives each rank its own
    durable subdir (``rank-<i>``).  ``auto_heal=False`` disables the
    supervisor so tests can drive crash/restart phases by hand.
    """

    _JOB_PREFIX = "cjob"
    _SUPERVISE_POLL_S = 0.05
    _WAIT_POLL_S = 0.005

    def __init__(
        self,
        config: CuTSConfig | None = None,
        *,
        service_config: ServiceConfig | None = None,
        ranks: int = 1,
        replication: int = 2,
        workers: int | str = 1,
        state_dir: str | None = None,
        faults: ServiceFaultPlan | ServiceFaultInjector | None = None,
        start: bool = True,
        auto_heal: bool = True,
    ) -> None:
        if ranks < 1:
            raise ValueError("a cluster needs at least one rank")
        # The router's registry never builds an engine (a handle builds
        # one on first use; the router only routes).
        super().__init__(
            config, service_config, workers=resolve_workers(workers),
            on_replace=self._release,
        )
        self.replication = max(1, min(replication, ranks))
        self.quorum = self.replication // 2 + 1
        # _lock guards membership-derived state (ring, ring keys,
        # in-flight commits, partitions) and the attempt counters;
        # _jobs_lock guards the job table.  They are never nested, and
        # no rank call or wait happens under either (RP010).
        self._lock = make_lock("ClusterService._lock")
        self._ring = HashRing(range(ranks))
        # Ring key per committed version: its chain's first registered
        # content.  Any other graph is placed by its own fingerprint.
        self._rings: dict[str, str] = {}
        self._committing: set[str] = set()
        self._partitioned: dict[int, int] = {}
        self.phase_hook: Callable[[str, int, str], None] | None = None
        self.routes = 0
        self.failovers = 0
        self.integrated = 0
        self.revoked = 0
        self.shed = 0
        self.revoked_replies = 0
        self.split_queries = 0
        self.recovered_parts = 0
        self.heals = 0
        self.heal_failures = 0
        self.catchup_graphs = 0
        self.last_heal_error: str | None = None
        self._heal_strikes: dict[int, int] = {}
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        log = None
        if state_dir is not None:
            if not os.path.exists(os.path.join(state_dir, LOG_NAME)) and (
                os.path.isdir(os.path.join(state_dir, "rank-0"))
            ):
                raise CheckpointMismatchError(
                    f"{state_dir} holds rank state dirs but no router log: "
                    f"a cluster state dir from before the router kept one"
                )
            # Opened before any rank exists, so a refused dir is left
            # untouched.
            log = self._open_state(state_dir)
        # The router keeps its own injector for topology fates (crash /
        # partition / slow); each rank's service gets the *plan*, so
        # engine-level faults keep firing inside the replicas too.
        if isinstance(faults, ServiceFaultPlan):
            faults = ServiceFaultInjector(faults)
        self.faults = faults
        self.auto_heal = auto_heal
        self.ranks: dict[int, ClusterRank] = {
            rank_id: ClusterRank(
                rank_id, self.config, self.service_config, workers=workers,
                state_dir=(
                    state_dir and os.path.join(state_dir, f"rank-{rank_id}")
                ),
                faults=None if faults is None else faults.plan,
            )
            for rank_id in range(ranks)
        }
        if log is not None:
            self._recover(log)
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._supervisor is None or not self._supervisor.is_alive():
            self._stop.clear()
            self._supervisor = threading.Thread(
                target=self._supervise, name="cluster-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def close(self) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        for rank in self.ranks.values():
            rank.service.close()
        self._close_state()
        self.registry.close()

    def kill(self) -> None:
        """Abandon the router and every rank abruptly — the in-process
        analogue of a ``kill -9`` landing on the serving process.
        Nothing further is journaled; a router started on the same
        state dir recovers from the logs as they stand."""
        self._killed = True
        self._stop.set()
        for rank in self.ranks.values():
            rank.crash()
        if self._journal_q is not None:
            self._journal_q.put(None)  # the writer stops undrained

    def _recover_catalog(self, log: LogState) -> dict[str, list[GraphVersion]]:
        """Every rank is brought to the recorded heads before the router
        serves: a crash between a replica's commit and the router's
        record ends with one head everywhere."""
        chains = super()._recover_catalog(log)
        with self._lock:
            for chain in chains.values():
                for version in chain:
                    if version.ring is not None:
                        self._rings[version.fingerprint] = version.ring
            ring = self._ring
        for rank in self.ranks.values():
            self._catch_up_rank(rank, ring)
        return chains

    # ------------------------------------------------------------------
    # Membership / fault control
    # ------------------------------------------------------------------
    def _rebuild_ring(self) -> None:
        """Caller holds ``_lock``.  Deterministic: the ring is a pure
        function of the live-member set."""
        live = [
            rank_id
            for rank_id, rank in self.ranks.items()
            if rank.state == LIVE
        ]
        self._ring = HashRing(live, vnodes=self._ring.vnodes)

    def crash_rank(self, rank_id: int) -> None:
        """Kill one replica abruptly (chaos entry point: the in-process
        equivalent of SIGKILLing its process).  Routing continues; the
        shard's surviving replicas absorb its traffic."""
        rank = self.ranks[rank_id]
        rank.crash()
        with self._lock:
            self._partitioned.pop(rank_id, None)
            self._rebuild_ring()

    def partition_rank(self, rank_id: int, ticks: int) -> None:
        """Make one replica unreachable for ``ticks`` routed attempts
        without losing its state (a network partition, not a crash)."""
        with self._lock:
            self._partitioned[rank_id] = max(1, int(ticks))

    def restart_rank(self, rank_id: int) -> None:
        """Restart a crashed replica and re-admit it to the ring.

        Ordering is the whole point: the fresh incarnation first
        replays its own journal, then **catches up** — brings every
        graph whose prospective replica set includes it to the head
        version (:meth:`_catch_up_rank`) — and only then rejoins the
        ring.  Traffic never reaches a replica that is still missing
        its shards.
        """
        rank = self.ranks[rank_id]
        if rank.state == LIVE:
            return
        rank.begin_recovery()
        with self._lock:
            live = [
                rid for rid, r in self.ranks.items() if r.state == LIVE
            ]
            prospective = HashRing(
                live + [rank_id], vnodes=self._ring.vnodes
            )
        self._catch_up_rank(rank, prospective)
        with self._lock:
            rank.admit()
            self._partitioned.pop(rank_id, None)
            self._rebuild_ring()
        self.heals += 1

    def _supervise(self) -> None:
        """Heal loop: a rank that stays crashed for
        :data:`HEAL_AFTER_TICKS` consecutive ticks is restarted
        and re-admitted once caught up."""
        while not self._stop.wait(self._SUPERVISE_POLL_S):
            if not self.auto_heal:
                continue
            for rank_id, rank in self.ranks.items():
                if rank.state != CRASHED:
                    self._heal_strikes[rank_id] = 0
                    continue
                strikes = self._heal_strikes.get(rank_id, 0) + 1
                self._heal_strikes[rank_id] = strikes
                if strikes < HEAL_AFTER_TICKS:
                    continue
                self._heal_strikes[rank_id] = 0
                try:
                    self.restart_rank(rank_id)
                except Exception as exc:
                    # A failed heal must not kill the supervisor; the
                    # next tick retries and the counter says it failed.
                    self.heal_failures += 1
                    self.last_heal_error = str(exc)

    # ------------------------------------------------------------------
    # Graph management: the router's registry decides, ranks follow
    # ------------------------------------------------------------------
    def register_graph(
        self, graph: CSRGraph, name: str | None = None
    ) -> str:
        """Register ``graph`` in the router's catalog (durably, under
        the registry's name rules) and push the name to each live
        replica of its shard."""
        fp = self._register(graph, name)
        self._on_live(
            self._shard(fp),
            lambda service: service.register_graph(graph, name),
        )
        return fp

    def _release(self, fp: str) -> None:
        """The router's registry released ``fp`` (a replaced name or an
        unregister): no live rank keeps serving it."""
        with self._lock:
            self._rings.pop(fp, None)
        self._on_live(
            list(self.ranks), lambda service: service.unregister_graph(fp)
        )

    def _on_live(
        self, rank_ids: list[int], call: Callable[[MatchingService], object]
    ) -> None:
        """Run ``call`` on each live rank's service.  A rank that dies
        under the call is skipped: catch-up brings it to the router's
        catalog before it serves again."""
        for rank_id in rank_ids:
            rank = self.ranks[rank_id]
            generation = rank.generation
            if rank.state != LIVE:
                continue
            try:
                call(rank.service)
            except Exception:
                if rank.state == LIVE and rank.generation == generation:
                    raise

    def graph_info(self, key: str) -> dict[str, object]:
        info = super().graph_info(key)
        fp = str(info["fingerprint"])
        replicas = self._shard(fp)
        held = {
            rank_id: self.ranks[rank_id].service.registry.by_fingerprint(fp)
            for rank_id in replicas
            if self.ranks[rank_id].state == LIVE
        }
        live = [
            rank_id for rank_id, handle in held.items() if handle is not None
        ]
        if live:
            # The router's own handles never serve: engine use is the
            # primary replica's.
            served = held[live[0]].info()  # type: ignore[union-attr]
            for field in ("generation", "workers", "queries_served"):
                info[field] = served[field]
        return info | {
            "replicas": replicas,
            "live_replicas": live,
            "below_quorum": len(self._reachable(fp)) < self.quorum,
        }

    def replication_of(self, key: str) -> int:
        """How many live replicas currently hold this graph — the
        chaos harness's 'shard back at full replication' probe."""
        info = self.graph_info(key)
        return len(info["live_replicas"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Versioning: commits fan out to the shard
    # ------------------------------------------------------------------
    def mutate_graph(
        self,
        key: str,
        *,
        inserts: object = (),
        deletes: object = (),
        directed: bool = True,
    ) -> dict[str, object]:
        """Commit an edge delta on every reachable replica of the
        graph's shard; returns the first replica's commit summary.

        Each replica is first brought to the router's head
        (:meth:`_catch_up`), then commits; the router adopts the first
        replica's child (:meth:`FrontDoor._adopt`) and every later
        replica must agree on its name and child fingerprint.  Until
        then a failing replica fails the request (unless it died);
        after, one that dies or refuses is skipped and caught up later,
        so no client sees an error for a commit that moved the head.
        No lock is held across rank calls: a concurrent commit to the
        same graph gets :class:`VersionConflictError` (409), as on a
        single rank.
        """
        head = self.registry.resolve(key)
        name = head.name
        current = self.registry.resolve(name)
        with self._lock:
            if current is not head or name in self._committing:
                raise VersionConflictError(
                    f"graph {name!r} was committed concurrently; "
                    f"re-read the head and retry"
                )
            self._committing.add(name)
        try:
            summary: dict[str, object] | None = None
            for rank_id in self._targets(head.fingerprint):
                rank = self.ranks[rank_id]
                generation = rank.generation
                try:
                    self._catch_up(rank, name, head.fingerprint)
                    got = rank.service.mutate_graph(
                        name, inserts=inserts, deletes=deletes,
                        directed=directed,
                    )
                    if summary is None and got["changed"]:
                        child = rank.service.registry.by_fingerprint(
                            str(got["fingerprint"])
                        )
                        if child is None:
                            raise KeyError(f"rank {rank_id} lost its commit")
                        ring = self._ring_key(head.fingerprint)
                        pruned = self._adopt(
                            GraphVersion(
                                name, child.fingerprint, head.fingerprint,
                                head.lineage_depth + 1, KIND_DELTA,
                                child.incremental_basis()[1], ring,
                            ),
                            child.graph,
                        )
                        with self._lock:
                            self._rings[child.fingerprint] = ring
                            for fp in pruned:
                                self._rings.pop(fp, None)
                        self.version_commits += 1
                except Exception:
                    if summary is None and (
                        rank.state == LIVE and rank.generation == generation
                    ):
                        raise
                    continue  # died, or lags behind the recorded head
                if summary is None:
                    summary = got
                elif (got["graph"], got["fingerprint"]) != (
                    summary["graph"], summary["fingerprint"]
                ):
                    raise RuntimeError(
                        f"rank {rank_id} committed {got['graph']!r} at "
                        f"{got['fingerprint']} but the shard's first "
                        f"replica committed {summary['graph']!r} at "
                        f"{summary['fingerprint']}"
                    )
        finally:
            with self._lock:
                self._committing.discard(name)
        if summary is None:
            raise JobFailed(
                f"every replica of graph {name!r} died during the commit"
            )
        return summary

    def _catch_up_rank(self, rank: ClusterRank, ring: HashRing) -> None:
        """Bring ``rank`` to the router's head of every name ``ring``
        places on it, then drop every version the router does not hold
        (released, or committed past the router's record before a
        crash).  The rank is listed first, so a graph registered
        meanwhile is still held."""
        for name, fp in self.registry.names().items():
            if rank.rank_id in ring.replicas_for(
                self._ring_key(fp), self.replication
            ):
                self._catch_up(rank, name, fp)
        on_rank = [h.fingerprint for h in rank.service.registry.handles()]
        held = {h.fingerprint for h in self.registry.handles()}
        for fp in on_rank:
            if fp not in held:
                rank.service.unregister_graph(fp)

    def _catch_up(
        self, rank: ClusterRank, name: str, head: str, *, replay: bool = True
    ) -> None:
        """Bring ``rank``'s copy of ``name`` to version ``head``.

        A rank that holds the name elsewhere but still holds ``head``,
        a committed version (it committed past the router's record),
        moves the name back; a rank whose head is a retained ancestor
        replays the commits it missed; any other gets the head's
        content registered under the name.  With ``replay=False`` (the
        read path) a rank that holds the name at another version raises
        ``KeyError`` instead, which sends the read to the next replica.
        """
        try:
            at: str | None = rank.service.resolve_key(name)
        except KeyError:
            at = None
        if at == head:
            return
        if at is not None and not replay:
            raise KeyError(
                f"rank {rank.rank_id} holds {name!r} at another version "
                f"than {head[:12]}"
            )
        version = self.registry.by_fingerprint(head)
        if version is None:
            raise KeyError(f"the router no longer holds version {head[:12]}")
        self.catchup_graphs += 1
        parent, delta = version.incremental_basis()
        if at is not None and delta is not None and (
            rank.service.registry.by_fingerprint(head) is not None
        ):
            rank.service._adopt(
                GraphVersion(
                    name, head, parent, version.lineage_depth, KIND_DELTA,
                    delta,
                ),
                version.graph,
            )
            return
        path: list[EdgeDelta] = []
        cursor: GraphHandle | None = version
        while cursor is not None and cursor.fingerprint != at:
            parent, delta = cursor.incremental_basis()
            if delta is not None:  # a root or replacement ends the walk
                path.append(delta)
            cursor = self.registry.by_fingerprint(parent) if parent else None
        if cursor is None:
            rank.service.register_graph(version.graph, name)
            return
        for delta in reversed(path):
            rank.service.mutate_graph(
                name, inserts=delta.inserts, deletes=delta.deletes
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, object]:
        rank_states = {
            rank_id: rank.state for rank_id, rank in self.ranks.items()
        }
        handles = self.registry.handles()
        below = sum(
            1
            for ring_key in {self._ring_key(h.fingerprint) for h in handles}
            if len(self._reachable(ring_key)) < self.quorum
        )
        live = sum(1 for s in rank_states.values() if s == LIVE)
        return {
            "status": "ok" if below == 0 else "degraded",
            "degraded": below > 0,
            "uptime_s": time.time() - self.started_at,
            "ranks": rank_states,
            "live_ranks": live,
            "replication": self.replication,
            "quorum": self.quorum,
            "shards_below_quorum": below,
            "graphs": len(handles),
        }

    def metrics(self) -> dict[str, object]:
        """The router's own counters, plus its ranks' serving counters
        summed at the keys a single rank reports them under."""
        with self._lock:
            ring_members = list(self._ring.members)
            partitioned = dict(self._partitioned)
            failovers = self.failovers
            # Attempts integrated and revoked; every failover is one
            # retransmission of a part.
            tracker = {
                "seen": self.integrated,
                "revoked": self.revoked,
                "retransmissions": failovers,
            }
        out: dict[str, object] = {
            "uptime_s": time.time() - self.started_at,
            "replication": self.replication,
            "quorum": self.quorum,
            "graphs": len(self.registry.handles()),
            "router": {
                "routes": self.routes,
                "failovers": failovers,
                "shed": self.shed,
                "revoked_replies": self.revoked_replies,
                "split_queries": self.split_queries,
                "recovered_parts": self.recovered_parts,
                "heals": self.heals,
                "heal_failures": self.heal_failures,
                "catchup_graphs": self.catchup_graphs,
            },
            "versioning": {
                "commits": self.version_commits,
                "recovered_versions": self.recovered_versions,
            },
            "ring": {"members": ring_members, "partitioned": partitioned},
            "tracker": tracker,
            "ranks": {
                rank_id: rank.snapshot()
                for rank_id, rank in self.ranks.items()
            },
        }
        per_rank: list[dict[str, Any]] = [
            rank.service.metrics() for rank in self.ranks.values()
        ]
        for key in ("scheduler", "dispatcher", "result_cache"):
            out[key] = _summed([m[key] for m in per_rank])
        faults = [m["faults"] for m in per_rank if "faults" in m]
        if self.faults is not None:
            faults.append(self.faults.snapshot())
        if faults:
            out["faults"] = _summed(faults)
        if self.state is not None:
            out["state"] = self._state_metrics()
        return out

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------
    def _phase(self, phase: str, rank_id: int, job_id: str) -> None:
        hook = self.phase_hook
        if hook is not None:
            hook(phase, rank_id, job_id)

    def _reachable(self, fp: str) -> list[int]:
        """Live, unpartitioned replicas of ``fp``'s shard, primary
        first."""
        replicas = self._shard(fp)
        with self._lock:
            return [
                rank_id
                for rank_id in replicas
                if self.ranks[rank_id].state == LIVE
                and rank_id not in self._partitioned
            ]

    def _ring_key(self, fp: str) -> str:
        with self._lock:
            return self._rings.get(fp, fp)

    def _shard(self, fp: str) -> list[int]:
        """``fp``'s replica set on the current ring, primary first."""
        with self._lock:
            return self._ring.replicas_for(
                self._rings.get(fp, fp), self.replication
            )

    def _targets(self, fp: str) -> list[int]:
        """:meth:`_reachable`, or a ``shard-unavailable`` shed when the
        shard is below quorum — the router's one quorum check, for
        submits, routed attempts and version calls alike."""
        reachable = self._reachable(fp)
        if len(reachable) >= self.quorum:
            return reachable
        self.shed += 1
        raise AdmissionError(
            "shard-unavailable",
            f"shard for graph {fp[:12]} has {len(reachable)} of "
            f"{self.replication} replicas reachable (quorum "
            f"{self.quorum}); retry after recovery",
            retry_after=max(
                1.0,
                HEAL_AFTER_TICKS * self._SUPERVISE_POLL_S,
            ),
        )

    def _tick_partitions(self) -> None:
        """One router tick: every active partition window shrinks by
        one routed attempt and heals at zero (state was never lost)."""
        with self._lock:
            healed = [
                rank_id
                for rank_id, left in self._partitioned.items()
                if left <= 1
            ]
            for rank_id in healed:
                del self._partitioned[rank_id]
            for rank_id in list(self._partitioned):
                self._partitioned[rank_id] -= 1

    def _apply_route_fate(self, rank_id: int) -> float:
        """Consult the fault injector for this routed attempt; returns
        seconds to delay the dispatch (slow-replica fate)."""
        if self.faults is None:
            return 0.0
        fate, magnitude = self.faults.route_fate()
        if fate == "crash":
            self.crash_rank(rank_id)
        elif fate == "partition":
            self.partition_rank(rank_id, int(magnitude))
        elif fate == "slow":
            return magnitude
        return 0.0

    def _revoke(self, attempt: _Attempt) -> None:
        """Mark ``attempt`` revoked: its answer is never integrated."""
        attempt.revoked = True
        with self._lock:
            self.revoked += 1

    def _note_failover(self, job: Job) -> None:
        job.failovers += 1
        with self._lock:
            self.failovers += 1

    # ------------------------------------------------------------------
    # Routing: one loop for whole and split queries
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        """Dispatch each part's first attempt here, so an admission
        refusal surfaces from ``submit`` as on one rank; a route thread
        collects the attempts."""
        n = job.request.num_parts
        tried: list[set[int]] = [set() for _ in range(n)]
        first: list[_Attempt] = []
        try:
            for part in range(n):
                first.append(self._dispatch(job, part, tried[part]))
        except (AdmissionError, JobFailed) as exc:
            # The parts already dispatched are never collected.  A
            # refused job's client may retry under its key, which names
            # them again; otherwise nothing can, so they are cancelled.
            reusable = isinstance(exc, AdmissionError) and job.idempotency_key
            for attempt in first:
                self._revoke(attempt)
                if reusable:
                    continue
                try:
                    self.ranks[attempt.rank_id].service.cancel(
                        attempt.rank_job_id
                    )
                except KeyError:  # repro: ignore[RP008] — died with its rank
                    continue
            if isinstance(exc, AdmissionError):
                raise
            job.state, job.error = FAILED, str(exc)
            self._conclude(job)
            return
        threading.Thread(
            target=self._run_job, args=(job, first, tried),
            name=f"cluster-route-{job.id}", daemon=True,
        ).start()

    def _run_job(
        self, job: Job, pending: list[_Attempt], tried: list[set[int]]
    ) -> None:
        try:
            self._route(job, pending, tried)
        except AdmissionError as exc:
            job.state = FAILED
            job.reason = exc.reason
            job.retry_after = exc.retry_after
            job.error = str(exc)
        except Exception as exc:
            job.state = FAILED
            job.error = str(exc)
        self._conclude(job)

    def _route(
        self, job: Job, pending: list[_Attempt], tried: list[set[int]]
    ) -> None:
        """Collect ``job``'s first attempts (``pending``, dispatched by
        :meth:`_start`) and settle its result.

        The query goes out as ``num_parts`` strided part-requests (one
        for an unsplit query), collected in order into ``results``.  A
        failed attempt is revoked, and every part its replica holds in
        ``pending`` and not yet in ``results`` is re-dispatched to the
        next replica, while collected part counts survive, so a split
        query resumes instead of restarting.  Every retry of a part
        carries that part's idempotency key, so at most one result per
        part is ever integrated.  A part the rank settled ``expired``
        or ``cancelled`` settles the job the same way, with no
        failover.  Parts reduce with :meth:`MatchResult.merge`, as a
        multi-core match's do.
        """
        n = job.request.num_parts
        if n > 1:
            self.split_queries += 1
        results: dict[int, MatchResult] = {}
        failures = 0
        while len(results) < n:
            part = min(p for p in range(n) if p not in results)
            attempt = pending[part]
            try:
                rank_job = self._collect_attempt(job, attempt)
            except (RankUnavailable, JobFailed) as exc:
                # The replica may have failed locally (crash, injected
                # engine fault): give the others a turn before giving up.
                failures += 1
                self._note_failover(job)
                if failures > 2 * len(self.ranks) * n:
                    raise JobFailed(
                        f"job {job.id}: every routed attempt failed: {exc}"
                    ) from exc
                dirty = [
                    p for p in range(n)
                    if p not in results
                    and pending[p].rank_id == attempt.rank_id
                ]
                if n > 1:
                    self.recovered_parts += len(dirty)
                    job.parts_recovered += len(dirty)
                for p in dirty:
                    pending[p] = self._dispatch(job, p, tried[p])
                continue
            if rank_job.state != DONE:
                job.state, job.error = rank_job.state, rank_job.error
                return
            result = rank_job.result
            assert result is not None  # a collected attempt has a result
            results[part] = result
        job.replica = attempt.rank_id
        job.state = DONE
        if n == 1:
            job.result = result
            job.cached, job.coalesced = rank_job.cached, rank_job.coalesced
            job.incremental = rank_job.incremental
            job.fallback = rank_job.fallback
            return
        # Each part is its own root stride, whatever shard ids its rank
        # gave its pieces.
        job.result = functools.reduce(
            MatchResult.merge,
            (dataclasses.replace(results[p], shards=()) for p in range(n)),
        )

    def _dispatch(self, job: Job, part: int, tried: set[int]) -> _Attempt:
        """Send ``part`` of ``job`` to the next replica: the reachable
        replicas not yet tried for this part (primary first; all of
        them again once each has been tried), strided by ``part`` so a
        split query spreads across the shard.  A replica that cannot
        take the attempt is skipped; when every one refused, an
        admission reason among the refusals surfaces machine-readably
        (429/503 on the HTTP face).  A refusal every replica would give
        alike (:data:`_REQUEST_REFUSALS`) surfaces at once, as one rank
        answers it, with no failover."""
        n = job.request.num_parts
        key = job.idempotency_key or job.id
        if n > 1:
            key = f"{key}#p{part}.{n}"
        errors: list[str] = []
        admission: AdmissionError | None = None
        for _ in range(len(self.ranks) + 1):
            replicas = self._targets(job.request.graph_fp)
            pool = [r for r in replicas if r not in tried]
            if not pool:
                tried.clear()
                pool = replicas
            target = pool[part % len(pool)]
            tried.add(target)
            try:
                return self._dispatch_attempt(
                    job, target, key=key, part=part, num_parts=n
                )
            except RankUnavailable as exc:
                errors.append(str(exc))
                if isinstance(exc.__cause__, AdmissionError):
                    admission = exc.__cause__
                    if admission.reason in _REQUEST_REFUSALS:
                        raise admission from None
                self._note_failover(job)
        if admission is not None:
            raise admission
        raise JobFailed(
            f"job {job.id}: no replica accepted part {part}/{n}: "
            + "; ".join(errors)
        )

    def _dispatch_attempt(
        self,
        job: Job,
        rank_id: int,
        *,
        key: str,
        part: int,
        num_parts: int,
    ) -> _Attempt:
        """Submit one routed attempt to ``rank_id`` (asynchronously on
        the rank; the caller collects).  Raises :class:`RankUnavailable`
        when the replica cannot take it."""
        attempt = _Attempt(
            rank_id=rank_id,
            generation=self.ranks[rank_id].generation,
        )
        self.routes += 1
        self._phase("pre-dispatch", rank_id, job.id)
        delay = self._apply_route_fate(rank_id)
        self._tick_partitions()
        rank = self.ranks[rank_id]
        with self._lock:
            partitioned = rank_id in self._partitioned
        if rank.state != LIVE or partitioned:
            self._revoke(attempt)
            raise RankUnavailable(
                rank_id,
                f"rank {rank_id} is {rank.state}"
                + (" (partitioned)" if partitioned else ""),
            )
        if delay > 0.0:
            time.sleep(delay)
        request = job.request
        try:
            if rank.service.registry.by_fingerprint(request.graph_fp) is None:
                # Lazy catch-up: this replica was remapped onto the
                # shard after a membership change and has not seen the
                # graph's head yet; install it from the catalog.  A
                # retired version it lacks is a failover.
                handle = self.registry.by_fingerprint(request.graph_fp)
                if handle is None or (
                    self.registry.names().get(handle.name) != request.graph_fp
                ):
                    raise KeyError(
                        f"rank {rank_id} does not hold version "
                        f"{request.graph_fp[:12]}"
                    )
                self._catch_up(
                    rank, handle.name, request.graph_fp, replay=False
                )
            attempt.rank_job_id = rank.service.submit(
                request.graph_fp,
                request.query,
                priority=request.priority,
                deadline_ms=job.deadline_ms,
                materialize=request.materialize,
                time_limit_ms=request.time_limit_ms,
                idempotency_key=key,
                num_parts=num_parts,
                _part=part if num_parts > 1 else None,
            )
        except Exception as exc:
            # A replica-local admission refusal (queue-full, degraded, a
            # killed incarnation's shutdown), a replica that died under
            # the submit, or one lacking the version: another replica
            # may take the work.  The cause is kept so an admission
            # reason surfaces when *every* replica refused.
            self._revoke(attempt)
            raise RankUnavailable(
                rank_id, f"rank {rank_id} refused dispatch: {exc}"
            ) from exc
        self._phase("mid-shard", rank_id, job.id)
        return attempt

    def _collect_attempt(self, job: Job, attempt: _Attempt) -> Job:
        """Wait for one routed attempt, enforcing the route timeout and
        exactly-once integration; returns the rank's settled job (done,
        expired or cancelled).  Raises :class:`RankUnavailable` when the
        attempt was revoked (crash/partition/timeout) and
        :class:`JobFailed` when the replica answered with a failure."""
        rank = self.ranks[attempt.rank_id]
        deadline = time.monotonic() + self.service_config.route_timeout_s
        try:
            rank_job = rank.service.job(attempt.rank_job_id)
        except KeyError as exc:
            # The incarnation that took the dispatch is gone already.
            self._revoke(attempt)
            raise RankUnavailable(
                attempt.rank_id,
                f"rank {attempt.rank_id} lost job {attempt.rank_job_id} "
                f"(service incarnation replaced)",
            ) from exc
        while not rank_job.done.wait(timeout=self._WAIT_POLL_S):
            if job.state == PENDING and rank_job.state == RUNNING:
                # The job runs when its first attempt does, so a router
                # restart recovers it by the state its rank reached: a
                # job still queued there runs again under its id.
                job.state = RUNNING
                self._journal(job, RUNNING)
            if rank.state != LIVE or rank.generation != attempt.generation:
                self._revoke(attempt)
                raise RankUnavailable(
                    attempt.rank_id,
                    f"rank {attempt.rank_id} crashed mid-request",
                )
            if time.monotonic() >= deadline:
                self._revoke(attempt)
                raise RankUnavailable(
                    attempt.rank_id,
                    f"rank {attempt.rank_id} exceeded the route timeout "
                    f"({self.service_config.route_timeout_s}s)",
                )
        self._phase("post-commit-pre-reply", attempt.rank_id, job.id)
        with self._lock:
            partitioned = attempt.rank_id in self._partitioned
        if (
            rank.state != LIVE
            or rank.generation != attempt.generation
            or partitioned
        ):
            # The replica committed (its journal has the result) but
            # the reply is lost on the wire.  Revoke so the answer is
            # never integrated from this channel; the failover replica
            # supplies the one integrated result, and the restarted
            # primary answers any later retry from its journal.
            self._revoke(attempt)
            self.revoked_replies += 1
            raise RankUnavailable(
                attempt.rank_id,
                f"rank {attempt.rank_id} became unreachable before its "
                f"reply was integrated",
            )
        if attempt.revoked:
            raise RankUnavailable(
                attempt.rank_id,
                f"attempt {attempt.rank_job_id} was revoked",
            )
        if attempt.integrated:
            raise RankUnavailable(
                attempt.rank_id,
                f"attempt {attempt.rank_job_id} was already integrated",
            )
        attempt.integrated = True
        with self._lock:
            self.integrated += 1
        if rank_job.state == DONE and rank_job.result is not None:
            return rank_job
        if rank_job.state in (EXPIRED, CANCELLED):
            # The rank's verdict on the request, not a replica failure.
            return rank_job
        if rank_job.state == FAILED:
            raise JobFailed(
                f"rank {attempt.rank_id} job {attempt.rank_job_id} "
                f"failed: {rank_job.error}"
            )
        raise RankUnavailable(
            attempt.rank_id,
            f"rank {attempt.rank_id} job {attempt.rank_job_id} settled "
            f"{rank_job.state} without a result",
        )

"""Replicated, shard-routed serving: the matching service on N ranks.

The single-process :class:`~repro.service.MatchingService` owns every
graph, so one crash takes the whole registry down.  This module runs
**N replicas** of it behind a router so capacity and fault domains grow
by adding ranks — the serving-side form of the paper's multi-GPU
scale-out, built from the same reliability pieces as the distributed
runtime (DESIGN.md §15):

* :class:`HashRing` — a consistent-hash ring over the live ranks maps
  each graph fingerprint to ``replication`` distinct replicas.  The
  ring is a pure function of the sorted live-member set (SHA-256 over
  rank/vnode labels), so every membership change rebuilds it
  deterministically: two routers that agree on membership agree on
  placement.
* :class:`ClusterRank` — one replica: a ``MatchingService`` over its
  own durable state dir.  A crash is *abrupt abandonment*
  (:meth:`MatchingService.kill` — pool workers SIGKILLed, nothing
  settles, nothing flushes); a restart builds a fresh incarnation over
  the same state dir, replaying the durable job journal.
* :class:`ClusterService` — the router, behind the same
  :class:`~repro.service.service.FrontDoor` surface and job model as
  one rank.  A match goes to the primary replica by graph affinity and
  **fails over** to a secondary on rank crash, partition, or route
  timeout.  Every attempt carries a sequence number in a
  :class:`~repro.distributed.protocol.ShipmentTracker`: a timed-out or
  crashed attempt is *revoked* before the failover is dispatched, so a
  late answer from the old replica is never integrated, and the same
  idempotency key rides every attempt, so a replica that did execute
  before dying answers the retry from its journal instead of running
  again — together, exactly-once integration.

**Split queries** reuse the engine's root striding: ``num_parts > 1``
fans one query out as strided part-requests across the shard's
replicas, tracked in a :class:`~repro.distributed.protocol.StrideLedger`
keyed ``(0, part, part + 1)``; an unsplit query is the one-part case of
the same loop.  A replica crash mid-split invalidates only that rank's
uncommitted parts (``begin_recovery`` → ``adopt``); committed parts
keep their counts, so the query *resumes* on the survivors instead of
restarting.  Part counts sum exactly because the root stride sets
partition.

**Versioning** fans out through the ranks' own journals: a commit runs
on every reachable replica of the shard (each first brought to the
router's head by replaying the commits it missed) and must land on one
child fingerprint everywhere.  The child keeps its parent's ring key,
so all versions of a graph share one replica set; ``versions``,
``compare`` and ``as_of`` route like reads, and a replica that lacks a
retained version counts as a failover.

**Degradation and healing**: a shard with fewer than a majority of its
replicas reachable is below quorum; the router sheds those requests
through the scheduler's rejection machinery (reason
``shard-unavailable``, HTTP 503 + ``Retry-After``) instead of queueing
doomed work.  A supervisor thread restarts a crashed rank after
``service_heal_after_ticks`` ticks and re-admits it to the ring **only
after** it has caught up — brought every shard it will serve to its
head version from the router's content-addressed catalog; the ring
rebuild then returns the shard to full R-way replication.

Fault injection is end-to-end: the same ``--faults`` spec that drives
the single service adds ``rank_crash_prob`` / ``partition_prob`` /
``slow_replica_prob`` here, consulted once per routed attempt, and
``scripts/cluster_chaos.py`` gates the whole loop against the serial
oracle.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..analysis.sanitizer import make_lock
from ..core.config import CuTSConfig
from ..core.result import MatchResult
from ..core.stats import SearchStats
from ..distributed.protocol import ShipmentTracker, StrideLedger
from ..fingerprint import graph_fingerprint
from ..gpusim.cost import CostModel
from ..graph.csr import CSRGraph
from ..versioning.delta import EdgeDelta
from .faults import ServiceFaultInjector, ServiceFaultPlan
from .registry import VersionConflictError
from .scheduler import AdmissionError, Scheduler
from .service import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    RUNNING,
    FrontDoor,
    Job,
    JobFailed,
    MatchingService,
)

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


class RankUnavailable(RuntimeError):
    """One routed attempt failed (crash/partition/timeout); the router
    revokes the attempt and fails over to the next replica."""

    def __init__(self, rank_id: int, message: str) -> None:
        super().__init__(message)
        self.rank_id = rank_id


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
        *,
        workers: int | str | None = 1,
        state_dir: str | None = None,
        faults: ServiceFaultPlan | None = None,
    ) -> None:
        self.rank_id = rank_id
        self.config = config
        self.workers = workers
        self.state_dir = state_dir
        self.faults = faults
        self.state = LIVE
        self.generation = 0
        self.crashes = 0
        self.service = MatchingService(
            config, workers=workers, state_dir=state_dir, faults=faults
        )

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
        self.service = MatchingService(
            self.config, workers=self.workers,
            state_dir=self.state_dir, faults=self.faults,
        )
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
class _Placed:
    """One routable graph version.  ``ring_key`` places its shard: a
    registered graph's own fingerprint, or the parent's key for a
    committed version; ``parent``/``delta``/``depth`` record the commit
    (the catch-up replay reads them)."""

    graph: CSRGraph
    name: str
    ring_key: str
    parent: str | None = None
    delta: EdgeDelta | None = None
    depth: int = 0


@dataclass
class _Attempt:
    """One routed attempt: where it went and its envelope sequence."""

    rank_id: int
    generation: int
    seq: int
    rank_job_id: str


class ClusterService(FrontDoor):
    """Router over N replicated :class:`MatchingService` ranks.

    It serves the same :class:`~repro.service.service.FrontDoor`
    surface as a single rank, so the HTTP face serves either one.
    ``replication`` is clamped to ``ranks``.  ``state_dir`` gives each
    rank its own durable subdir (``rank-<i>``).  ``auto_heal=False``
    disables the supervisor so tests can drive crash/restart phases by
    hand.
    """

    _JOB_PREFIX = "cjob"
    _SUPERVISE_POLL_S = 0.05
    _WAIT_POLL_S = 0.005

    def __init__(
        self,
        config: CuTSConfig | None = None,
        *,
        ranks: int = 1,
        replication: int = 2,
        workers: int | str | None = None,
        state_dir: str | None = None,
        faults: ServiceFaultPlan | ServiceFaultInjector | None = None,
        start: bool = True,
        auto_heal: bool = True,
    ) -> None:
        super().__init__()
        self.config = config or CuTSConfig()
        if ranks < 1:
            raise ValueError("a cluster needs at least one rank")
        self.replication = max(1, min(replication, ranks))
        self.quorum = self.replication // 2 + 1
        # The router keeps its own injector for topology fates (crash /
        # partition / slow); each rank's service gets the *plan*, so
        # engine-level faults keep firing inside the replicas too.
        rank_plan: ServiceFaultPlan | None = None
        if isinstance(faults, ServiceFaultPlan):
            rank_plan = faults
            faults = ServiceFaultInjector(faults)
        elif isinstance(faults, ServiceFaultInjector):
            rank_plan = faults.plan
        self.faults = faults
        self.auto_heal = auto_heal
        self.ranks: dict[int, ClusterRank] = {}
        for rank_id in range(ranks):
            sub = None
            if state_dir is not None:
                sub = f"{state_dir}/rank-{rank_id}"
            self.ranks[rank_id] = ClusterRank(
                rank_id, self.config,
                workers=1 if workers is None else workers,
                state_dir=sub,
                faults=rank_plan,
            )
        # _lock guards membership-derived state (ring, catalog, names,
        # in-flight commits, partitions); _jobs_lock guards the job
        # table; _tracker_lock guards envelope bookkeeping.  They are
        # never nested, and no rank call or wait happens under any of
        # them (RP010).
        self._lock = make_lock("ClusterService._lock")
        self._tracker_lock = make_lock("ClusterService._tracker_lock")
        self._ring = HashRing(range(ranks))
        self._catalog: dict[str, _Placed] = {}
        self._names: dict[str, str] = {}
        self._committing: set[str] = set()
        self._partitioned: dict[int, int] = {}
        self._tracker = ShipmentTracker()
        # The front door reuses the scheduler's rejection machinery so
        # shard-unavailable sheds are minted and counted the same way
        # degraded-mode rejections are.
        self._front = Scheduler(max_depth=self.config.service_queue_depth)
        self.phase_hook: Callable[[str, int, str], None] | None = None
        self.routes = 0
        self.failovers = 0
        self.shed = 0
        self.revoked_replies = 0
        self.split_queries = 0
        self.recovered_parts = 0
        self.heals = 0
        self.heal_failures = 0
        self.catchup_graphs = 0
        self.version_commits = 0
        self.last_heal_error: str | None = None
        self._heal_strikes: dict[int, int] = {}
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        self.started_at = time.time()
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
        version (:meth:`_catch_up`) — and only then rejoins the ring.
        Traffic never reaches a replica that is still missing its
        shards.
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
            heads = [
                (name, fp)
                for name, fp in self._names.items()
                if fp in self._catalog
                and rank_id in prospective.replicas_for(
                    self._catalog[fp].ring_key, self.replication
                )
            ]
        for name, head in heads:
            self._catch_up(rank, name, head)
        with self._lock:
            rank.admit()
            self._partitioned.pop(rank_id, None)
            self._rebuild_ring()
        self.heals += 1

    def _supervise(self) -> None:
        """Heal loop: a rank that stays crashed for
        ``service_heal_after_ticks`` consecutive ticks is restarted
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
                if strikes < self.config.service_heal_after_ticks:
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
    # Graph management
    # ------------------------------------------------------------------
    def register_graph(
        self, graph: CSRGraph, name: str | None = None
    ) -> str:
        """Register ``graph`` cluster-wide: store it content-addressed
        in the router catalog and on each of its shard's live replicas
        (each replica persists it durably when it has a state dir).
        Known content is aliased as :meth:`GraphRegistry.register`
        does: its entry keeps the first name, the one commits move."""
        fp = graph_fingerprint(graph)
        resolved = name or graph.name or fp[:12]
        with self._lock:
            placed = self._catalog.setdefault(
                fp, _Placed(graph, resolved, fp)
            )
            self._names[resolved] = fp
            replicas = self._ring.replicas_for(
                placed.ring_key, self.replication
            )
        for rank_id in replicas:
            rank = self.ranks[rank_id]
            if rank.state == LIVE:
                rank.service.register_graph(graph, resolved)
        return fp

    def resolve_key(self, key: str) -> str:
        """Fingerprint for a catalogued name or fingerprint."""
        with self._lock:
            if key in self._catalog:
                return key
            fp = self._names.get(key)
        if fp is None:
            raise KeyError(f"no registered graph named {key!r}")
        return fp

    def _graph_key(self, graph: CSRGraph | str) -> str:
        if isinstance(graph, CSRGraph):
            return self.register_graph(graph)
        return self.resolve_key(graph)

    def graph_info(self, key: str) -> dict[str, object]:
        fp = self.resolve_key(key)
        with self._lock:
            placed = self._catalog[fp]
            head = self._names.get(placed.name)
            replicas = self._ring.replicas_for(
                placed.ring_key, self.replication
            )
        live = [
            rank_id
            for rank_id in replicas
            if self.ranks[rank_id].state == LIVE
            and self.ranks[rank_id].service.registry.by_fingerprint(fp)
            is not None
        ]
        return {
            "name": placed.name,
            "fingerprint": fp,
            "num_vertices": placed.graph.num_vertices,
            "num_edges": placed.graph.num_edges,
            "parent_fingerprint": placed.parent,
            "lineage_depth": placed.depth,
            "retired": head != fp,
            "replicas": replicas,
            "live_replicas": live,
            "below_quorum": len(self._reachable(fp)) < self.quorum,
        }

    def graphs(self) -> list[dict[str, object]]:
        with self._lock:
            fps = list(self._catalog)
        return [self.graph_info(fp) for fp in fps]

    def replication_of(self, key: str) -> int:
        """How many live replicas currently hold this graph — the
        chaos harness's 'shard back at full replication' probe."""
        info = self.graph_info(key)
        return len(info["live_replicas"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Versioning: commits fan out, reads of versions route like matches
    # ------------------------------------------------------------------
    def versions(self, key: str) -> list[dict[str, object]]:
        """The retained version chain of ``key``'s graph, oldest first,
        as the first replica of its shard holding that version reports
        it (one that lacks it counts as a failover)."""
        fp = self.resolve_key(key)
        error = KeyError(f"no reachable replica holds version {fp[:12]}")
        for rank_id in self._targets(fp):
            try:
                return self.ranks[rank_id].service.versions(fp)
            except KeyError as exc:
                error = exc
                self.failovers += 1
        raise error

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
        (:meth:`_catch_up`), then commits; the first commit is recorded
        (:meth:`_record_commit`) and every later replica must agree on
        its name and child fingerprint.  Until then a failing replica
        fails the request (unless it died); after, one that dies or
        refuses is skipped and caught up later, so no client sees an
        error for a commit that moved the head.  No lock is held across
        rank calls: a concurrent commit to the same graph gets
        :class:`VersionConflictError` (409), as on a single rank.
        """
        head = self.resolve_key(key)
        with self._lock:
            name = self._catalog[head].name
            if self._names.get(name) != head or name in self._committing:
                raise VersionConflictError(
                    f"graph {name!r} was committed concurrently; "
                    f"re-read the head and retry"
                )
            self._committing.add(name)
        try:
            summary: dict[str, object] | None = None
            for rank_id in self._targets(head):
                rank = self.ranks[rank_id]
                generation = rank.generation
                try:
                    self._catch_up(rank, name, head)
                    got = rank.service.mutate_graph(
                        name, inserts=inserts, deletes=deletes,
                        directed=directed,
                    )
                    if summary is None:
                        self._record_commit(rank, got)
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

    def _record_commit(
        self, rank: ClusterRank, summary: dict[str, object]
    ) -> None:
        """Catalog the child version a replica just committed, under the
        name it moved: its content and delta, its parent's ring key,
        and the versions retention pruned."""
        if not summary["changed"]:
            return
        name = str(summary["graph"])
        child = str(summary["fingerprint"])
        handle = rank.service.registry.by_fingerprint(child)
        if handle is None:
            raise KeyError(f"rank {rank.rank_id} lost version {child}")
        parent, delta = handle.incremental_basis()
        with self._lock:
            self._catalog[child] = _Placed(
                handle.graph,
                name,
                self._catalog[str(parent)].ring_key,
                parent=parent,
                delta=delta,
                depth=int(summary["lineage_depth"]),  # type: ignore[call-overload]
            )
            self._names[name] = child
            for pruned in summary["pruned"]:  # type: ignore[attr-defined]
                self._catalog.pop(pruned, None)
        self.version_commits += 1

    def _catch_up(
        self, rank: ClusterRank, name: str, head: str, *, replay: bool = True
    ) -> None:
        """Bring ``rank``'s copy of ``name`` to version ``head``.

        A rank whose head is a retained ancestor replays the commits it
        missed (content addressing lands them on the same
        fingerprints).  A rank that never saw the name, or whose head
        is off the retained chain, gets the head's content registered
        under the name.  With ``replay=False`` (the read path) a rank
        that holds the name at another version is left alone and the
        ``KeyError`` sends the read to the next replica.
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
        deltas: list[EdgeDelta | None] = []
        with self._lock:
            graph = self._catalog[head].graph
            cursor: str | None = head
            while cursor is not None and cursor != at:
                placed = self._catalog.get(cursor)
                if placed is None:
                    break
                deltas.append(placed.delta)
                cursor = placed.parent
        path = [delta for delta in deltas if delta is not None]
        if at is not None and cursor == at and len(path) == len(deltas):
            for delta in reversed(path):
                rank.service.mutate_graph(
                    name, inserts=delta.inserts, deletes=delta.deletes
                )
        else:
            rank.service.register_graph(graph, name)
        self.catchup_graphs += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, object]:
        rank_states = {
            rank_id: rank.state for rank_id, rank in self.ranks.items()
        }
        with self._lock:
            shards = {placed.ring_key for placed in self._catalog.values()}
            graphs = len(self._catalog)
        below = sum(
            1
            for ring_key in shards
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
            "graphs": graphs,
        }

    def metrics(self) -> dict[str, object]:
        with self._tracker_lock:
            tracker = {
                "seen": len(self._tracker.seen),
                "revoked": len(self._tracker.revoked),
                "retransmissions": self._tracker.retransmissions,
            }
        with self._lock:
            ring_members = list(self._ring.members)
            partitioned = dict(self._partitioned)
        out: dict[str, object] = {
            "uptime_s": time.time() - self.started_at,
            "replication": self.replication,
            "quorum": self.quorum,
            "router": {
                "routes": self.routes,
                "failovers": self.failovers,
                "shed": self.shed,
                "revoked_replies": self.revoked_replies,
                "split_queries": self.split_queries,
                "recovered_parts": self.recovered_parts,
                "heals": self.heals,
                "heal_failures": self.heal_failures,
                "catchup_graphs": self.catchup_graphs,
                "rejected": self._front.snapshot()["rejected"],
            },
            "versioning": {"commits": self.version_commits},
            "ring": {"members": ring_members, "partitioned": partitioned},
            "tracker": tracker,
            "ranks": {
                rank_id: rank.snapshot()
                for rank_id, rank in self.ranks.items()
            },
        }
        if self.faults is not None:
            out["faults"] = self.faults.snapshot()
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
        with self._lock:
            placed = self._catalog.get(fp)
            replicas = self._ring.replicas_for(
                placed.ring_key if placed is not None else fp,
                self.replication,
            )
            return [
                rank_id
                for rank_id in replicas
                if self.ranks[rank_id].state == LIVE
                and rank_id not in self._partitioned
            ]

    def _targets(self, fp: str) -> list[int]:
        """:meth:`_reachable`, or a ``shard-unavailable`` shed when the
        shard is below quorum — the router's one quorum check, for
        submits, routed attempts and version calls alike."""
        reachable = self._reachable(fp)
        if len(reachable) >= self.quorum:
            return reachable
        self.shed += 1
        raise self._front.reject(
            "shard-unavailable",
            f"shard for graph {fp[:12]} has {len(reachable)} of "
            f"{self.replication} replicas reachable (quorum "
            f"{self.quorum}); retry after recovery",
            retry_after=max(
                1.0,
                self.config.service_heal_after_ticks * self._SUPERVISE_POLL_S,
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
        with self._tracker_lock:
            self._tracker.revoke(attempt.rank_id, attempt.seq)

    def _next_seq(self) -> int:
        with self._tracker_lock:
            return self._tracker.next_seq()

    def _note_failover(self, job: Job) -> None:
        self.failovers += 1
        job.failovers += 1
        with self._tracker_lock:
            self._tracker.retransmissions += 1

    # ------------------------------------------------------------------
    # Routing: one loop for whole and split queries
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        self._targets(job.request.graph_fp)  # shed at the front door
        threading.Thread(
            target=self._run_job, args=(job,),
            name=f"cluster-route-{job.id}", daemon=True,
        ).start()

    def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        try:
            self._route(job)
            job.state = DONE
        except AdmissionError as exc:
            job.state = FAILED
            job.reason = exc.reason
            job.retry_after = exc.retry_after
            job.error = str(exc)
        except Exception as exc:
            job.state = FAILED
            job.error = str(exc)
        job.finished_at = time.time()
        self._settle(job)

    def _route(self, job: Job) -> None:
        """Run ``job`` on its shard's replicas and settle its result.

        The query goes out as ``num_parts`` strided part-requests (one
        for an unsplit query), accounted in a :class:`StrideLedger`
        keyed ``(0, part, part + 1)``.  Parts are collected in order; a
        failed attempt is revoked, and its replica's uncommitted parts
        are re-dispatched to the next replica (``begin_recovery`` →
        ``adopt``) while committed part counts survive, so a split
        query resumes instead of restarting.  Every retry of a part
        carries that part's idempotency key, so at most one result per
        part is ever integrated.
        """
        n = job.request.num_parts
        if n > 1:
            self.split_queries += 1
        ledger = StrideLedger()
        tried: list[set[int]] = [set() for _ in range(n)]
        pending: dict[int, _Attempt] = {}
        for part in range(n):
            pending[part] = self._dispatch(job, part, tried[part])
            ledger.open((0, part, part + 1), pending[part].rank_id)
        results: dict[int, MatchResult] = {}
        failures = 0
        while len(results) < n:
            part = min(p for p in range(n) if p not in results)
            attempt = pending[part]
            stride = (0, part, part + 1)
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
                dirty = ledger.begin_recovery(attempt.rank_id)
                if stride not in dirty:
                    dirty.append(stride)
                if n > 1:
                    self.recovered_parts += len(dirty)
                    job.parts_recovered += len(dirty)
                for key in dirty:
                    redo = self._dispatch(job, key[1], tried[key[1]])
                    ledger.adopt(key, redo.rank_id)
                    pending[key[1]] = redo
                continue
            result = rank_job.result
            assert result is not None  # a collected attempt has a result
            ledger.finish_item(
                stride, ledger.gen_of(stride), attempt.rank_id,
                int(result.count),
            )
            results[part] = result
        job.replica = attempt.rank_id
        if n == 1:
            job.result = result
            job.cached, job.coalesced = rank_job.cached, rank_job.coalesced
            job.incremental = rank_job.incremental
            job.fallback = rank_job.fallback
            return
        stats = SearchStats()
        for part_result in results.values():
            stats.merge(part_result.stats)
        job.result = MatchResult(
            count=ledger.committed_total,
            matches=None,
            time_ms=sum(r.time_ms for r in results.values()),
            cost=CostModel(self.config.device),
            stats=stats,
            order=results[0].order,
        )

    def _dispatch(self, job: Job, part: int, tried: set[int]) -> _Attempt:
        """Send ``part`` of ``job`` to the next replica: the reachable
        replicas not yet tried for this part (primary first; all of
        them again once each has been tried), strided by ``part`` so a
        split query spreads across the shard.  A replica that cannot
        take the attempt is skipped; when every one refused, an
        admission reason among the refusals surfaces machine-readably
        (429/503 on the HTTP face)."""
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
        seq = self._next_seq()
        attempt = _Attempt(
            rank_id=rank_id,
            generation=self.ranks[rank_id].generation,
            seq=seq,
            rank_job_id="",
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
                with self._lock:
                    placed = self._catalog.get(request.graph_fp)
                    is_head = placed is not None and (
                        self._names.get(placed.name) == request.graph_fp
                    )
                if placed is None or not is_head:
                    raise KeyError(
                        f"rank {rank_id} does not hold version "
                        f"{request.graph_fp[:12]}"
                    )
                self._catch_up(
                    rank, placed.name, request.graph_fp, replay=False
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
        except AdmissionError as exc:
            # A replica-local rejection (queue-full, degraded, a killed
            # incarnation's shutdown) is failover-eligible — another
            # replica may well take the work.  The cause is kept so the
            # router can surface the admission reason when *every*
            # replica rejected.
            self._revoke(attempt)
            raise RankUnavailable(
                rank_id,
                f"rank {rank_id} rejected admission ({exc.reason}): {exc}",
            ) from exc
        except Exception as exc:
            # The replica died (or was killed) under the submit, or
            # lacks the version.
            self._revoke(attempt)
            raise RankUnavailable(
                rank_id, f"rank {rank_id} refused dispatch: {exc}"
            ) from exc
        self._phase("mid-shard", rank_id, job.id)
        return attempt

    def _collect_attempt(self, job: Job, attempt: _Attempt) -> Job:
        """Wait for one routed attempt, enforcing the route timeout and
        exactly-once integration; returns the rank's settled job.
        Raises :class:`RankUnavailable` when the attempt was revoked
        (crash/partition/timeout) and :class:`JobFailed` when the
        replica answered with a failure."""
        rank = self.ranks[attempt.rank_id]
        deadline = time.monotonic() + self.config.service_route_timeout_s
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
            if (
                rank.state != LIVE
                or rank.generation != attempt.generation
            ):
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
                    f"({self.config.service_route_timeout_s}s)",
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
        with self._tracker_lock:
            if self._tracker.is_revoked(attempt.rank_id, attempt.seq):
                raise RankUnavailable(
                    attempt.rank_id,
                    f"attempt seq {attempt.seq} was revoked",
                )
            if self._tracker.is_seen(attempt.rank_id, attempt.seq):
                raise RankUnavailable(
                    attempt.rank_id,
                    f"attempt seq {attempt.seq} was already integrated",
                )
            self._tracker.mark_seen(attempt.rank_id, attempt.seq)
        if rank_job.state == DONE and rank_job.result is not None:
            return rank_job
        if rank_job.state in (FAILED, EXPIRED, CANCELLED):
            raise JobFailed(
                f"rank {attempt.rank_id} job {attempt.rank_job_id} "
                f"{rank_job.state}: {rank_job.error}"
            )
        raise RankUnavailable(
            attempt.rank_id,
            f"rank {attempt.rank_id} job {attempt.rank_job_id} settled "
            f"{rank_job.state} without a result",
        )

"""The distributed cuTS runtime: Algorithm 3 as a discrete-event run,
hardened to survive an unreliable substrate.

Every rank executes its own chunked search without synchronisation; at
chunk boundaries a busy rank checks whether some rank has broadcast
"free" and, if so, ships it roughly half of its pending work together
with the trie prefix (the paper's mini asynchronous protocol, with the
pairing rule "only one busy node sends data to a given free node, and a
given busy node only sends data to one free node").

The event loop always advances the actionable rank with the smallest
simulated clock, so causality is respected: a rank can only be seen as
free by ranks whose clocks have passed its free-broadcast arrival.

Reliability layer (on by default, ``reliable=False`` restores the
idealized seed protocol):

* every ``work`` message is a sequence-numbered
  :class:`~repro.distributed.protocol.WorkEnvelope`; receivers ack and
  deduplicate by ``(src, seq)``, senders keep an in-flight ledger and
  retransmit with exponential backoff after ``ACK_TIMEOUT_MS``; when the
  retry budget runs out the sender requeues the work locally and the
  claim on the free rank is released instead of leaking;
* ranks heartbeat every ``HEARTBEAT_INTERVAL_MS``; a rank silent for
  ``HEARTBEAT_TIMEOUT_MS`` is declared crashed, its unacked shipments
  are requeued from the sender ledgers, and every root interval it
  touched is re-executed from scratch on the detecting rank (per-interval
  accounting lives in :class:`~repro.distributed.protocol.StrideLedger`),
  so the final count is exact whenever at least one rank survives;
* faults (message drop/duplicate/delay, rank crash/straggler) come from
  a seeded :class:`~repro.distributed.faults.FaultPlan`.

The reproduction target is Figure 4 (speedup over one node at 2/4 nodes)
and Figure 5 (per-node runtimes T1..T4 under load balancing).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..checkpoint.store import CheckpointStore, job_fingerprints
from ..core.config import CuTSConfig
from ..graph.csr import CSRGraph
from .comm import NetworkModel, SimComm
from .faults import FaultInjector, FaultPlan
from .protocol import (
    FreeNodeRegistry,
    MsgType,
    Shipment,
    ShipmentTracker,
    StrideLedger,
    WorkEnvelope,
)
from .worker import RankWorker

__all__ = ["DistributedResult", "DistributedCuTS"]

ACK_TIMEOUT_MS = 50.0
"""Grace period past the modeled round trip before a sender retransmits
an unacknowledged work envelope."""
RETRY_BACKOFF = 2.0
"""Multiplier on the retransmit interval after each attempt."""
MAX_RETRIES = 6
"""Retransmissions before a sender abandons a shipment, requeues the
work locally and releases its claim on the target."""
HEARTBEAT_INTERVAL_MS = 25.0
"""Simulated-time spacing of rank liveness heartbeats."""
HEARTBEAT_TIMEOUT_MS = 100.0
"""Silence past which a rank is declared crashed and recovery runs."""


@dataclass(frozen=True)
class DistributedResult:
    """Outcome of one distributed search.

    ``faults_injected``/``retransmissions``/``ranks_failed``/
    ``recovered_chunks`` report the fault-tolerance machinery's work;
    they are all zero on a clean run.  ``chunk_halvings`` sums the
    ranks' memory-governor halvings (zero without a memory budget).
    """

    count: int
    runtime_ms: float
    per_rank_clock_ms: tuple[float, ...]
    per_rank_busy_ms: tuple[float, ...]
    chunks_processed: tuple[int, ...]
    work_transfers: int
    words_transferred: int
    faults_injected: int = 0
    retransmissions: int = 0
    ranks_failed: int = 0
    recovered_chunks: int = 0
    chunk_halvings: int = 0

    @property
    def num_ranks(self) -> int:
        return len(self.per_rank_clock_ms)

    @property
    def busy_imbalance(self) -> float:
        """Max-over-mean of per-rank busy time (Figure 5's statistic)."""
        busy = np.asarray(self.per_rank_busy_ms)
        mean = busy.mean()
        return float(busy.max() / mean) if mean > 0 else 1.0


class DistributedCuTS:
    """Multi-rank cuTS over a simulated cluster.

    Parameters
    ----------
    data:
        The data graph (replicated on every rank, as in the paper).
    num_ranks:
        Cluster size (the paper evaluates 1, 2 and 4 V100 nodes).
    config:
        Per-rank engine configuration.
    network:
        Interconnect cost model.
    fault_plan:
        Optional seeded fault schedule (requires ``reliable=True``).
    reliable:
        When ``False``, run the seed's idealized protocol with no acks,
        heartbeats, or ledgers — kept for the overhead benchmark and as
        an escape hatch on a substrate known to be lossless.
    memory_budget_mb:
        Each rank engine's memory budget (see
        :class:`~repro.core.matcher.CuTSMatcher`).
    """

    def __init__(
        self,
        data: CSRGraph,
        num_ranks: int,
        config: CuTSConfig | None = None,
        network: NetworkModel | None = None,
        *,
        steal_fraction: float = 0.5,
        steal_order: str = "shallow",
        fault_plan: FaultPlan | None = None,
        reliable: bool = True,
        memory_budget_mb: int = 0,
    ) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if fault_plan is not None and not reliable:
            raise ValueError("fault injection requires the reliable runtime")
        self.data = data
        self.num_ranks = num_ranks
        self.config = config or CuTSConfig()
        self.network = network or NetworkModel()
        self.steal_fraction = steal_fraction
        self.steal_order = steal_order
        self.fault_plan = fault_plan
        self.reliable = reliable
        self.memory_budget_mb = memory_budget_mb

    def match(
        self,
        query: CSRGraph,
        *,
        max_events: int = 10_000_000,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 64,
        resume: bool = False,
    ) -> DistributedResult:
        """Run the distributed search to completion.

        With ``checkpoint_dir``, the :class:`StrideLedger`'s committed
        intervals — the exact, crash-immune portion of the count — are
        snapshotted every ``checkpoint_every`` event-loop
        iterations (and before the ``max_events`` safety valve trips).
        ``resume=True`` preloads those intervals and re-executes only
        the uncommitted gaps of each rank's root partition, reaching the
        same final count as an uninterrupted run.
        """
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        store: CheckpointStore | None = None
        preloaded: list[tuple[int, int, int, int]] = []
        next_seq = 0
        if checkpoint_dir is not None:
            if not self.reliable:
                raise ValueError(
                    "checkpointing requires the reliable runtime "
                    "(the StrideLedger is the durable state)"
                )
            store, manifest = CheckpointStore.open_job(
                checkpoint_dir,
                job_fingerprints(
                    self.config, self.data, query,
                    mode="distributed", num_ranks=self.num_ranks,
                ),
                resume=resume,
            )
            if manifest is not None and manifest.get("complete"):
                stored = dict(manifest["result"])
                for key in (
                    "per_rank_clock_ms", "per_rank_busy_ms",
                    "chunks_processed",
                ):
                    stored[key] = tuple(stored[key])
                return DistributedResult(**stored)
            snap = store.load_latest_snapshot()
            if snap is not None:
                seq, _buffers, meta = snap
                next_seq = seq + 1
                preloaded = [
                    (int(o), int(lo), int(hi), int(c))
                    for o, lo, hi, c in meta["committed"]
                ]
        injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.is_null
            else None
        )
        self._injector = injector
        comm = SimComm(self.num_ranks, self.network, injector)
        registry = FreeNodeRegistry(self.num_ranks)
        tracker = ShipmentTracker()
        ledger = StrideLedger() if self.reliable else None
        self._dead: set[int] = set()
        self._failed: set[int] = set()
        self._requeued_chunks = 0
        self._next_hb = [HEARTBEAT_INTERVAL_MS] * self.num_ranks
        workers = [
            RankWorker(
                rank=r,
                data=self.data,
                query=query,
                config=self.config,
                steal_fraction=self.steal_fraction,
                steal_order=self.steal_order,
                slowdown=injector.slowdown(r) if injector else 1.0,
                ledger=ledger,
                memory_budget_mb=self.memory_budget_mb,
            )
            for r in range(self.num_ranks)
        ]
        if preloaded:
            assert ledger is not None
            ledger.preload_committed(preloaded)
        committed_by_rank: dict[int, list[tuple[int, int]]] = {}
        for origin, lo, hi, _count in preloaded:
            committed_by_rank.setdefault(origin, []).append((lo, hi))
        for w in workers:
            w.init_partition(
                self.num_ranks, committed=committed_by_rank.get(w.rank)
            )
            if not w.has_work():
                registry.announce_free(w.rank, w.clock_ms)
                comm.broadcast(w.rank, MsgType.FREE, None, 1, w.clock_ms)

        def snapshot() -> None:
            nonlocal next_seq
            assert store is not None and ledger is not None
            store.save_snapshot(
                next_seq,
                [],
                {
                    "committed": [
                        list(iv) for iv in ledger.committed_intervals()
                    ],
                    "committed_total": ledger.committed_total,
                    "events": events,
                },
            )
            next_seq += 1
            store.prune_snapshots(keep=2)

        events = 0
        while True:
            if ledger is not None and ledger.all_committed():
                break
            if events >= max_events:
                # Snapshot-then-raise: the safety valve doubles as the
                # in-process kill analogue for resume testing — whatever
                # was committed so far survives.
                if store is not None:
                    snapshot()
                raise RuntimeError("distributed event loop exceeded max_events")
            actor = self._next_actor(workers, comm, tracker)
            if actor is None:
                break
            events += 1
            if store is not None and events % checkpoint_every == 0:
                snapshot()
            w, wake_time = actor
            w.clock_ms = max(w.clock_ms, wake_time)
            if self.reliable:
                self._maybe_heartbeat(w, comm)
                self._service_shipments(w, comm, tracker, registry)
                self._detect_failures(
                    w, workers, comm, tracker, registry, ledger
                )
            if not w.has_work():
                # Idle rank waking up to receive shipped work (or to
                # heartbeat / service its in-flight ledger).
                self._drain_work(w, comm, registry, tracker)
                continue
            w.process_one_chunk()
            self._drain_work(w, comm, registry, tracker)  # opportunistic
            if w.has_work() and w.has_surplus():
                target = registry.claim_free(w.rank, w.clock_ms)
                if target is not None:
                    self._ship(w, target, comm, tracker, registry)
            if not w.has_work():
                registry.announce_free(w.rank, w.clock_ms)
                comm.broadcast(w.rank, MsgType.FREE, None, 1, w.clock_ms)

        if ledger is not None:
            count = ledger.committed_total
            recovered = ledger.recovered_intervals + self._requeued_chunks
        else:
            count = sum(wk.count for wk in workers)
            recovered = 0
        faults = 0
        if injector is not None:
            faults = (
                injector.message_faults
                + len(self._dead)
                + len(injector.plan.slowdown)
            )
        result = DistributedResult(
            count=count,
            runtime_ms=max(wk.clock_ms for wk in workers),
            per_rank_clock_ms=tuple(wk.clock_ms for wk in workers),
            per_rank_busy_ms=tuple(wk.busy_ms for wk in workers),
            chunks_processed=tuple(wk.chunks_processed for wk in workers),
            work_transfers=registry.transfers,
            words_transferred=comm.words_sent,
            faults_injected=faults,
            retransmissions=tracker.retransmissions,
            ranks_failed=len(self._dead),
            recovered_chunks=recovered,
            chunk_halvings=sum(
                wk.state.governor.chunk_halvings for wk in workers
            ),
        )
        if store is not None:
            store.finish_job(result=asdict(result))
        return result

    # ------------------------------------------------------------------
    def _crash_time(self, rank: int) -> float | None:
        return self._injector.crash_time(rank) if self._injector else None

    def _next_actor(
        self, workers: list[RankWorker], comm: SimComm, tracker: ShipmentTracker
    ) -> tuple[RankWorker, float] | None:
        """The live rank with the earliest next action (work, message
        arrival, heartbeat, or retransmit deadline).

        A rank whose next action would start at or past its planned crash
        time is marked dead instead of acting — crashes take effect at
        chunk boundaries.
        """
        best: tuple[float, int, RankWorker] | None = None
        for w in workers:
            if w.rank in self._dead:
                continue
            if w.has_work():
                wake = w.clock_ms
            else:
                times = []
                pending = comm.peek(w.rank, tag=MsgType.WORK)
                if pending:
                    times.append(min(m.arrival_time for m in pending))
                if self.reliable:
                    times.append(self._next_hb[w.rank])
                    deadline = tracker.next_deadline_from(w.rank)
                    if deadline is not None:
                        times.append(deadline)
                if not times:
                    continue
                wake = max(w.clock_ms, min(times))
            crash = self._crash_time(w.rank)
            if crash is not None and wake >= crash:
                self._dead.add(w.rank)
                continue
            if best is None or (wake, w.rank) < best[:2]:
                best = (wake, w.rank, w)
        if best is None:
            return None
        return best[2], best[0]

    # ------------------------------------------------------------------
    def _maybe_heartbeat(self, w: RankWorker, comm: SimComm) -> None:
        if w.clock_ms >= self._next_hb[w.rank]:
            comm.broadcast(w.rank, MsgType.HEARTBEAT, None, 0, w.clock_ms)
            self._next_hb[w.rank] = w.clock_ms + HEARTBEAT_INTERVAL_MS

    def _service_shipments(
        self,
        w: RankWorker,
        comm: SimComm,
        tracker: ShipmentTracker,
        registry: FreeNodeRegistry,
    ) -> None:
        """Drain acks for ``w``'s shipments, then retransmit or abandon
        anything overdue."""
        for msg in comm.receive(w.rank, w.clock_ms, tag=MsgType.ACK):
            tracker.ack(w.rank, msg.payload)
        for ship in tracker.entries_from(w.rank):
            if ship.next_retry_ms > w.clock_ms:
                continue
            src, seq = ship.key
            if ship.attempts >= MAX_RETRIES:
                # Retry budget exhausted.  Unless the receiver provably
                # integrated the envelope (only the acks were lost), take
                # the work back and free the claimed rank for others.
                tracker.in_flight.pop(ship.key, None)
                if not tracker.is_seen(src, seq):
                    tracker.revoke(src, seq)
                    requeued = w.requeue_buffers(
                        ship.envelope.buffers, ship.envelope.metas
                    )
                    registry.release_claim(w.rank, ship.dst)
                    self._requeued_chunks += requeued
                continue
            comm.send(
                w.rank, ship.dst, MsgType.WORK, ship.envelope,
                ship.envelope.words, w.clock_ms,
            )
            ship.attempts += 1
            ship.next_retry_ms = w.clock_ms + ship.retry_interval_ms * (
                RETRY_BACKOFF ** ship.attempts
            )
            tracker.retransmissions += 1

    def _detect_failures(
        self,
        w: RankWorker,
        workers: list[RankWorker],
        comm: SimComm,
        tracker: ShipmentTracker,
        registry: FreeNodeRegistry,
        ledger: StrideLedger,
    ) -> None:
        """Declare ranks whose heartbeats stopped past the timeout.

        The heartbeat sender is modeled as a background thread that beats
        until the crash instant, so a rank is suspected exactly when the
        observer's clock passes ``crash_time + HEARTBEAT_TIMEOUT_MS``
        (deep in a long chunk a rank still beats — no false positives).
        """
        if self._injector is None:
            return
        for r in sorted(self._dead):
            if r in self._failed:
                continue
            crash = self._injector.crash_time(r)
            if crash is None or w.clock_ms - crash <= HEARTBEAT_TIMEOUT_MS:
                continue
            self._recover(r, w, workers, comm, tracker, registry, ledger)

    def _recover(
        self,
        r: int,
        detector: RankWorker,
        workers: list[RankWorker],
        comm: SimComm,
        tracker: ShipmentTracker,
        registry: FreeNodeRegistry,
        ledger: StrideLedger,
    ) -> None:
        """Recover from the crash of rank ``r`` (observed by ``detector``).

        1. invalidate every uncommitted root interval the dead rank
           touched (generation bump discards stale in-flight work);
        2. purge descendants of those intervals from surviving stacks;
        3. reconcile the shipment ledgers: unacked work shipped *to* the
           dead rank is requeued at its (live) senders, the dead rank's
           own in-flight shipments are dropped (their intervals are dirty
           by construction);
        4. re-execute the dirty intervals from the root on the detector —
           normal work stealing then redistributes the load.
        """
        self._failed.add(r)
        registry.drop_rank(r)
        dirty = set(ledger.begin_recovery(r))
        for wk in workers:
            if wk.rank in self._dead:
                continue
            had_work = wk.has_work()
            wk.purge_intervals(dirty)
            if had_work and not wk.has_work():
                registry.announce_free(wk.rank, wk.clock_ms)
                comm.broadcast(wk.rank, MsgType.FREE, None, 1, wk.clock_ms)
        for ship in tracker.entries_to(r):
            tracker.in_flight.pop(ship.key, None)
            src, seq = ship.key
            if tracker.is_seen(src, seq):
                continue  # integrated pre-crash; covered by the dirty set
            tracker.revoke(src, seq)
            if src in self._dead:
                continue  # sender died too; its own recovery covers this
            srcw = workers[src]
            requeued = srcw.requeue_buffers(
                ship.envelope.buffers, ship.envelope.metas
            )
            registry.release_claim(src, r)
            self._requeued_chunks += requeued
            if requeued and srcw.has_work():
                registry.mark_busy(src)
        for ship in tracker.entries_from(r):
            tracker.in_flight.pop(ship.key, None)
            src, seq = ship.key
            if not tracker.is_seen(src, seq):
                tracker.revoke(src, seq)
        if dirty:
            detector.adopt_root_intervals(sorted(dirty))
            if detector.has_work():
                registry.mark_busy(detector.rank)

    # ------------------------------------------------------------------
    def _drain_work(
        self,
        w: RankWorker,
        comm: SimComm,
        registry: FreeNodeRegistry,
        tracker: ShipmentTracker,
    ) -> None:
        """Deliver any work messages that have arrived at ``w``."""
        msgs = comm.receive(w.rank, w.clock_ms, tag=MsgType.WORK)
        for msg in msgs:
            env: WorkEnvelope = msg.payload
            if not self.reliable:
                w.receive_work(list(env.buffers))
                registry.mark_busy(w.rank)
                continue
            comm.send(w.rank, env.src, MsgType.ACK, env.seq, 0, w.clock_ms)
            if tracker.is_seen(env.src, env.seq) or tracker.is_revoked(
                env.src, env.seq
            ):
                continue  # duplicate or revoked: ack again, integrate never
            tracker.mark_seen(env.src, env.seq)
            if w.integrate_envelope(env) > 0:
                registry.mark_busy(w.rank)

    def _ship(
        self,
        src: RankWorker,
        dst_rank: int,
        comm: SimComm,
        tracker: ShipmentTracker,
        registry: FreeNodeRegistry,
    ) -> None:
        """Serialize and send ~half of ``src``'s work to ``dst_rank``."""
        buffers, metas = src.pop_surplus_with_meta()
        if not buffers:
            # The claim made in match() must not leak: without buffers the
            # free rank would stay claimed forever and the transfer
            # counter would over-count.
            registry.release_claim(src.rank, dst_rank)
            return
        words = int(sum(len(b) for b in buffers))
        env = WorkEnvelope(
            seq=tracker.next_seq() if self.reliable else 0,
            src=src.rank,
            buffers=tuple(buffers),
            metas=tuple(metas),
            words=words,
        )
        comm.send(src.rank, dst_rank, MsgType.WORK, env, words, src.clock_ms)
        if self.reliable:
            # First retry after the modeled round trip plus the grace
            # timeout; exponential backoff after that.
            interval = (
                self.network.transfer_ms(words)
                + self.network.transfer_ms(0)
                + ACK_TIMEOUT_MS
            )
            tracker.register(
                Shipment(
                    envelope=env,
                    dst=dst_rank,
                    first_sent_ms=src.clock_ms,
                    next_retry_ms=src.clock_ms + interval,
                    retry_interval_ms=interval,
                )
            )
        # The send itself is asynchronous; the sender only pays the
        # injection overhead.
        src.clock_ms += self.network.latency_ms

"""Per-rank worker: a chunked, stealable cuTS search.

Each rank owns a full copy of the data graph (paper §4.2 — only partial
paths move between nodes), a simulated device, and a
:class:`~repro.core.executor.FrontierExecutor` in its bounded mode: a
LIFO stack of :class:`WorkItem` chunks, each popped frontier cut at the
governor's chunk size.  Popping from the deep end gives the DFS side of
the hybrid scan (bounded memory); every processed chunk is a natural
point to check for free ranks, exactly Algorithm 3's chunk loop.

Work shipping uses structural sharing: a :class:`~repro.storage.trie
.PathTrie` level list is immutable, so a child work item extends its
parent's trie by one level without copying, and
:meth:`~repro.storage.trie.PathTrie.extract_subtrie` +
:func:`~repro.storage.serialize.serialize_trie` produce the flat buffer
that "sends the trie along with the work".  Shipped items arrive
without carried state and rebuild it once from their trie.

Fault tolerance: every work item's tag is its provenance — the
contiguous interval ``[lo, hi)`` of its origin rank's root-candidate
rows it descends from, plus a re-execution generation (the
:class:`~repro.distributed.protocol.BufferMeta` it ships with).  Root frontiers
are only ever sliced contiguously (chunk peels, halvings and surplus
splits all go through :meth:`RankWorker._split_item` and take
prefixes), so the mapping stays exact and the runtime's
:class:`~repro.distributed.protocol.StrideLedger` can account for every
embedding per interval.  When a rank dies, its intervals are purged
everywhere (:meth:`purge_intervals`) and re-executed from the root on a
survivor (:meth:`adopt_root_intervals`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.config import CuTSConfig
from ..core.executor import FrontierExecutor, FrontierItem
from ..core.matcher import CuTSMatcher
from ..graph.csr import CSRGraph
from ..storage.serialize import deserialize_trie, serialize_trie
from ..storage.trie import PathTrie
from .protocol import BufferMeta, StrideKey, StrideLedger, WorkEnvelope

__all__ = ["WorkItem", "RankWorker"]

WorkItem = FrontierItem
"""A frontier chunk awaiting expansion; its ``tag`` is its
:class:`~repro.distributed.protocol.BufferMeta` provenance."""


def _interval_gaps(
    roots: int, committed: list[tuple[int, int]] | None
) -> list[tuple[int, int]]:
    """The sub-intervals of ``[0, roots)`` not covered by ``committed``."""
    if not committed:
        return [(0, roots)]
    gaps: list[tuple[int, int]] = []
    cursor = 0
    for lo, hi in sorted(committed):
        lo, hi = max(0, int(lo)), min(roots, int(hi))
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < roots:
        gaps.append((cursor, roots))
    return gaps


_UNTRACKED = BufferMeta(origin=-1, lo=0, hi=0, gen=0)
"""The tag of an item outside any ledger (standalone worker use)."""


def _provenance(item: WorkItem) -> BufferMeta:
    tag = item.tag
    return tag if isinstance(tag, BufferMeta) else _UNTRACKED


@dataclass
class RankWorker:
    """One simulated compute node of the distributed run.

    ``steal_fraction`` controls how much pending work a busy rank ships
    to a free one (paper: "a portion of its work"; default half).
    ``steal_order`` picks which end of the stack is shipped: ``"shallow"``
    (big subtrees, the default — they amortise the transfer) or
    ``"deep"`` (small, nearly-finished chunks; kept for the ablation).
    ``slowdown`` is a straggler factor (>= 1) applied to every compute
    advance; ``ledger`` wires the worker into the runtime's per-interval
    accounting (``None`` keeps the seed's untracked behaviour).
    """

    rank: int
    data: CSRGraph
    query: CSRGraph
    config: CuTSConfig
    steal_fraction: float = 0.5
    steal_order: str = "shallow"
    clock_ms: float = 0.0
    busy_ms: float = 0.0
    count: int = 0
    chunks_processed: int = 0
    chunks_received: int = 0
    chunks_sent: int = 0
    slowdown: float = 1.0
    ledger: StrideLedger | None = None
    executor: FrontierExecutor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.steal_fraction < 1.0:
            raise ValueError("steal_fraction must be in (0, 1)")
        if self.steal_order not in ("shallow", "deep"):
            raise ValueError("steal_order must be 'shallow' or 'deep'")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        self.matcher = CuTSMatcher(self.data, self.config)
        self.state = self.matcher.make_run_state(self.query)
        self.executor = FrontierExecutor(
            self.matcher, self.state, self._sink,
            split=self._split_item, peel_chunk=self.config.chunk_size,
        )
        self._num_steps = self.state.order.num_steps
        self._num_parts = 1

    @property
    def stack(self) -> list[WorkItem]:
        """The executor's LIFO work stack (top = deep end)."""
        return self.executor.stack

    # ------------------------------------------------------------------
    def init_partition(
        self,
        num_ranks: int,
        committed: list[tuple[int, int]] | None = None,
    ) -> None:
        """``init_match``: compute root candidates, keep the rank stride.

        ``committed`` lists ``(lo, hi)`` root-row intervals of *this*
        rank's partition already committed by a previous run (checkpoint
        resume); only the gaps between them are opened and executed.
        The resumed run's fingerprints guarantee the root set is
        identical, so gap rows map onto exactly the unexplored subtrees.
        """
        self._num_parts = num_ranks
        t0 = self.state.cost.time_ms
        trie = self.matcher.initial_frontier(
            self.state, part=self.rank, num_parts=num_ranks
        )
        self._advance(t0)
        roots = trie.num_paths(0)
        if roots == 0:
            return
        for lo, hi in _interval_gaps(roots, committed):
            prov = BufferMeta(origin=self.rank, lo=lo, hi=hi, gen=0)
            if self.ledger is not None:
                self.ledger.open(prov.key, self.rank)
            self._push_root(trie, prov)

    def _push_root(self, trie: PathTrie, prov: BufferMeta) -> None:
        """Queue root rows ``[lo, hi)`` (or count them outright for a
        single-vertex query)."""
        if self._num_steps == 1:
            self.count += prov.hi - prov.lo
            if self.ledger is not None:
                self.ledger.finish_item(
                    prov.key, prov.gen, self.rank, prov.hi - prov.lo
                )
            return
        self.stack.append(
            WorkItem(trie, 1, np.arange(prov.lo, prov.hi, dtype=np.int64),
                     tag=prov)
        )

    def has_work(self) -> bool:
        return bool(self.stack)

    # ------------------------------------------------------------------
    def _split_item(self, item: WorkItem, at: int) -> tuple[WorkItem, WorkItem]:
        """Split ``item``'s frontier at position ``at`` into (head, tail),
        keeping the per-interval ledger accounting exact.  The executor
        calls this for every chunk peel and halving; steals call it too."""
        head, tail = item.split(at)
        prov = _provenance(item)
        if item.step == 1 and prov.origin >= 0:
            # Root-level split: positions map 1:1 onto root rows, so the
            # interval subdivides at lo + at.
            mid = prov.lo + at
            if self.ledger is not None:
                self.ledger.split_root(prov.key, mid, prov.gen, self.rank)
            head.tag = replace(prov, hi=mid)
            tail.tag = replace(prov, lo=mid)
        elif self.ledger is not None and prov.origin >= 0:
            # Deeper split: both halves stay in the same interval; one
            # logical item became two.
            self.ledger.add_pending(prov.key, prov.gen, 1)
        return head, tail

    def _sink(
        self, item: WorkItem, found: int, rows: np.ndarray | None
    ) -> None:
        """An item ended with ``found`` embeddings (0 = dead end)."""
        self.count += found
        prov = _provenance(item)
        if self.ledger is not None and prov.origin >= 0:
            self.ledger.finish_item(prov.key, prov.gen, self.rank, found)

    def process_one_chunk(self) -> None:
        """Run one expansion: pop the top item (peeling a chunk of at
        most ``effective_chunk(chunk_size)`` paths) and expand it one
        level."""
        if not self.stack:
            raise RuntimeError(f"rank {self.rank} has no work")
        t0 = self.state.cost.time_ms
        self.executor.step()
        self._advance(t0)
        self.chunks_processed += 1

    def _advance(self, t0: float) -> None:
        dt = (self.state.cost.time_ms - t0) * self.slowdown
        self.clock_ms += dt
        self.busy_ms += dt

    # ------------------------------------------------------------------
    # Work shipping
    # ------------------------------------------------------------------
    def has_surplus(self) -> bool:
        """Whether this rank can spare work for a free node."""
        return len(self.stack) > 1 or (
            len(self.stack) == 1
            and self.stack[0].frontier.size > self.config.chunk_size
        )

    def _pop_surplus_items(self) -> list[WorkItem]:
        """Extract ~``steal_fraction`` of pending work as work items."""
        stack = self.stack
        if not stack:
            return []
        if len(stack) == 1:
            # Split the lone item's frontier.
            item = stack.pop()
            give_n = max(1, int(item.frontier.size * self.steal_fraction))
            give_n = min(give_n, item.frontier.size - 1)
            give, keep = self._split_item(item, give_n)
            stack.append(keep)
            return [give]
        num_give = max(1, int(len(stack) * self.steal_fraction))
        num_give = min(num_give, len(stack) - 1)
        if self.steal_order == "shallow":
            outgoing = stack[:num_give]  # big subtrees
            del stack[:num_give]
        else:
            outgoing = stack[-num_give:]  # nearly-done chunks
            del stack[-num_give:]
        return outgoing

    def pop_surplus_with_meta(
        self,
    ) -> tuple[list[np.ndarray], list[BufferMeta]]:
        """Serialise surplus work, returning buffers plus provenance."""
        outgoing = self._pop_surplus_items()
        buffers = [
            serialize_trie(
                item.trie.extract_subtrie(item.trie.depth - 1, item.frontier)
            )
            for item in outgoing
        ]
        self.chunks_sent += len(buffers)
        return buffers, [_provenance(item) for item in outgoing]

    def pop_surplus(self) -> list[np.ndarray]:
        """Extract ~``steal_fraction`` of pending work as serialised trie
        buffers.

        Returns flat int64 buffers; the matching steps are implicit
        (``trie.depth`` of each buffer).
        """
        return self.pop_surplus_with_meta()[0]

    def receive_work(self, buffers: list[np.ndarray]) -> None:
        """Integrate shipped tries: "adjust depth and other parameters and
        begin processing of received work" (Algorithm 3)."""
        for buf in buffers:
            self._integrate_buffer(buf, None, count_received=True)

    def integrate_envelope(self, envelope: WorkEnvelope) -> int:
        """Integrate a reliable work envelope; returns items added.

        Buffers whose interval generation is stale (the interval was
        re-executed after a crash) are discarded — their logical work
        already restarted from the root elsewhere.
        """
        added = 0
        for buf, meta in zip(envelope.buffers, envelope.metas):
            added += self._integrate_buffer(buf, meta, count_received=True)
        return added

    def requeue_buffers(
        self, buffers: tuple[np.ndarray, ...], metas: tuple[BufferMeta, ...]
    ) -> int:
        """Take back work from an abandoned shipment (retry budget spent
        or destination dead); the sender still owns the ledger copy."""
        added = 0
        for buf, meta in zip(buffers, metas):
            added += self._integrate_buffer(buf, meta, count_received=False)
        return added

    def _integrate_buffer(
        self, buf: np.ndarray, meta: BufferMeta | None, *, count_received: bool
    ) -> int:
        if meta is not None and self.ledger is not None:
            if meta.origin >= 0 and not self.ledger.accepts(meta.key, meta.gen):
                self.ledger.stale_discards += 1
                return 0
        trie = deserialize_trie(buf)
        frontier = np.arange(trie.num_paths(), dtype=np.int64)
        prov = _UNTRACKED if meta is None else meta
        tracked = prov.origin >= 0 and self.ledger is not None
        if frontier.size == 0:
            if tracked:
                self.ledger.finish_item(prov.key, prov.gen, self.rank, 0)
            return 0
        # An item already at the last step is counted by the executor.
        self.stack.append(WorkItem(trie, trie.depth, frontier, tag=prov))
        if tracked:
            self.ledger.add_holder(prov.key, prov.gen, self.rank)
        if count_received:
            self.chunks_received += 1
        return 1

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def purge_intervals(self, dirty: set[StrideKey]) -> int:
        """Drop stack items descending from invalidated intervals."""
        stack = self.stack
        before = len(stack)
        stack[:] = [it for it in stack if _provenance(it).key not in dirty]
        return before - len(stack)

    def adopt_root_intervals(self, keys: list[StrideKey]) -> None:
        """Re-execute invalidated root intervals on this (surviving) rank.

        Recomputes the origin partition's root frontier (charged to this
        rank's clock — recovery is not free) and pushes one fresh root
        item per interval at the ledger's bumped generation.
        """
        if self.ledger is None:
            raise RuntimeError("adopt_root_intervals requires a ledger")
        by_origin: dict[int, list[StrideKey]] = {}
        for key in keys:
            by_origin.setdefault(key[0], []).append(key)
        for origin, group in sorted(by_origin.items()):
            t0 = self.state.cost.time_ms
            trie = self.matcher.initial_frontier(
                self.state, part=origin, num_parts=self._num_parts
            )
            self._advance(t0)
            for key in sorted(group):
                _, lo, hi = key
                gen = self.ledger.adopt(key, self.rank)
                self._push_root(
                    trie, BufferMeta(origin=origin, lo=lo, hi=hi, gen=gen)
                )

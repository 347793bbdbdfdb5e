"""The durable job runner: checkpointed, resumable enumeration.

A client of :class:`~repro.core.executor.FrontierExecutor` in its
bounded mode (every popped frontier is cut at the governor's chunk size,
so a snapshot never waits on more than one chunk's expansion).  The
runner steps the executor one fused expansion at a time — counts are
exactly those of :meth:`CuTSMatcher.match` — and between steps
snapshots the executor's stack to a
:class:`~repro.checkpoint.store.CheckpointStore` every
``checkpoint_every`` expansions.

Each stack item ``(trie, step, frontier)`` is snapshotted as a
*self-contained* sub-trie (``extract_subtrie`` + the wire format of
:mod:`repro.storage.serialize`), so a snapshot is independent of any
in-memory state: a SIGKILL at any instant loses at most the work done
since the last committed snapshot, and a resumed run replays exactly
the remaining stack.  Partial counts and statistics ride in the
snapshot's meta block; modeled ``time_ms`` accumulates across restarts
(the replayed expansions are charged in the run that actually executes
them, so a resumed job's modeled time can differ slightly from an
uninterrupted run's — counts never do).

The memory governor integrates at two points: chunk sizes come from
:meth:`~repro.core.governor.MemoryGovernor.effective_chunk` (inside the
executor), and past the high-water mark pending stack items are
**spilled** to the store (shallowest first — the biggest remainders)
instead of the run aborting.  The runner feeds the governor the
ship-equivalent footprint of the in-memory stack after every step, so
those two decisions see the stack, not the executor's trie words.
Spilled items always form the bottom of the stack; they are kept apart
from the executor's stack and reloaded when it runs dry.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..core.executor import FrontierExecutor, FrontierItem
from ..core.matcher import CuTSMatcher
from ..core.result import MatchResult
from ..core.stats import SearchStats
from ..graph.csr import CSRGraph
from ..storage.serialize import deserialize_trie, serialize_trie
from .store import CheckpointStore, job_fingerprints

__all__ = ["run_durable"]


@dataclass
class _SpillItem:
    """A work item evicted to the checkpoint store."""

    name: str
    step: int
    words: int


def _item_words(item: FrontierItem) -> int:
    """Ship-equivalent footprint of one work item (trie + frontier)."""
    return item.words + int(item.frontier.size)


class _Packer:
    """Serializes items as self-contained sub-trie buffers, caching each
    item's buffer for as long as the item lives: items are immutable
    once pushed, so a buffer computed for one snapshot is reused
    verbatim by the next — only items created since the last snapshot
    pay serialization."""

    def __init__(self) -> None:
        self._cache: weakref.WeakKeyDictionary[FrontierItem, np.ndarray] = (
            weakref.WeakKeyDictionary()
        )

    def pack(self, item: FrontierItem) -> np.ndarray:
        buf = self._cache.get(item)
        if buf is None:
            sub = item.trie.extract_subtrie(item.trie.depth - 1, item.frontier)
            buf = self._cache[item] = serialize_trie(sub)
        return buf

    def unpack(self, buffer: np.ndarray, step: int) -> FrontierItem:
        """Rebuild a work item from a buffer :meth:`pack` produced."""
        trie = deserialize_trie(buffer)
        item = FrontierItem(
            trie, step, np.arange(trie.num_paths(), dtype=np.int64)
        )
        self._cache[item] = buffer
        return item


def run_durable(
    matcher: CuTSMatcher,
    query: CSRGraph,
    *,
    checkpoint_dir: str,
    checkpoint_every: int = 64,
    resume: bool = False,
    part: int = 0,
    num_parts: int = 1,
) -> MatchResult:
    """Run (or resume) a checkpointed count of ``query``'s embeddings.

    Parameters
    ----------
    matcher:
        The engine bound to the data graph.
    query:
        The query graph.
    checkpoint_dir:
        Directory for the job's manifest/snapshots; created if missing.
        A directory that already holds a job can only be reopened with
        ``resume=True`` (and matching fingerprints).
    checkpoint_every:
        Snapshot cadence in fused expansions.
    resume:
        Continue from the newest committed snapshot.  A job whose
        manifest is already marked complete returns its stored result
        without re-running anything.
    part, num_parts:
        Root-interval striding, as in :meth:`CuTSMatcher.match`.

    Returns
    -------
    A count-only :class:`MatchResult` (checkpointed runs do not
    materialise embeddings).
    """
    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")
    if not 0 <= part < num_parts:
        raise ValueError("need 0 <= part < num_parts")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")

    store, manifest = CheckpointStore.open_job(
        checkpoint_dir,
        job_fingerprints(
            matcher.config, matcher.data, query, shard=f"{part}/{num_parts}"
        ),
        resume=resume,
        part=part,
        num_parts=num_parts,
    )
    if manifest is not None and manifest.get("complete"):
        return _completed_result(matcher, manifest)

    state = matcher.make_run_state(query)
    order = tuple(state.order.sequence)
    shards = (part,) if num_parts > 1 else ()

    base_count = 0
    base_time_ms = 0.0
    base_stats = SearchStats()
    count = 0

    def sink(_item: FrontierItem, found: int, rows: np.ndarray | None) -> None:
        nonlocal count
        count += found

    executor = FrontierExecutor(
        matcher, state, sink, peel_chunk=matcher.config.chunk_size
    )
    stack = executor.stack
    spilled: list[_SpillItem] = []
    packer = _Packer()
    next_seq = 0
    spill_seq = 0

    snapshot = store.load_latest_snapshot() if manifest is not None else None
    if snapshot is not None:
        seq, buffers, meta = snapshot
        next_seq = seq + 1
        base_count = int(meta["count"])
        base_time_ms = float(meta["time_ms"])
        base_stats = SearchStats.from_json(meta["stats"])
        spill_seq = int(meta.get("spill_seq", 0))
        for entry in meta["layout"]:
            step = int(entry["step"])
            if entry["kind"] == "mem":
                stack.append(packer.unpack(buffers[int(entry["i"])], step))
            else:
                spilled.append(
                    _SpillItem(
                        name=str(entry["name"]), step=step,
                        words=int(entry["words"]),
                    )
                )
    else:
        # Fresh start (or resume before the first snapshot committed).
        if query.num_vertices > matcher.data.num_vertices:
            return _finish(
                store, order, shards,
                count=0, time_ms=0.0, stats=SearchStats(), state=state,
            )
        trie = matcher.initial_frontier(state, part=part, num_parts=num_parts)
        roots = trie.num_paths(0)
        if roots:
            stack.append(
                FrontierItem(trie, 1, np.arange(roots, dtype=np.int64))
            )

    mem_words = sum(_item_words(it) for it in stack)
    state.governor.observe_words(mem_words)
    expansions = 0

    def take_snapshot() -> None:
        nonlocal next_seq
        buffers: list[np.ndarray] = []
        layout: list[dict[str, object]] = [
            {
                "kind": "spill", "name": it.name,
                "step": it.step, "words": it.words,
            }
            for it in spilled
        ]
        for it in stack:
            layout.append({"kind": "mem", "i": len(buffers), "step": it.step})
            buffers.append(packer.pack(it))
        merged = SearchStats.from_json(base_stats.to_json())
        merged.merge(state.stats)
        merged.record_governor(state.governor)
        store.save_snapshot(
            next_seq,
            buffers,
            {
                "layout": layout,
                "count": base_count + count,
                "time_ms": base_time_ms + state.cost.time_ms,
                "stats": merged.to_json(),
                "spill_seq": spill_seq,
            },
        )
        next_seq += 1
        store.prune_snapshots(keep=2)

    def spill_pressure() -> None:
        """Evict pending items (shallowest first) past the high-water
        mark, keeping at least the top-of-stack item in memory."""
        nonlocal mem_words, spill_seq
        while len(stack) > 1 and state.governor.should_spill():
            it = stack.pop(0)
            name = store.save_spill(spill_seq, packer.pack(it))
            spill_seq += 1
            spilled.append(
                _SpillItem(name=name, step=it.step, words=_item_words(it))
            )
            mem_words -= _item_words(it)
            state.governor.note_spill()
            state.governor.observe_words(mem_words)

    while stack or spilled:
        if not stack:
            sp = spilled.pop()
            stack.append(packer.unpack(store.load_spill(sp.name), sp.step))
            mem_words += _item_words(stack[-1])
        top = stack[-1]
        mem_words -= _item_words(top)
        base = len(stack) - 1
        executor.step()
        expansions += 1
        pushed = stack[base:]
        mem_words += sum(_item_words(it) for it in pushed)
        state.governor.observe_words(mem_words)
        if pushed and pushed[-1].step > top.step:
            spill_pressure()
        if expansions % checkpoint_every == 0 and (stack or spilled):
            take_snapshot()

    final_stats = SearchStats.from_json(base_stats.to_json())
    final_stats.merge(state.stats)
    return _finish(
        store, order, shards,
        count=base_count + count,
        time_ms=base_time_ms + state.cost.time_ms,
        stats=final_stats, state=state,
    )


def _finish(
    store: CheckpointStore,
    order: tuple[int, ...],
    shards: tuple[int, ...],
    *,
    count: int,
    time_ms: float,
    stats: SearchStats,
    state: object,
) -> MatchResult:
    """Commit the complete manifest and build the final result."""
    stats.record_governor(getattr(state, "governor", None))
    store.finish_job(
        count=int(count),
        time_ms=float(time_ms),
        stats=stats.to_json(),
        order=[int(q) for q in order],
    )
    cost = getattr(state, "cost")
    return MatchResult(
        count=int(count), matches=None, time_ms=float(time_ms),
        cost=cost, stats=stats, order=order, shards=shards,
    )


def _completed_result(
    matcher: CuTSMatcher, manifest: dict[str, object]
) -> MatchResult:
    """Instant result for a job whose manifest is marked complete."""
    from ..gpusim.cost import CostModel

    stats = SearchStats.from_json(dict(manifest["stats"]))  # type: ignore[arg-type]
    part = int(manifest.get("part", 0))  # type: ignore[arg-type]
    num_parts = int(manifest.get("num_parts", 1))  # type: ignore[arg-type]
    return MatchResult(
        count=int(manifest["count"]),  # type: ignore[arg-type]
        matches=None,
        time_ms=float(manifest["time_ms"]),  # type: ignore[arg-type]
        cost=CostModel(matcher.config.device),
        stats=stats,
        order=tuple(int(q) for q in manifest.get("order", ())),  # type: ignore[arg-type]
        shards=(part,) if num_parts > 1 else (),
    )

"""The frontier executor: the one explicit-stack driver of the search.

cuTS runs Algorithm 1's fused expansion under §4.1.2's hybrid BFS–DFS
chunking, driven (Algorithm 3) from a per-worker chunk stack that is
split to ship work.  :class:`FrontierExecutor` is that stack:
``match()``, the stream, the durable runner and the rank worker push
:class:`FrontierItem` s and run it one fused expansion at a time with
:meth:`FrontierExecutor.step`, acting (snapshot, spill, steal, ship)
only between steps.  Each item carries one table forward (row 0 the
Bloom signatures, rows ``1..step`` the ancestor columns) plus fanout
views, so a chunk peel is one 2-D slice and a child's table one gather;
a materialising run's leaf sink receives the completed rows as a
``(n_steps, found)`` table in matching order, taken from the same
table.  The peel bound is the one per-caller difference (DESIGN.md
§17).  Host mechanism only: every path's expansions, their order and
their modeled cost are those of the drivers it replaced.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..gpusim.memory import DeviceOOMError
from ..storage.trie import PathTrie, TrieLevel
from .columnar import CarryTable, Fanout, slice_fanouts

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .matcher import CuTSMatcher, _RunState

__all__ = ["FrontierExecutor", "FrontierItem", "SearchTimeout"]


class SearchTimeout(RuntimeError):
    """Raised when the modeled kernel time exceeds the configured limit."""


class FrontierItem:
    """One stack entry: expand ``frontier`` through query step ``step``.

    Invariant: ``trie.depth == step`` — ``frontier`` indexes the deepest
    level.  ``words`` caches ``trie.total_storage_words``; ``table``
    (see :data:`~repro.core.columnar.CarryTable`) and ``fanouts`` (dated
    by ``fan_epoch``) are carried state, ``None`` until rebuilt from the
    trie.  ``tag`` is opaque to
    the executor and inherited by children (the rank worker's ledger
    provenance).  ``peel`` marks a ``match()``-mode remainder: the pool
    estimate of its whole frontier and the position its unpeeled rows
    start at.  ``piece`` marks a bounded-mode remainder.
    """

    __slots__ = (
        "trie", "step", "frontier", "words", "table", "fanouts",
        "fan_epoch", "tag", "peel", "piece", "__weakref__",
    )

    def __init__(
        self,
        trie: PathTrie,
        step: int,
        frontier: np.ndarray,
        *,
        tag: object = None,
        words: int | None = None,
    ) -> None:
        if trie.depth != step:
            raise ValueError(
                f"work item invariant violated: trie depth {trie.depth}"
                f" != step {step}"
            )
        self.trie = trie
        self.step = step
        self.frontier = frontier
        self.words = trie.total_storage_words if words is None else words
        self.table: CarryTable | None = None
        self.fanouts: tuple[Fanout, ...] | None = None
        self.fan_epoch = 0
        self.tag = tag
        self.peel: tuple[int, int] | None = None
        self.piece = False

    def split(self, at: int) -> tuple["FrontierItem", "FrontierItem"]:
        """``(head, tail)`` at frontier position ``at``; carried state is
        sliced in lockstep and both halves keep the tag."""
        head = self.rows(0, at)
        tail_fans = None
        if self.fanouts is not None and head.fanouts is not None:
            # The tail's totals follow by subtraction, so cutting a long
            # frontier chunk by chunk stays linear.
            tail_fans = tuple(
                (kind, j, starts[at:], counts[at:], total - part[4])
                for (kind, j, starts, counts, total), part
                in zip(self.fanouts, head.fanouts)
            )
        return head, self.rows(at, int(self.frontier.size), tail_fans)

    def rows(
        self, lo: int, hi: int, fanouts: tuple[Fanout, ...] | None = None
    ) -> "FrontierItem":
        """A fresh item over frontier positions ``[lo, hi)`` with carried
        state sliced to match (``fanouts``: its table, if precomputed)."""
        out = FrontierItem.__new__(FrontierItem)
        out.trie = self.trie
        out.step = self.step
        out.frontier = self.frontier[lo:hi]
        out.words = self.words
        out.table = None if self.table is None else self.table[:, lo:hi]
        if fanouts is None and self.fanouts is not None:
            fanouts = slice_fanouts(self.fanouts, lo, hi)
        out.fanouts = fanouts
        out.fan_epoch = self.fan_epoch
        out.tag = self.tag
        out.peel = None
        out.piece = False
        return out


LeafSink = Callable[[FrontierItem, int, np.ndarray | None], None]
"""``sink(item, found, rows)``: ``item`` ended with ``found`` complete
embeddings (0 for a dead end); ``rows`` is their ``(n_steps, found)``
table in matching order when the run materialises rows, else ``None``.
The table is freshly owned by the sink."""

SplitFn = Callable[[FrontierItem, int], tuple[FrontierItem, FrontierItem]]


class FrontierExecutor:
    """Drives the hybrid BFS–DFS search from an explicit LIFO stack.

    ``sink`` receives every ended item; ``split`` (default
    :meth:`FrontierItem.split`) performs every bounded-mode peel and
    every halving, so a caller with per-item bookkeeping sees each one.
    ``peel_chunk=None`` peels only frontiers whose projected level does
    not fit the trie budget (``match()``); an integer cuts every popped
    frontier at ``governor.effective_chunk(peel_chunk)`` and skips the
    fit projection and halving fallback (stream, durable, distributed).
    """

    def __init__(
        self,
        matcher: "CuTSMatcher",
        state: "_RunState",
        sink: LeafSink,
        *,
        split: SplitFn | None = None,
        peel_chunk: int | None = None,
    ) -> None:
        self.matcher = matcher
        self.state = state
        self.sink = sink
        self.split: SplitFn = split or FrontierItem.split
        self.peel_chunk = peel_chunk
        self.stack: list[FrontierItem] = []
        self.num_steps = state.order.num_steps
        # The governor's host budget tightens the trie budget (the
        # device budget is the hard bound; the host budget is soft).
        self.device_words = matcher.trie_budget_words
        gov_words = state.governor.budget_words
        self.soft_words = (
            self.device_words
            if gov_words is None
            else min(self.device_words, gov_words)
        )

    def step(self) -> None:
        """Pop the top item and run the search up to and including its
        next fused expansion, peeling on the way.  With
        ``profile_expansion`` on, the step's wall not covered by a
        labeled stage is recorded as ``unaccounted``, so a run's stage
        labels sum to its stepped wall."""
        stats = self.state.stats
        if not self.state.profile:
            self._step()
            return
        t0 = _time.perf_counter()
        before = sum(stats.stage_wall_s.values())
        self._step()
        labeled = sum(stats.stage_wall_s.values()) - before
        stats.record_stage("unaccounted", _time.perf_counter() - t0 - labeled)

    def _step(self) -> None:
        state = self.state
        epochs = self.matcher.engine.arena.fan_epochs
        item = self.stack.pop()
        while True:
            if item.step == self.num_steps:
                # Already-complete paths (single-vertex queries).
                rows = (
                    item.trie.columns_at(item.step - 1, item.frontier)
                    if state.materialize else None
                )
                self.sink(item, int(item.frontier.size), rows)
                return
            if item.peel is not None:
                item = self._next_piece(item)
            if state.time_limit_ms is not None or state.wall_deadline is not None:
                self._check_limits()
            if state.plan is not None and (
                item.fanouts is None
                or item.fan_epoch != epochs.get(item.step, 0)
            ):
                self._carry_in(item)
            if self.peel_chunk is not None:
                item = self._bound_peel(item, self.peel_chunk)
            ref: tuple | None = None
            if state.plan is not None:
                assert item.fanouts is not None
                fans: tuple = item.fanouts
            else:
                # The reference engine stays the oracle: it walks the
                # trie for every expansion and carries nothing.
                ancestors = item.trie.paths_at(item.step - 1, item.frontier)
                fwd, bwd = state.order.constraints_at(item.step)
                fans = self.matcher._constraint_fanouts(ancestors, fwd, bwd)
                ref = (ancestors, fwd, bwd, fans)
            pool = 0
            if self.peel_chunk is None:
                # Only match()'s fit projection reads the pool estimate
                # and the survival ratio it feeds.
                pool = self.matcher._estimate_pool(item.frontier.size, fans)
                if not self._fits(item, pool, 1.0) and item.frontier.size > 1:
                    # Becomes a remainder: peel one probe chunk off it.
                    item.peel = (pool, 0)
                    continue
            self._expand(item, pool, ref)
            return

    # ------------------------------------------------------------------
    def _check_limits(self) -> None:
        state = self.state
        if (
            state.time_limit_ms is not None
            and state.cost.time_ms > state.time_limit_ms
        ):
            raise SearchTimeout(
                f"modeled time {state.cost.time_ms:.1f} ms exceeded limit "
                f"{state.time_limit_ms:.1f} ms"
            )
        if state.wall_deadline is not None:
            # Sanctioned wall-clock read: the user-facing safety limit must
            # track host time by definition, and tripping it raises rather
            # than changing any count. # repro: ignore[RP002]
            if _time.monotonic() > state.wall_deadline:
                raise SearchTimeout("wall-clock limit exceeded")

    def _carry_in(self, item: FrontierItem) -> None:
        """Rebuild whatever carried state ``item`` lacks, or holds stale.
        A fanout view is current only while its step's entry in
        :attr:`~repro.core.columnar.ExpansionArena.fan_epochs` is
        unchanged: an item that entered out of last-in-first-out order
        (shipped, adopted, reloaded), or another engine on the same
        arena, built a table at the same step and overwrote it.  A
        missing carry table is rebuilt from the trie once: the ancestor
        columns with their Bloom row above."""
        engine = self.matcher.engine
        t0 = _time.perf_counter() if self.state.profile else 0.0
        if item.table is None:
            anc = item.trie.columns_at(item.step - 1, item.frontier)
            item.table = np.vstack((engine.bloom_of(anc), anc))
        assert self.state.plan is not None
        item.fanouts = engine.constraint_fanouts(
            self.state.plan, item.table, item.step
        )
        item.fan_epoch = engine.arena.fan_epochs[item.step]
        if self.state.profile:
            self.state.stats.record_stage("carry", _time.perf_counter() - t0)

    def _fits(self, item: FrontierItem, pool: int, fraction: float) -> bool:
        """Whether ``fraction`` of this frontier's pool fits.  Only
        survivors land in the trie buffer; each level may claim an equal
        share of the *remaining* headroom (so deeper levels of the
        active DFS branch keep room), projected via the survival ratio
        measured at this step so far (1.0 before the first probe)."""
        sigma = self.state.sigma_by_step.get(item.step, 1.0)
        allowance = (self.soft_words - item.words) / max(
            1, self.num_steps - item.step
        )
        return (
            2 * pool * fraction * sigma <= allowance
            and pool * fraction <= self.matcher._POOL_WORKSPACE_LIMIT
        )

    def _next_piece(self, item: FrontierItem) -> FrontierItem:
        """Peel the next chunk off a ``match()``-mode remainder, which is
        re-projected with the survival ratio the chunks so far measured:
        a run that merely *looked* oversized proceeds after one probe
        chunk, a memory-bound one keeps chunking (sub-chunks halve).
        The remainder stays one item with a cursor, so each chunk costs
        one slice of the carried state."""
        assert item.peel is not None
        pool, start = item.peel
        n = int(item.frontier.size)
        rem = n - start
        if rem == 1 or self._fits(item, pool, rem / n):
            at = rem
        else:
            base = self.state.governor.effective_chunk(
                self.matcher.config.chunk_size
            )
            at = min(base, max(1, rem // 2))
        self.state.stats.record_chunk(item.step)
        stop = start + at
        if stop < n:
            item.peel = (pool, stop)
            self.stack.append(item)
        return item.rows(start, stop)

    def _bound_peel(self, item: FrontierItem, base: int) -> FrontierItem:
        """Cut a bounded-mode frontier at the governor's chunk size."""
        chunk = self.state.governor.effective_chunk(base)
        if item.frontier.size > chunk:
            item, tail = self.split(item, chunk)
            tail.piece = True
            self.stack.append(tail)
        elif not item.piece:
            return item
        self.state.stats.record_chunk(item.step)
        return item

    def _expand(self, item: FrontierItem, pool: int, ref: tuple | None) -> None:
        """One fused expansion of ``item``, then the halving fallback,
        the sink, or the child push."""
        matcher = self.matcher
        state = self.state
        step = item.step
        frontier = item.frontier
        leaf = step + 1 == self.num_steps
        pa_local: np.ndarray | None = None
        ca: np.ndarray | None = None
        if ref is None:
            assert state.plan is not None and item.table is not None
            # Leaf steps of a count-only run need just the survivor count.
            out = matcher.engine.extend(
                state.plan, item.table, step, state, item.fanouts,
                count_only=leaf and not state.materialize,
            )
            if isinstance(out, int):
                results = out
            else:
                pa_local, ca = out
                results = len(ca)
        else:
            ancestors, fwd, bwd, fans = ref
            pa_local, ca = matcher._extend(
                ancestors, step, fwd, bwd, state, fans
            )
            results = len(ca)
        state.stats.record_depth(step, results)
        if pool > 0:
            # Exponential-moving survival ratio for the chunk projector.
            observed = results / pool
            prior = state.sigma_by_step.get(step)
            state.sigma_by_step[step] = (
                observed if prior is None else 0.5 * prior + 0.5 * observed
            )
        if results == 0:
            self.sink(item, 0, None)
            return

        new_words = 2 * results
        words = item.words + new_words
        if self.peel_chunk is None and words > self.soft_words:
            if frontier.size > 1:
                # The projection was too optimistic: re-run as halves
                # (at the boundary ``np.array_split`` would use).
                head, tail = self.split(item, (frontier.size + 1) // 2)
                state.stats.record_chunk(step)
                state.stats.record_chunk(step)
                self.stack += [tail, head]
                return
            if words > self.device_words:
                # The *device* budget is a hard bound: a single path's
                # expansion that overflows it cannot be subdivided.
                raise DeviceOOMError(
                    new_words, self.device_words - item.words, "trie_buffer"
                )
            # Over the soft host budget only, with an unsplittable
            # frontier: proceed (graceful degradation, never abort).
        state.governor.observe_words(words)
        state.stats.record_trie_words(words)
        if leaf and not state.materialize:
            self.sink(item, results, None)
            return
        assert pa_local is not None and ca is not None
        if leaf:
            # Completed rows, each written once: the surviving parents'
            # ancestor rows gathered by pa_local, then the new column.
            if ref is not None:
                anc = ref[0].T
            else:
                assert item.table is not None
                anc = item.table[1:]
            rows = np.empty((step + 1, results), dtype=np.int64)
            anc.take(pa_local, axis=1, out=rows[:step], mode="clip")
            rows[step] = ca
            self.sink(item, results, rows)
            return
        # Parent indices are survivor compactions of this frontier.
        trie = PathTrie(
            levels=[*item.trie.levels, TrieLevel(pa=frontier[pa_local], ca=ca)]
        )
        # Child frontier ids 0..results-1: the arena's shared read-only
        # iota (every consumer slices or gathers, never writes).
        child = FrontierItem(
            trie, step + 1,
            matcher.engine.arena.iota(results) if ref is None
            else np.arange(results, dtype=np.int64),
            tag=item.tag, words=words,
        )
        if item.table is not None:
            # Incremental carry: one gather of the parent's table.
            t0 = _time.perf_counter() if state.profile else 0.0
            child.table = matcher.engine.child_carry(item.table, pa_local, ca)
            if state.profile:
                state.stats.record_stage("carry", _time.perf_counter() - t0)
        self.stack.append(child)

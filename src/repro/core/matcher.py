"""The cuTS single-node matcher.

This is the paper's Algorithm 1 plus the hybrid BFS–DFS chunking of
§4.1.2, vectorised: partial paths live in the PA/CA
:class:`~repro.storage.trie.PathTrie`; one *fused* expansion pass per
level generates the candidate pool from an anchor constraint's adjacency
(a coalesced CSR gather), then applies the degree filter, the remaining
edge constraints (the c-/p-intersection membership probes, realised as
vectorised binary searches), and the injectivity filter (a PA-pointer
walk), and finally compacts survivors into the next trie level — the
single-atomic write-location claim of §4.1.1.

There is no two-pass count-then-write anywhere: exactly the property the
trie buys.  When the projected frontier would overflow the trie buffer
(half of free device memory, per the paper), the frontier is split into
chunks processed depth-first to completion — the hybrid scanning
strategy, driven by :class:`~repro.core.executor.FrontierExecutor`.

All data movement, shared traffic, atomics and instructions are charged
to a :class:`~repro.gpusim.cost.CostModel`; per-level kernel launches are
timed with the strided virtual-warp schedule (randomised placement on by
default, as in the paper).
"""

from __future__ import annotations

import time as _time
from typing import Callable

import numpy as np

from ..gpusim.cost import CostModel
from ..gpusim.kernel import launch_kernel
from ..gpusim.memory import DeviceMemory, DeviceOOMError
from ..gpusim.warp import (
    device_worker_count,
    idle_lane_cycles,
    select_virtual_warp_size,
)
from ..graph.csr import CSRGraph
from ..storage.trie import PathTrie
from .candidates import root_candidates
from .columnar import ColumnarEngine, ExpansionArena, Fanout, QueryPlan
from .config import CuTSConfig
from .executor import FrontierExecutor, FrontierItem, SearchTimeout
from .governor import MemoryGovernor
from .ordering import MatchOrder, build_order
from .result import MatchResult
from .stats import SearchStats

__all__ = ["CuTSMatcher", "SearchTimeout", "graph_device_words"]


def graph_device_words(graph: CSRGraph) -> int:
    """Device words a resident CSR graph occupies (dual CSR)."""
    return 2 * (graph.num_vertices + 1) + 2 * graph.num_edges


class CuTSMatcher:
    """Single-device cuTS engine bound to one data graph.

    ``_POOL_WORKSPACE_LIMIT`` bounds one expansion's streamed candidate
    pool (a host-memory guard for the vectorised kernel; the modeled GPU
    streams the pool through shared memory, so it does not count against
    the trie buffer).

    Parameters
    ----------
    data:
        The data graph (resident in simulated device memory for the
        lifetime of the matcher).
    config:
        Engine choices; defaults follow the paper.
    memory_budget_mb:
        Soft host budget (MiB) for each run's live PA/CA allocations
        (:class:`~repro.core.governor.MemoryGovernor`): under pressure
        the BFS chunk size halves toward pure DFS and durable runs spill
        completed chunks.  ``0`` (default) = unlimited; counts never
        change.
    trace_kernels:
        Retain a per-launch kernel trace on each run's cost model
        (:mod:`repro.gpusim.trace`).
    profile_expansion:
        Record per-stage wall-clock timings of every fused expansion
        into ``SearchStats.stage_wall_s`` (diagnostic only; they never
        influence control flow).
    arena:
        The expansion workspace to run on; ``None`` (default) gives the
        matcher a private one.  Engines that share an arena must all
        run on one thread.  A run suspended (a stream, a stepped
        executor) while another engine on the arena runs stays exact
        but rebuilds the fanout views it held.  A service rank's
        registry shares one arena across the serial engines its
        dispatcher thread runs, one call at a time.

    Raises
    ------
    DeviceOOMError
        If the data graph itself does not fit on the device.
    """

    _POOL_WORKSPACE_LIMIT = 8_000_000

    def __init__(
        self,
        data: CSRGraph,
        config: CuTSConfig | None = None,
        *,
        memory_budget_mb: int = 0,
        trace_kernels: bool = False,
        profile_expansion: bool = False,
        arena: ExpansionArena | None = None,
    ) -> None:
        if memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0 (0 = unlimited)")
        self.data = data
        self.config = config or CuTSConfig()
        self.memory_budget_mb = memory_budget_mb
        self.trace_kernels = trace_kernels
        self.profile_expansion = profile_expansion
        self.memory = DeviceMemory(self.config.device)
        self.memory.alloc("data_graph", graph_device_words(data))
        # "two big arrays whose size equals half of the free space
        # available in the GPU" (§4.1.1).
        self.trie_budget_words = int(
            self.memory.free_words * self.config.trie_buffer_fraction
        )
        self.memory.alloc("trie_buffer", self.trie_budget_words)
        vw = self.config.virtual_warp_size or select_virtual_warp_size(
            data.average_out_degree, self.config.device.warp_size
        )
        self.virtual_warp_size = vw
        self.num_workers = device_worker_count(self.config.device, vw)
        # Progress hook: called once per fused expansion on the run's
        # state.  The multi-core watchdog hangs worker heartbeats off
        # this; the core engine never reads the clock through it.
        self.on_tick: Callable[["_RunState"], None] | None = None
        # Mean in-degree is the p-intersection cost estimator's constant.
        self._mean_in_degree = (
            data.num_edges / data.num_vertices if data.num_vertices else 0.0
        )
        # Columnar frontier engine: workspace arena + per-graph tables.
        # Construction is cheap (all caches lazy); runs dispatch to it
        # only when ``config.engine == "columnar"`` set a plan on state.
        self.engine = ColumnarEngine(self, arena)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def match(
        self,
        query: CSRGraph,
        *,
        materialize: bool = False,
        time_limit_ms: float | None = None,
        wall_limit_s: float | None = None,
        part: int = 0,
        num_parts: int = 1,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 64,
        resume: bool = False,
        root_filter: np.ndarray | None = None,
        base_result: "MatchResult | int | None" = None,
        delta: object | None = None,
    ) -> MatchResult:
        """Enumerate all monomorphism embeddings of ``query`` in the data.

        Parameters
        ----------
        query:
            The (weakly connected) query graph.
        materialize:
            Collect the actual embeddings (possibly capped by
            ``config.max_materialized``); counting is always exact.
        time_limit_ms:
            Abort with :class:`SearchTimeout` when the modeled kernel
            time exceeds this bound (reproduces the paper's failed
            cases that are not memory failures).
        wall_limit_s:
            Abort with :class:`SearchTimeout` when real elapsed time
            exceeds this bound (harness safety; no paper analogue).
        part, num_parts:
            Restrict the search to the strided root-candidate interval
            ``part::num_parts`` — the distributed ``init_match`` striding
            (Algorithm 3).  Interval results over all parts reduce via
            :meth:`MatchResult.merge` to exactly the full search; this is
            how :class:`~repro.parallel.ParallelMatcher` shards one query
            across processes.
        checkpoint_dir:
            Run the job **durably**: progress snapshots are committed to
            this directory (see :mod:`repro.checkpoint`) so a killed run
            can be continued with ``resume=True`` at exactly the same
            count.  Checkpointed runs are count-only (``materialize``
            must stay ``False``) and ignore the time/wall limits.
        checkpoint_every:
            Snapshot cadence in fused expansions.  Only with
            ``checkpoint_dir``.
        resume:
            Continue the job already in ``checkpoint_dir`` (fingerprints
            of config/data/query must match the manifest).
        root_filter:
            Restrict the search to embeddings whose **root** (the first
            matched query vertex) lies in this vertex set: the level-0
            candidates are intersected with it before striding.  The
            versioning subsystem passes the delta's dirty ball here.
        base_result, delta:
            Incremental re-matching across one version commit: ``self``
            must be bound to the **child** graph, ``delta`` is the
            commit's :class:`~repro.versioning.EdgeDelta` and
            ``base_result`` the full result (or bare count) previously
            computed on the parent under the same config.  Only roots
            inside the delta's dirty ball are re-matched; the retained
            share is merged in arithmetically (count-only; see
            :func:`repro.versioning.incremental_match`).

        Raises
        ------
        DeviceOOMError
            If even a single-path chunk cannot fit its expansion in the
            trie buffer.
        SearchTimeout
            See ``time_limit_ms``.
        """
        if (base_result is None) != (delta is None):
            raise ValueError(
                "incremental matching needs both base_result and delta"
            )
        if delta is not None:
            if materialize or checkpoint_dir is not None or num_parts != 1:
                raise ValueError(
                    "incremental matching is count-only, whole-search, "
                    "and not checkpointable"
                )
            # Lazy import: repro.versioning sits above the core engine
            # (mirrors the checkpoint runner import below).
            from ..versioning.incremental import incremental_match

            assert base_result is not None
            return incremental_match(
                self, query,
                base_result=base_result, delta=delta,  # type: ignore[arg-type]
                wall_limit_s=wall_limit_s,
            )
        if checkpoint_dir is not None:
            if materialize:
                raise ValueError(
                    "checkpointed runs are count-only; "
                    "materialize=True is not supported with checkpoint_dir"
                )
            from ..checkpoint.runner import run_durable

            return run_durable(
                self, query,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume=resume,
                part=part, num_parts=num_parts,
            )
        if resume:
            raise ValueError("resume=True requires checkpoint_dir")
        if query.num_vertices == 0:
            raise ValueError("query graph must have at least one vertex")
        state = self.make_run_state(
            query, materialize=materialize, time_limit_ms=time_limit_ms
        )
        order = state.order
        if query.num_vertices > self.data.num_vertices:
            empty = (
                np.zeros((0, order.num_steps), dtype=np.int64)
                if materialize
                else None
            )
            return MatchResult(
                count=0, matches=empty, time_ms=state.cost.time_ms,
                cost=state.cost, stats=state.stats, order=order.sequence,
            )
        trie = self.initial_frontier(
            state, part=part, num_parts=num_parts, root_filter=root_filter
        )
        if wall_limit_s is not None:
            state.wall_deadline = _time.monotonic() + wall_limit_s
        words = trie.total_storage_words
        state.governor.observe_words(words)
        state.stats.record_trie_words(words)
        if words > self.trie_budget_words:
            raise DeviceOOMError(words, self.trie_budget_words, "trie_buffer")

        count = 0

        def sink(_item: FrontierItem, found: int, rows: np.ndarray | None) -> None:
            nonlocal count
            count += found
            if rows is not None:
                state.collect(rows)

        executor = FrontierExecutor(self, state, sink)
        roots = trie.num_paths(0)
        if roots:
            executor.stack.append(
                FrontierItem(trie, 1, np.arange(roots, dtype=np.int64))
            )
        while executor.stack:
            executor.step()
        state.stats.record_governor(state.governor)

        return MatchResult(
            count=count,
            matches=state.collected_matrix(),
            time_ms=state.cost.time_ms,
            cost=state.cost,
            stats=state.stats,
            order=order.sequence,
        )

    def count(self, query: CSRGraph, **kwargs: object) -> int:
        """Convenience: number of embeddings only."""
        return self.match(query, **kwargs).count

    # ------------------------------------------------------------------
    # Run set-up and the level-synchronous primitive
    # ------------------------------------------------------------------
    def make_run_state(
        self,
        query: CSRGraph,
        *,
        materialize: bool = False,
        time_limit_ms: float | None = None,
    ) -> "_RunState":
        """Create the per-run context: order, cost model, statistics,
        RNG, governor and the configured expansion engine.

        Every driver builds its run here — :meth:`match` and the other
        :class:`~repro.core.executor.FrontierExecutor` clients, and the
        level-synchronous runtime that calls :meth:`expand_frontier`.
        """
        rng = (
            np.random.default_rng(self.config.seed)
            if self.config.randomize_placement
            else None
        )
        order = build_order(query, self.config.ordering)
        run_cost = CostModel(self.config.device)
        if self.trace_kernels:
            run_cost.enable_trace()
        state = _RunState(
            query=query,
            order=order,
            cost=run_cost,
            stats=SearchStats(),
            rng=rng,
            materialize=materialize,
            time_limit_ms=time_limit_ms,
        )
        state.max_materialized = self.config.max_materialized
        state.governor = MemoryGovernor(self.memory_budget_mb * 1024 * 1024 or None)
        state.on_tick = self.on_tick
        self._arm_engine(state, query, order)
        return state

    def _arm_engine(
        self, state: "_RunState", query: CSRGraph, order: MatchOrder
    ) -> None:
        """Attach the configured expansion engine to a run.

        A non-``None`` ``state.plan`` routes every expansion through the
        columnar engine; ``None`` keeps the reference path (the oracle).
        """
        if self.config.engine == "columnar":
            state.plan = self.engine.plan_for(query, order)
        state.profile = self.profile_expansion

    def initial_frontier(
        self,
        state: "_RunState",
        *,
        part: int = 0,
        num_parts: int = 1,
        root_filter: np.ndarray | None = None,
    ) -> PathTrie:
        """Level-0 trie from the root candidates: the ``init_match``
        launch.

        ``root_filter`` intersects the candidates with a vertex set
        first (see :meth:`match`); ``part``/``num_parts`` then implement
        the distributed striding: rank ``r`` of ``P`` keeps candidates
        ``r::P``.
        """
        if not 0 <= part < num_parts:
            raise ValueError("need 0 <= part < num_parts")
        roots = root_candidates(
            self.data, state.query, state.order.sequence[0], state.cost,
            neighborhood_filter=self.config.neighborhood_filter,
        )
        if root_filter is not None:
            roots = np.intersect1d(
                roots, np.asarray(root_filter, dtype=np.int64)
            )
        if num_parts > 1:
            roots = roots[part::num_parts]
        launch_kernel(
            state.cost,
            "init_match",
            np.ones(max(1, self.data.num_vertices), dtype=np.float64),
            device_worker_count(self.config.device, self.config.device.warp_size),
            2 * self.data.num_vertices + len(roots),
            rng=None,
        )
        state.stats.record_depth(0, len(roots))
        return PathTrie.from_roots(roots)

    def expand_frontier(
        self,
        trie: PathTrie,
        step: int,
        frontier: np.ndarray,
        state: "_RunState",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand ``frontier`` (paths at the trie's deepest level) through
        query step ``step``; returns ``(global parent indices, candidates)``
        without mutating the trie.  All costs are charged to ``state``.

        This is the level-synchronous primitive
        (:mod:`repro.distributed.bulksync`): it rebuilds the ancestor
        columns from the trie on every call.  The stack-driven paths go
        through :class:`~repro.core.executor.FrontierExecutor`, which
        carries them between levels instead."""
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        if state.plan is not None:
            anc = trie.columns_at(trie.depth - 1, frontier)
            out = self.engine.extend(
                state.plan, np.vstack((self.engine.bloom_of(anc), anc)),
                step, state,
            )
            assert not isinstance(out, int)
            pa_local, ca = out
        else:
            ancestors = trie.paths_at(trie.depth - 1, frontier)
            fwd, bwd = state.order.constraints_at(step)
            pa_local, ca = self._extend(ancestors, step, fwd, bwd, state)
        state.stats.record_depth(step, len(ca))
        return frontier[pa_local], ca

    # ------------------------------------------------------------------
    # Fused expansion kernel
    # ------------------------------------------------------------------
    def _constraint_fanouts(
        self,
        ancestors: np.ndarray,
        fwd: tuple[int, ...],
        bwd: tuple[int, ...],
    ) -> tuple[tuple[str, int, int], ...]:
        """Total adjacency fanout of every edge constraint over this
        frontier: one ``("fwd"|"bwd", j, sum-of-degrees)`` entry per
        constraint.

        Computed **once per expansion** and shared by the pool estimator,
        the anchor selection and the c-/p-intersection choice — all three
        need exactly these per-constraint degree sums.
        """
        data = self.data
        out = []
        for j in fwd:
            a = ancestors[:, j]
            out.append(
                ("fwd", j, int((data.indptr[a + 1] - data.indptr[a]).sum()))
            )
        for j in bwd:
            a = ancestors[:, j]
            out.append(
                ("bwd", j, int((data.rindptr[a + 1] - data.rindptr[a]).sum()))
            )
        return tuple(out)

    def _estimate_pool(
        self,
        num_frontier: int,
        fanouts: tuple[tuple[str, int, int], ...] | tuple[Fanout, ...],
    ) -> int:
        """Upper-bound the candidate-pool size for this frontier (the
        cheapest constraint's fanout; every constraint is a valid bound).

        Accepts both engines' fanout shapes — the total is the last
        element of either tuple form."""
        if not fanouts:
            # Unconstrained step (disconnected query component).
            return num_frontier * self.data.num_vertices
        return min(int(entry[-1]) for entry in fanouts)

    def _extend(
        self,
        ancestors: np.ndarray,
        step: int,
        fwd: tuple[int, ...],
        bwd: tuple[int, ...],
        state: "_RunState",
        fanouts: tuple[tuple[str, int, int], ...] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fused expansion: returns (local parent indices, candidates).

        ``ancestors`` is the ``(F, step)`` matrix of the frontier's
        materialised prefixes (columns follow the matching order).
        ``fanouts`` is the per-constraint fanout table for this frontier
        (computed here when the caller has not already built it).
        """
        data = self.data
        cost = state.cost
        q_next = state.order.sequence[step]
        num_frontier = ancestors.shape[0]
        words_before = cost.dram_read_words + cost.dram_write_words

        # ----- anchor selection: cheapest constraint seeds the pool ----
        if fanouts is None:
            fanouts = self._constraint_fanouts(ancestors, fwd, bwd)
        anchor_kind, anchor_j, anchor_total = self._select_anchor(
            ancestors, fanouts
        )

        if anchor_kind == "none":
            # Disconnected query step: pool = frontier x all vertices.
            path_ids = np.repeat(
                np.arange(num_frontier, dtype=np.int64), data.num_vertices
            )
            cands = np.tile(
                np.arange(data.num_vertices, dtype=np.int64), num_frontier
            )
            pool_counts = np.full(
                num_frontier, data.num_vertices, dtype=np.int64
            )
            cost.charge_dram_read(len(cands), segments=num_frontier)
        else:
            if anchor_kind == "fwd":
                indptr, indices = data.indptr, data.indices
            else:
                indptr, indices = data.rindptr, data.rindices
            anchor_vertices = ancestors[:, anchor_j]
            starts = indptr[anchor_vertices]
            pool_counts = indptr[anchor_vertices + 1] - starts
            total = int(pool_counts.sum())
            path_ids = np.repeat(
                np.arange(num_frontier, dtype=np.int64), pool_counts
            )
            # Flat gather of all anchor adjacency slices in one pass:
            # offsets[k] = starts[path] + (k - first_k_of_path).
            cum = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(pool_counts)]
            )
            offsets = (
                np.arange(total, dtype=np.int64)
                - cum[path_ids]
                + starts[path_ids]
            )
            cands = indices[offsets]
            cost.charge_dram_read(total, segments=num_frontier)
            cost.charge_shared(writes=total)

        mask = np.ones(len(cands), dtype=bool)

        # ----- degree filter (Definition 5) -----------------------------
        q_out = state.query.out_degree(q_next)
        q_in = state.query.in_degree(q_next)
        if q_out > 0:
            mask &= (data.indptr[cands + 1] - data.indptr[cands]) >= q_out
        if q_in > 0:
            mask &= (data.rindptr[cands + 1] - data.rindptr[cands]) >= q_in
        if data.labels is not None and state.query.labels is not None:
            mask &= data.labels[cands] == state.query.labels[q_next]
        cost.charge_instructions(2 * len(cands))

        # ----- remaining edge constraints (c-/p-intersection probes) ----
        rest_fwd = tuple(j for j in fwd if not (anchor_kind == "fwd" and j == anchor_j))
        rest_bwd = tuple(j for j in bwd if not (anchor_kind == "bwd" and j == anchor_j))
        num_rest = len(rest_fwd) + len(rest_bwd)
        if num_rest and mask.any():
            kind = self._choose_intersection(
                fanouts, anchor_kind, anchor_j, int(mask.sum())
            )
            state.stats.record_intersection(kind, num_rest)
            live = np.nonzero(mask)[0]
            live_paths = path_ids[live]
            live_cands = cands[live]
            ok = np.ones(len(live), dtype=bool)
            for j in rest_fwd:
                ok &= data.has_edges(ancestors[live_paths, j], live_cands)
            for j in rest_bwd:
                ok &= data.has_edges(live_cands, ancestors[live_paths, j])
            mask[live] = ok
            self._charge_intersection(
                kind, ancestors, rest_fwd, rest_bwd, live_paths, live_cands, state
            )

        # ----- injectivity: candidate must be new on its path -----------
        if mask.any():
            live = np.nonzero(mask)[0]
            dup = np.zeros(len(live), dtype=bool)
            for col in range(ancestors.shape[1]):
                dup |= ancestors[path_ids[live], col] == cands[live]
            mask[live] = ~dup
            cost.charge_instructions(len(live) * ancestors.shape[1])

        results = int(mask.sum())
        # ----- write-out: one atomic slot claim per surviving candidate -
        cost.charge_atomics(results)
        cost.charge_dram_write(2 * results)
        cost.charge_idle_lanes(
            idle_lane_cycles(pool_counts, self.virtual_warp_size)
        )

        # ----- kernel launch timing --------------------------------------
        per_path_work = (
            np.ceil(pool_counts / self.virtual_warp_size) * (1 + num_rest) + 2.0
        )
        words_moved = (
            cost.dram_read_words + cost.dram_write_words - words_before
        )
        launch_kernel(
            cost,
            f"search_kernel_d{step}",
            per_path_work,
            self.num_workers,
            words_moved,
            rng=state.rng,
        )

        state.tick()
        return path_ids[mask], cands[mask]

    def _select_anchor(
        self,
        ancestors: np.ndarray,
        fanouts: tuple[tuple[str, int, int], ...],
    ) -> tuple[str, int, int]:
        """Pick the constraint with the smallest total fanout."""
        if not fanouts:
            return ("none", -1, ancestors.shape[0] * self.data.num_vertices)
        return min(fanouts, key=lambda entry: entry[2])

    def _choose_intersection(
        self,
        fanouts: tuple[tuple[str, int, int], ...] | tuple[Fanout, ...],
        anchor_kind: str,
        anchor_j: int,
        pool_size: int,
    ) -> str:
        """Adaptive c-vs-p choice by modeled movement (§4.1.3).

        The c-cost is the fanout of every non-anchor constraint — read
        straight off the shared fanout table instead of recomputing the
        degree sums.  Accepts both engines' fanout shapes.
        """
        if self.config.intersection in ("c", "p"):
            return self.config.intersection
        cost_c = 0
        num_rest = 0
        for entry in fanouts:
            if entry[0] == anchor_kind and entry[1] == anchor_j:
                continue
            cost_c += int(entry[-1])
            num_rest += 1
        cost_p = pool_size * self._mean_in_degree * num_rest
        return "p" if cost_p < cost_c else "c"

    def _charge_intersection(
        self,
        kind: str,
        ancestors: np.ndarray,
        rest_fwd: tuple[int, ...],
        rest_bwd: tuple[int, ...],
        live_paths: np.ndarray,
        live_cands: np.ndarray,
        state: "_RunState",
    ) -> None:
        """Charge the movement of the chosen micro-kernel (paper's
        complexity expressions, §4.1.3)."""
        data = self.data
        cost = state.cost
        if kind == "c":
            # The warp streams each constraint's children list once per
            # *path* (not per pool candidate).
            upaths = np.unique(live_paths)
            words = 0
            for j in rest_fwd:
                a = ancestors[upaths, j]
                words += int((data.indptr[a + 1] - data.indptr[a]).sum())
            for j in rest_bwd:
                a = ancestors[upaths, j]
                words += int((data.rindptr[a + 1] - data.rindptr[a]).sum())
            # Streamed coalesced loads of the other children lists, probed
            # against the shared-memory pool buffer.
            cost.charge_dram_read(words, segments=max(1, len(upaths)))
            cost.charge_shared(reads=words)
            cost.charge_instructions(words)
        else:
            # p-intersection: each live candidate's parent list is walked.
            words = int(
                (data.rindptr[live_cands + 1] - data.rindptr[live_cands]).sum()
            )
            cost.charge_dram_read(words, segments=max(1, len(live_cands)))
            cost.charge_shared(reads=len(live_cands))
            cost.charge_instructions(words)


class _RunState:
    """Mutable per-run context threaded through every expansion."""

    def __init__(
        self,
        *,
        query: CSRGraph,
        order: MatchOrder,
        cost: CostModel,
        stats: SearchStats,
        rng: np.random.Generator | None,
        materialize: bool,
        time_limit_ms: float | None,
    ) -> None:
        self.query = query
        self.order = order
        self.cost = cost
        self.stats = stats
        self.rng = rng
        self.materialize = materialize
        self.time_limit_ms = time_limit_ms
        self.wall_deadline: float | None = None
        self.sigma_by_step: dict[int, float] = {}
        # Columnar-engine routing: a non-None plan sends every expansion
        # through CuTSMatcher.engine; profile enables per-stage timers.
        self.plan: QueryPlan | None = None
        self.profile = False
        self.max_materialized: int | None = None
        self.governor: MemoryGovernor = MemoryGovernor()
        self.on_tick: Callable[["_RunState"], None] | None = None
        # Completed rows as (n_steps, k) matching-order tables.
        self._collected: list[np.ndarray] = []
        self._collected_count = 0

    def tick(self) -> None:
        """Invoke the progress hook, if any (called once per fused
        expansion).  Watchdog heartbeats and checkpoint cadence hang off
        this; the core engine itself never reads the clock here."""
        if self.on_tick is not None:
            self.on_tick(self)

    def collect(self, rows: np.ndarray) -> None:
        """Keep a leaf's completed rows (an ``(n_steps, k)`` table in
        matching order), up to ``max_materialized`` in all."""
        if not self.materialize:
            return
        cap = self.max_materialized
        if cap is not None:
            room = cap - self._collected_count
            if room <= 0:
                return
            rows = rows[:, :room]
        self._collected.append(rows)
        self._collected_count += rows.shape[1]

    def collected_matrix(self) -> np.ndarray | None:
        """Every kept row once, in query-vertex column order."""
        if not self.materialize:
            return None
        n_steps = self.order.num_steps
        inv = np.argsort(self.order.sequence)  # query vertex -> step
        out = np.empty((self._collected_count, n_steps), dtype=np.int64)
        at = 0
        for rows in self._collected:
            k = rows.shape[1]
            rows.take(inv, axis=0, out=out[at:at + k].T, mode="clip")
            at += k
        return out

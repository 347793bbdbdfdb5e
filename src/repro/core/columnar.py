"""Columnar frontier engine: allocation-free whole-frontier expansion.

The reference expansion path (kept in
:meth:`repro.core.matcher.CuTSMatcher._extend`) is algorithmically the
paper's fused kernel, but it is *Python-rate-limited*: every expansion
re-materialises the full ancestor matrix via
:meth:`~repro.storage.trie.PathTrie.paths_at`, allocates a fresh set of
``arange``/``repeat``/mask temporaries, and makes several fancy-index
round trips plus one ``has_edges`` pass per remaining constraint.  On
the chunked regimes the simulated device budget forces (§4.1.2), an
expansion touches only a few thousand pool lanes, so interpreter and
allocator overhead — not element work — dominates the wall clock.

This module rewrites that hot path as whole-frontier *table kernels*
over reusable buffers:

* :class:`ExpansionArena` — named, geometrically-grown workspace
  buffers (pool offsets, path ids, candidate gathers, masks), so
  steady-state expansion performs no workspace heap allocation beyond
  short-lived ``np.repeat`` temporaries; survivor arrays handed to the
  trie are freshly owned.
* :class:`QueryPlan` — per-(data, query, order) static tables computed
  once per run: a fused degree+label candidate table per step (one
  boolean gather replaces up to three comparison passes), the per-step
  constraint list, and whether each step's injectivity check can
  reject a lane.
* :data:`CarryTable` — a frontier's carried state as one int64
  ``(step + 1, F)`` table: row 0 the per-path 64-bit Bloom signatures,
  rows ``1..step`` the ancestor columns.  A chunk peel is one 2-D
  slice; :meth:`ColumnarEngine.child_carry` builds a child's table
  with one gather.
* :class:`ColumnarEngine` — the fused expansion: anchor-adjacency pool
  gather, table filter, one whole-pool probe per remaining edge
  constraint ANDed straight into the lane mask (a packed adjacency
  bitset on small graphs, one ``searchsorted`` into the data graph's
  sorted edge-key index otherwise — :meth:`CSRGraph.has_edges`),
  injectivity prefiltered by the table's Bloom row, with **no
  intermediate** ``np.nonzero`` round trips.

Three structural shortcuts keep the host work sublinear in what the
modeled kernel does (the *model* is never shortcut — every counter and
RNG draw is identical to the reference path's):

* **Symmetric elision** — on a symmetric data graph (``indptr ==
  rindptr`` and ``indices == rindices``, checked once) a backward
  constraint is the same predicate as its forward twin, so mirrored
  fanouts are computed once and probes against the anchor column are
  skipped entirely (membership in the anchor's adjacency already
  implies the edge).
* **Bloom injectivity** — each path carries a 64-bit signature of its
  ancestor set (bit ``v & 63``); a candidate whose bit is absent is
  provably new, so the exact compare against every ancestor row runs
  only on the few suspect lanes (real duplicates plus ≈ ``d/64`` false
  positives).
* **Batched cost accounting** — the per-expansion ``charge_*`` calls
  collapse into one counter update with the same totals, transaction
  counts and launch arguments as the reference path's call sequence.

Equivalence with the reference engine is bit-exact: identical counts,
materialised rows, cost-model counters, statistics and modeled
``time_ms`` (the engine issues the same modeled charges and the same
RNG draw sequence).

Analyzer annotations (rules RP001/RP002): the arena *intentionally*
hands out views of mutable buffers that are overwritten by the next
expansion — callers must treat a view as dead once the expansion
returns.  No CSR array is ever written (RP001); the only wall-clock
reads are the optional ``profile_expansion`` stage timers, which are
accumulated into diagnostics and never branch control flow (RP002).
"""

from __future__ import annotations

import time as _time
from math import ceil as _ceil
from operator import itemgetter as _itemgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..gpusim.kernel import LAUNCH_OVERHEAD_CYCLES, launch_kernel
from ..graph.csr import CSRGraph
from .ordering import MatchOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .matcher import CuTSMatcher, _RunState

__all__ = [
    "ExpansionArena",
    "QueryPlan",
    "ColumnarEngine",
    "BITSET_MAX_VERTICES",
    "slice_fanouts",
]

BITSET_MAX_VERTICES = 4096
"""Largest ``|V|`` for which the packed adjacency bitset is built.

The bitset makes every remaining-edge probe O(1) bit tests (``|V|²/8``
bytes resident, ≤ 2 MiB at this cap); larger graphs probe the sorted
edge-key index (:attr:`CSRGraph.edge_keys`), about 4× slower per lane."""

Fanout = tuple[str, int, np.ndarray, np.ndarray, int]
"""One constraint's fanout over a frontier:
``(kind, step_position, starts, counts, total)`` — adjacency-offset
starts and per-path degree counts are arena views reused by the anchor
pool gather and the c-intersection charge."""

_fanout_total = _itemgetter(4)

_DTYPES = {
    "bool": np.dtype(np.bool_),
    "f8": np.dtype(np.float64),
    "i8": np.dtype(np.int64),
    "u1": np.dtype(np.uint8),  # repro: ignore[RP003] — byte masks, not ids
}


def slice_fanouts(
    fanouts: tuple[Fanout, ...], start: int, stop: int
) -> tuple[Fanout, ...]:
    """A chunk's fanout table as views of the parent frontier's.

    Chunk peels re-use the parent's gathered starts/counts (only the
    per-chunk totals are re-reduced) instead of re-gathering the CSR
    pointer table per chunk.  Safe while the step-keyed buffers are not
    re-taken — see :attr:`ExpansionArena.fan_epochs`.
    """
    return tuple(
        (kind, j, starts[start:stop], counts[start:stop],
         int(counts[start:stop].sum()))
        for kind, j, starts, counts, _total in fanouts
    )


class ExpansionArena:
    """Preallocated, geometrically-grown expansion workspace.

    One named buffer per workspace role; :meth:`take` returns a
    length-``size`` view, growing the backing array to the next power
    of two when needed.  Views are **invalidated by the next take of
    the same name** — the whole point is that thousands of expansions
    reuse the same steady-state memory.  Buffers whose contents must
    survive recursion (constraint fanouts, carried ancestor columns)
    are keyed by query step: strict DFS guarantees the same name is
    re-taken only after its previous view's readers have finished.
    Trie levels (``ca`` survivor arrays) stay freshly allocated.

    An arena belongs to the thread that runs its engines, one call at a
    time; several engines may share it (a service rank's registry
    gives every serial engine it builds the rank's one arena, DESIGN.md
    §13).  Names mean the same in every engine, so the step-keyed
    fanout epochs live here, beside the buffers they date, and so does
    the graph-independent :meth:`iota` table.
    """

    __slots__ = ("_buffers", "_iota", "fan_epochs", "grow_events")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._iota = np.arange(1024, dtype=np.int64)
        # fan_epochs[step]: fanout tables built at ``step`` so far, by
        # any engine on this arena; a held fanout view is current only
        # while this is unchanged.
        self.fan_epochs: dict[int, int] = {}
        self.grow_events = 0

    @property
    def capacity_bytes(self) -> int:
        """Total bytes currently held by the arena's backing buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def iota(self, size: int) -> np.ndarray:
        """Read-only ``arange(size)`` view from a grown cache.  Growth
        replaces the cache, so views handed out earlier stay valid."""
        if self._iota.size < size:
            capacity = self._iota.size
            while capacity < size:
                capacity <<= 1
            self._iota = np.arange(capacity, dtype=np.int64)
        return self._iota[:size]

    def take(
        self, name: str, size: int, dtype: np.dtype = _DTYPES["i8"]
    ) -> np.ndarray:
        """A reusable view of ``size`` elements named ``name``.

        Contents are unspecified (callers overwrite); the view aliases
        the previous take of the same name by design.
        """
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            capacity = 1024
            while capacity < size:
                capacity <<= 1
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self.grow_events += 1
        return buf[:size]


class QueryPlan:
    """Static per-run tables driving the fused columnar pass.

    Computed once per (data graph, query, order) from
    :meth:`MatchOrder.constraints_at`: the constraint list, whether the
    injectivity check can reject anything, and the fused degree+label
    candidate table per step.
    """

    def __init__(
        self,
        data: CSRGraph,
        query: CSRGraph,
        order: MatchOrder,
        *,
        self_loop_free: bool,
    ) -> None:
        self.order = order
        n_steps = order.num_steps
        out_deg = np.diff(data.indptr)
        in_deg = np.diff(data.rindptr)
        labeled = data.labels is not None and query.labels is not None

        # constraints[s]: ("fwd"|"bwd", j) in the reference engine's
        # order (forward first), so anchor selection tie-breaks match.
        self.constraints: list[tuple[tuple[str, int], ...]] = []
        # filter_tables[s][v]: vertex v passes step s's degree + label
        # filter — one boolean gather instead of three compare passes.
        self.filter_tables: list[np.ndarray | None] = []
        # filter_all[s]: the table is all-true (every data vertex
        # passes), so the gather itself is skipped and the whole pool
        # stays provably live into the intersection stage.
        self.filter_all: list[bool] = []
        # check_inj[s]: the injectivity check at step s can reject a
        # lane.  When the data graph has no self-loops, a candidate
        # adjacent to the vertex in a constrained column can never
        # equal it, so a step whose every column is constrained skips
        # the compare; the modeled instruction charge still covers all
        # ``s`` columns.
        self.check_inj: list[bool] = []
        # fan_names[s]: per-constraint (starts, counts) arena buffer
        # names, precomputed so the hot fanout pass never formats
        # strings.  Step-keyed — see :meth:`ColumnarEngine.
        # constraint_fanouts` for the aliasing argument.
        self.fan_names: list[tuple[tuple[str, str], ...]] = []

        for s in range(n_steps):
            fwd, bwd = order.constraints_at(s)
            cons = tuple(("fwd", j) for j in fwd) + tuple(
                ("bwd", j) for j in bwd
            )
            self.constraints.append(cons)
            self.fan_names.append(
                tuple(
                    (f"fan_s{s}_{kind}{j}", f"fan_c{s}_{kind}{j}")
                    for kind, j in cons
                )
            )
            if s == 0:
                self.filter_tables.append(None)
                self.filter_all.append(True)
                self.check_inj.append(False)
                continue
            q_next = order.sequence[s]
            table = np.ones(data.num_vertices, dtype=np.bool_)
            q_out = query.out_degree(q_next)
            q_in = query.in_degree(q_next)
            if q_out > 0:
                table &= out_deg >= q_out
            if q_in > 0:
                table &= in_deg >= q_in
            if labeled:
                assert data.labels is not None
                assert query.labels is not None
                table &= data.labels == query.labels[q_next]
            self.filter_tables.append(table)
            self.filter_all.append(bool(table.all()))
            constrained = {j for _, j in cons}
            self.check_inj.append(
                not self_loop_free or len(constrained) < s
            )


CarryTable = np.ndarray
"""A frontier's carried state: one int64 ``(step + 1, F)`` table.  Row 0
holds the per-path Bloom signatures, rows ``1..step`` the ancestor
columns (row ``1 + lv`` the vertex matched at trie level ``lv``)."""


class ColumnarEngine:
    """Fused columnar expansion bound to one matcher / data graph.

    Runs on a workspace arena (a private one unless ``arena`` is given)
    and holds the lazily-built per-graph tables (degree vectors, packed
    adjacency bitset, worker-ownership vector, symmetry flag).  The
    engine is pure host-side mechanism: every modeled charge it issues
    is identical to the reference expansion path's.
    """

    def __init__(
        self, matcher: "CuTSMatcher", arena: ExpansionArena | None = None
    ) -> None:
        self.matcher = matcher
        self.data = matcher.data
        self.arena = ExpansionArena() if arena is None else arena
        self._owners: np.ndarray | None = None
        self._vbits: np.ndarray | None = None
        self._bits: np.ndarray | None = None
        self._bits_built = False
        self._self_loop_free: bool | None = None
        self._symmetric: bool | None = None

    # ------------------------------------------------------------------
    # Cached per-graph tables
    # ------------------------------------------------------------------
    def owners(self, size: int) -> np.ndarray:
        """Worker-ownership prefix ``arange(size) % num_workers``."""
        owners = self._owners
        if owners is None or owners.size < size:
            capacity = 1024
            while capacity < size:
                capacity <<= 1
            owners = (
                np.arange(capacity, dtype=np.int64)
                % self.matcher.num_workers
            )
            self._owners = owners
        return owners[:size]

    @property
    def self_loop_free(self) -> bool:
        """Whether the data graph provably has no self-loops (checked
        once; enables skipping constraint columns in injectivity)."""
        if self._self_loop_free is None:
            n = self.data.num_vertices
            if n == 0:
                self._self_loop_free = True
            else:
                v = np.arange(n, dtype=np.int64)
                self._self_loop_free = not bool(
                    self.data.has_edges(v, v).any()
                )
        return self._self_loop_free

    def vbits(self) -> np.ndarray:
        """Per-vertex Bloom bit table ``1 << (v & 63)`` (int64), so the
        signature build and the membership test are plain gathers."""
        vb = self._vbits
        if vb is None:
            n = max(1, self.data.num_vertices)
            vb = np.left_shift(
                np.int64(1),
                np.bitwise_and(np.arange(n, dtype=np.int64), 63),
            )
            self._vbits = vb
        return vb

    @property
    def symmetric(self) -> bool:
        """Whether the data graph's CSR equals its reverse CSR (checked
        once).  On a symmetric graph a backward constraint is the same
        predicate as its forward twin, so mirrored fanouts are shared
        and probes against the anchor column are elided — pure host
        shortcuts; the modeled charges still cover every constraint."""
        if self._symmetric is None:
            d = self.data
            self._symmetric = bool(
                np.array_equal(d.indptr, d.rindptr)
                and np.array_equal(d.indices, d.rindices)
            )
        return self._symmetric

    def _bitset(self) -> np.ndarray | None:
        """Packed row-major adjacency bitset (or None past the cap): bit
        ``u * |V| + v`` is set for every edge key."""
        if not self._bits_built:
            self._bits_built = True
            n = self.data.num_vertices
            if 0 < n <= BITSET_MAX_VERTICES:
                dense = np.zeros(n * n, dtype=np.bool_)
                dense[self.data.edge_keys] = True
                self._bits = np.packbits(dense, bitorder="little")
        return self._bits

    def plan_for(self, query: CSRGraph, order: MatchOrder) -> QueryPlan:
        """Build the static per-run tables for one query."""
        return QueryPlan(
            self.data, query, order, self_loop_free=self.self_loop_free
        )

    # ------------------------------------------------------------------
    # Ancestor carry (incremental columns + Bloom signature)
    # ------------------------------------------------------------------
    def bloom_of(self, anc: np.ndarray) -> np.ndarray:
        """Per-path 64-bit Bloom signature of the ancestor set (bit
        ``v & 63`` per ancestor vertex) of ``(step, F)`` columns.  Built
        only when a carry table is rebuilt from the trie (it becomes
        row 0); otherwise carried forward by :meth:`child_carry`."""
        return np.bitwise_or.reduce(
            self.vbits().take(anc, mode="clip"), axis=0
        )

    def child_carry(
        self, table: CarryTable, pa_local: np.ndarray, ca: np.ndarray
    ) -> CarryTable:
        """The child frontier's table: every row of the surviving
        parents gathered by ``pa_local`` in one axis-1 take, the new
        column written in place below them, and its Bloom bit ORed into
        row 0.  The table is freshly owned and lives exactly as long as
        the child subtree's items reference it."""
        rows = table.shape[0]
        child = np.empty((rows + 1, ca.shape[0]), dtype=np.int64)
        table.take(pa_local, axis=1, out=child[:rows], mode="clip")
        child[rows] = ca
        vbit = self.arena.take("carry_vbit", ca.shape[0])
        self.vbits().take(ca, out=vbit, mode="clip")
        np.bitwise_or(child[0], vbit, out=child[0])
        return child

    # ------------------------------------------------------------------
    # Fanouts (shared by pool estimate, anchor choice, c/p choice)
    # ------------------------------------------------------------------
    def constraint_fanouts(
        self, plan: QueryPlan, table: CarryTable, step: int
    ) -> tuple[Fanout, ...]:
        """Adjacency starts/counts of every constraint over the
        frontier; arrays are arena views reused by the pool gather.
        On a symmetric graph a backward constraint shares its forward
        twin's arrays (same pointer table, same column).  Buffers are
        keyed by step so chunk peels can hold :func:`slice_fanouts`
        views across the peeled chunks' (strictly deeper) recursion;
        each call advances the step's :attr:`ExpansionArena.fan_epochs`
        entry."""
        arena = self.arena
        arena.fan_epochs[step] = arena.fan_epochs.get(step, 0) + 1
        data = self.data
        sym = self.symmetric
        out: list[Fanout] = []
        done: dict[int, Fanout] = {}
        names = plan.fan_names[step]
        for idx, (kind, j) in enumerate(plan.constraints[step]):
            if sym:
                prev = done.get(j)
                if prev is not None:
                    out.append((kind, j, prev[2], prev[3], prev[4]))
                    continue
            ptr = data.indptr if kind == "fwd" else data.rindptr
            col = table[1 + j]
            size = col.shape[0]
            starts = arena.take(names[idx][0], size)
            counts = arena.take(names[idx][1], size)
            ptr.take(col, out=starts, mode="clip")
            ptr[1:].take(col, out=counts, mode="clip")
            np.subtract(counts, starts, out=counts)
            entry: Fanout = (kind, j, starts, counts, int(counts.sum()))
            out.append(entry)
            if sym:
                done[j] = entry
        return tuple(out)

    # ------------------------------------------------------------------
    # The fused expansion
    # ------------------------------------------------------------------
    def extend(
        self,
        plan: QueryPlan,
        table: CarryTable,
        step: int,
        state: "_RunState",
        fanouts: tuple[Fanout, ...] | None = None,
        count_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray] | int:
        """One fused expansion over ``table``'s frontier at ``step``.

        Returns ``(pa_local, ca)`` — freshly-owned survivor arrays
        (local parent indices into the frontier, candidate vertices) —
        or, with ``count_only=True`` (leaf steps of a count-only run),
        just the survivor count, skipping the extraction entirely.
        Charges, statistics, and RNG draws replicate the reference
        path bit-exactly; the counters land in one batched update.
        """
        data = self.data
        cost = state.cost
        arena = self.arena
        matcher = self.matcher
        vw = matcher.virtual_warp_size
        tw = cost.device.transaction_words
        profile = state.profile
        t0 = _time.perf_counter() if profile else 0.0
        num_frontier = table.shape[1]

        if fanouts is None:
            fanouts = self.constraint_fanouts(plan, table, step)

        # Batched model bookkeeping: charges accumulate locally and land
        # on the cost model in one update before the launch — same
        # totals and per-charge transaction counts as the reference
        # path's charge_* call sequence.
        r_words = 0
        r_txn = 0
        sh_reads = 0
        sh_writes = 0
        instr = 0

        # ----- anchor pool gather -------------------------------------
        if not fanouts:
            # Disconnected query step: pool = frontier x all vertices.
            n = data.num_vertices
            anchor_kind, anchor_j = "none", -1
            total = num_frontier * n
            path_ids = arena.take("path_ids", total)
            path_ids.reshape(num_frontier, n)[:] = arena.iota(num_frontier)[
                :, None
            ]
            cands = arena.take("cands", total)
            cands.reshape(num_frontier, n)[:] = arena.iota(n)[None, :]
            pool_counts = arena.take("pool_counts", num_frontier)
            pool_counts[:] = n
            cum = None
            if total:
                r_words += total
                r_txn += num_frontier * max(
                    1, _ceil(total / num_frontier / tw)
                )
        else:
            anchor = min(fanouts, key=_fanout_total)
            anchor_kind, anchor_j, starts, pool_counts, total = anchor
            indices = data.indices if anchor_kind == "fwd" else data.rindices
            cum = arena.take("cum", num_frontier + 1)
            cum[0] = 0
            np.add.accumulate(pool_counts, out=cum[1:])
            # offsets[k] = starts[path] - cum[path] + k, flat-gathered.
            roff = arena.take("roff", num_frontier)
            np.subtract(starts, cum[:num_frontier], out=roff)
            path_ids = arena.iota(num_frontier).repeat(pool_counts)
            offsets = arena.take("offsets", total)
            roff.take(path_ids, out=offsets, mode="clip")
            np.add(offsets, arena.iota(total), out=offsets)
            cands = arena.take("cands", total)
            indices.take(offsets, out=cands, mode="clip")
            if total:
                r_words += total
                r_txn += num_frontier * max(
                    1, _ceil(total / num_frontier / tw)
                )
            sh_writes += total
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("anchor_gather", t1 - t0)
            t0 = t1

        # ----- fused degree + label table filter ----------------------
        # ``mask is None`` means "every pool lane is live" — the stages
        # below materialise a mask only at the first lane that can
        # actually die, so an all-true filter table costs nothing.
        mask: np.ndarray | None = None
        if not plan.filter_all[step]:
            passes = plan.filter_tables[step]
            assert passes is not None
            mask = arena.take("mask", total, _DTYPES["bool"])
            passes.take(cands, out=mask, mode="clip")
        instr += 2 * total
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("filter", t1 - t0)
            t0 = t1

        # ----- remaining edge constraints, one batched sweep ----------
        rest = [
            entry
            for entry in fanouts
            if entry[0] != anchor_kind or entry[1] != anchor_j
        ]
        num_rest = len(rest)
        nz_paths = -1  # paths with a non-empty pool (lazily counted)
        if num_rest:
            live1 = total if mask is None else int(np.count_nonzero(mask))
            if live1:
                # Inline of CuTSMatcher._choose_intersection (same
                # arithmetic — the non-anchor entries are exactly
                # ``rest``); ``cost_c`` doubles as the c-charge's
                # degree-sum total when no pool is empty.
                cost_c = 0
                for entry in rest:
                    cost_c += entry[4]
                ci = matcher.config.intersection
                if ci == "c" or ci == "p":
                    kind = ci
                else:
                    kind = (
                        "p"
                        if live1 * matcher._mean_in_degree * num_rest
                        < cost_c
                        else "c"
                    )
                state.stats.record_intersection(kind, num_rest)
                # The c/p charge reads the *pre-probe* live set, like
                # the reference path — compute it before the probes.
                if kind == "c":
                    # Paths with >= 1 filter-surviving candidate == the
                    # unique live path set.  All-live pools reduce this
                    # to "paths with a non-empty pool"; otherwise a
                    # segment-ANY over the nondecreasing path_ids, via
                    # reduceat on the pool-offset boundaries.  A real
                    # anchor always has a cumulative-offsets table.
                    assert cum is not None
                    words = 0
                    if mask is None:
                        nz_paths = int(np.count_nonzero(pool_counts))
                        seg = max(1, nz_paths)
                        if nz_paths == num_frontier:
                            # No empty pools: the fanout totals already
                            # hold the charged per-path degree sums.
                            words = cost_c
                        else:
                            nzf = arena.take(
                                "flags", num_frontier, _DTYPES["bool"]
                            )
                            np.greater(pool_counts, 0, out=nzf)
                            for entry in rest:
                                words += int(np.sum(entry[3], where=nzf))
                    else:
                        flags = arena.take(
                            "flags", num_frontier, _DTYPES["bool"]
                        )
                        seg_starts = arena.take(
                            "seg_starts", num_frontier
                        )
                        np.minimum(
                            cum[:num_frontier], total - 1, out=seg_starts
                        )
                        raw = np.logical_or.reduceat(mask, seg_starts)
                        np.greater(pool_counts, 0, out=flags)
                        np.logical_and(flags, raw, out=flags)
                        seg = max(1, int(np.count_nonzero(flags)))
                        for entry in rest:
                            words += int(np.sum(entry[3], where=flags))
                    sh_reads += words
                else:
                    if mask is None:
                        live_cands = cands
                    else:
                        live_cands = cands.compress(mask)
                    words = int(
                        (
                            data.rindptr[live_cands + 1]
                            - data.rindptr[live_cands]
                        ).sum()
                    )
                    seg = max(1, live_cands.size)
                    sh_reads += live_cands.size
                if words:
                    r_words += words
                    r_txn += seg * max(1, _ceil(words / seg / tw))
                instr += words
                probes = rest
                if self.symmetric:
                    # Anchor-column probes are implied by pool
                    # membership (edge both ways), and a fwd/bwd pair
                    # on the same column is one predicate: probe once.
                    seen: set[int] = set()
                    pruned: list[Fanout] = []
                    for entry in rest:
                        j = entry[1]
                        if j == anchor_j or j in seen:
                            continue
                        seen.add(j)
                        pruned.append(entry)
                    probes = pruned
                if probes:
                    if mask is None:
                        mask = arena.take("mask", total, _DTYPES["bool"])
                        mask[:] = True
                    self._apply_constraints(
                        probes, table, path_ids, cands, mask, total
                    )
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("intersection", t1 - t0)
            t0 = t1

        # ----- injectivity: candidate must be new on its path ---------
        live2 = total if mask is None else int(np.count_nonzero(mask))
        rejected = 0
        if live2:
            if plan.check_inj[step]:
                # Bloom prefilter: a candidate whose bit is absent from
                # its path's signature (row 0) is provably new; the
                # exact compare runs only on suspect lanes.
                hit = arena.take("bloom_hit", total)
                table[0].take(path_ids, out=hit, mode="clip")
                bit = arena.take("bloom_bit", total)
                self.vbits().take(cands, out=bit, mode="clip")
                np.bitwise_and(hit, bit, out=hit)
                maybe = arena.take("bloom_maybe", total, _DTYPES["bool"])
                np.not_equal(hit, 0, out=maybe)
                if mask is not None:
                    np.logical_and(maybe, mask, out=maybe)
                sus = maybe.nonzero()[0]
                k = sus.size
                if k:
                    sp = arena.take("sus_p", k)
                    path_ids.take(sus, out=sp, mode="clip")
                    sc = arena.take("sus_c", k)
                    cands.take(sus, out=sc, mode="clip")
                    # Whole-table compare: one gather of every ancestor
                    # row + one broadcast equal + one OR reduction.
                    # Constraint rows never match a live candidate on a
                    # self-loop-free graph, so checking them too leaves
                    # every result unchanged.
                    eqm = self._inj_matrix(table, sp, sc)
                    if count_only:
                        # Surviving paths are injective, so a candidate
                        # equals at most one ancestor: lanes-with-a-hit
                        # == total hits.  Count-only lanes are never
                        # extracted, so the mask is left as it is.
                        rejected = int(np.count_nonzero(eqm))
                    else:
                        dup = np.logical_or.reduce(eqm, axis=0)
                        rejected = int(np.count_nonzero(dup))
                        if rejected:
                            mask = self._kill(mask, sus, dup, total)
            # Charged for all ``step`` columns even when the self-loop
            # analysis lets the host skip the compare: the modeled
            # kernel still compares every ancestor.
            instr += live2 * step

        # Suspects are live lanes, so injectivity killed exactly the
        # ``rejected`` ones.
        results = live2 - rejected
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("injectivity", t1 - t0)
            t0 = t1

        # ----- batched model bookkeeping ------------------------------
        w_words = 2 * results
        # Integer virtual-warp steps t = ceil(c / vw); every quantity
        # below is an exact small integer, so the reference's float
        # work table is materialised only on the traced/oversubscribed
        # launch path (identical IEEE values — all products < 2^52).
        steps = arena.take("steps", num_frontier)
        np.add(pool_counts, vw - 1, out=steps)
        np.floor_divide(steps, vw, out=steps)
        # idle = sum(ceil(max(c,1)/vw)*vw - c): zero-work paths still
        # occupy one virtual-warp step each (reference semantics).
        if nz_paths < 0:
            nz_paths = int(np.count_nonzero(pool_counts))
        num_zero = num_frontier - nz_paths
        idle = int(steps.sum()) * vw - total + vw * num_zero
        cost.dram_read_words += r_words
        cost.dram_read_transactions += r_txn
        cost.dram_write_words += w_words
        if w_words:
            cost.dram_write_transactions += max(1, _ceil(w_words / tw))
        cost.shared_read_words += sh_reads
        cost.shared_write_words += sh_writes
        cost.atomic_ops += results
        cost.instructions += instr
        cost.idle_lane_cycles += idle
        num_workers = matcher.num_workers
        if cost.trace is None and num_frontier <= num_workers:
            # Inline of launch_kernel's <=1-item-per-worker schedule
            # (same cycles; the per-launch record exists only when
            # tracing, and the mean/imbalance diagnostics feed nothing
            # else).  work[i] = t[i]*(1+rest)+2 is an exact integer in
            # f8, so its max is computed without building the table.
            if num_frontier:
                compute = float(int(steps.max()) * (1 + num_rest) + 2)
            else:
                compute = 0.0
            memory = (
                (r_words + w_words) / cost.device.dram_words_per_cycle
            )
            cost.cycles += LAUNCH_OVERHEAD_CYCLES + max(compute, memory)
            cost.kernel_launches += 1
        else:
            work = arena.take("work", num_frontier, _DTYPES["f8"])
            np.multiply(steps, float(1 + num_rest), out=work)
            np.add(work, 2.0, out=work)
            launch_kernel(
                cost,
                f"search_kernel_d{step}",
                work,
                num_workers,
                r_words + w_words,
                rng=state.rng,
                owners=self.owners(num_frontier),
            )

        state.tick()
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("bookkeeping", t1 - t0)
            t0 = t1
        if count_only:
            return results

        # ----- write-out: compact the survivors -----------------------
        if mask is None:
            # path_ids is freshly owned (a real anchor's repeat result);
            # the arena-backed disconnected-step table must be copied.
            pa_local = path_ids if fanouts else path_ids.copy()
            ca = cands.copy()
        else:
            pa_local = path_ids.compress(mask)
            ca = cands.compress(mask)
        if profile:
            t1 = _time.perf_counter()
            state.stats.record_stage("write_out", t1 - t0)
        return pa_local, ca

    # ------------------------------------------------------------------
    def _inj_matrix(
        self, table: CarryTable, sp: np.ndarray, sc: np.ndarray
    ) -> np.ndarray:
        """``(step, k)`` equality matrix: every ancestor row of the
        table gathered at the suspect paths ``sp``, compared against
        the suspect candidates ``sc``."""
        num_rows = table.shape[0] - 1
        k = sp.shape[0]
        sub = self.arena.take("inj_sub", num_rows * k).reshape(num_rows, k)
        table[1:].take(sp, out=sub, mode="clip", axis=1)
        eqm = self.arena.take(
            "inj_eqm", num_rows * k, _DTYPES["bool"]
        ).reshape(num_rows, k)
        np.equal(sub, sc, out=eqm)
        return eqm

    def _kill(
        self,
        mask: np.ndarray | None,
        sus: np.ndarray,
        dup: np.ndarray,
        total: int,
    ) -> np.ndarray:
        """Clear the duplicate suspect lanes (``sus[dup]``) in ``mask``,
        materialising an all-live mask first."""
        if mask is None:
            mask = self.arena.take("mask", total, _DTYPES["bool"])
            mask[:] = True
        mask[sus.compress(dup)] = False
        return mask

    # ------------------------------------------------------------------
    def _apply_constraints(
        self,
        rest: Sequence[Fanout],
        table: CarryTable,
        path_ids: np.ndarray,
        cands: np.ndarray,
        mask: np.ndarray,
        total: int,
    ) -> None:
        """AND every remaining edge constraint into ``mask`` over the
        whole pool (no nonzero round trip; lanes already dead stay
        dead, so probing them is free of semantic effect).  A probe
        reads the packed bitset up to :data:`BITSET_MAX_VERTICES` and
        the data graph's sorted edge-key index past it."""
        bits = self._bitset()
        src = self.arena.take("probe_src", total)
        for kind, j, _starts, _counts, _total in rest:
            table[1 + j].take(path_ids, out=src, mode="clip")
            sources, targets = (
                (src, cands) if kind == "fwd" else (cands, src)
            )
            if bits is None:
                ok = self.data.has_edges(sources, targets)
            else:
                ok = self._bit_probe(bits, sources, targets)
            np.logical_and(mask, ok, out=mask)

    def _bit_probe(
        self, bits: np.ndarray, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Edge existence via the packed adjacency bitset: bit
        ``u * |V| + v``, one byte gather plus shifts, into arena
        buffers (the returned view dies with the next probe)."""
        arena = self.arena
        total = sources.shape[0]
        key = arena.take("probe_key", total)
        bitpos = arena.take("probe_bit", total)
        byte = arena.take("probe_byte", total, _DTYPES["u1"])
        ok = arena.take("probe_ok", total, _DTYPES["bool"])
        np.multiply(sources, self.data.num_vertices, out=key)
        np.add(key, targets, out=key)
        np.bitwise_and(key, 7, out=bitpos)
        np.right_shift(key, 3, out=key)
        bits.take(key, out=byte, mode="clip")
        np.right_shift(byte, bitpos, out=key)
        np.bitwise_and(key, 1, out=key)
        np.not_equal(key, 0, out=ok)
        return ok

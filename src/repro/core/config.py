"""Configuration for the cuTS matcher."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpusim.device import V100, DeviceSpec

__all__ = ["CuTSConfig", "IntersectionStrategy"]

IntersectionStrategy = str
"""One of ``"adaptive"``, ``"c"``, ``"p"`` (micro-kernel choice, §4.1.3)."""

_VALID_STRATEGIES = ("adaptive", "c", "p")
_VALID_ORDERINGS = ("max_degree", "id", "max_constraints", "rare_label")
_VALID_ENGINES = ("columnar", "reference")


@dataclass(frozen=True)
class CuTSConfig:
    """Tunables of the cuTS engine; defaults follow the paper.

    Attributes
    ----------
    device:
        Simulated device the kernels are charged to.
    chunk_size:
        Hybrid BFS–DFS chunk width; "we empirically found that chunk size
        of 512 achieves a good performance" (§4.1.2).
    randomize_placement:
        Shuffle partial-path placement before the strided schedule — the
        paper's intra-warp load-balance fix.  On by default.
    intersection:
        Micro-kernel selection: ``"adaptive"`` (paper default), or pin
        ``"c"`` / ``"p"`` for the ablation.
    ordering:
        Query-vertex ordering: ``"max_degree"`` (paper) or ``"id"``
        (GSI-style, kept for the ordering ablation).
    engine:
        Expansion-kernel implementation.  ``"columnar"`` (default) runs
        the allocation-free columnar frontier engine
        (:mod:`repro.core.columnar`); ``"reference"`` runs the original
        straightforward expansion path, kept as the bit-exact oracle the
        columnar engine is tested against.  Counts, materialised rows,
        modeled time and statistics are identical between the two.
    profile_expansion:
        Record per-stage wall-clock timings (anchor-gather / filter /
        intersection / injectivity / bookkeeping / write-out, plus the
        executor's carry and unaccounted remainder) of every fused
        expansion into ``SearchStats.stage_wall_s``.  Off by
        default — the reads cost a few ``perf_counter`` calls per
        expansion and the timings are diagnostic only (they never
        influence control flow).
    virtual_warp_size:
        Fixed virtual-warp width; ``0`` (default) derives it from the
        data graph's average degree (§4.1.2).
    trie_buffer_fraction:
        Fraction of free device memory claimed for the PA/CA arrays —
        "two big arrays whose size equals half of the free space" ⇒ 0.5.
    seed:
        Seed for the placement shuffle.
    max_materialized:
        Safety cap on materialised matches (counting is never capped).
    trace_kernels:
        Retain a per-launch kernel trace on the run's cost model (see
        :mod:`repro.gpusim.trace`).  Off by default (it grows with the
        number of launches).
    neighborhood_filter:
        Apply the GraphQL/GADDI-style neighbourhood-degree dominance
        filter to the root candidate set (§3; an optional extension —
        the paper's engine uses the plain degree filter).  Sound: never
        changes the match count, only prunes earlier.
    workers:
        Worker **processes** for the multi-core execution engine
        (:mod:`repro.parallel`): the level-0 candidate set is over-split
        into strided intervals (Algorithm 3's ``init_match`` striding,
        one CPU core playing one GPU) and interval results are merged
        exactly.  ``1`` (default) runs the classic in-process engine.
    oversplit:
        Strided intervals submitted per worker (the work queue holds
        ``oversplit * workers`` intervals), so a fast worker steals the
        slack of a slow one — the load-balance margin of §4.2.
    memory_budget_mb:
        Soft host-memory budget (MiB) for live PA/CA allocations,
        enforced by :class:`~repro.core.governor.MemoryGovernor`: under
        pressure the BFS chunk size is halved (degrading toward pure
        DFS) and, in durable runs, completed frontier chunks are spilled
        to the checkpoint store.  ``0`` (default) = unlimited.  Counts
        are bit-identical with and without a budget.
    checkpoint_every:
        Durable-job snapshot cadence: expansions between checkpoint
        snapshots in the serial engine, event-loop iterations between
        ledger snapshots in the distributed runtime.
    lease_timeout_s:
        Worker watchdog: wall-clock silence (no heartbeat) past which a
        multi-core shard lease is considered lost and the shard is
        re-leased to another worker.
    lease_retries:
        Re-lease attempts per shard (beyond the first lease) before the
        multi-core engine gives up and raises.
    service_queue_depth:
        Matching service (:mod:`repro.service`): bound on the scheduler
        queue.  A submit past this depth is **rejected with a reason**
        (admission control), never silently dropped.
    service_cache_bytes:
        Byte budget of the service's LRU result+plan cache; entries are
        evicted least-recently-used past it, and the live cache bytes
        are charged against the memory governor.
    service_max_query_vertices:
        Admission bound on query size: requests whose query has more
        vertices are rejected as oversized.  ``0`` (default) disables
        the bound.
    service_request_timeout_s:
        Per-connection socket timeout of the HTTP face: a client that
        stalls mid-request (slowloris) is disconnected after this many
        seconds instead of pinning a handler thread forever.
    service_max_body_bytes:
        Upper bound on an HTTP request body; larger bodies are refused
        with ``413 Payload Too Large`` before being read into memory.
    service_degraded_after:
        Consecutive dispatch-loop ticks at or above the governor's
        high-water pressure before the service enters **degraded
        read-only mode** (cached count-only answers are served, all
        other work is rejected with ``503``); the same count of healthy
        ticks exits it.  Hysteresis keeps one transient spike from
        flapping the mode.
    service_route_timeout_s:
        Router-side wall clock per routed attempt: a replica that has
        not answered within this window is treated as failed and the
        request fails over to the next replica (the original attempt
        is revoked — its late answer, if any, is never integrated).
    service_heal_after_ticks:
        Supervisor ticks a rank must stay crashed before the cluster
        restarts it from its durable state dir; the restarted replica
        is re-admitted to the ring only after it has caught up from
        the content-addressed graph store.
    versioning_max_versions:
        Retained versions per named graph (head included).  Mutating a
        graph past this depth prunes the oldest retained version: its
        engine closes, its cache entries drop, and ``as_of`` requests
        against it are refused as pruned.  Must be >= 1 (``1`` keeps
        only the head — time travel effectively off).
    """

    device: DeviceSpec = field(default=V100)
    chunk_size: int = 512
    randomize_placement: bool = True
    intersection: IntersectionStrategy = "adaptive"
    ordering: str = "max_degree"
    engine: str = "columnar"
    profile_expansion: bool = False
    virtual_warp_size: int = 0
    trie_buffer_fraction: float = 0.5
    seed: int = 0
    max_materialized: int | None = None
    trace_kernels: bool = False
    neighborhood_filter: bool = False
    workers: int = 1
    oversplit: int = 4
    memory_budget_mb: int = 0
    checkpoint_every: int = 64
    lease_timeout_s: float = 30.0
    lease_retries: int = 2
    service_queue_depth: int = 64
    service_cache_bytes: int = 32 * 1024 * 1024
    service_max_query_vertices: int = 0
    service_request_timeout_s: float = 30.0
    service_max_body_bytes: int = 8 * 1024 * 1024
    service_degraded_after: int = 3
    service_route_timeout_s: float = 10.0
    service_heal_after_ticks: int = 2
    versioning_max_versions: int = 4

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.intersection not in _VALID_STRATEGIES:
            raise ValueError(
                f"intersection must be one of {_VALID_STRATEGIES}, "
                f"got {self.intersection!r}"
            )
        if self.ordering not in _VALID_ORDERINGS:
            raise ValueError(
                f"ordering must be one of {_VALID_ORDERINGS}, "
                f"got {self.ordering!r}"
            )
        if self.engine not in _VALID_ENGINES:
            raise ValueError(
                f"engine must be one of {_VALID_ENGINES}, "
                f"got {self.engine!r}"
            )
        if self.virtual_warp_size < 0:
            raise ValueError("virtual_warp_size must be >= 0 (0 = auto)")
        if not 0.0 < self.trie_buffer_fraction <= 1.0:
            raise ValueError("trie_buffer_fraction must be in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.oversplit < 1:
            raise ValueError("oversplit must be >= 1")
        if self.memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0 (0 = unlimited)")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if self.lease_retries < 0:
            raise ValueError("lease_retries must be non-negative")
        if self.service_queue_depth < 1:
            raise ValueError("service_queue_depth must be >= 1")
        if self.service_cache_bytes < 0:
            raise ValueError("service_cache_bytes must be >= 0 (0 = no cache)")
        if self.service_max_query_vertices < 0:
            raise ValueError(
                "service_max_query_vertices must be >= 0 (0 = unlimited)"
            )
        if self.service_request_timeout_s <= 0:
            raise ValueError("service_request_timeout_s must be positive")
        if self.service_max_body_bytes < 1024:
            raise ValueError("service_max_body_bytes must be >= 1024")
        if self.service_degraded_after < 1:
            raise ValueError("service_degraded_after must be >= 1")
        if self.service_route_timeout_s <= 0:
            raise ValueError("service_route_timeout_s must be positive")
        if self.service_heal_after_ticks < 1:
            raise ValueError("service_heal_after_ticks must be >= 1")
        if self.versioning_max_versions < 1:
            raise ValueError("versioning_max_versions must be >= 1")

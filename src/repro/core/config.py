"""Configuration for the cuTS matcher: the engine choices that decide
what is enumerated.

Every field of :class:`CuTSConfig` feeds
:func:`~repro.fingerprint.config_fingerprint`, so a checkpoint or a
cached answer is never reused under a config that could enumerate
differently.  Knobs that cannot change a result live where they are
read: the memory budget and the diagnostics are keywords of
:class:`~repro.core.matcher.CuTSMatcher`, worker counts and the
snapshot cadence are keywords of the entry points that use them, and
the serving knobs are :class:`~repro.service.config.ServiceConfig`.
"""

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
    """Engine choices of cuTS, fingerprinted whole; defaults follow the
    paper.

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
    neighborhood_filter:
        Apply the GraphQL/GADDI-style neighbourhood-degree dominance
        filter to the root candidate set (§3; an optional extension —
        the paper's engine uses the plain degree filter).  Sound: never
        changes the match count, only prunes earlier.
    """

    device: DeviceSpec = field(default=V100)
    chunk_size: int = 512
    randomize_placement: bool = True
    intersection: IntersectionStrategy = "adaptive"
    ordering: str = "max_degree"
    engine: str = "columnar"
    virtual_warp_size: int = 0
    trie_buffer_fraction: float = 0.5
    seed: int = 0
    max_materialized: int | None = None
    neighborhood_filter: bool = False

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

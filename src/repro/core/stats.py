"""Search statistics collected during a match run.

The paper reports per-depth candidate counts ("785x fewer candidates than
GSI at depth 1, 26,000x at depth 2"), chunk counts, and peak storage;
:class:`SearchStats` accumulates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SearchStats"]


@dataclass
class SearchStats:
    """Mutable per-run statistics."""

    paths_per_depth: list[int] = field(default_factory=list)
    chunks_processed: int = 0
    max_chunk_depth: int = 0
    peak_trie_words: int = 0
    peak_frontier: int = 0
    intersection_calls: dict[str, int] = field(
        default_factory=lambda: {"c": 0, "p": 0}
    )
    chunk_halvings: int = 0
    spilled_chunks: int = 0
    peak_tracked_bytes: int = 0
    cancelled_at_dispatch: int = 0
    stage_wall_s: dict[str, float] = field(default_factory=dict)

    def record_depth(self, depth: int, num_paths: int) -> None:
        """Accumulate paths produced at a (0-based) depth.

        Chunked runs hit the same depth many times; counts add up to the
        BFS-equivalent totals.
        """
        while len(self.paths_per_depth) <= depth:
            self.paths_per_depth.append(0)
        self.paths_per_depth[depth] += num_paths
        self.peak_frontier = max(self.peak_frontier, num_paths)

    def record_chunk(self, depth: int) -> None:
        self.chunks_processed += 1
        self.max_chunk_depth = max(self.max_chunk_depth, depth)

    def record_trie_words(self, words: int) -> None:
        self.peak_trie_words = max(self.peak_trie_words, words)

    def record_intersection(self, kind: str, calls: int = 1) -> None:
        self.intersection_calls[kind] = (
            self.intersection_calls.get(kind, 0) + calls
        )

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock seconds spent in one expansion stage
        (anchor_gather / filter / intersection / injectivity /
        bookkeeping / write_out / carry / unaccounted).  Only populated
        when ``CuTSConfig.profile_expansion`` is on; purely diagnostic,
        never read by the engine."""
        self.stage_wall_s[stage] = self.stage_wall_s.get(stage, 0.0) + seconds

    def record_governor(self, governor: object) -> None:
        """Fold a :class:`~repro.core.governor.MemoryGovernor`'s
        counters into this run's statistics (additive; peaks max)."""
        self.chunk_halvings += int(getattr(governor, "chunk_halvings", 0))
        self.spilled_chunks += int(getattr(governor, "spill_count", 0))
        self.peak_tracked_bytes = max(
            self.peak_tracked_bytes,
            int(getattr(governor, "peak_tracked_bytes", 0)),
        )

    def to_json(self) -> dict:
        """Plain-JSON form for checkpoint snapshots."""
        return {
            "paths_per_depth": list(self.paths_per_depth),
            "chunks_processed": self.chunks_processed,
            "max_chunk_depth": self.max_chunk_depth,
            "peak_trie_words": self.peak_trie_words,
            "peak_frontier": self.peak_frontier,
            "intersection_calls": dict(self.intersection_calls),
            "chunk_halvings": self.chunk_halvings,
            "spilled_chunks": self.spilled_chunks,
            "peak_tracked_bytes": self.peak_tracked_bytes,
            "cancelled_at_dispatch": self.cancelled_at_dispatch,
            "stage_wall_s": dict(self.stage_wall_s),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SearchStats":
        """Rebuild statistics persisted by :meth:`to_json`."""
        stats = cls()
        stats.paths_per_depth = [int(x) for x in payload["paths_per_depth"]]
        stats.chunks_processed = int(payload["chunks_processed"])
        stats.max_chunk_depth = int(payload["max_chunk_depth"])
        stats.peak_trie_words = int(payload["peak_trie_words"])
        stats.peak_frontier = int(payload["peak_frontier"])
        stats.intersection_calls = {
            str(k): int(v) for k, v in payload["intersection_calls"].items()
        }
        stats.chunk_halvings = int(payload.get("chunk_halvings", 0))
        stats.spilled_chunks = int(payload.get("spilled_chunks", 0))
        stats.peak_tracked_bytes = int(payload.get("peak_tracked_bytes", 0))
        stats.cancelled_at_dispatch = int(
            payload.get("cancelled_at_dispatch", 0)
        )
        stats.stage_wall_s = {
            str(k): float(v)
            for k, v in payload.get("stage_wall_s", {}).items()
        }
        return stats

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Fold another run's statistics into this one (associative).

        Per-depth path counts and chunk counts add (two root intervals
        partition the same search tree, so their depth totals sum to the
        serial run's); peaks take the max (intervals run concurrently,
        each on its own device/process).  Returns ``self`` for chaining.
        """
        while len(self.paths_per_depth) < len(other.paths_per_depth):
            self.paths_per_depth.append(0)
        for depth, num_paths in enumerate(other.paths_per_depth):
            self.paths_per_depth[depth] += num_paths
        self.chunks_processed += other.chunks_processed
        self.max_chunk_depth = max(self.max_chunk_depth, other.max_chunk_depth)
        self.peak_trie_words = max(self.peak_trie_words, other.peak_trie_words)
        self.peak_frontier = max(self.peak_frontier, other.peak_frontier)
        for kind, calls in other.intersection_calls.items():
            self.intersection_calls[kind] = (
                self.intersection_calls.get(kind, 0) + calls
            )
        self.chunk_halvings += other.chunk_halvings
        self.spilled_chunks += other.spilled_chunks
        self.peak_tracked_bytes = max(
            self.peak_tracked_bytes, other.peak_tracked_bytes
        )
        self.cancelled_at_dispatch += other.cancelled_at_dispatch
        for stage, seconds in other.stage_wall_s.items():
            self.stage_wall_s[stage] = (
                self.stage_wall_s.get(stage, 0.0) + seconds
            )
        return self

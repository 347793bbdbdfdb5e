"""Memory governor: a soft host-byte budget for PA/CA allocations.

The paper's hybrid BFS–DFS chunking (§4.1.2) exists because the full
frontier does not fit in device memory; the simulated device budget
(``trie_buffer_fraction`` of free device words) reproduces that.  What
the seed had no bound on at all is **host** memory: a long enumeration
with a deep stack of pending chunks grows without limit and dies on OOM
instead of degrading.

:class:`MemoryGovernor` closes that gap.  It tracks the live PA/CA
footprint of a run (in bytes; one trie word is one ``int64``), and:

* below ``soft_fraction`` of the budget it does nothing;
* past ``soft_fraction`` it **halves the BFS chunk size** — repeatedly,
  one extra halving per half-of-the-remaining-headroom consumed — so a
  run under pressure degrades smoothly toward paper-style DFS-chunked
  execution (chunk size 1 = pure DFS) instead of aborting;
* past ``high_water`` it asks the caller to **spill** completed frontier
  chunks to the checkpoint store (:meth:`should_spill`); the durable
  runner (:mod:`repro.checkpoint.runner`) honours that by serialising
  the shallow end of its work stack to disk.

The governor never changes *what* is enumerated — only the order and
granularity — so counts are bit-identical with and without a budget.
All decisions are functions of tracked bytes, never of the wall clock,
keeping the core engine deterministic (analysis rule RP002).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryGovernor", "BYTES_PER_WORD"]

BYTES_PER_WORD = 8
"""Size of one trie word (PA or CA entry): one ``int64``."""


@dataclass
class MemoryGovernor:
    """Tracks live PA/CA bytes against a soft budget.

    Parameters
    ----------
    budget_bytes:
        The soft budget; ``None`` disables governing entirely (every
        query returns the unmodified chunk size and ``should_spill`` is
        always ``False``) while still tracking the peak footprint.
    soft_fraction:
        Fraction of the budget at which chunk halving starts.
    high_water:
        Fraction of the budget past which completed frontier chunks
        should be spilled to the checkpoint store.
    """

    budget_bytes: int | None = None
    soft_fraction: float = 0.5
    high_water: float = 0.85
    tracked_bytes: int = 0
    peak_tracked_bytes: int = 0
    chunk_halvings: int = 0
    spill_count: int = 0
    forced_pressure: float | None = None

    def __post_init__(self) -> None:
        if self.budget_bytes is not None and self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive (or None)")
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")
        if not self.soft_fraction <= self.high_water <= 1.0:
            raise ValueError("high_water must be in [soft_fraction, 1]")

    # ------------------------------------------------------------------
    @property
    def budget_words(self) -> int | None:
        """The budget expressed in trie words (``None`` = unlimited)."""
        if self.budget_bytes is None:
            return None
        return self.budget_bytes // BYTES_PER_WORD

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def observe_words(self, words: int) -> None:
        """Set the current live footprint to ``words`` trie words."""
        self.tracked_bytes = words * BYTES_PER_WORD
        if self.tracked_bytes > self.peak_tracked_bytes:
            self.peak_tracked_bytes = self.tracked_bytes

    @property
    def pressure(self) -> float:
        """Tracked bytes over budget (``0.0`` when unlimited).

        ``forced_pressure`` — set by the service fault injector to
        simulate an OOM episode — acts as a floor, so every consumer
        (admission control, degraded mode, chunk halving) reacts to a
        simulated spike exactly as it would to a real one.
        """
        base = (
            0.0
            if self.budget_bytes is None
            else self.tracked_bytes / self.budget_bytes
        )
        if self.forced_pressure is not None:
            return max(base, self.forced_pressure)
        return base

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def effective_chunk(self, base_chunk: int) -> int:
        """The BFS chunk size to use at the current pressure.

        Halves ``base_chunk`` once when pressure crosses
        ``soft_fraction``, then once more every time half of the
        remaining headroom is consumed (0.5 → 0.75 → 0.875 → ...), down
        to 1 (pure DFS).  Below the soft threshold the base chunk is
        returned untouched.
        """
        if self.budget_bytes is None:
            return base_chunk
        pressure = self.pressure
        chunk = base_chunk
        threshold = self.soft_fraction
        while pressure >= threshold and chunk > 1:
            chunk //= 2
            threshold = (1.0 + threshold) / 2.0
        chunk = max(1, chunk)
        if chunk < base_chunk:
            self.chunk_halvings += 1
        return chunk

    def should_spill(self) -> bool:
        """Whether the caller should move pending chunks to disk."""
        return self.budget_bytes is not None and self.pressure >= self.high_water

    def note_spill(self, count: int = 1) -> None:
        """Record ``count`` chunks spilled to the checkpoint store."""
        self.spill_count += count

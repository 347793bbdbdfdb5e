"""The cuTS trie: parent-array / candidate-array partial-path storage.

Paper §4.1.1: two big arrays are allocated up front — the **parent array**
(PA) stores, for every partial path at level *l*, the index of its parent
path at level *l − 1*; the **candidate array** (CA) stores the data-graph
vertex matched at level *l*.  Because the parent is stored explicitly,
children of different parents may be written interleaved (one atomic
fetch-add to claim a slot), unlike CSF which needs all children of a node
contiguous.  Shared prefixes are stored once, giving the ``l × (ds − 1)``
space reduction of Eq. (4)/(5).

Level 0 holds the root candidates; its PA entries are ``-1``.

The class below is a growable stack of ``(pa, ca)`` level pairs with
vectorised ancestor walks (`paths_at`), sub-trie extraction for the
distributed work-shipping protocol, and word-count accounting for the
Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TrieLevel", "PathTrie"]


@dataclass(frozen=True)
class TrieLevel:
    """One level of the trie: parallel PA / CA arrays.

    ``pa[i]`` is the index of path ``i``'s parent in the previous level
    (−1 at level 0); ``ca[i]`` is the data vertex matched at this level.
    """

    pa: np.ndarray
    ca: np.ndarray

    def __post_init__(self) -> None:
        if self.pa.shape != self.ca.shape or self.pa.ndim != 1:
            raise ValueError("pa and ca must be 1-D arrays of equal length")

    @property
    def num_paths(self) -> int:
        return int(len(self.ca))

    @property
    def storage_words(self) -> int:
        """Words consumed by this level: one PA + one CA word per path."""
        return 2 * self.num_paths


@dataclass
class PathTrie:
    """A growable trie of partial paths (the cuTS intermediate store)."""

    levels: list[TrieLevel] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_roots(cls, roots: np.ndarray) -> "PathTrie":
        """Start a trie from the level-0 candidate set."""
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        pa = np.full(len(roots), -1, dtype=np.int64)
        return cls(levels=[TrieLevel(pa=pa, ca=roots)])

    def append_level(self, pa: np.ndarray, ca: np.ndarray) -> TrieLevel:
        """Append a new deepest level; PA must index the current deepest.

        Returns the created :class:`TrieLevel`.
        """
        pa = np.ascontiguousarray(pa, dtype=np.int64)
        ca = np.ascontiguousarray(ca, dtype=np.int64)
        if not self.levels:
            if pa.size and pa.max() >= 0:
                raise ValueError("first level must have pa == -1")
        else:
            parent_count = self.levels[-1].num_paths
            if pa.size and (pa.min() < 0 or pa.max() >= parent_count):
                raise ValueError(
                    f"pa out of range: parent level has {parent_count} paths"
                )
        level = TrieLevel(pa=pa, ca=ca)
        self.levels.append(level)
        return level

    def drop_last_level(self) -> None:
        """Pop the deepest level."""
        if not self.levels:
            raise IndexError("trie has no levels")
        self.levels.pop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of levels currently stored."""
        return len(self.levels)

    def num_paths(self, level: int | None = None) -> int:
        """Paths at ``level`` (default: deepest level); 0 if empty."""
        if not self.levels:
            return 0
        if level is None:
            level = len(self.levels) - 1
        return self.levels[level].num_paths

    @property
    def total_storage_words(self) -> int:
        """Σ over levels of ``2 × |P_l|`` (paper's accounting)."""
        return sum(lv.storage_words for lv in self.levels)

    def storage_words_per_level(self) -> list[int]:
        """Per-level word counts, shallowest first."""
        return [lv.storage_words for lv in self.levels]

    def paths_at(
        self, level: int, path_indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Materialise full paths ending at ``level``.

        Walks the PA pointers upward with vectorised gathers — ``level``
        gathers total, one per trie level, regardless of path count.

        Parameters
        ----------
        level:
            Level whose paths to materialise (0-based).
        path_indices:
            Optional subset of path indices at that level; defaults to all.

        Returns
        -------
        An ``(k, level + 1)`` matrix; row ``r`` is the vertex sequence of
        one partial path, shallowest level first.
        """
        if level < 0 or level >= len(self.levels):
            raise IndexError(f"level {level} out of range (depth {self.depth})")
        if path_indices is None:
            idx = np.arange(self.levels[level].num_paths, dtype=np.int64)
        else:
            idx = np.asarray(path_indices, dtype=np.int64)
        out = np.empty((len(idx), level + 1), dtype=np.int64)
        cur = idx
        for lv in range(level, -1, -1):
            out[:, lv] = self.levels[lv].ca[cur]
            cur = self.levels[lv].pa[cur]
        return out

    def columns_at(
        self, level: int, path_indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Ancestor *columns* of paths ending at ``level``.

        The columnar expansion engine keeps the frontier's materialised
        prefix as one ``(level + 1, k)`` table, one contiguous row per
        trie level (gathers along a row are then unit-stride); this is
        :meth:`paths_at` transposed at the storage level — the same
        upward PA walk, one gather per level, each written straight
        into its row.

        Row ``lv`` holds the data vertex matched at level ``lv`` for
        every requested path, in request order.
        """
        if level < 0 or level >= len(self.levels):
            raise IndexError(f"level {level} out of range (depth {self.depth})")
        if path_indices is None:
            idx = np.arange(self.levels[level].num_paths, dtype=np.int64)
        else:
            idx = np.asarray(path_indices, dtype=np.int64)
        out = np.empty((level + 1, len(idx)), dtype=np.int64)
        cur = idx
        for lv in range(level, -1, -1):
            self.levels[lv].ca.take(cur, out=out[lv])
            cur = self.levels[lv].pa[cur]
        return out

    # ------------------------------------------------------------------
    # Sub-trie extraction (distributed work shipping)
    # ------------------------------------------------------------------
    def extract_subtrie(self, level: int, path_indices: np.ndarray) -> "PathTrie":
        """Extract the minimal trie containing the given frontier paths.

        Used by the distributed scheduler: a busy rank ships a portion of
        its frontier *plus the trie prefix* those paths hang from (paper
        §4.2).  All ancestor paths are retained and re-indexed compactly;
        levels above ``level`` are dropped.

        Returns a new independent :class:`PathTrie` whose deepest level
        contains exactly ``path_indices`` (in order).
        """
        if level < 0 or level >= len(self.levels):
            raise IndexError(f"level {level} out of range (depth {self.depth})")
        idx = np.asarray(path_indices, dtype=np.int64)
        # Walk upward collecting the needed indices per level.
        needed: list[np.ndarray] = [None] * (level + 1)  # type: ignore[list-item]
        cur = idx
        for lv in range(level, -1, -1):
            needed[lv] = cur
            cur = self.levels[lv].pa[cur]
        # Deduplicate ancestors per level (keep the frontier level ordered
        # exactly as requested; ancestors get compacted).
        new_levels: list[TrieLevel] = []
        remap_prev: np.ndarray | None = None  # old idx -> new idx at lv-1
        for lv in range(level + 1):
            if lv < level:
                uniq, inverse = np.unique(needed[lv], return_inverse=True)
            else:
                uniq, inverse = idx, np.arange(len(idx), dtype=np.int64)
            ca = self.levels[lv].ca[uniq]
            old_pa = self.levels[lv].pa[uniq]
            if lv == 0:
                pa = np.full(len(uniq), -1, dtype=np.int64)
            else:
                assert remap_prev is not None
                pa = remap_prev[old_pa]
            new_levels.append(TrieLevel(pa=pa, ca=ca))
            # Build the remap for the next level down: old index -> new.
            remap = -np.ones(self.levels[lv].num_paths, dtype=np.int64)
            remap[uniq] = np.arange(len(uniq), dtype=np.int64)
            remap_prev = remap
        return PathTrie(levels=new_levels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [lv.num_paths for lv in self.levels]
        return f"PathTrie(depth={self.depth}, paths_per_level={sizes})"

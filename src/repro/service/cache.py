"""LRU result cache for the matching service.

The paper's core economic argument — build graph-resident state once,
amortize it across the whole search (trie reuse, §4.1) — extends one
level up in a serving setting: the *answers* themselves are worth
keeping.  A repeated ``(graph, query, config)`` triple must cost one
dictionary probe, not a re-enumeration.

Keys are content fingerprints (:mod:`repro.fingerprint`):
``(graph_fp, query_fp, config_fp)``.  The config fingerprint covers
exactly the count-relevant fields, so a config change that could alter
counts yields a different key (a miss), while knob changes that cannot
(worker count, cache budget, durability cadence) hit the same entry.
Staleness is therefore structural: there is no key under which a stale
count can be returned.  Re-registering a graph under the same name with
different content **explicitly invalidates** that graph's entries (the
registry drives this), covering the one remaining aliasing channel.

The ``graph_fp`` axis doubles as the **version** axis: a version commit
(:mod:`repro.versioning`) re-keys entries provably unaffected by the
delta to the child fingerprint in one pass (:meth:`promote`) — a warm
cache survives a small edge delta — while affected entries stay behind
under the parent fingerprint, still exact for ``as_of`` time travel and
still usable as the incremental re-match base.

The cache is bounded by ``max_bytes`` and evicts least-recently-used;
live bytes are reported to the caller (the service charges them against
the :class:`~repro.core.governor.MemoryGovernor`).  All counters —
hits, misses, puts, evictions, invalidations — are exposed for
``/metrics``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from ..analysis.sanitizer import make_rlock

__all__ = ["CacheKey", "LRUBytesCache"]

CacheKey = tuple[str, str, str]
"""``(graph_fingerprint, query_fingerprint, config_fingerprint)``."""


class LRUBytesCache:
    """Thread-safe byte-budgeted LRU map from :data:`CacheKey` to a
    JSON-safe payload.

    Parameters
    ----------
    max_bytes:
        Byte budget; ``0`` disables the cache (every ``get`` misses,
        every ``put`` is refused).  An entry larger than the whole
        budget is refused rather than evicting everything else.
    on_bytes:
        Optional callback invoked (outside the lock) with the new live
        byte total whenever it changes; the service uses it to charge
        the memory governor.
    """

    def __init__(
        self,
        max_bytes: int,
        *,
        on_bytes: Callable[[int], None] | None = None,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (0 = disabled)")
        self.max_bytes = max_bytes
        self._on_bytes = on_bytes
        self._lock = make_rlock("LRUBytesCache._lock")
        self._entries: OrderedDict[CacheKey, tuple[Any, int]] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.promotions = 0
        self.retained = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Any | None:
        """The cached payload, refreshing recency — or ``None`` (a
        miss; payloads themselves are never ``None``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: CacheKey, value: Any, nbytes: int) -> bool:
        """Insert ``value`` charged at ``nbytes``; returns whether it
        was admitted (an oversized entry or a disabled cache refuses)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._lock:
            # The admission decision reads the same sizing fields the
            # eviction loop below maintains; taking it under the lock
            # makes check-then-insert one atomic step and keeps every
            # sizing-field access on the _lock discipline (RP009).
            if self.max_bytes == 0 or nbytes > self.max_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.current_bytes += nbytes
            self.puts += 1
            while self.current_bytes > self.max_bytes:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_bytes
                self.evictions += 1
            total = self.current_bytes
        self._notify(total)
        return True

    def pop(self, key: CacheKey) -> Any | None:
        """Remove and return one entry (``None`` if absent).  Used to
        drop an entry that failed checksum verification — a corrupt
        read must become a miss, never a served answer."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self.current_bytes -= entry[1]
            self.invalidations += 1
            total = self.current_bytes
        self._notify(total)
        return entry[0]

    def invalidate_graph(self, graph_fp: str) -> int:
        """Drop every entry keyed under ``graph_fp`` (graph
        re-registration); returns how many were removed."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == graph_fp]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self.current_bytes -= nbytes
            self.invalidations += len(doomed)
            total = self.current_bytes
        if doomed:
            self._notify(total)
        return len(doomed)

    def promote(
        self,
        old_fp: str,
        new_fp: str,
        should_promote: Callable[[CacheKey], bool],
    ) -> tuple[int, int]:
        """Version-commit re-keying: move every entry under ``old_fp``
        whose predicate holds to the same key under ``new_fp``.

        Entries the predicate rejects are **retained under the old
        fingerprint**: content addressing keeps them exactly right for
        the retired version (``as_of`` hits, and the dispatcher's
        incremental probe uses them as its base), and they die with
        that version when retention prunes it.  Returns ``(promoted,
        retained)``.

        The predicate runs *outside* the lock (it does degree-filter
        scans); the move itself is one atomic pass that skips keys
        evicted in between.
        """
        with self._lock:
            affected = [k for k in self._entries if k[0] == old_fp]
        decisions = [(key, bool(should_promote(key))) for key in affected]
        promoted = retained = 0
        with self._lock:
            for key, promote in decisions:
                if not promote:
                    retained += 1
                    continue
                entry = self._entries.pop(key, None)
                if entry is None:
                    continue  # evicted while deciding; nothing to move
                self._entries[(new_fp, key[1], key[2])] = entry
                promoted += 1
            self.promotions += promoted
            self.retained += retained
        return promoted, retained

    def clear(self) -> None:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self.current_bytes = 0
            self.invalidations += removed
        self._notify(0)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot for ``/metrics``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "promotions": self.promotions,
                "retained": self.retained,
            }

    def _notify(self, total: int) -> None:
        if self._on_bytes is not None:
            self._on_bytes(total)

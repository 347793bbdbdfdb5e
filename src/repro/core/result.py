"""Match results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..gpusim.cost import CostModel
from .config import CuTSConfig
from .stats import SearchStats

__all__ = [
    "MatchResult",
    "payload_checksum",
    "payload_from_result",
    "result_from_payload",
    "verify_payload",
]


@dataclass
class MatchResult:
    """Outcome of one subgraph-isomorphism search.

    Attributes
    ----------
    count:
        Number of monomorphism embeddings found (always exact).
    matches:
        ``(k, |V_Q|)`` matrix when materialisation was requested:
        ``matches[r, q]`` is the data vertex that query vertex ``q`` maps
        to in embedding ``r``.  ``None`` when counting only.  ``k`` may be
        smaller than ``count`` if ``max_materialized`` capped collection.
    time_ms:
        Modeled GPU kernel time (the paper's evaluation metric).
    cost:
        The full hardware-counter snapshot of the run.
    stats:
        Per-depth path counts, chunking activity, peak storage.
    order:
        The query-vertex sequence that was matched.
    shards:
        Root-interval shard ids this result covers (sorted, unique).
        Empty for a whole-search result.  :meth:`merge` uses these to be
        **idempotent under duplicate shard delivery**: merging a result
        whose shards are already covered is a no-op, so a watchdog
        re-lease plus a slow original worker cannot double-count.
    """

    count: int
    matches: np.ndarray | None
    time_ms: float
    cost: CostModel
    stats: SearchStats = field(default_factory=SearchStats)
    order: tuple[int, ...] = ()
    shards: tuple[int, ...] = ()

    def merge(
        self, other: "MatchResult", *, max_materialized: int | None = None
    ) -> "MatchResult":
        """Associative reduction over root-interval shards.

        The level-0 candidate intervals partition the search tree, so
        interval results combine losslessly: counts **sum**, materialised
        rows **concatenate** (truncated to ``max_materialized`` — prefix
        truncation keeps the reduction associative), hardware counters
        sum via :meth:`CostModel.merge`, per-depth stats fold via
        :meth:`SearchStats.merge`.  ``time_ms`` takes the **max** of the
        two sides, modeling intervals running on concurrent devices (the
        merged ``cost.time_ms`` is the serial sum; the field models the
        makespan).

        Both sides must agree on materialisation (both ``matches is
        None`` or neither) and on the matching order.

        When both sides carry shard ids, the merge **dedupes by shard**:
        if every shard of ``other`` is already covered by ``self`` the
        merge returns ``self`` unchanged (duplicate delivery of a
        re-leased interval); a *partial* overlap is a protocol error and
        raises ``ValueError``.
        """
        if self.shards and other.shards:
            mine, theirs = set(self.shards), set(other.shards)
            overlap = mine & theirs
            if overlap == theirs:
                return self
            if overlap:
                raise ValueError(
                    f"cannot merge partially-overlapping shard sets: "
                    f"{sorted(overlap)} delivered twice"
                )
        if (self.matches is None) != (other.matches is None):
            raise ValueError(
                "cannot merge a materialised result with a count-only one"
            )
        if self.order and other.order and self.order != other.order:
            raise ValueError(
                f"cannot merge results with different matching orders: "
                f"{self.order} != {other.order}"
            )
        matches = None
        if self.matches is not None and other.matches is not None:
            matches = np.concatenate([self.matches, other.matches], axis=0)
            if max_materialized is not None and len(matches) > max_materialized:
                matches = matches[:max_materialized]
        cost = CostModel(self.cost.device)
        cost.merge(self.cost)
        cost.merge(other.cost)
        stats = SearchStats()
        stats.merge(self.stats)
        stats.merge(other.stats)
        return MatchResult(
            count=self.count + other.count,
            matches=matches,
            time_ms=max(self.time_ms, other.time_ms),
            cost=cost,
            stats=stats,
            order=self.order or other.order,
            shards=tuple(sorted({*self.shards, *other.shards})),
        )

    def mappings(self) -> list[dict[int, int]]:
        """Materialised matches as query→data dictionaries."""
        if self.matches is None:
            raise ValueError("matches were not materialised (count-only run)")
        return [
            {q: int(row[q]) for q in range(len(row))} for row in self.matches
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchResult(count={self.count}, time_ms={self.time_ms:.3f}, "
            f"materialized={0 if self.matches is None else len(self.matches)})"
        )


# Count-mode result payloads: the one codec behind shard part files,
# service cache entries and job-journal records.


def payload_checksum(payload: dict[str, Any]) -> str:
    """Content checksum over a result payload (checksum field excluded)."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]


def payload_from_result(result: MatchResult) -> dict[str, Any]:
    """JSON-safe form of a count-mode result, sealed with a content
    checksum (rows are never part of it)."""
    payload: dict[str, Any] = {
        "count": int(result.count),
        "time_ms": float(result.time_ms),
        "stats": result.stats.to_json(),
        "order": [int(q) for q in result.order],
    }
    payload["checksum"] = payload_checksum(payload)
    return payload


def verify_payload(payload: dict[str, Any]) -> bool:
    """Whether a payload's checksum matches its content.  Payloads
    without a checksum fail closed (treated as corrupt)."""
    stored = payload.get("checksum")
    return isinstance(stored, str) and stored == payload_checksum(payload)


def result_from_payload(
    payload: dict[str, Any],
    config: CuTSConfig,
    *,
    shards: tuple[int, ...] = (),
) -> MatchResult:
    """Rebuild a result from its payload.  Hardware counters are not
    stored, so the result carries an empty cost model, like a resumed
    shard."""
    return MatchResult(
        count=int(payload["count"]),
        matches=None,
        time_ms=float(payload["time_ms"]),
        cost=CostModel(config.device),
        stats=SearchStats.from_json(payload["stats"]),
        order=tuple(int(q) for q in payload["order"]),
        shards=shards,
    )

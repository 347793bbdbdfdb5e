"""Per-layer metrics of the traced run, computed from recorded spans.

Solve-side spans come from the benchmark process (the timed rounds over
every path); serve-side spans come from the server launcher's span
file, restricted to the timed phases.  Per-round figures are sums over
one round of the five paths, averaged over rounds, so that they do not
depend on how many rounds fit in the run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

import numpy as np

from loadgen import Op
from solve import PATHS
from spans import Span, self_times

__all__ = ["PER_LAYER", "serve_layers", "solve_layers"]

_STATS_PATHS = ("plain", "durable", "parallel")

PER_LAYER: list[tuple[str, str]] = [
    ("graph.build_s", "s"),
    ("core.extend_s", "s"),
    ("core.extend_calls", "count"),
    ("core.carry_s", "s"),
    ("core.expand_frontier_s", "s"),
    *[(f"core.driver_self_s.{p}", "s") for p in PATHS],
    *[(f"core.{m}.{p}", "count")
      for p in _STATS_PATHS
      for m in ("paths", "peak_frontier", "chunks", "chunk_halvings")],
    ("core.match_ms", "ms"),
    ("storage.columns_at_s", "s"),
    ("storage.columns_at_calls", "count"),
    ("storage.subtrie_s", "s"),
    ("storage.splice_s", "s"),
    ("gpusim.launches", "count"),
    ("gpusim.dram_words", "count"),
    ("gpusim.instructions", "count"),
    ("gpusim.atomics", "count"),
    ("checkpoint.snapshot_s", "s"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.fsyncs", "count"),
    ("distributed.comm_s", "s"),
    ("distributed.transfers", "count"),
    ("distributed.words", "count"),
    ("distributed.busy_imbalance", "ratio"),
    ("distributed.modeled_ms", "ms"),
    ("parallel.solve_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("parallel.merge_s", "s"),
    ("parallel.spawn_s", "s"),
    ("service.http.read_p50_ms", "ms"),
    ("service.http.read_p90_ms", "ms"),
    ("service.http.peak_read_p50_ms", "ms"),
    ("service.http.peak_read_p90_ms", "ms"),
    ("service.http.submit_ms", "ms"),
    ("service.http.commit_p50_ms", "ms"),
    ("service.http.commit_p95_ms", "ms"),
    ("service.scheduler.queue_wait_p50_ms", "ms"),
    ("service.scheduler.queue_wait_p99_ms", "ms"),
    ("service.scheduler.batch_size", "count"),
    ("service.scheduler.rejected", "count"),
    ("service.dispatcher.dispatch_ms", "ms"),
    ("service.dispatcher.coalesced_frac", "ratio"),
    ("service.dispatcher.engine_calls", "count"),
    ("service.cache.hit_frac", "ratio"),
    ("service.cache.promoted_frac", "ratio"),
    ("service.state.journal_ms", "ms"),
    ("service.state.jobs_per_commit", "count"),
    ("service.state.version_append_ms", "ms"),
    ("service.registry.mutate_ms", "ms"),
    ("service.registry.register_ms", "ms"),
    ("versioning.promotion_ms", "ms"),
    ("versioning.incremental_ms", "ms"),
    ("versioning.incremental_frac", "ratio"),
    ("service.cluster.route_ms", "ms"),
    ("service.cluster.failovers", "count"),
    ("service.cluster.revoked", "count"),
    ("service.cluster.rank_share", "ratio"),
    ("server.cpu_ms_per_req", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("failed_frac", "ratio"),
    ("residual_frac", "ratio"),
    ("tracing.overhead_frac", "ratio"),
]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _sid, _parent, name, start, end, *_rest in spans:
        seconds[name] += end - start
        calls[name] += 1
    return seconds, calls


def solve_layers(spans: list[Span], rounds: int, last: dict[str, Any],
                 walls: dict[str, list[float]]) -> dict[str, float]:
    """Layers of the solve part; ``spans`` cover the timed rounds."""
    seconds, calls = _totals(spans)
    selfs = self_times(spans)
    per = 1.0 / max(rounds, 1)
    out: dict[str, float] = {
        "core.extend_s": seconds["core.extend"] * per,
        "core.extend_calls": calls["core.extend"] * per,
        "core.carry_s": seconds["core.carry"] * per,
        "core.expand_frontier_s": seconds["core.expand_frontier"] * per,
        "storage.columns_at_s": seconds["storage.columns_at"] * per,
        "storage.columns_at_calls": calls["storage.columns_at"] * per,
        "storage.subtrie_s": seconds["storage.subtrie"] * per,
        "checkpoint.snapshot_s": seconds["checkpoint.snapshot"] * per,
        "checkpoint.snapshots": calls["checkpoint.snapshot"] * per,
        "checkpoint.fsyncs": (calls["checkpoint.write"]
                              + calls["checkpoint.fsync_dir"]) * per,
        "checkpoint.bytes": sum(
            s[7] or 0 for s in spans if s[2] == "checkpoint.write"
        ) * per,
        "distributed.comm_s": seconds["distributed.comm"] * per,
        "parallel.merge_s": seconds["parallel.merge"] * per,
    }
    for path in PATHS:
        out[f"core.driver_self_s.{path}"] = _median([
            selfs[s[0]] for s in spans if s[2] == f"path.{path}"
        ])
    for path in _STATS_PATHS:
        stats = last[path].stats
        out[f"core.paths.{path}"] = float(sum(stats.paths_per_depth))
        out[f"core.peak_frontier.{path}"] = float(stats.peak_frontier)
        out[f"core.chunks.{path}"] = float(stats.chunks_processed)
        out[f"core.chunk_halvings.{path}"] = float(stats.chunk_halvings)
    cost = last["plain"].cost
    out["gpusim.launches"] = float(cost.kernel_launches)
    out["gpusim.dram_words"] = float(cost.total_dram_words)
    out["gpusim.instructions"] = float(cost.instructions)
    out["gpusim.atomics"] = float(cost.atomic_ops)
    dist = last["distributed"]
    out["distributed.transfers"] = float(dist.work_transfers)
    out["distributed.words"] = float(dist.words_transferred)
    out["distributed.busy_imbalance"] = float(dist.busy_imbalance)
    out["distributed.modeled_ms"] = float(dist.runtime_ms)
    out["parallel.efficiency"] = _median(walls["plain"]) / (
        2.0 * _median(walls["parallel"])
    )
    roots = [s for s in spans if s[1] == 0]
    out["_root_wall"] = sum(s[4] - s[3] for s in roots)  # residual_frac parts
    out["_root_self"] = sum(selfs[s[0]] for s in roots)
    return out


def serve_layers(spans: list[Span], windows: list[tuple[float, float]],
                 ops: list[Op], deltas: dict[str, float],
                 cpu_s: float) -> dict[str, float]:
    """Layers of the serve part; ``spans`` are the server's, ``windows``,
    ``ops`` and ``deltas`` cover the timed blocks."""
    setup_spans = spans
    spans = [s for s in spans
             if any(lo <= s[3] and s[4] <= hi for lo, hi in windows)]
    seconds, _calls = _totals(spans)
    selfs = self_times(spans)

    def durations_ms(name: str, source: list[Span] = spans) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in source if s[2] == name]

    reads = [op for op in ops if op.kind == "read"]
    commits = [op for op in ops if op.kind == "commit"]
    ok_commits = [op for op in commits if op.ok]
    n_commits = max(len(ok_commits), 1)

    submitted = {s[6]: s[4] for s in spans
                 if s[2] == "service.scheduler.submit"}
    waits = []
    batch_sizes = []
    for s in spans:
        if s[2] == "service.scheduler.pop" and s[7]:
            batch_sizes.append(len(s[7]))
            waits.extend(
                (s[4] - submitted[job]) * 1e3
                for job in s[7] if job in submitted
            )
    dispatched = cached = coalesced = incremental = 0
    for s in spans:
        if s[2] == "service.dispatcher.dispatch" and s[7]:
            dispatched += s[7][0]
            cached += s[7][1]
            coalesced += s[7][2]
            incremental += s[7][3]
    engine_calls = dispatched - cached - coalesced
    journal = [s for s in spans if s[2] == "service.state.journal"]
    rank_wall = {s[6]: s[7] for s in spans
                 if s[2] == "service.cluster.collect" and s[7] and s[7][1]}
    routes = []
    for s in spans:
        if s[2] == "service.cluster.run_job" and s[6] in rank_wall:
            (c0, c1), (r0, r1) = s[7], rank_wall[s[6]]
            if c1 is not None:
                routes.append(((c1 - c0) - (r1 - r0)) * 1e3)
    replicas: dict[Any, int] = defaultdict(int)
    for op in reads:
        if op.ok and op.job is not None and op.job.get("replica") is not None:
            replicas[op.job["replica"]] += 1
    completed = sum(1 for op in ops if op.ok)
    promotions = deltas.get("result_cache.promotions", 0.0)
    retained = deltas.get("result_cache.retained", 0.0)
    roots = [s for s in spans if s[1] == 0]
    commit_ms = [op.latency_s * 1e3 for op in ok_commits]
    lateness = [(op.sent - op.due) * 1e3 for op in ops if op.sent]
    return {
        "core.match_ms": _median(durations_ms("core.match")),
        "storage.splice_s": seconds["storage.splice"],
        "service.http.submit_ms": _median([
            (float(op.job["submitted_at"]) - op.sent) * 1e3
            for op in reads if op.job is not None and op.sent
        ]),
        "service.http.commit_p50_ms": _pct(commit_ms, 50),
        "service.http.commit_p95_ms": _pct(commit_ms, 95),
        "service.scheduler.queue_wait_p50_ms": _pct(waits, 50),
        "service.scheduler.queue_wait_p99_ms": _pct(waits, 99),
        "service.scheduler.batch_size": (
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
        "service.scheduler.rejected": float(sum(
            1 for op in ops if op.status in (429, 503)
        )),
        "service.dispatcher.dispatch_ms": _median(
            durations_ms("service.dispatcher.dispatch")
        ),
        "service.dispatcher.coalesced_frac": coalesced / max(dispatched, 1),
        "service.dispatcher.engine_calls": float(engine_calls),
        "service.cache.hit_frac": cached / max(dispatched, 1),
        "service.cache.promoted_frac": (
            promotions / (promotions + retained)
            if promotions + retained else 0.0
        ),
        "service.state.journal_ms": _median(
            durations_ms("service.state.journal")
        ),
        "service.state.jobs_per_commit": (
            float(np.mean([s[7] for s in journal])) if journal else 0.0
        ),
        "service.state.version_append_ms": (
            seconds["service.state.version_append"]
            + seconds["service.state.save_graph"]
        ) * 1e3 / n_commits if ok_commits else 0.0,
        "service.registry.mutate_ms": _median(
            durations_ms("service.registry.mutate")
        ),
        "service.registry.register_ms": _median(
            durations_ms("service.registry.register", setup_spans)
        ),
        "versioning.promotion_ms": (
            seconds["versioning.promotion"] * 1e3 / n_commits
            if ok_commits else 0.0
        ),
        "versioning.incremental_ms": _median(
            durations_ms("versioning.incremental")
        ),
        "versioning.incremental_frac": incremental / max(engine_calls, 1),
        "service.cluster.route_ms": _median(routes),
        "service.cluster.failovers": deltas.get("router.failovers", 0.0),
        "service.cluster.revoked": deltas.get("router.revoked_replies", 0.0),
        "service.cluster.rank_share": (
            max(replicas.values()) / sum(replicas.values())
            if replicas else 0.0
        ),
        "server.cpu_ms_per_req": cpu_s * 1e3 / max(completed, 1),
        "loadgen.lateness_p99_ms": _pct(lateness, 99),
        "loadgen.lateness_max_ms": max(lateness) if lateness else 0.0,
        "_root_wall": sum(s[4] - s[3] for s in roots),
        "_root_self": sum(selfs[s[0]] for s in roots),
    }

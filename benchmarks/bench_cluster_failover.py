"""Benchmark: what shard routing costs, and what a failover costs.

Two measurements, two gates, for the replicated cluster of
DESIGN.md §15:

* **healthy-path routing overhead** — the same request stream served
  by a single in-process :class:`MatchingService` and by a 3-rank
  :class:`ClusterService` (2-way replication, all ranks live),
  interleaved pairwise so machine-load drift cancels.  Gate: the
  paired p50 latency delta is within **10%** of the single-service
  p50.  The router adds one consistent-hash lookup, one envelope
  sequence number, and one event wait per request — none of which may
  cost a tenth of an engine pass.
* **failover latency** — repeated crash cycles: kill the primary
  replica of the loaded shard mid-request, let the router fail over
  to the surviving replica, then restart the victim (journal replay +
  catch-up) before the next cycle.  The *added* latency of a failed-over
  request over the healthy p50 is the price of a crash.  Gate: p95 of
  the added latency < **5x** the healthy p50 — a crash may cost a few
  round trips, never an engine-pass-sized stall.

Counts are **always** verified against a serial oracle
(:class:`CuTSMatcher`) — a failover that loses or doubles a count
fails the script regardless of latency.

Run as a script to produce ``BENCH_cluster.json``::

    REPRO_BENCH_SCALE=0.5 python benchmarks/bench_cluster_failover.py \
        --out BENCH_cluster.json

Also collected by ``pytest benchmarks/`` as a tiny-scale smoke test
(parity only: at smoke scale an engine pass is cheaper than the
router's 5 ms poll quantum, so the latency gates describe nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time

import pytest

from repro.core import CuTSMatcher
from repro.graph import chain_graph, cycle_graph, mesh_graph, star_graph
from repro.hostinfo import cpu_report
from repro.service import (
    ClusterService,
    HashRing,
    MatchingService,
    ServiceConfig,
)

from conftest import bench_scale

ROUTING_OVERHEAD_GATE = 0.10
FAILOVER_P95_GATE_X = 5.0
RANKS = 3
REPLICATION = 2


def cluster_workload(scale: float):
    """A mesh graph and a query cycle heavy enough that an engine pass
    dominates the router's poll quantum."""
    side = max(8, int(round(24 * math.sqrt(scale))))
    length = 6 if scale >= 0.25 else 4
    queries = [
        chain_graph(length),
        cycle_graph(length),
        star_graph(length - 2),
        chain_graph(length + 1),
    ]
    return mesh_graph(side, side), queries


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * (len(ordered) - 1)))]


def run_routing_overhead(scale: float, requests: int) -> dict:
    data, queries = cluster_workload(scale)
    no_cache = ServiceConfig(cache_bytes=0)
    oracle = [CuTSMatcher(data).match(q).count for q in queries]
    pairs = max(requests, 2) * 2
    single_lat: list[float] = []
    routed_lat: list[float] = []
    mismatches = 0
    with (
        MatchingService(service_config=no_cache, workers=1) as single,
        ClusterService(
            service_config=no_cache, ranks=RANKS, replication=REPLICATION,
            workers=1,
        ) as cluster,
    ):
        fp_single = single.register_graph(data)
        fp_routed = cluster.register_graph(data)
        single.match(fp_single, queries[0], timeout=600.0)  # warmup
        cluster.match(fp_routed, queries[0], timeout=600.0)
        for i in range(pairs):
            query = queries[i % len(queries)]
            expected = oracle[i % len(queries)]
            # Alternate within-pair order to cancel ordering effects.
            order = (
                ((single, fp_single, single_lat),
                 (cluster, fp_routed, routed_lat))
                if i % 2 == 0
                else ((cluster, fp_routed, routed_lat),
                      (single, fp_single, single_lat))
            )
            for service, fp, latencies in order:
                t0 = time.perf_counter()
                result = service.match(fp, query, timeout=600.0)
                latencies.append(time.perf_counter() - t0)
                if result.count != expected:
                    mismatches += 1
    p50_single = statistics.median(single_lat)
    p50_routed = statistics.median(routed_lat)
    paired = statistics.median(
        routed - single for routed, single in zip(routed_lat, single_lat)
    )
    return {
        "requests": pairs,
        "p50_single_ms": round(p50_single * 1000.0, 3),
        "p50_routed_ms": round(p50_routed * 1000.0, 3),
        "paired_delta_ms": round(paired * 1000.0, 3),
        "overhead_frac": (
            round(paired / p50_single, 4) if p50_single else None
        ),
        "count_mismatches": mismatches,
    }


def run_failover_latency(scale: float, cycles: int) -> dict:
    data, queries = cluster_workload(scale)
    no_cache = ServiceConfig(cache_bytes=0)
    oracle = [CuTSMatcher(data).match(q).count for q in queries]
    healthy_lat: list[float] = []
    failover_lat: list[float] = []
    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as base:
        with ClusterService(
            service_config=no_cache,
            ranks=RANKS,
            replication=REPLICATION,
            workers=1,
            state_dir=os.path.join(base, "state"),
            auto_heal=False,
        ) as cluster:
            fp = cluster.register_graph(data)
            cluster.match(fp, queries[0], timeout=600.0)  # warmup
            for i in range(max(cycles, 2) * 2):
                query = queries[i % len(queries)]
                t0 = time.perf_counter()
                result = cluster.match(fp, query, timeout=600.0)
                healthy_lat.append(time.perf_counter() - t0)
                if result.count != oracle[i % len(queries)]:
                    mismatches += 1
            for cycle in range(cycles):
                # All ranks are live between cycles, so the healthy
                # ring (a pure function of the member set) names the
                # primary without reaching into router internals.
                victim = HashRing(range(RANKS)).primary_for(fp)
                query = queries[cycle % len(queries)]
                crashed: list[int] = []

                def hook(phase: str, rank_id: int, job_id: str) -> None:
                    if phase == "mid-shard" and not crashed:
                        crashed.append(rank_id)
                        cluster.crash_rank(rank_id)

                cluster.phase_hook = hook
                t0 = time.perf_counter()
                result = cluster.match(fp, query, timeout=600.0)
                failover_lat.append(time.perf_counter() - t0)
                cluster.phase_hook = None
                if result.count != oracle[cycle % len(queries)]:
                    mismatches += 1
                if crashed:
                    cluster.restart_rank(crashed[0])
            failovers = cluster.metrics()["router"]["failovers"]
    p50_healthy = statistics.median(healthy_lat)
    added = [max(0.0, lat - p50_healthy) for lat in failover_lat]
    return {
        "cycles": cycles,
        "p50_healthy_ms": round(p50_healthy * 1000.0, 3),
        "p50_failover_ms": round(
            statistics.median(failover_lat) * 1000.0, 3
        ),
        "p95_added_ms": round(_p95(added) * 1000.0, 3),
        "p95_added_over_healthy_p50": (
            round(_p95(added) / p50_healthy, 3) if p50_healthy else None
        ),
        "failovers": failovers,
        "count_mismatches": mismatches,
    }


def run_cluster_bench(
    scale: float, requests: int | None = None, cycles: int | None = None
) -> dict:
    requests = requests or max(8, int(round(24 * scale)))
    cycles = cycles or max(5, int(round(12 * scale)))
    return {
        "benchmark": "cluster_failover",
        "scale": scale,
        "ranks": RANKS,
        "replication": REPLICATION,
        **cpu_report(),
        "routing_overhead": run_routing_overhead(scale, requests),
        "failover_latency": run_failover_latency(scale, cycles),
    }


def check_report(report: dict, *, latency_gates: bool = True) -> list[str]:
    errors = []
    routing = report["routing_overhead"]
    failover = report["failover_latency"]
    for section, label in ((routing, "healthy"), (failover, "failover")):
        if section["count_mismatches"]:
            errors.append(
                f"{section['count_mismatches']} {label} request(s) "
                f"diverged from the serial oracle"
            )
    if failover["failovers"] < 1:
        errors.append(
            "no crash cycle ever forced a failover — the measurement "
            "never exercised the path it gates"
        )
    if latency_gates:
        overhead = routing["overhead_frac"]
        if overhead is not None and overhead > ROUTING_OVERHEAD_GATE:
            errors.append(
                f"routed p50 overhead {overhead:.1%} exceeds the "
                f"{ROUTING_OVERHEAD_GATE:.0%} gate"
            )
        ratio = failover["p95_added_over_healthy_p50"]
        if ratio is not None and ratio > FAILOVER_P95_GATE_X:
            errors.append(
                f"p95 failover added latency is {ratio:.1f}x the "
                f"healthy p50 (gate: {FAILOVER_P95_GATE_X:.0f}x)"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_cluster.json", help="JSON report path"
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="paired requests for the overhead phase (default scales "
        "with REPRO_BENCH_SCALE)",
    )
    parser.add_argument(
        "--cycles", type=int, default=None,
        help="crash/restart cycles for the failover phase",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    report = run_cluster_bench(
        scale, requests=args.requests, cycles=args.cycles
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)

    routing = report["routing_overhead"]
    failover = report["failover_latency"]
    print(
        f"routing  : p50 {routing['p50_single_ms']:.2f} ms single -> "
        f"{routing['p50_routed_ms']:.2f} ms routed "
        f"({routing['overhead_frac']:+.1%} overhead, "
        f"{routing['requests']} requests)"
    )
    print(
        f"failover : healthy p50 {failover['p50_healthy_ms']:.2f} ms, "
        f"failover p50 {failover['p50_failover_ms']:.2f} ms, "
        f"p95 added {failover['p95_added_ms']:.2f} ms "
        f"({failover['p95_added_over_healthy_p50']}x healthy p50, "
        f"{failover['failovers']} failovers)"
    )
    print(f"wrote {args.out}")

    errors = check_report(report)
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------- pytest
@pytest.mark.benchmark(group="service")
def test_cluster_failover_smoke(benchmark):
    """Tiny-scale smoke: exact parity through routing and failover.
    The latency gates only hold when an engine pass dominates the
    router's poll quantum, so they are script/CI-scale only."""
    report = benchmark.pedantic(
        run_cluster_bench, args=(0.05,),
        kwargs={"requests": 3, "cycles": 3},
        rounds=1, iterations=1,
    )
    assert check_report(report, latency_gates=False) == []
    assert report["routing_overhead"]["count_mismatches"] == 0
    assert report["failover_latency"]["count_mismatches"] == 0


if __name__ == "__main__":
    sys.exit(main())

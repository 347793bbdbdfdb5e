"""Benchmark: what the resilience layer costs, and what it buys.

Two measurements, two gates:

* **journal overhead** — the same request stream served with and
  without ``state_dir`` durability (journal writes group-commit up to
  3 fsync'd records per job).  Gate: the paired p50 latency delta is within
  **5%** of the journal-off p50.  Both services stay alive for the
  whole run and requests alternate between them, so the estimate is a
  median of paired differences — immune to the machine-load drift
  that dwarfs a journal write when the conditions run minutes apart.
  Measured with the result cache disabled so every request pays the
  full engine path the journal rides on.
* **goodput under faults** — a deterministic 10%-fault schedule
  (injected engine exceptions, stalls, corrupted cache reads) against
  the same workload.  A request is *good* when it settles ``done``
  with the exact serial-oracle count on the first try.  Gate: goodput
  >= **70%**, and every good count is exact.  Requests failed by an
  injected fault must then succeed exactly on one resubmit — faults
  may cost retries, never correctness.

Run as a script to produce ``BENCH_resilience.json``::

    REPRO_BENCH_SCALE=0.5 python benchmarks/bench_resilience.py \
        --out BENCH_resilience.json

Also collected by ``pytest benchmarks/`` as a tiny-scale smoke test
(parity + goodput gates only: at smoke scale the engine path is so
cheap that journal fsyncs dominate, which is not the deployment
regime the 5% gate describes).
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
from repro.service import JobFailed, MatchingService, ServiceConfig
from repro.service.faults import ServiceFaultPlan

from conftest import bench_scale

JOURNAL_OVERHEAD_GATE = 0.05
GOODPUT_GATE = 0.70

# Seed chosen so the realized schedule over a 40-request run actually
# expresses its 10% rates (~4 engine faults, ~4 stalls) — an unlucky
# seed would measure goodput of a fault-free run.
FAULT_SCHEDULE = ServiceFaultPlan(
    seed=19,
    engine_fault_prob=0.10,
    stall_prob=0.10,
    stall_ms=2.0,
    cache_corrupt_prob=0.10,
)


def resilience_workload(scale: float):
    """A mesh graph and a query cycle heavy enough that the engine path
    dominates a journal write."""
    side = max(8, int(round(24 * math.sqrt(scale))))
    length = 6 if scale >= 0.25 else 4
    queries = [
        chain_graph(length),
        cycle_graph(length),
        star_graph(length - 2),
        chain_graph(length + 1),
    ]
    return mesh_graph(side, side), queries


def _timed_match(service, fp: str, query) -> float:
    t0 = time.perf_counter()
    service.match(fp, query, timeout=600.0)
    return time.perf_counter() - t0


def run_journal_overhead(scale: float, requests: int) -> dict:
    data, queries = resilience_workload(scale)
    no_cache = ServiceConfig(cache_bytes=0)
    # Paired design: both services stay alive for the whole measurement
    # and each iteration issues one request to each, back to back, so
    # machine-load drift (which moves the baseline by far more than a
    # journal write costs) hits both conditions symmetrically instead
    # of masquerading as journal overhead.  The within-pair order
    # alternates to cancel any ordering effect.
    pairs = max(requests, 2) * 2
    off_lat: list[float] = []
    on_lat: list[float] = []
    with tempfile.TemporaryDirectory(prefix="bench-state-") as base:
        with (
            MatchingService(service_config=no_cache) as plain,
            MatchingService(
                service_config=no_cache, state_dir=os.path.join(base, "state")
            ) as journaled,
        ):
            fp_off = plain.register_graph(data)
            fp_on = journaled.register_graph(data)
            plain.match(fp_off, queries[0], timeout=600.0)  # warmup
            journaled.match(fp_on, queries[0], timeout=600.0)
            for i in range(pairs):
                query = queries[i % len(queries)]
                if i % 2:
                    on_lat.append(_timed_match(journaled, fp_on, query))
                    off_lat.append(_timed_match(plain, fp_off, query))
                else:
                    off_lat.append(_timed_match(plain, fp_off, query))
                    on_lat.append(_timed_match(journaled, fp_on, query))
    p50_off = statistics.median(off_lat)
    p50_on = statistics.median(on_lat)
    # The paired per-request difference is the drift-immune estimate.
    paired = statistics.median(
        on - off for on, off in zip(on_lat, off_lat)
    )
    return {
        "requests": pairs,
        "p50_off_ms": round(p50_off * 1000.0, 3),
        "p50_on_ms": round(p50_on * 1000.0, 3),
        "paired_delta_ms": round(paired * 1000.0, 3),
        "overhead_frac": (
            round(paired / p50_off, 4) if p50_off else None
        ),
    }


def run_goodput(scale: float, requests: int) -> dict:
    data, queries = resilience_workload(scale)
    no_cache = ServiceConfig(cache_bytes=0)
    oracle = [CuTSMatcher(data).match(q).count for q in queries]
    good = 0
    mismatches = 0
    retried_ok = 0
    retried_bad = 0
    with MatchingService(
        service_config=no_cache, faults=FAULT_SCHEDULE
    ) as service:
        fp = service.register_graph(data)
        for i in range(requests):
            query = queries[i % len(queries)]
            try:
                result = service.match(fp, query, timeout=600.0)
            except JobFailed:
                # An injected fault: one resubmit must settle exact.
                try:
                    retry = service.match(fp, query, timeout=600.0)
                except JobFailed:
                    retried_bad += 1  # unlucky twice; still not good
                else:
                    if retry.count == oracle[i % len(queries)]:
                        retried_ok += 1
                    else:
                        mismatches += 1
                continue
            if result.count == oracle[i % len(queries)]:
                good += 1
            else:
                mismatches += 1
        fault_counts = (
            service.faults.snapshot() if service.faults is not None else {}
        )
    return {
        "requests": requests,
        "good_first_try": good,
        "goodput": round(good / requests, 4),
        "recovered_on_retry": retried_ok,
        "failed_twice": retried_bad,
        "count_mismatches": mismatches,
        "faults": fault_counts,
    }


def run_resilience(scale: float, requests: int | None = None) -> dict:
    requests = requests or max(12, int(round(40 * scale)))
    # The goodput phase needs enough draws for a 10% schedule to
    # actually fire (the latency phase does not).
    return {
        "benchmark": "service_resilience",
        "scale": scale,
        **cpu_report(),
        "journal_overhead": run_journal_overhead(scale, requests),
        "goodput_under_faults": run_goodput(scale, max(40, 2 * requests)),
    }


def check_report(
    report: dict, *, overhead_gate: float | None = JOURNAL_OVERHEAD_GATE
) -> list[str]:
    errors = []
    overhead = report["journal_overhead"]["overhead_frac"]
    if overhead_gate is not None and overhead is not None and (
        overhead > overhead_gate
    ):
        errors.append(
            f"journal-on p50 overhead {overhead:.1%} exceeds the "
            f"{overhead_gate:.0%} gate"
        )
    goodput = report["goodput_under_faults"]
    if goodput["count_mismatches"]:
        errors.append(
            f"{goodput['count_mismatches']} settled request(s) diverged "
            f"from the serial oracle — faults corrupted a count"
        )
    if goodput["goodput"] < GOODPUT_GATE:
        errors.append(
            f"goodput {goodput['goodput']:.1%} under the 10%-fault "
            f"schedule is below the {GOODPUT_GATE:.0%} gate"
        )
    if goodput["failed_twice"] and not goodput["recovered_on_retry"]:
        errors.append(
            "no faulted request ever recovered on resubmit"
        )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_resilience.json", help="JSON report path"
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="requests per measurement (default scales with "
        "REPRO_BENCH_SCALE)",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    report = run_resilience(scale, requests=args.requests)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)

    jo = report["journal_overhead"]
    gp = report["goodput_under_faults"]
    print(
        f"journal : p50 {jo['p50_off_ms']:.2f} ms off -> "
        f"{jo['p50_on_ms']:.2f} ms on "
        f"({jo['overhead_frac']:+.1%} overhead, {jo['requests']} requests)"
    )
    print(
        f"goodput : {gp['good_first_try']}/{gp['requests']} first-try "
        f"({gp['goodput']:.1%}), {gp['recovered_on_retry']} recovered on "
        f"retry, faults {gp['faults']}"
    )
    print(f"wrote {args.out}")

    errors = check_report(report)
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------- pytest
@pytest.mark.benchmark(group="service")
def test_resilience_smoke(benchmark):
    """Tiny-scale smoke: exact parity under faults + goodput gate.  The
    5% journal gate only holds when engine time dominates fsync time,
    so it is script/CI-scale only."""
    report = benchmark.pedantic(
        run_resilience, args=(0.05,), kwargs={"requests": 12},
        rounds=1, iterations=1,
    )
    assert check_report(report, overhead_gate=None) == []
    assert report["goodput_under_faults"]["count_mismatches"] == 0


if __name__ == "__main__":
    sys.exit(main())
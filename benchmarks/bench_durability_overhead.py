"""Benchmark: what durability costs when nothing goes wrong.

Two gates from the durable-jobs acceptance criteria, measured on the
scaled Figure 2 workload (mesh data graph x chain query):

* **Checkpoint-on overhead** — a run with ``checkpoint_dir`` set must
  stay close to the classic in-process run: the documented target is
  < 10% wall-clock overhead at an amortized snapshot cadence (256
  expansions), with a looser enforced bound to stay CI-safe on noisy
  shared runners.  The default cadence (64) is recorded alongside.
* **Memory budget** — a run with ``memory_budget_mb`` set *below* the
  unconstrained peak must complete with bit-identical counts while the
  peak tracked allocation stays under the budget (graceful degradation,
  never an abort).

Run as a script to produce ``BENCH_durability.json``::

    REPRO_BENCH_SCALE=0.5 python benchmarks/bench_durability_overhead.py \
        --out BENCH_durability.json

Also collected by ``pytest benchmarks/`` as a tiny-scale smoke test
(count/budget gates only; the timing gate needs a quiet machine).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time

import pytest

from repro.core import BYTES_PER_WORD, CuTSConfig, CuTSMatcher
from repro.graph import chain_graph, mesh_graph

from conftest import bench_scale

CHAIN_LENGTH = 8
OVERHEAD_TARGET = 1.10    # documented goal (amortized cadence)
OVERHEAD_CI_BOUND = 1.35  # enforced bound (shared-runner noise margin)
CADENCES = (64, 256)
AMORTIZED_CADENCE = 256
BUDGET_FRACTION = 0.4     # budget as a fraction of the unconstrained peak


def durability_workload(scale: float):
    side = max(12, int(round(24 * math.sqrt(scale / 0.5))))
    return mesh_graph(side, side), chain_graph(CHAIN_LENGTH)


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best, result = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_durability(scale: float, repeats: int = 3) -> dict:
    data, query = durability_workload(scale)
    matcher = CuTSMatcher(data, CuTSConfig())
    matcher.match(chain_graph(2))  # warm caches outside the timed region

    classic_s, classic = _best_of(repeats, lambda: matcher.match(query))
    free_peak = classic.stats.peak_tracked_bytes

    checkpointed = []
    for every in CADENCES:
        def run(every=every):
            with tempfile.TemporaryDirectory(prefix="bench-durab-") as tmp:
                return matcher.match(
                    query, checkpoint_dir=f"{tmp}/job", checkpoint_every=every
                )
        wall_s, res = _best_of(repeats, run)
        checkpointed.append(
            {
                "checkpoint_every": every,
                "wall_s": round(wall_s, 4),
                "overhead": round(wall_s / classic_s, 4) if classic_s else None,
                "count": res.count,
            }
        )

    # A budget well below the unconstrained peak (when the workload is
    # big enough for a whole-MB budget to sit below it).
    budget_mb = max(1, int(free_peak * BUDGET_FRACTION / 2**20))
    budget_bytes = budget_mb * 2**20
    squeezed = CuTSMatcher(
        data, CuTSConfig(), memory_budget_mb=budget_mb
    ).match(query)
    budget = {
        "budget_mb": budget_mb,
        "budget_below_free_peak": budget_bytes < free_peak,
        "count": squeezed.count,
        "peak_tracked_bytes": squeezed.stats.peak_tracked_bytes,
        "chunk_halvings": squeezed.stats.chunk_halvings,
        "spilled_chunks": squeezed.stats.spilled_chunks,
    }

    return {
        "benchmark": "durability_overhead",
        "workload": {
            "data": data.name,
            "num_vertices": data.num_vertices,
            "num_edges": data.num_edges,
            "query": query.name,
            "scale": scale,
        },
        "bytes_per_word": BYTES_PER_WORD,
        "classic": {
            "wall_s": round(classic_s, 4),
            "count": classic.count,
            "peak_tracked_bytes": free_peak,
        },
        "checkpointed": checkpointed,
        "budget": budget,
        "overhead_target": OVERHEAD_TARGET,
        "overhead_ci_bound": OVERHEAD_CI_BOUND,
    }


def check_report(report: dict, ci_bound: float = OVERHEAD_CI_BOUND) -> list[str]:
    """Hard failures: count divergence, budget overrun, missed overhead
    bound (``ci_bound=0`` disables the timing gate)."""
    errors = []
    classic_count = report["classic"]["count"]
    for run in report["checkpointed"]:
        if run["count"] != classic_count:
            errors.append(
                f"checkpointed count diverged at cadence "
                f"{run['checkpoint_every']}: {run['count']} != "
                f"{classic_count}"
            )
        gated = ci_bound > 0 and run["checkpoint_every"] == AMORTIZED_CADENCE
        if gated and run["overhead"] > ci_bound:
            errors.append(
                f"checkpoint overhead {run['overhead']}x at cadence "
                f"{run['checkpoint_every']} exceeds the {ci_bound}x bound"
            )
    budget = report["budget"]
    if budget["count"] != classic_count:
        errors.append(
            f"budgeted count diverged: {budget['count']} != {classic_count}"
        )
    if budget["budget_below_free_peak"]:
        limit = budget["budget_mb"] * 2**20
        if budget["peak_tracked_bytes"] > limit:
            errors.append(
                f"peak tracked {budget['peak_tracked_bytes']} bytes "
                f"exceeds the {budget['budget_mb']} MiB budget"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_durability.json", help="JSON report path"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--ci-bound", type=float, default=OVERHEAD_CI_BOUND,
        help="fail past this overhead ratio at the amortized cadence "
        "(0 disables the timing gate)",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    report = run_durability(scale, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)

    classic = report["classic"]
    print(
        f"workload {report['workload']['data']} x "
        f"{report['workload']['query']} (scale {scale})"
    )
    print(
        f"classic : {classic['wall_s']:8.3f} s  count={classic['count']:,}  "
        f"peak={classic['peak_tracked_bytes'] / 2**20:.2f} MiB"
    )
    for run in report["checkpointed"]:
        print(
            f"every={run['checkpoint_every']:<4}: {run['wall_s']:8.3f} s  "
            f"overhead={run['overhead']:.3f}x "
            f"(target {OVERHEAD_TARGET}x at cadence {AMORTIZED_CADENCE})"
        )
    budget = report["budget"]
    print(
        f"budget={budget['budget_mb']} MiB: count={budget['count']:,}  "
        f"peak={budget['peak_tracked_bytes'] / 2**20:.2f} MiB  "
        f"halvings={budget['chunk_halvings']}  "
        f"spills={budget['spilled_chunks']}"
    )
    print(f"wrote {args.out}")

    errors = check_report(report, args.ci_bound)
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------- pytest
@pytest.mark.benchmark(group="durability")
def test_durability_overhead_smoke(benchmark):
    """Tiny-scale smoke: exact counts and budget compliance (the timing
    gate is exercised by the script/CI on quiet machines)."""
    report = benchmark.pedantic(
        run_durability, args=(0.1,), kwargs={"repeats": 1},
        rounds=1, iterations=1,
    )
    assert check_report(report, ci_bound=0) == []


if __name__ == "__main__":
    sys.exit(main())

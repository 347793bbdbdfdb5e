"""The repository benchmark: one command, every workload, every check.

Run one workload::

    python3 perfbench/run.py --workload lattice_write --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload and seed with spans recorded around the calls into each
layer, in this process and in the server, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record (provenance, workload definition, phase
details, ``/metrics`` deltas).

Steadiness report (one fresh process per seed)::

    python3 perfbench/run.py --repeat 10 --workload hub_read --seconds 24

Rate ladder for a workload's serve part (how ``peak_rps`` was chosen)::

    python3 perfbench/run.py --ladder 20,40,60 --workload hub_read \\
        --seconds 10

Each run builds everything it uses from the checkout's ``src`` and the
seed, writes only under ``.perfbench-runs/`` in the checkout, and stops
the server and pool processes it started before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END: list[tuple[str, str]] = [
    ("solve_s", "s"),
    ("stream_solve_s", "s"),
    ("durable_solve_s", "s"),
    ("distributed_solve_s", "s"),
    ("modeled_gpu_ms", "ms"),
    ("saturation_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
"""Metrics printed by ``--trace 0``: those whose ten-seed quartile
spread stayed within the 25% a bound may allow on the 2-CPU host.  The
read-latency percentiles and the parallel path's wall flip with a
run-level host state (a few runs in ten), so they are reported in every
record and under ``--trace 1`` (see ``OPEN_LOOP``) instead."""

OPEN_LOOP = {
    "parallel_solve_s": "parallel.solve_s",
    "p50_ms": "service.http.read_p50_ms",
    "p90_ms": "service.http.read_p90_ms",
    "peak_p50_ms": "service.http.peak_read_p50_ms",
    "peak_p90_ms": "service.http.peak_read_p90_ms",
}
"""Record metric -> per-layer name for the measurements above."""

SETUP_REPS = 3
CYCLES = 5
"""Timed cycles per run; each is one solve round (every path once) then
one nominal and one peak block, so every metric's samples are spread
over the whole run rather than taken in one stretch of it."""
SHARES = {"nominal": 0.25, "peak": 0.25, "closed": 0.2}
"""Share of ``--seconds`` each serving phase gets over the whole run."""


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no program sources at {src}/repro; run from a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed: int, seconds: float) -> dict:
    import numpy as np
    from repro.hostinfo import cpu_report
    from workloads import BOUNDS_CPU_COUNT

    cpus = cpu_report()
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "host": cpus,
        "cpu_mismatch": cpus["cpu_count"] != BOUNDS_CPU_COUNT,
        "bounds_cpu_count": BOUNDS_CPU_COUNT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "rates_rps": {"nominal": workload.serve.nominal_rps,
                      "peak": workload.serve.peak_rps},
        "p90_limit_ms": workload.serve.p90_limit_ms,
    }


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _profile(values: list[float]) -> dict[str, float]:
    """Percentile profile of one phase's read latencies."""
    from layers import _pct

    if not values:
        return {}
    return {f"p{q}": round(_pct(values, q), 3)
            for q in (10, 25, 50, 75, 90, 95, 99, 100)}


def _read_latencies_ms(ops) -> list[float]:
    from loadgen import FAILED_LATENCY_S

    return [
        op.latency_s * 1e3 if op.ok else FAILED_LATENCY_S * 1e3
        for op in ops if op.kind == "read"
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> tuple[dict, dict]:
    from layers import _pct, serve_layers, solve_layers
    from serve import PHASES, ServePart
    from solve import PATHS, SolvePart, SolveResult, reference_s
    from spans import Tracer, install, load_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer, server=False)
        tracer.enabled = False
    solve = SolvePart(workload.solve, seed, workdir, tracer)
    serve = ServePart(workload.serve, seed, ROOT, workdir, trace)
    record: dict = {"workload": name, "why": workload.why,
                    "provenance": provenance(workload, seed, seconds)}
    timeline: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timeline[name] = now - mark
        mark = now

    try:
        # The whole set-up (graph generation, engines, pool, server)
        # runs SETUP_REPS times; setup_s is the median.
        setups = []
        builds = []
        details = []
        for _ in range(SETUP_REPS):
            solve_build, serve_build = solve.build(), serve.build()
            build = {k: solve_build[k] + serve_build[k] for k in solve_build}
            solve_s = solve.setup()
            serve_s = serve.setup()
            setups.append(build["wall_s"] + solve_s + serve_s)
            builds.append(build)
            details.append({"solve": solve.setup_detail,
                            "serve": serve.setup_detail})
        build_s = statistics.median(b["wall_s"] for b in builds)
        lap("setup")
        serve.prepare()
        assert serve.server is not None
        solve.run_round(SolveResult())  # warm-up: first full-size calls
        lap("prepare")
        if tracer is not None:
            tracer.enabled = True
        result = SolveResult()
        host_ref = []
        for _ in range(CYCLES):
            host_ref.append(reference_s())
            solve.run_round(result)
            for phase in ("nominal", "peak"):
                serve.run_phase(phase, SHARES[phase] * seconds / CYCLES)
        serve.run_phase("closed", SHARES["closed"] * seconds)
        solve_spans = list(tracer.spans) if tracer is not None else []
        server_rss = serve.server.peak_rss_mb()
        lap("measure")
        serve.close()
        lap("server_stop")
        overhead = None
        if tracer is not None:
            traced = untraced = 0.0
            for path in PATHS:
                tracer.enabled = False
                untraced += solve.run_path(path).wall_s
                tracer.enabled = True
                traced += solve.run_path(path).wall_s
            overhead = traced / untraced - 1.0
        bench_rss = _vmhwm_mb()
        checked = serve.verify()
        lap("verify")
    finally:
        solve.close()
        serve.close()

    nominal = _read_latencies_ms(serve.ops["nominal"])
    peak = _read_latencies_ms(serve.ops["peak"])
    seconds_in = {p: sum(b - a for a, b in serve.phase_windows[p])
                  for p in PHASES}
    closed_ok = sum(1 for op in serve.ops["closed"] if op.ok)
    closed_s = seconds_in["closed"]
    last = result.last
    metrics = {
        "solve_s": statistics.median(result.walls["plain"]),
        "stream_solve_s": statistics.median(result.walls["stream"]),
        "durable_solve_s": statistics.median(result.walls["durable"]),
        "distributed_solve_s": statistics.median(result.walls["distributed"]),
        "parallel_solve_s": statistics.median(result.walls["parallel"]),
        "modeled_gpu_ms": float(last["plain"].time_ms),
        "p50_ms": _pct(nominal, 50),
        "p90_ms": _pct(nominal, 90),
        "peak_p50_ms": _pct(peak, 50),
        "peak_p90_ms": _pct(peak, 90),
        "saturation_rps": closed_ok / closed_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": bench_rss + server_rss,
    }
    ops = [op for p in PHASES for op in serve.ops[p]]
    attempted = CYCLES * len(PATHS) + len(ops)
    failed = sum(1 for op in ops if not op.ok)
    commits = [op.latency_s * 1e3 for op in ops
               if op.kind == "commit" and op.ok]
    lateness = [(op.sent - op.due) * 1e3 for p in ("nominal", "peak")
                for op in serve.ops[p]]
    record.update({
        "attempted": attempted,
        "failed": failed,
        "setup_s_reps": setups,
        "graph_build": builds,
        "setup_detail": details,
        "solve_walls_s": result.walls,
        "solve_cpu_s": result.cpus,
        "solve_steal_s": result.steals,
        "host_reference_s": host_ref,
        "phases": {
            p: {
                "seconds": seconds_in[p],
                "ops": len(serve.ops[p]),
                "reads": sum(1 for op in serve.ops[p] if op.kind == "read"),
                "commits": sum(1 for op in serve.ops[p] if op.kind == "commit"),
                "failed": sum(1 for op in serve.ops[p] if not op.ok),
                "errors": sorted({op.error for op in serve.ops[p]
                                  if op.error})[:5],
                "server_cpu_s": serve.cpu[p],
                "read_ms": _profile(_read_latencies_ms(serve.ops[p])),
                "metrics_delta": serve.metric_deltas[p],
            }
            for p in PHASES
        },
        "commit_ms": {
            "n": len(commits),
            "p50": _pct(commits, 50) if commits else None,
            "p95": _pct(commits, 95) if commits else None,
        },
        "lateness_ms": {
            "p99": _pct(lateness, 99),
            "max": max(lateness),
        },
        "checked": checked,
        "peak_rss_mb": {"benchmark": bench_rss, "server": server_rss},
        "graphs": {
            name: {"vertices": g.num_vertices, "edges": g.num_edges}
            for name, g in [("solve:" + workload.solve.graph, solve.graph),
                            *serve.graphs.items()]
        },
        "timeline_s": timeline,
    })
    if not trace:
        return record, metrics

    assert tracer is not None
    span_file = os.path.join(
        workdir, f"server-{SETUP_REPS}", "spans.jsonl"
    )
    server_spans = load_spans(span_file)
    windows = [w for p in PHASES for w in serve.phase_windows[p]]
    deltas: dict[str, float] = {}
    for p in PHASES:
        for key, value in serve.metric_deltas[p].items():
            deltas[key] = deltas.get(key, 0.0) + value
    layers = solve_layers(solve_spans, result.rounds, last, result.walls)
    served = serve_layers(
        server_spans, windows, ops, deltas, sum(serve.cpu.values())
    )
    root_wall = layers.pop("_root_wall") + served.pop("_root_wall")
    root_self = layers.pop("_root_self") + served.pop("_root_self")
    layers.update(served)
    layers["graph.build_s"] = build_s
    layers["parallel.spawn_s"] = statistics.median(
        d["solve"]["parallel_spawn_s"] for d in details
    )
    for name, layer in OPEN_LOOP.items():
        layers[layer] = metrics[name]
    layers["failed_frac"] = failed / attempted
    layers["tracing.overhead_frac"] = float(overhead)
    layers["residual_frac"] = root_self / root_wall if root_wall else 0.0
    record["spans"] = {"benchmark": len(tracer.spans),
                       "server": len(server_spans)}
    return record, layers


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing started for the
    parallel path's shared-memory graph, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_once(args: argparse.Namespace) -> int:
    from layers import PER_LAYER
    from serve import ServeMismatch
    from solve import SolveMismatch
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}")
    workdir = os.path.join(
        ROOT, ".perfbench-runs",
        f"{args.workload}-{args.seed}-{os.getpid()}",
    )
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    import tempfile

    tempfile.tempdir = workdir
    try:
        record, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir,
        )
    except (SolveMismatch, ServeMismatch) as exc:
        _fail(f"count check failed: {exc}", code=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    names = PER_LAYER if args.trace else END_TO_END
    record["metrics"] = metrics
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in names},
    }))
    return 0


def repeat(args: argparse.Namespace) -> int:
    """Run ``--repeat`` fresh processes on consecutive seeds and print
    each metric's median, quartile spread and min-max spread."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    os.makedirs(os.path.join(ROOT, ".perfbench-runs"), exist_ok=True)
    keep = os.path.join(ROOT, ".perfbench-runs",
                        f"repeat-{args.workload}-{args.seed}.jsonl")
    print(f"records: {keep}", flush=True)
    for i in range(args.repeat):
        seed = args.seed + i
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            _fail(f"seed {seed} exited {out.returncode}", code=1)
        lines = out.stdout.strip().splitlines()
        with open(keep, "a", encoding="utf-8") as fh:
            fh.write(lines[-2] + "\n")
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        report[name] = {
            "median": med,
            "iqr_frac": (q3 - q1) / med if med else None,
            "range_frac": (max(vals) - min(vals)) / med if med else None,
            "min": min(vals),
            "max": max(vals),
            "unit": units[name],
        }
        print(f"{name:40s} median {med:12.4f} {units[name]:6s} "
              f"IQR {report[name]['iqr_frac'] or 0:7.3f} "
              f"range {report[name]['range_frac'] or 0:7.3f}")
    print(json.dumps({"workload": args.workload, "seeds": [
        args.seed, args.seed + args.repeat - 1], "report": report}))
    return 0


def ladder(args: argparse.Namespace) -> int:
    """Open-loop rungs at the given rates, each against a freshly
    started and warmed server, so that every rung's fresh reads miss."""
    from layers import _pct
    from loadgen import Connection, open_loop
    from serve import ServePart
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-runs",
                           f"ladder-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    serve = ServePart(workload.serve, args.seed, ROOT, workdir, False)
    try:
        serve.build()
        for rate in (float(r) for r in args.ladder.split(",")):
            serve.setup()
            serve.prepare()
            assert serve.server is not None
            ops = serve._open_schedule(rate, args.seconds)
            t0 = time.time() + 0.02
            for op in ops:
                op.due += t0
            conns = [Connection("127.0.0.1", serve.server.port)
                     for _ in range(2)]
            try:
                open_loop(*conns, ops)
            finally:
                for conn in conns:
                    conn.close()
            lat = _read_latencies_ms(ops)
            late = [(op.sent - op.due) * 1e3 for op in ops]
            print(json.dumps({
                "rate": rate, "reads": len(lat),
                "failed": sum(1 for op in ops if not op.ok),
                "p50_ms": round(_pct(lat, 50), 2),
                "p90_ms": round(_pct(lat, 90), 2),
                "p99_ms": round(_pct(lat, 99), 2),
                "late_p99_ms": round(_pct(late, 99), 2),
            }), flush=True)
    finally:
        serve.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    # The load generator's threads share this process's interpreter
    # lock; a short switch interval keeps a due send from waiting up to
    # the default 5 ms behind the reply parser.
    sys.setswitchinterval(0.0005)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--ladder", default=None, metavar="R1,R2,...")
    args = parser.parse_args(argv)
    _import_program()
    if args.repeat:
        return repeat(args)
    if args.ladder:
        return ladder(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

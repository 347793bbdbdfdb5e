"""Command-line interface mirroring the cuTS artifact's entry points.

The paper's artifact exposes ``cuts.py`` (single-node runs),
``2nodes_exe.sh`` / ``4nodes_exe.sh`` (distributed runs) and
``convert_ours_to_gsi.py`` (format conversion).  This module provides the
same operations:

* ``python -m repro match DATA QUERY [--ranks N] ...`` — run a search on
  graph files (cuTS edge-list format) or named built-in datasets;
* ``python -m repro convert SRC DST`` — cuTS → GSI format conversion;
* ``python -m repro experiments [--quick]`` — regenerate all tables and
  figures (same as ``python -m repro.experiments``).

DATA accepts either a path to a cuTS-format file or one of the built-in
dataset names (``enron``, ``gowalla``, ...).  QUERY accepts a path, a
built-in query name like ``q5_e10_r0``, or a pattern shorthand like
``K5`` (clique), ``C6`` (cycle), ``P4`` (path/chain), ``S5`` (star).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .core.config import CuTSConfig
from .core.matcher import CuTSMatcher
from .distributed.faults import FaultPlan
from .distributed.runtime import DistributedCuTS
from .gpusim.device import A100, V100
from .graph.csr import CSRGraph
from .graph.generators import chain_graph, clique_graph, cycle_graph, star_graph
from .graph.io import convert_cuts_to_gsi, read_cuts_format
from .parallel.matcher import ParallelMatcher, resolve_workers

__all__ = ["main", "load_data_argument", "load_query_argument"]

_DEVICES = {"V100": V100, "A100": A100}


def load_data_argument(spec: str) -> CSRGraph:
    """Resolve a DATA argument: file path or built-in dataset name."""
    from .experiments.datasets import DATASET_NAMES, load_dataset

    if spec in DATASET_NAMES:
        return load_dataset(spec)
    path = Path(spec)
    if path.exists():
        return read_cuts_format(path)
    raise SystemExit(
        f"error: {spec!r} is neither a file nor one of {DATASET_NAMES}"
    )


def load_query_argument(spec: str) -> CSRGraph:
    """Resolve a QUERY argument: file, paper query name, or shorthand."""
    path = Path(spec)
    if path.exists():
        return read_cuts_format(path)
    makers = {"K": clique_graph, "C": cycle_graph, "P": chain_graph}
    if len(spec) >= 2 and spec[0] in makers and spec[1:].isdigit():
        return makers[spec[0]](int(spec[1:]))
    if len(spec) >= 2 and spec[0] == "S" and spec[1:].isdigit():
        return star_graph(int(spec[1:]))
    if spec.startswith("q") and "_" in spec:
        from .graph.queries import paper_query_set

        try:
            size = int(spec[1 : spec.index("_")])
        except ValueError:
            raise SystemExit(f"error: cannot parse query name {spec!r}")
        for q in paper_query_set(size):
            if q.name == spec:
                return q
        raise SystemExit(f"error: no paper query named {spec!r}")
    raise SystemExit(
        f"error: {spec!r} is not a file, paper query name (q5_e10_r0), or "
        f"shorthand (K5/C6/P4/S5)"
    )


def _parse_rank_map(pairs: list[str], what: str) -> dict[int, float]:
    """Parse repeated ``RANK:VALUE`` options into a dict."""
    out: dict[int, float] = {}
    for item in pairs:
        try:
            rank_s, value_s = item.split(":", 1)
            out[int(rank_s)] = float(value_s)
        except ValueError:
            raise SystemExit(
                f"error: {what} expects RANK:VALUE, got {item!r}"
            )
    return out


def _build_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    try:
        plan = FaultPlan(
            seed=args.fault_seed,
            drop_prob=args.drop_prob,
            dup_prob=args.dup_prob,
            delay_prob=args.delay_prob,
            max_delay_ms=args.max_delay_ms,
            crash_at_ms=_parse_rank_map(args.crash, "--crash"),
            slowdown=_parse_rank_map(args.slow, "--slow"),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return None if plan.is_null else plan


def _parse_workers(spec: str) -> int:
    """Parse ``--workers``: a positive integer or ``auto`` (= cpu_count)."""
    try:
        return resolve_workers(spec)
    except ValueError:
        raise SystemExit(
            f"error: --workers expects a positive integer or 'auto', "
            f"got {spec!r}"
        )


def _cmd_match(args: argparse.Namespace) -> int:
    data = load_data_argument(args.data)
    query = load_query_argument(args.query)
    workers = _parse_workers(args.workers)
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    cfg = CuTSConfig(
        device=_DEVICES[args.device],
        chunk_size=args.chunk_size,
        ordering=args.ordering,
        intersection=args.intersection,
    )
    budget_mb = args.memory_budget_mb
    print(f"data : {data}")
    print(f"query: {query}")
    if args.ranks > 1 and workers > 1:
        raise SystemExit(
            "error: --ranks (simulated distributed) and --workers "
            "(multi-core) are separate execution engines; choose one"
        )
    if workers > 1:
        t0 = time.perf_counter()
        with ParallelMatcher(
            data, cfg, workers=workers, memory_budget_mb=budget_mb
        ) as matcher:
            r = matcher.match(
                query,
                time_limit_ms=args.time_limit_ms,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
        wall_s = time.perf_counter() - t0
        print(f"matches      : {r.count:,}")
        print(f"kernel time  : {r.time_ms:.4f} ms "
              f"({args.device}-sim, max over {workers} workers)")
        print(f"wall clock   : {wall_s:.3f} s on {workers} worker processes")
        print(f"paths/depth  : {r.stats.paths_per_depth}")
        if args.counters:
            for k, v in r.cost.snapshot().items():
                print(f"  {k:<26}{v:>16,.0f}" if isinstance(v, (int,)) else f"  {k:<26}{v:>16.4g}")
        return 0
    if args.ranks > 1:
        plan = _build_fault_plan(args)
        res = DistributedCuTS(
            data, args.ranks, cfg, fault_plan=plan, memory_budget_mb=budget_mb
        ).match(
            query,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        print(f"matches      : {res.count:,}")
        print(f"runtime      : {res.runtime_ms:.4f} ms on {args.ranks} ranks")
        print(f"per-rank busy: " + ", ".join(f"{t:.4f}" for t in res.per_rank_busy_ms))
        print(f"transfers    : {res.work_transfers}")
        if plan is not None:
            print(f"faults       : {res.faults_injected}")
            print(f"retransmits  : {res.retransmissions}")
            print(f"ranks failed : {res.ranks_failed}")
            print(f"recovered    : {res.recovered_chunks}")
    else:
        r = CuTSMatcher(data, cfg, memory_budget_mb=budget_mb).match(
            query,
            time_limit_ms=args.time_limit_ms,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        print(f"matches      : {r.count:,}")
        print(f"kernel time  : {r.time_ms:.4f} ms ({args.device}-sim)")
        print(f"paths/depth  : {r.stats.paths_per_depth}")
        if args.counters:
            for k, v in r.cost.snapshot().items():
                print(f"  {k:<26}{v:>16,.0f}" if isinstance(v, (int,)) else f"  {k:<26}{v:>16.4g}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    convert_cuts_to_gsi(args.src, args.dst)
    print(f"wrote {args.dst}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.harness import main as harness_main

    return harness_main(["--quick"] if args.quick else [])


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.http import main as serve_main

    return serve_main(list(args.serve_args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="cuTS reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="run a subgraph isomorphism search")
    m.add_argument("data", help="data graph file or built-in dataset name")
    m.add_argument("query", help="query file, paper query name, or K5/C6/P4/S5")
    m.add_argument("--ranks", type=int, default=1, help="simulated nodes")
    m.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="worker processes for the multi-core engine "
        "('auto' = all CPUs; default 1 = classic in-process run)",
    )
    m.add_argument("--device", choices=("V100", "A100"), default="V100")
    m.add_argument("--chunk-size", type=int, default=512)
    m.add_argument("--ordering", choices=("max_degree", "id"), default="max_degree")
    m.add_argument(
        "--intersection", choices=("adaptive", "c", "p"), default="adaptive"
    )
    m.add_argument("--time-limit-ms", type=float, default=None)
    m.add_argument("--counters", action="store_true", help="dump hardware counters")
    d = m.add_argument_group("durability")
    d.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist progress snapshots to DIR (atomic tmp+fsync+rename); "
        "a killed run restarts from the last snapshot with --resume",
    )
    d.add_argument(
        "--resume", action="store_true",
        help="resume from the snapshots in --checkpoint-dir "
        "(refuses mismatched graph/config fingerprints)",
    )
    d.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="snapshot cadence: every N expansions (serial) or "
        "event-loop iterations (distributed); default 64",
    )
    d.add_argument(
        "--memory-budget-mb", type=int, default=0, metavar="MB",
        help="soft host-memory budget; under pressure the BFS chunk "
        "size halves and completed chunks spill to the checkpoint "
        "store (0 = unlimited)",
    )
    f = m.add_argument_group("fault injection (distributed runs)")
    f.add_argument("--fault-seed", type=int, default=0)
    f.add_argument("--drop-prob", type=float, default=0.0,
                   help="probability each work/ack message is lost")
    f.add_argument("--dup-prob", type=float, default=0.0,
                   help="probability each work/ack message is duplicated")
    f.add_argument("--delay-prob", type=float, default=0.0,
                   help="probability of extra delivery jitter")
    f.add_argument("--max-delay-ms", type=float, default=1.0)
    f.add_argument("--crash", action="append", default=[], metavar="RANK:MS",
                   help="crash RANK at simulated time MS (repeatable)")
    f.add_argument("--slow", action="append", default=[], metavar="RANK:FACTOR",
                   help="slow RANK down by FACTOR (repeatable)")
    m.set_defaults(func=_cmd_match)

    c = sub.add_parser("convert", help="convert cuTS format to GSI format")
    c.add_argument("src")
    c.add_argument("dst")
    c.set_defaults(func=_cmd_convert)

    e = sub.add_parser("experiments", help="regenerate all tables/figures")
    e.add_argument("--quick", action="store_true")
    e.set_defaults(func=_cmd_experiments)

    s = sub.add_parser(
        "serve",
        help="run the matching service over HTTP (same as "
        "python -m repro.serve); --ranks N --replication R serves a "
        "replicated shard-routed cluster",
    )
    s.add_argument(
        "serve_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="arguments forwarded to repro.serve (--port, --workers, "
        "--ranks, --replication, --preload, ...)",
    )
    s.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

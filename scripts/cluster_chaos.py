#!/usr/bin/env python
"""Chaos gate for the replicated shard-routed cluster (DESIGN.md §15).

Boots a 3-rank cluster with 2-way replication, durable per-rank
journals, and real pool workers, then drives live traffic from
concurrent client threads while SIGKILLing the primary replica of the
loaded shard mid-load: the kill fires from the router's ``mid-shard``
phase hook on an attempt routed to that replica, so it always lands
with work in flight there.  The supervisor must heal the crashed rank on
its own (catch-up from the content-addressed store *before*
re-admission to the ring).  The run fails with a non-zero exit unless
all of the following hold:

* **exactly-once** — every settled count equals the serial oracle
  (:class:`CuTSMatcher` on the same graphs); zero mismatches;
* **goodput >= 70%** — requests that settle ``done`` first try,
  over everything submitted while a rank was dying and healing;
* **no duplicated side effects** — no rank's durable journal holds
  two records for one idempotency key;
* **failover actually happened** — the router recorded at least one
  failover (otherwise the kill missed the hot path and the run
  proved nothing);
* **bounded recovery** — the loaded shard is back at full R-way
  replication within ``--recover-ticks`` supervisor ticks of the
  crash.

Usage::

    REPRO_SANITIZE=1 PYTHONPATH=src python scripts/cluster_chaos.py
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.matcher import CuTSMatcher  # noqa: E402
from repro.graph import (  # noqa: E402
    chain_graph,
    cycle_graph,
    mesh_graph,
    random_graph,
    star_graph,
)
from repro.service import (  # noqa: E402
    AdmissionError,
    ClusterService,
    HashRing,
    JobFailed,
    ServiceConfig,
    ServiceState,
)

GOODPUT_GATE = 0.70

DATA_GRAPHS = {
    "mesh55": mesh_graph(5, 5),
    "mesh44": mesh_graph(4, 4),
    "gnp30": random_graph(30, 0.15, seed=41),
}

QUERIES = [
    chain_graph(3),
    chain_graph(4),
    cycle_graph(4),
    star_graph(3),
]


def journal_duplicates(state_dir: str) -> list[str]:
    """Idempotency keys bound to more than one job id on any single
    rank (each job's last record carries its key)."""
    dupes: list[str] = []
    for rank_dir in sorted(os.listdir(state_dir)):
        if not rank_dir.startswith("rank-"):
            continue  # the router's own log
        seen: set[str] = set()
        for record in ServiceState(
            os.path.join(state_dir, rank_dir)
        ).load_jobs():
            key = record.get("idempotency_key")
            if key is None:
                continue
            if key in seen:
                dupes.append(f"{rank_dir}:{key}")
            seen.add(str(key))
    return dupes


def run_chaos(args) -> int:
    service_config = ServiceConfig(cache_bytes=0, route_timeout_s=30.0)
    oracle = {
        (g_name, q.name): CuTSMatcher(data).match(q).count
        for g_name, data in DATA_GRAPHS.items()
        for q in QUERIES
    }

    failures: list[str] = []
    outcomes = {"ok": 0, "failed": 0, "shed": 0, "mismatch": 0}
    outcomes_lock = threading.Lock()

    with tempfile.TemporaryDirectory(prefix="cluster-chaos-") as base:
        state_dir = os.path.join(base, "state")
        with ClusterService(
            service_config=service_config,
            ranks=args.ranks,
            replication=args.replication,
            workers=args.workers,
            state_dir=state_dir,
            auto_heal=True,
        ) as cluster:
            fps = {
                name: cluster.register_graph(data, name=name)
                for name, data in DATA_GRAPHS.items()
            }
            # The primary replica of the hottest shard is the victim:
            # the healthy ring is a pure function of the member set, so
            # the script can compute it without reaching into the
            # router's internals.
            hot = "mesh55"
            victim = HashRing(range(args.ranks)).primary_for(fps[hot])

            def drive(worker_id: int) -> None:
                for i in range(args.requests):
                    g_name = (
                        hot
                        if i % 2 == 0
                        else list(DATA_GRAPHS)[i % len(DATA_GRAPHS)]
                    )
                    query = QUERIES[(worker_id + i) % len(QUERIES)]
                    key = f"chaos-{worker_id}-{i}"
                    try:
                        result = cluster.match(
                            fps[g_name], query,
                            idempotency_key=key, timeout=120.0,
                        )
                    except AdmissionError:
                        with outcomes_lock:
                            outcomes["shed"] += 1
                        continue
                    except (JobFailed, TimeoutError):
                        with outcomes_lock:
                            outcomes["failed"] += 1
                        continue
                    expected = oracle[(g_name, query.name)]
                    with outcomes_lock:
                        if result.count == expected:
                            outcomes["ok"] += 1
                        else:
                            outcomes["mismatch"] += 1
                            failures.append(
                                f"count mismatch on {g_name}/"
                                f"{query.name}: got {result.count}, "
                                f"oracle {expected}"
                            )

            threads = [
                threading.Thread(target=drive, args=(w,), daemon=True)
                for w in range(args.clients)
            ]
            for t in threads:
                t.start()

            # Once the load is provably live, kill the hot shard's
            # primary the moment an attempt is in flight on it, then
            # let the supervisor heal it unassisted.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                with outcomes_lock:
                    settled = sum(outcomes.values())
                if settled >= args.clients:
                    break
                time.sleep(0.01)
            crashes: list[float] = []

            def kill_mid_shard(phase: str, rank_id: int, job_id: str) -> None:
                if phase == "mid-shard" and rank_id == victim and not crashes:
                    crashes.append(time.time())
                    print(f"killing rank {victim} (primary of {hot}) "
                          f"mid-load, {job_id} in flight on it")
                    cluster.crash_rank(victim)

            cluster.phase_hook = kill_mid_shard
            deadline = time.time() + 30.0
            while not crashes and time.time() < deadline:
                time.sleep(0.01)
            cluster.phase_hook = None
            if not crashes:
                failures.append(
                    f"no attempt reached rank {victim} within 30 s"
                )
            crash_t = crashes[0] if crashes else time.time()

            tick = ClusterService._SUPERVISE_POLL_S
            heal_deadline = crash_t + args.recover_ticks * tick
            healed_at = None
            while time.time() < heal_deadline:
                if (
                    cluster.ranks[victim].state == "live"
                    and cluster.replication_of(fps[hot])
                    == args.replication
                ):
                    healed_at = time.time()
                    break
                time.sleep(tick)
            if healed_at is None:
                failures.append(
                    f"rank {victim} not healed to full "
                    f"{args.replication}-way replication within "
                    f"{args.recover_ticks} supervisor ticks"
                )
            else:
                print(
                    f"rank {victim} healed after "
                    f"{(healed_at - crash_t) / tick:.0f} ticks "
                    f"({healed_at - crash_t:.2f}s)"
                )

            for t in threads:
                t.join(timeout=300.0)
            if any(t.is_alive() for t in threads):
                failures.append("client threads hung; traffic never drained")

            metrics = cluster.metrics()

        dupes = journal_duplicates(state_dir)
        if dupes:
            failures.append(
                f"duplicate journal entries (same idempotency key "
                f"executed twice on one rank): {dupes}"
            )

    total = sum(outcomes.values())
    goodput = outcomes["ok"] / total if total else 0.0
    router = metrics["router"]
    print(
        f"traffic : {outcomes['ok']}/{total} ok "
        f"({outcomes['failed']} failed, {outcomes['shed']} shed, "
        f"{outcomes['mismatch']} mismatched) -> goodput {goodput:.1%}"
    )
    print(
        f"router  : {router['routes']} routes, "
        f"{router['failovers']} failovers, {router['shed']} shed, "
        f"{router['revoked_replies']} revoked replies, "
        f"{router['heals']} heals"
    )

    if goodput < GOODPUT_GATE:
        failures.append(
            f"goodput {goodput:.1%} below the {GOODPUT_GATE:.0%} gate"
        )
    if router["failovers"] < 1:
        failures.append(
            "the crash never forced a failover — the kill missed the "
            "hot path and this run proved nothing"
        )
    if router["heals"] < 1:
        failures.append("the supervisor never healed the crashed rank")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("cluster chaos gate: OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, default=3)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool workers per rank (real processes, real SIGKILLs)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads",
    )
    parser.add_argument(
        "--requests", type=int, default=10,
        help="requests per client thread",
    )
    parser.add_argument(
        "--recover-ticks", type=int, default=600,
        help="supervisor ticks allowed for the crashed rank to return "
        "to full replication (bounded-recovery gate)",
    )
    return run_chaos(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

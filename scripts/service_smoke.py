"""CI smoke test for the HTTP matching service.

Boots ``python -m repro.serve`` as a real subprocess on an ephemeral
port, then drives 50 mixed requests through
:class:`repro.service.ServiceClient`:

* counting requests over three data graphs and a spread of query
  shapes, in a mix of blocking and async-poll submissions;
* one oversized query, which must be **rejected with HTTP 429** and
  reason ``oversized-query`` (admission control, not a timeout);
* one ``deadline_ms=0`` request, which must settle as **expired**
  (deadline enforcement, not a hang);
* a warm re-submission of every counting request, which must return
  identical counts and report ``cached`` (the result cache survived);
* a keep-alive phase that replays every oracle read twice on one
  ``http.client`` connection: each count must match, and the median
  round trip must stay under 20 ms (a reply that waits for the
  client's delayed ACK takes about 40 ms).

Every count is checked against a serial in-process oracle
(:class:`CuTSMatcher` on the same graphs); any mismatch, unexpected
status, or hang fails the script with a non-zero exit.

``--chaos`` instead runs the resilience contract against the same real
subprocess:

* **faulty load** — the server boots with a deterministic fault plan
  (injected engine exceptions, dispatcher stalls, corrupted cache
  reads, periodic pool-worker SIGKILLs) and every request is driven by
  the self-healing client; jobs that fail to an injected fault are
  resubmitted until they settle, and every settled count must equal
  the serial oracle exactly;
* **kill -9 mid-load** — a second server with ``--state-dir`` is
  SIGKILLed while the journal provably holds a ``running`` job, then
  restarted on the same directory.  Completed jobs must come back with
  their journaled counts, the in-flight-at-crash job must resurface
  ``retryable``, pending jobs must finish, and replaying every
  idempotency key must admit **zero** new work (no duplicates).

``--ranks N --replication R`` boots every server with that many
replicas behind the router (default: one); the checks do not change.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--chaos] \
        [--ranks N --replication R]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.config import CuTSConfig  # noqa: E402
from repro.core.matcher import CuTSMatcher  # noqa: E402
from repro.graph import (  # noqa: E402
    chain_graph,
    clique_graph,
    cycle_graph,
    mesh_graph,
    random_graph,
    star_graph,
)
from repro.service import (  # noqa: E402
    ServiceClient,
    ServiceError,
    ServiceState,
)

BOOT_TIMEOUT_S = 30.0
TOTAL_REQUESTS = 50
KEEPALIVE_ROUNDS = 2
KEEPALIVE_MEDIAN_S = 0.020

DATA_GRAPHS = {
    "mesh55": mesh_graph(5, 5),
    "mesh44": mesh_graph(4, 4),
    "gnp30": random_graph(30, 0.15, seed=41),
}

QUERIES = {
    "K3": clique_graph(3),
    "P3": chain_graph(3),
    "P4": chain_graph(4),
    "C4": cycle_graph(4),
    "S3": star_graph(3),
}


def boot_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--max-query-vertices", "8",
            "--queue-depth", "64",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on" in line:
            break
        if proc.poll() is not None:
            raise SystemExit(f"server died during boot: {line!r}")
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        raise SystemExit(f"could not parse server banner: {line!r}")
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def keep_alive_reads(
    base_url: str,
    fps: dict[str, str],
    oracle: dict[tuple[str, str], int],
    failures: list[str],
) -> None:
    """Replay every oracle read on one keep-alive connection; counts
    must match and the median round trip must stay under
    ``KEEPALIVE_MEDIAN_S``."""
    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60.0)
    rtts: list[float] = []
    try:
        for _ in range(KEEPALIVE_ROUNDS):
            for (gname, qname), expected in oracle.items():
                body = json.dumps({"graph": fps[gname], "query": qname})
                start = time.perf_counter()
                conn.request(
                    "POST", "/match", body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                job = json.loads(reply.read())
                rtts.append(time.perf_counter() - start)
                if reply.status != 200 or job.get("state") != "done":
                    failures.append(
                        f"keep-alive {gname}/{qname}: HTTP {reply.status} "
                        f"{job.get('state') or job.get('error')}"
                    )
                elif job["result"]["count"] != expected:
                    failures.append(
                        f"keep-alive {gname}/{qname}: count "
                        f"{job['result']['count']} != oracle {expected}"
                    )
    finally:
        conn.close()
    median = statistics.median(rtts)
    if median >= KEEPALIVE_MEDIAN_S:
        failures.append(
            f"keep-alive median round trip {median * 1000:.1f} ms >= "
            f"{KEEPALIVE_MEDIAN_S * 1000:.0f} ms (replies stall?)"
        )
    print(
        f"keep-alive: {len(rtts)} reads on one connection, median round "
        f"trip {median * 1000:.1f} ms"
    )


def main(topology: list[str]) -> int:
    cfg = CuTSConfig()
    oracle = {
        (gname, qname): CuTSMatcher(g, cfg).match(q).count
        for gname, g in DATA_GRAPHS.items()
        for qname, q in QUERIES.items()
    }

    proc, base_url = boot_server(*topology)
    failures: list[str] = []
    try:
        client = ServiceClient(base_url, timeout=60.0)
        assert client.healthz()["status"] == "ok"
        fps = {
            name: client.register_graph(graph, name=name)
            for name, graph in DATA_GRAPHS.items()
        }

        # 48 counting requests: every (graph, query) pair, cold then
        # warm, alternating blocking and async submission.
        pairs = [
            (g, q) for g in DATA_GRAPHS for q in QUERIES
        ]
        plan = [
            pairs[i % len(pairs)] for i in range(TOTAL_REQUESTS - 2)
        ]
        warm_seen: set[tuple[str, str]] = set()
        for i, (gname, qname) in enumerate(plan):
            if i % 2 == 0:
                job = client.match(fps[gname], qname)
            else:
                pending = client.match(fps[gname], qname, wait=False)
                job = client.wait_job(pending["job_id"], timeout=120.0)
            if job["state"] != "done":
                failures.append(
                    f"{gname}/{qname}: state {job['state']} "
                    f"({job.get('error')})"
                )
                continue
            count = job["result"]["count"]
            if count != oracle[(gname, qname)]:
                failures.append(
                    f"{gname}/{qname}: count {count} != oracle "
                    f"{oracle[(gname, qname)]}"
                )
            if (gname, qname) in warm_seen and not job["cached"]:
                failures.append(
                    f"{gname}/{qname}: warm repeat was not served "
                    f"from the result cache"
                )
            warm_seen.add((gname, qname))

        # Request 49: oversized query -> 429 oversized-query.
        try:
            client.match(fps["mesh55"], "K9")
            failures.append("oversized K9 was accepted (expected 429)")
        except ServiceError as exc:
            if exc.status != 429 or exc.reason != "oversized-query":
                failures.append(
                    f"oversized K9: got status {exc.status} reason "
                    f"{exc.reason!r} (expected 429 oversized-query)"
                )

        # Request 50: zero deadline -> expired, never a hang.
        job = client.match(fps["mesh55"], "P3", deadline_ms=0)
        if job["state"] != "expired":
            failures.append(
                f"deadline_ms=0 settled as {job['state']} "
                f"(expected expired)"
            )

        metrics = client.metrics()
        sched = metrics["scheduler"]
        if sched["rejected"].get("oversized-query", 0) < 1:
            failures.append("scheduler did not count the 429 rejection")
        if sched["expired"] < 1:
            failures.append("scheduler did not count the expiry")
        if metrics["result_cache"]["hits"] < len(pairs):
            failures.append(
                f"result cache hits {metrics['result_cache']['hits']} < "
                f"{len(pairs)} (warm pass was recomputed?)"
            )
        print(
            f"{len(plan) + 2} requests: "
            f"{metrics['dispatcher']['requests_dispatched']} dispatched, "
            f"{metrics['result_cache']['hits']} cache hits, "
            f"{sched['rejected']} rejected, {sched['expired']} expired"
        )
        keep_alive_reads(base_url, fps, oracle, failures)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("service smoke OK")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Chaos mode
# ---------------------------------------------------------------------------

CHAOS_FAULTS = (
    "seed=3,engine_fault_prob=0.15,stall_prob=0.2,stall_ms=5,"
    "cache_corrupt_prob=0.3,worker_kill_prob=0.1"
)
CHAOS_REQUESTS = 30
CRASH_JOBS = 8


def settle_exact(client, fp, qname, expected, failures, *, attempts=10):
    """Drive one request until it settles done, resubmitting when an
    injected fault fails it; the settled count must be exact."""
    for _ in range(attempts):
        job = client.match(fp, qname, timeout_s=120.0)
        if job["state"] == "done":
            if job["result"]["count"] != expected:
                failures.append(
                    f"chaos {qname}: count {job['result']['count']} != "
                    f"oracle {expected}"
                )
            return True
        if job["state"] != "failed":
            failures.append(
                f"chaos {qname}: unexpected state {job['state']} "
                f"({job.get('error')})"
            )
            return False
    failures.append(f"chaos {qname}: still failing after {attempts} tries")
    return False


def run_faulty_load(failures: list[str], topology: list[str]) -> None:
    """Phase 1: every fault class armed, every settled count exact."""
    cfg = CuTSConfig()
    graph = DATA_GRAPHS["mesh55"]
    oracle = {
        qname: CuTSMatcher(graph, cfg).match(q).count
        for qname, q in QUERIES.items()
    }
    proc, base_url = boot_server(
        "--faults", CHAOS_FAULTS, "--workers", "2",
        "--cache-bytes", "65536", *topology,
    )
    try:
        client = ServiceClient(base_url, timeout=120.0)
        fp = client.register_graph(graph, name="mesh55")
        names = list(QUERIES)
        for i in range(CHAOS_REQUESTS):
            qname = names[i % len(names)]
            settle_exact(client, fp, qname, oracle[qname], failures)
        metrics = client.metrics()
        fault_counts = metrics.get("faults", {})
        if not any(fault_counts.get(k, 0) for k in (
            "engine_faults", "stalls", "cache_corruptions", "worker_kills"
        )):
            failures.append(
                f"chaos: no faults actually fired ({fault_counts})"
            )
        if client.healthz()["status"] not in ("ok", "degraded"):
            failures.append("chaos: server unhealthy after faulty load")
        print(
            f"chaos load: {CHAOS_REQUESTS} requests settled exact under "
            f"faults {fault_counts}"
        )
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def wait_for_running_journal(
    state_dir: str, expected_jobs: int, timeout_s: float
) -> bool:
    """Poll the job journal until every submitted job has a durable
    record *and* at least one of them is ``running`` — only then is a
    SIGKILL guaranteed to land mid-execution with nothing lost."""
    deadline = time.monotonic() + timeout_s
    state = ServiceState(state_dir)
    while time.monotonic() < deadline:
        # A frame the server is still appending reads as torn and is
        # skipped; the next poll sees it whole.
        records = state.load_jobs()
        running = any(r.get("state") == "running" for r in records)
        if len(records) >= expected_jobs and running:
            return True
        time.sleep(0.005)
    return False


def run_crash_recovery(failures: list[str], topology: list[str]) -> None:
    """Phase 2: kill -9 with a job provably in flight, then recover."""
    cfg = CuTSConfig()
    graph = DATA_GRAPHS["mesh55"]
    oracle = {
        qname: CuTSMatcher(graph, cfg).match(q).count
        for qname, q in QUERIES.items()
    }
    state_dir = tempfile.mkdtemp(prefix="chaos-state-")
    # Every dispatch stalls 300ms: a wide window in which the journal
    # says "running", so the SIGKILL lands mid-execution by design.
    proc, base_url = boot_server(
        "--state-dir", state_dir, "--faults",
        "seed=1,stall_prob=1,stall_ms=300", *topology,
    )
    submitted: list[tuple[str, str, str]] = []  # (job_id, qname, key)
    try:
        client = ServiceClient(base_url, timeout=60.0)
        fp = client.register_graph(graph, name="mesh55")
        names = list(QUERIES)
        for i in range(CRASH_JOBS):
            qname = names[i % len(names)]
            key = f"chaos-key-{i}"
            resp = client.match(
                fp, qname, wait=False, idempotency_key=key
            )
            submitted.append((resp["job_id"], qname, key))
        if not wait_for_running_journal(
            state_dir, len(submitted), timeout_s=30.0
        ):
            failures.append("crash: no job reached 'running' in journal")
    finally:
        proc.kill()  # SIGKILL: no shutdown hook gets to run
        proc.wait(timeout=10)

    # Restart on the same state dir, faults off.
    proc, base_url = boot_server("--state-dir", state_dir, *topology)
    try:
        client = ServiceClient(base_url, timeout=60.0)
        metrics = client.metrics()
        recovered = metrics.get("state", {})
        if recovered.get("recovered_retryable", 0) < 1:
            failures.append(
                f"crash: no retryable job resurfaced ({recovered})"
            )
        done_ids: set[str] = set()
        for job_id, qname, key in submitted:
            job = client.job(job_id)
            # Recovered pending jobs re-run under their original ids.
            deadline = time.monotonic() + 60.0
            while (
                job["state"] in ("pending", "running")
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
                job = client.job(job_id)
            if job["state"] == "done":
                if job["result"]["count"] != oracle[qname]:
                    failures.append(
                        f"crash {job_id}: recovered count "
                        f"{job['result']['count']} != oracle {oracle[qname]}"
                    )
                done_ids.add(job_id)
            elif job["state"] == "retryable":
                # The client retries under the *same* key; the server
                # re-executes exactly once and the count is exact.
                retry = client.match(
                    fp, qname, idempotency_key=key, timeout_s=120.0
                )
                if retry["id"] == job_id:
                    failures.append(
                        f"crash {job_id}: retry reused the dead job"
                    )
                if retry["state"] != "done" or (
                    retry["result"]["count"] != oracle[qname]
                ):
                    failures.append(
                        f"crash {job_id}: retry settled "
                        f"{retry['state']} ({retry.get('error')})"
                    )
            else:
                failures.append(
                    f"crash {job_id}: unexpected recovered state "
                    f"{job['state']} ({job.get('error')})"
                )
        # Zero duplicates: replaying every completed job's idempotency
        # key must admit no new work.
        admitted_before = client.metrics()["scheduler"]["admitted"]
        for job_id, qname, key in submitted:
            if job_id not in done_ids:
                continue
            replay = client.match(fp, qname, idempotency_key=key)
            if replay["id"] != job_id:
                failures.append(
                    f"crash {job_id}: key replay created {replay['id']}"
                )
        admitted_after = client.metrics()["scheduler"]["admitted"]
        if admitted_after != admitted_before:
            failures.append(
                f"crash: key replays admitted "
                f"{admitted_after - admitted_before} duplicate jobs"
            )
        print(
            f"crash recovery: {len(done_ids)}/{len(submitted)} done with "
            f"journaled counts, "
            f"{recovered.get('recovered_retryable', 0)} retryable, "
            f"{recovered.get('recovered_pending', 0)} re-enqueued, "
            f"0 duplicates"
        )
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def chaos_main(topology: list[str]) -> int:
    failures: list[str] = []
    run_faulty_load(failures, topology)
    run_crash_recovery(failures, topology)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("service chaos smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the fault-injection + crash-recovery contract "
        "instead of the plain smoke",
    )
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--replication", type=int, default=2)
    cli_args = parser.parse_args()
    shape = [
        "--ranks", str(cli_args.ranks),
        "--replication", str(cli_args.replication),
    ]
    sys.exit(chaos_main(shape) if cli_args.chaos else main(shape))

"""CI smoke test for versioned mutable graphs over live HTTP.

Boots ``python -m repro.serve --state-dir`` as a real subprocess, then
drives the full mutation surface through
:class:`repro.service.ServiceClient`:

* **interleaved load** — rounds of ``POST /graphs/data/edges`` commits
  (random inserts *and* deletes) interleaved with matches; every count
  is checked against a client-side oracle that applies the identical
  delta locally (:func:`repro.storage.overlay.spliced_graph` +
  :class:`CuTSMatcher`), and every commit's child fingerprint must
  equal the locally computed one (content addressing is deterministic
  across processes);
* **time travel** — after each commit, ``as_of`` the previous head
  must return the archived pre-commit count, and ``/compare`` must
  report exactly ``head - base``;
* **kill -9 mid-commit** — a hammer thread streams commits and the
  server is SIGKILLed with one provably in flight; a torn half-frame
  is then appended to the state log ``state.jsonl`` (the mid-append
  crash the commit order makes survivable).  The restarted server must
  recover a head that is either the last acknowledged commit or the
  in-flight one — never anything else — serve exact counts for it,
  count the torn frame, and accept new commits.

``--ranks N --replication R`` serves both phases from that many
replicas behind the router (default: one), whose commits fan out to
every replica of the shard.  The router's own log at the state dir's
top decides the recovered head, and it brings every replica to that
head before it serves again.

Usage::

    PYTHONPATH=src python scripts/versioning_smoke.py [--ranks N --replication R]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.config import CuTSConfig  # noqa: E402
from repro.core.matcher import CuTSMatcher  # noqa: E402
from repro.fingerprint import graph_fingerprint  # noqa: E402
from repro.graph import mesh_graph  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.storage.overlay import spliced_graph  # noqa: E402
from repro.versioning import EdgeDelta  # noqa: E402

from service_smoke import boot_server  # noqa: E402

QUERIES = ("P3", "C4", "S3")
LOAD_ROUNDS = 8
HAMMER_COMMITS = 40


class LocalLineage:
    """Client-side shadow of the server's version chain: the same
    deltas applied through the same splice, so every fingerprint and
    every count has an in-process oracle."""

    def __init__(self, graph, seed: int) -> None:
        self.config = CuTSConfig()
        self.rng = np.random.default_rng(seed)
        self.head = graph
        self.head_fp = graph_fingerprint(graph)
        self.graphs = {self.head_fp: graph}
        self._counts: dict[tuple[str, str], int] = {}

    def random_pairs(self) -> tuple[list[list[int]], list[list[int]]]:
        """One absent pair to insert, one present pair to delete."""
        n = self.head.num_vertices
        while True:
            u, v = (int(x) for x in self.rng.integers(0, n, size=2))
            if u != v and not self.head.has_edge(u, v):
                insert = [[u, v]]
                break
        arcs = self.head.edge_list()
        pairs = arcs[arcs[:, 0] < arcs[:, 1]]
        pick = pairs[int(self.rng.integers(0, len(pairs)))]
        return insert, [[int(pick[0]), int(pick[1])]]

    def apply(self, insert, delete):
        """Locally commit; returns the expected child fingerprint."""
        delta = EdgeDelta.build(
            inserts=insert, deletes=delete, parent=self.head, directed=False
        )
        child = spliced_graph(self.head, delta.inserts, delta.deletes)
        fp = graph_fingerprint(child)
        self.graphs[fp] = child
        self.head, self.head_fp = child, fp
        return fp

    def count(self, fp: str, qname: str) -> int:
        key = (fp, qname)
        if key not in self._counts:
            from repro.graph import chain_graph, cycle_graph, star_graph

            query = {
                "P3": chain_graph(3),
                "C4": cycle_graph(4),
                "S3": star_graph(3),
            }[qname]
            self._counts[key] = (
                CuTSMatcher(self.graphs[fp], self.config).match(query).count
            )
        return self._counts[key]


def shutdown(proc) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def run_interleaved_load(failures: list[str], topology: list[str]) -> None:
    """Phase 1: commits interleaved with matches, everything oracled."""
    lineage = LocalLineage(mesh_graph(6, 6), seed=11)
    proc, base_url = boot_server("--max-versions", "4", *topology)
    try:
        client = ServiceClient(base_url, timeout=60.0)
        client.register_graph(lineage.head, name="data")
        for round_no in range(LOAD_ROUNDS):
            prev_fp = lineage.head_fp
            prev_count = lineage.count(prev_fp, "P3")
            insert, delete = lineage.random_pairs()
            expected_fp = lineage.apply(insert, delete)
            summary = client.mutate_edges(
                "data", insert=insert, delete=delete, directed=False
            )
            if summary["fingerprint"] != expected_fp:
                failures.append(
                    f"round {round_no}: server fingerprint "
                    f"{summary['fingerprint']} != local {expected_fp}"
                )
                return
            for qname in QUERIES:
                job = client.match("data", qname)
                want = lineage.count(expected_fp, qname)
                if job["state"] != "done" or job["result"]["count"] != want:
                    failures.append(
                        f"round {round_no} {qname}: {job.get('result')} "
                        f"!= oracle {want}"
                    )
            old = client.match("data", "P3", as_of=prev_fp)
            if old["result"]["count"] != prev_count:
                failures.append(
                    f"round {round_no}: as_of={prev_fp[:12]} returned "
                    f"{old['result']['count']} != archived {prev_count}"
                )
            cmp_out = client.compare("data", "P3", base=prev_fp)
            if cmp_out["count_delta"] != (
                cmp_out["head_count"] - cmp_out["base_count"]
            ) or cmp_out["base_count"] != prev_count:
                failures.append(f"round {round_no}: bad compare {cmp_out}")
        chain = client.versions("data")
        if len(chain) > 4 or not chain[-1]["head"]:
            failures.append(f"bad lineage shape: {chain}")
        listed = {g["name"]: g for g in client.graphs() if g["name"]}
        if listed["data"]["lineage_depth"] != LOAD_ROUNDS:
            failures.append(
                f"GET /graphs lineage_depth "
                f"{listed['data']['lineage_depth']} != {LOAD_ROUNDS}"
            )
        versioning = client.metrics()["versioning"]
        if versioning["commits"] != LOAD_ROUNDS:
            failures.append(f"commit counter drifted: {versioning}")
        print(
            f"interleaved load: {LOAD_ROUNDS} commits, "
            f"{LOAD_ROUNDS * (len(QUERIES) + 1)} oracled matches, "
            f"chain depth {listed['data']['lineage_depth']}"
        )
    finally:
        shutdown(proc)


def run_crash_mid_commit(failures: list[str], topology: list[str]) -> None:
    """Phase 2: SIGKILL with a commit in flight; journal recovery."""
    lineage = LocalLineage(mesh_graph(6, 6), seed=23)
    state_dir = tempfile.mkdtemp(prefix="versioning-state-")
    proc, base_url = boot_server("--state-dir", state_dir, *topology)
    acked: list[str] = []
    sent: list[str] = []

    def hammer(client: ServiceClient) -> None:
        try:
            for _ in range(HAMMER_COMMITS):
                insert, delete = lineage.random_pairs()
                sent.append(lineage.apply(insert, delete))
                summary = client.mutate_edges(
                    "data", insert=insert, delete=delete, directed=False
                )
                acked.append(summary["fingerprint"])
        except Exception:
            pass  # the SIGKILL severs the connection mid-request

    try:
        client = ServiceClient(base_url, timeout=60.0)
        client.register_graph(lineage.head, name="data")
        thread = threading.Thread(target=hammer, args=(client,))
        thread.start()
        while len(acked) < HAMMER_COMMITS // 4:  # mid-stream, by design
            time.sleep(0.001)
    finally:
        proc.kill()  # SIGKILL: no shutdown hook gets to run
        proc.wait(timeout=10)
    thread.join(timeout=10)

    # The mid-append crash the commit order tolerates: a torn version
    # frame after the last fsynced line.
    with open(os.path.join(state_dir, "state.jsonl"), "a") as fh:
        fh.write('0badf00d {"name":"data","fingerpr')

    proc, base_url = boot_server("--state-dir", state_dir, *topology)
    try:
        client = ServiceClient(base_url, timeout=60.0)
        chain = client.versions("data")
        head_fp = chain[-1]["fingerprint"]
        landed = set(acked)
        in_flight = sent[len(acked)] if len(sent) > len(acked) else None
        if head_fp not in landed and head_fp != in_flight:
            failures.append(
                f"recovered head {head_fp[:12]} is neither an acked "
                f"commit nor the in-flight one"
            )
            return
        for qname in QUERIES:
            job = client.match("data", qname)
            want = lineage.count(head_fp, qname)
            if job["state"] != "done" or job["result"]["count"] != want:
                failures.append(
                    f"recovered {qname}: {job.get('result')} != "
                    f"oracle {want} on head {head_fp[:12]}"
                )
        metrics = client.metrics()
        if metrics["versioning"]["recovered_versions"] < 1:
            failures.append("no versions recovered from the journal")
        if metrics["state"]["frames_torn"] < 1:
            failures.append("the torn log frame went uncounted")
        # The recovered head accepts new commits and the chain advances.
        lineage.head = lineage.graphs[head_fp]
        lineage.head_fp = head_fp
        insert, delete = lineage.random_pairs()
        expected_fp = lineage.apply(insert, delete)
        summary = client.mutate_edges(
            "data", insert=insert, delete=delete, directed=False
        )
        if summary["fingerprint"] != expected_fp:
            failures.append(
                f"post-recovery commit forked: {summary['fingerprint']} "
                f"!= {expected_fp}"
            )
        print(
            f"crash recovery: {len(acked)} acked commits, head "
            f"{'in-flight' if head_fp == in_flight else 'last-acked'}, "
            f"1 torn frame tolerated, post-recovery commit landed"
        )
    finally:
        shutdown(proc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ranks", type=int, default=1)
    parser.add_argument("--replication", type=int, default=2)
    args = parser.parse_args()
    topology = [
        "--ranks", str(args.ranks), "--replication", str(args.replication)
    ]
    failures: list[str] = []
    run_interleaved_load(failures, topology)
    if not failures:
        run_crash_mid_commit(failures, topology)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("versioning smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Serve part: open-loop and closed-loop HTTP traffic against a server.

Set-up starts the server through ``launcher.py``, registers the
workload's graphs (each a seeded relabeling, sent as an edge list) and
makes one warm pass over every repeat shape of every graph.  The timed
part runs blocks of three phases:

* ``nominal`` and ``peak`` — open loop, Poisson arrivals at the
  workload's two fixed rates;
* ``closed`` — two clients with no think time.

Reads are drawn per graph by the workload's hot-graph weights; every
``1/fresh_share``-th read of a graph is a relabeling never sent before
(same count, new fingerprint, so the engine runs), the rest repeat
canonical shapes and hit the cache after warm-up.  On a mutable graph,
every ``1/commit_share``-th operation is an edge commit of a seeded
insert/delete pair, and every ``1/as_of_share``-th of its reads targets
the head's parent version.

Every served count is checked against an in-process ``CuTSMatcher``
count on the benchmark's own copy of that graph version, and every
commit's fingerprint against the benchmark's local replay of the
delta; both checks run after the timed phases.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.fingerprint import graph_fingerprint
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

from loadgen import CLIENTS, Connection, Op, closed_loop, open_loop
from solve import HostClock
from workloads import ServeSpec, build_graph, relabel, relabelings, shape

__all__ = ["ServeMismatch", "ServePart", "Server"]

PHASES = ("nominal", "peak", "closed")


class ServeMismatch(RuntimeError):
    """A served count or commit fingerprint disagrees with the oracle."""


def _proc_status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One server process started through the benchmark's launcher."""

    def __init__(self, root: str, workdir: str, spec: ServeSpec,
                 trace_out: str | None) -> None:
        self.root = root
        self.workdir = workdir
        self.spec = spec
        self.trace_out = trace_out
        self.proc: subprocess.Popen[str] | None = None
        self.port = 0
        self._log = None

    def start(self) -> None:
        state_dir = os.path.join(self.workdir, "state")
        launcher = os.path.join(self.root, "perfbench", "launcher.py")
        cmd = [sys.executable, launcher]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        cmd += [
            "--", "--port", "0", "--ranks", str(self.spec.ranks),
            "--replication", str(self.spec.replication),
            "--state-dir", state_dir,
        ]
        self._log = open(os.path.join(self.workdir, "server.log"), "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            cwd=self.root,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line.startswith("serving on"):
            self.stop()
            raise RuntimeError(
                f"server did not start; see {self.workdir}/server.log"
            )
        self.port = int(line.strip().rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return _proc_status_kb(self.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
        self.proc = None


@dataclass
class Version:
    """One version of the mutable graph in the local replay."""

    fingerprint: str
    keys: np.ndarray          # sorted undirected edge keys u * n + v, u < v
    inserts: list[list[int]] = field(default_factory=list)
    deletes: list[list[int]] = field(default_factory=list)


def _flatten(prefix: str, value: Any, out: dict[str, float]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = float(value)


def metrics_delta(before: dict, after: dict) -> dict[str, float]:
    a: dict[str, float] = {}
    b: dict[str, float] = {}
    _flatten("", before, a)
    _flatten("", after, b)
    return {
        k: b[k] - a.get(k, 0.0)
        for k in sorted(b)
        if b[k] != a.get(k, 0.0) and not k.endswith("uptime_s")
    }


class ServePart:
    def __init__(self, spec: ServeSpec, seed: int, root: str, workdir: str,
                 trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.server: Server | None = None
        self.graphs: dict[str, CSRGraph] = {}
        self.fingerprints: dict[str, str] = {}
        self.ops: dict[str, list[Op]] = {}
        self.warm_ops: list[Op] = []
        self.metric_deltas: dict[str, dict[str, float]] = {}
        self.phase_windows: dict[str, list[tuple[float, float]]] = {}
        self.cpu: dict[str, float] = {}
        self.setup_detail: dict[str, float] = {}
        self.chain: list[Version] = []
        self._rep = 0
        self._fresh: dict[str, list[tuple[str, list[list[int]]]]] = {}

    # ------------------------------------------------------------- set-up
    def build(self) -> dict[str, float]:
        """Generate the registered graphs from the seed; returns the
        generation's :meth:`HostClock.read`.  Their fingerprints, the
        registration oracle, are computed after the clock stops."""
        self.graphs = {}
        clock = HostClock()
        for i, g in enumerate(self.spec.graphs):
            graph = build_graph(g.source)
            perm = np.random.default_rng([self.seed, 2, i]).permutation(
                graph.num_vertices
            )
            self.graphs[g.name] = relabel(graph, perm)
        spent = clock.read()
        self.fingerprints = {
            name: graph_fingerprint(graph)
            for name, graph in self.graphs.items()
        }
        return spent

    def setup(self) -> float:
        """Start a fresh server, register the graphs and warm every
        repeat shape; returns seconds."""
        self.close()
        self._rep += 1
        workdir = os.path.join(self.workdir, f"server-{self._rep}")
        os.makedirs(workdir, exist_ok=True)
        t0 = time.perf_counter()
        trace_out = os.path.join(workdir, "spans.jsonl") if self.trace else None
        self.server = Server(self.root, workdir, self.spec, trace_out)
        self.server.start()
        t_ready = time.perf_counter()
        conn = Connection("127.0.0.1", self.server.port)
        try:
            for g in self.spec.graphs:
                graph = self.graphs[g.name]
                status, info = conn.call("POST", "/graphs", {
                    "graph": {
                        "edges": graph.edge_list().tolist(),
                        "num_vertices": graph.num_vertices,
                        "name": g.name,
                    },
                    "name": g.name,
                })
                local = self.fingerprints[g.name]
                if status != 200 or info.get("fingerprint") != local:
                    raise ServeMismatch(
                        f"registering {g.name}: HTTP {status}, fingerprint "
                        f"{info.get('fingerprint')} != local {local}"
                    )
            t_registered = time.perf_counter()
            warm = [
                self._read_op(0.0, g.name, name, self._canonical(name),
                              wait=True)
                for g in self.spec.graphs for name in g.repeat
            ]
            for op in warm:
                op.version = self.fingerprints[op.graph]
                conn.send("POST", op.path, op.body)
            for op in warm:
                op.status, body = conn.read()
                op.job = body
                op.settled = time.time()
        finally:
            conn.close()
        t_end = time.perf_counter()
        self.warm_ops = warm
        self.setup_detail = {
            "ready_s": t_ready - t0,
            "register_s": t_registered - t_ready,
            "warm_s": t_end - t_registered,
        }
        return t_end - t0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # ------------------------------------------------------------ schedule
    @staticmethod
    def _canonical(name: str) -> list[list[int]]:
        return shape(name).edge_list().tolist()

    def _read_op(self, due: float, graph: str, shape_name: str,
                 edges: list[list[int]], *, wait: bool = False,
                 fresh: bool = False, as_of: str | None = None) -> Op:
        body: dict[str, Any] = {
            "graph": graph,
            "query": {"edges": edges,
                      "num_vertices": shape(shape_name).num_vertices},
            "wait": wait,
        }
        if as_of is not None:
            body["as_of"] = as_of
        return Op(due=due, kind="read", path="/match", body=body,
                  graph=graph, shape=shape_name, fresh=fresh)

    def prepare(self) -> None:
        """Seeded read pools, arrival stream and the mutable graph's
        commit chain, for the server :meth:`setup` last started; runs
        before the timed phases."""
        self._schedule_rng = np.random.default_rng([self.seed, 3])
        self._counters: dict[str, int] = {}
        self._head = 0          # index of the mutable graph's head version
        self._next_commit = 0   # next commit of the chain to send
        for i, g in enumerate(self.spec.graphs):
            rng = np.random.default_rng([self.seed, 4, i])
            pool = [
                (name, edges.tolist())
                for name in g.fresh
                for edges in relabelings(name, rng)
            ]
            order = rng.permutation(len(pool))
            self._fresh[g.name] = [pool[k] for k in order]
        mutable = [g for g in self.spec.graphs if g.mutable]
        if mutable:
            graph = self.graphs[mutable[0].name]
            n = graph.num_vertices
            edges = graph.edge_list()
            und = edges[edges[:, 0] < edges[:, 1]]
            keys = np.unique(und[:, 0] * n + und[:, 1])
            self.chain = [Version(self.fingerprints[mutable[0].name], keys)]
            self._chain_rng = np.random.default_rng([self.seed, 5])
            self._added: list[tuple[int, int]] = []

    def _grow_chain(self, graph: CSRGraph) -> None:
        """Append one version: insert one new edge between vertices two
        hops apart and, once a few exist, delete one earlier inserted
        edge, so the head stays within a few edges of the registered
        graph.  The child's fingerprint is the local replay's."""
        rng = self._chain_rng
        n = graph.num_vertices
        keys = self.chain[-1].keys
        indptr, indices = graph.indptr, graph.indices
        while True:
            u = int(rng.integers(n))
            nbrs = indices[indptr[u]:indptr[u + 1]]
            if len(nbrs) == 0:
                continue
            w = int(nbrs[rng.integers(len(nbrs))])
            two = indices[indptr[w]:indptr[w + 1]]
            v = int(two[rng.integers(len(two))])
            a, b = min(u, v), max(u, v)
            key = a * n + b
            pos = np.searchsorted(keys, key)
            if a != b and not (pos < len(keys) and keys[pos] == key):
                break
        keys = np.insert(keys, pos, key)
        deletes: list[list[int]] = []
        if len(self._added) >= 3:
            c, d = self._added.pop(int(rng.integers(len(self._added))))
            keys = np.delete(keys, np.searchsorted(keys, c * n + d))
            deletes = [[c, d]]
        self._added.append((a, b))
        child = self._version_graph(keys, n)
        self.chain.append(Version(graph_fingerprint(child), keys,
                                  [[a, b]], deletes))

    @staticmethod
    def _version_graph(keys: np.ndarray, n: int) -> CSRGraph:
        und = np.stack([keys // n, keys % n], axis=1)
        return from_edges(np.concatenate([und, und[:, ::-1]]),
                          num_vertices=n)

    def _commit_op(self, due: float, graph: str) -> Op:
        self._next_commit += 1
        if self._next_commit >= len(self.chain):
            self._grow_chain(self.graphs[graph])
        version = self.chain[self._next_commit]
        op = Op(due=due, kind="commit", path=f"/graphs/{graph}/edges",
                body={"insert": version.inserts, "delete": version.deletes,
                      "directed": False},
                graph=graph, expect_fp=version.fingerprint)
        self._head = self._next_commit
        return op

    @staticmethod
    def _every(counters: dict[str, int], key: str, share: float) -> bool:
        """True on every ``1/share``-th call for ``key``: op-type shares
        are exact, so no run gets more commits or misses by chance."""
        if share <= 0.0:
            return False
        counters[key] = counters.get(key, 0) + 1
        return counters[key] % round(1.0 / share) == 0

    def _next_op(self, due: float, rng: np.random.Generator,
                 counters: dict[str, int], *, commits: bool,
                 wait: bool) -> Op:
        spec = self.spec
        mutable = next((g for g in spec.graphs if g.mutable), None)
        if commits and mutable is not None and self._every(
            counters, "commit", spec.commit_share
        ):
            return self._commit_op(due, mutable.name)
        weights = np.asarray([g.weight for g in spec.graphs])
        g = spec.graphs[int(rng.choice(len(weights), p=weights / weights.sum()))]
        as_of = None
        version = None if g.mutable else self.fingerprints[g.name]
        if g.mutable and commits and self._head > 0 and self._every(
            counters, "as_of", spec.as_of_share
        ):
            version = as_of = self.chain[self._head - 1].fingerprint
        if self._every(counters, f"fresh:{g.name}", spec.fresh_share) and (
            self._fresh[g.name]
        ):
            name, edges = self._fresh[g.name].pop()
            op = self._read_op(due, g.name, name, edges, wait=wait,
                               fresh=True, as_of=as_of)
        else:
            name = g.repeat[int(rng.integers(len(g.repeat)))]
            op = self._read_op(due, g.name, name, self._canonical(name),
                               wait=wait, as_of=as_of)
        op.version = version
        return op

    def _open_schedule(self, rate: float, seconds: float) -> list[Op]:
        rng = self._schedule_rng
        ops: list[Op] = []
        t = float(rng.exponential(1.0 / rate))
        while t < seconds:
            ops.append(self._next_op(t, rng, self._counters, commits=True,
                                     wait=False))
            t += float(rng.exponential(1.0 / rate))
        return ops

    # --------------------------------------------------------------- phases
    def _snapshot(self) -> dict:
        assert self.server is not None
        conn = Connection("127.0.0.1", self.server.port)
        try:
            status, body = conn.call("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return body

    def run_phase(self, phase: str, seconds: float) -> None:
        """One block of ``phase`` lasting ``seconds``; blocks of the same
        phase accumulate (ops, ``/metrics`` deltas, server CPU, windows)."""
        assert self.server is not None
        server = self.server
        if phase != "closed":
            rate = (self.spec.nominal_rps if phase == "nominal"
                    else self.spec.peak_rps)
            ops = self._open_schedule(rate, seconds)
        elif self.chain:
            # Replay the closed loop's commits before the clock starts.
            mutable = next(g.name for g in self.spec.graphs if g.mutable)
            while len(self.chain) < self._next_commit + 16:
                self._grow_chain(self.graphs[mutable])
        before = self._snapshot()
        cpu0 = server.cpu_s()
        start = time.time()
        if phase == "closed":
            ops = self._closed(seconds)
        else:
            t0 = start + 0.02
            for op in ops:
                op.due += t0
            conns = [Connection("127.0.0.1", server.port) for _ in range(2)]
            try:
                open_loop(*conns, ops)
            finally:
                for conn in conns:
                    conn.close()
        end = time.time()
        self.cpu[phase] = self.cpu.get(phase, 0.0) + server.cpu_s() - cpu0
        deltas = self.metric_deltas.setdefault(phase, {})
        for key, value in metrics_delta(before, self._snapshot()).items():
            deltas[key] = deltas.get(key, 0.0) + value
        self.phase_windows.setdefault(phase, []).append((start, end))
        self.ops.setdefault(phase, []).extend(ops)

    def _closed(self, seconds: float) -> list[Op]:
        rngs = [np.random.default_rng([self.seed, 6, c])
                for c in range(CLIENTS)]
        counters: list[dict[str, int]] = [dict(self._counters)] + [
            {} for _ in range(CLIENTS - 1)
        ]

        def make_op(client: int, now: float) -> Op:
            # Only client 0 commits and reads as_of, so the version it
            # names is always a retained one.
            return self._next_op(now, rngs[client], counters[client],
                                 commits=client == 0, wait=True)

        return closed_loop("127.0.0.1", self.server.port, make_op, seconds)

    # --------------------------------------------------------------- checks
    def verify(self) -> dict[str, int]:
        """Check every served count and commit fingerprint; raises
        :class:`ServeMismatch` on the first disagreement."""
        index = {v.fingerprint: i for i, v in enumerate(self.chain)}
        mutable = next((g.name for g in self.spec.graphs if g.mutable), None)
        config = CuTSConfig()

        def graph_for(fp: str, name: str) -> CSRGraph:
            if name != mutable or fp == self.fingerprints[name]:
                return self.graphs[name]
            if fp not in index:
                raise ServeMismatch(
                    f"a read of {name} resolved to unknown version {fp[:12]}"
                )
            return self._version_graph(self.chain[index[fp]].keys,
                                       self.graphs[name].num_vertices)

        checked = {"reads": 0, "commits": 0}
        reads: list[tuple[Op, str]] = []
        all_ops = self.warm_ops + [
            op for p in PHASES for op in self.ops.get(p, [])
        ]
        for op in all_ops:
            if op.kind == "commit":
                if op.status != 200:
                    continue
                got = (op.reply or {}).get("fingerprint")
                if got != op.expect_fp:
                    raise ServeMismatch(
                        f"commit on {op.graph} returned fingerprint "
                        f"{got}, local replay gives {op.expect_fp}"
                    )
                checked["commits"] += 1
            elif op.ok:
                assert op.job is not None
                fp = str(op.job.get("graph"))
                if op.version is not None and fp != op.version:
                    raise ServeMismatch(
                        f"read of {op.graph} ran on version {fp[:12]}, "
                        f"expected {op.version[:12]}"
                    )
                reads.append((op, fp))
        needed: dict[tuple[str, str], set[str]] = {}
        for op, fp in reads:
            needed.setdefault((fp, op.graph), set()).add(op.shape)
        counts: dict[tuple[str, str], int] = {}
        for (fp, name), shapes in needed.items():
            matcher = CuTSMatcher(graph_for(fp, name), config)
            for shape_name in shapes:
                counts[(fp, shape_name)] = int(
                    matcher.match(shape(shape_name)).count
                )
        for op, fp in reads:
            served = int(op.job["result"]["count"])  # type: ignore[index]
            expected = counts[(fp, op.shape)]
            if served != expected:
                raise ServeMismatch(
                    f"{op.graph} {op.shape}{' (relabeled)' if op.fresh else ''}"
                    f" on {fp[:12]}: served {served}, oracle {expected}"
                )
            checked["reads"] += 1
        checked["oracle_matches"] = len(counts)
        return checked

"""Solve part: one data graph and query on every execution path.

Paths, each checked against the workload's exact count:

* ``plain`` — ``CuTSMatcher.match``;
* ``stream`` — draining ``core.stream.iter_matches``;
* ``durable`` — ``match(checkpoint_dir=...)`` at the default cadence;
* ``distributed`` — ``DistributedCuTS(num_ranks=2)``;
* ``parallel`` — ``ParallelMatcher(workers=2)``.

Each in-process path has its own ``CuTSMatcher``, so every path is
timed warm on its own engine rather than after another path's use of a
shared one.  Set-up constructs every engine, spawns the parallel pool
and makes one cold call per path on a 3-vertex path query, so it holds
the first-call costs (lazy tables, pool start, shared-memory graph)
without a copy of the solve the timed rounds measure.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.core.stream import iter_matches
from repro.distributed.runtime import DistributedCuTS
from repro.parallel.matcher import ParallelMatcher

from spans import Tracer
from workloads import SolveSpec, build_graph, relabel, shape

__all__ = ["HostClock", "PATHS", "SolvePart", "SolveMismatch", "reference_s"]

PATHS = ("plain", "stream", "durable", "distributed", "parallel")

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs so
    far, summed over CPUs (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8]) * _TICK_S


class HostClock:
    """Wall time, this process's CPU time and machine-wide steal time
    from one start, so that a record shows whether a slower call spent
    more CPU time or waited for a CPU (steal, or wall up with CPU time
    steady)."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.steal = _steal_s()

    def read(self) -> dict[str, float]:
        return {
            "wall_s": time.perf_counter() - self.wall,
            "cpu_s": time.process_time() - self.cpu,
            "steal_s": _steal_s() - self.steal,
        }


def reference_s() -> float:
    """Seconds of a fixed workload that no change to the program can
    move: an interpreter loop and a random gather over 32 MB.  It is
    timed beside the program's timings, so that a host swing that
    raises CPU time as much as wall time, which steal time does not
    show, can be told apart from a change in the program."""
    data = np.arange(1 << 22, dtype=np.int64)
    order = np.random.default_rng(0).permutation(data.size)
    t = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i & 7
    int(data[order].sum())
    return time.perf_counter() - t


class SolveMismatch(RuntimeError):
    """A solve path returned a count other than the workload's."""


@dataclass
class PathRun:
    wall_s: float
    cpu_s: float
    steal_s: float
    count: int
    result: Any = None


def _per_path() -> dict[str, list[float]]:
    return {p: [] for p in PATHS}


@dataclass
class SolveResult:
    walls: dict[str, list[float]] = field(default_factory=_per_path)
    cpus: dict[str, list[float]] = field(default_factory=_per_path)
    steals: dict[str, list[float]] = field(default_factory=_per_path)
    last: dict[str, Any] = field(default_factory=dict)
    rounds: int = 0


class SolvePart:
    def __init__(self, spec: SolveSpec, seed: int, workdir: str,
                 tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config = CuTSConfig()
        self.query = shape(spec.query)
        self.graph = None
        self.matchers: dict[str, CuTSMatcher] = {}
        self.dist: DistributedCuTS | None = None
        self.parallel: ParallelMatcher | None = None
        self.setup_detail: dict[str, float] = {}

    # ------------------------------------------------------------- set-up
    def build(self) -> dict[str, float]:
        """Generate the data graph from the seed; returns the
        generation's :meth:`HostClock.read`.  Engines built on the
        previous graph are dropped first."""
        self.close()
        self.graph = None
        clock = HostClock()
        graph = build_graph(self.spec.graph)
        perm = np.random.default_rng([self.seed, 1]).permutation(
            graph.num_vertices
        )
        self.graph = relabel(graph, perm)
        return clock.read()

    def setup(self) -> float:
        """Construct every engine from scratch and make one cold call
        per path; returns seconds."""
        self.close()
        t_build = time.perf_counter()
        self.matchers = {
            path: CuTSMatcher(self.graph, self.config)
            for path in ("plain", "stream", "durable")
        }
        self.dist = DistributedCuTS(self.graph, 2, self.config)
        self.parallel = ParallelMatcher(self.graph, self.config, workers=2)
        t_engines = time.perf_counter()
        cold = shape("P3")
        spawn = 0.0
        for path in PATHS:
            t = time.perf_counter()
            self._run(path, cold)
            if path == "parallel":
                spawn = time.perf_counter() - t
        t_end = time.perf_counter()
        self.setup_detail = {
            "engines_s": t_engines - t_build,
            "cold_calls_s": t_end - t_engines,
            "parallel_spawn_s": spawn,
        }
        return t_end - t_build

    def close(self) -> None:
        self.matchers = {}
        self.dist = None
        if self.parallel is not None:
            self.parallel.close()
            self.parallel = None

    # --------------------------------------------------------------- paths
    def _checkpoint_dir(self) -> str:
        """A fresh directory for one durable run; the previous run's
        directory is removed first, outside any timed call."""
        path = os.path.join(self.workdir, "ckpt")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _run(self, path: str, query) -> PathRun:
        assert self.dist is not None and self.parallel is not None
        ckpt = self._checkpoint_dir() if path == "durable" else ""
        clock = HostClock()
        if path == "plain":
            result = self.matchers[path].match(query)
            count = result.count
        elif path == "stream":
            result = None
            count = sum(len(batch) for batch in iter_matches(
                self.matchers[path], query))
        elif path == "durable":
            result = self.matchers[path].match(query, checkpoint_dir=ckpt)
            count = result.count
        elif path == "distributed":
            result = self.dist.match(query)
            count = result.count
        else:
            result = self.parallel.match(query)
            count = result.count
        spent = clock.read()
        return PathRun(spent["wall_s"], spent["cpu_s"], spent["steal_s"],
                       int(count), result)

    def run_path(self, path: str) -> PathRun:
        if self.tracer is None:
            run = self._run(path, self.query)
        else:
            with self.tracer.span(f"path.{path}"):
                run = self._run(path, self.query)
        if run.count != self.spec.expected:
            raise SolveMismatch(
                f"{path} path counted {run.count}, expected "
                f"{self.spec.expected} ({self.spec.graph} x "
                f"{self.spec.query}, seed {self.seed})"
            )
        return run

    def run_round(self, out: SolveResult) -> None:
        """One run of every path, starting one path later than the
        previous round so that no path always follows the same one."""
        rnd = out.rounds
        for k in range(len(PATHS)):
            path = PATHS[(rnd + k) % len(PATHS)]
            run = self.run_path(path)
            out.walls[path].append(run.wall_s)
            out.cpus[path].append(run.cpu_s)
            out.steals[path].append(run.steal_s)
            out.last[path] = run.result
        out.rounds += 1

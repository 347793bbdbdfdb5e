"""In-memory span recorder for the traced benchmark run.

Tracing is done from the benchmark's own files: :func:`install` wraps
public functions and methods of the ``repro`` modules so that each call
records one span (name, parent, start, end, thread, job id, attribute).
Spans stay in memory; the server launcher writes them to a JSON-lines
file when the server exits, and the benchmark process summarises its
own spans directly.

A span's *self time* is its duration minus the durations of its
children (spans opened on the same thread while it was open).  Nothing
here changes what the program computes: wrappers call through with the
same arguments and return the same value.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "install", "load_spans", "self_times"]

# (id, parent id, name, start, end, thread id, job id, attribute)
Span = tuple[int, int, str, float, float, int, Any, Any]


class Tracer:
    """Collects spans from any number of threads.

    ``enabled`` may be flipped at run time; a disabled wrapper calls
    straight through, which is how the traced run measures its own
    overhead against untraced calls of the same workload.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float,
               job: Any, attr: Any) -> None:
        end = time.time()
        self._stack().pop()
        self.spans.append(
            (sid, parent, name, start, end, threading.get_ident(), job, attr)
        )

    def record(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        info: Callable[[tuple, dict, Any], tuple[Any, Any]] | None = None,
    ) -> Any:
        """Call ``fn`` inside a span named ``name``.  ``info`` maps
        ``(args, kwargs, result)`` to the span's ``(job, attribute)``."""
        sid, parent = self._open()
        start = time.time()
        out: Any = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            job = attr = None
            if info is not None:
                try:
                    job, attr = info(args, kwargs, out)
                except Exception:  # noqa: BLE001 - a span must not fail the call
                    job = attr = None
            self._close(sid, parent, name, start, job, attr)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-side root span around the calls it encloses."""
        sid, parent = self._open()
        start = time.time()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, None, None)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        info: Callable[[tuple, dict, Any], tuple[Any, Any]] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.record(name, fn, args, kwargs, info)

        wrapper.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str))
                fh.write("\n")


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str,
                  info: Callable | None = None) -> None:
    fn = cls.__dict__[attr]
    if getattr(fn, "__wrapped_by_tracer__", False):
        return
    setattr(cls, attr, tracer.wrap(fn, name, info))


def _patch_function(tracer: Tracer, module: str, attr: str, name: str,
                    info: Callable | None = None) -> None:
    """Wrap a module-level function in its home module and in every
    loaded ``repro`` module that imported it by name."""
    home = sys.modules[module]
    fn = getattr(home, attr)
    if getattr(fn, "__wrapped_by_tracer__", False):
        return
    wrapped = tracer.wrap(fn, name, info)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        if getattr(mod, attr, None) is fn:
            setattr(mod, attr, wrapped)


def _len_of(index: int, key: str | None = None) -> Callable:
    def info(args: tuple, kwargs: dict, _out: Any) -> tuple[Any, Any]:
        value = kwargs[key] if key is not None and key in kwargs else args[index]
        return None, len(value)
    return info


def install(tracer: Tracer, *, server: bool) -> None:
    """Wrap the layer boundaries the per-layer metrics are built from.

    ``server=True`` adds the service-side boundaries (HTTP handlers,
    scheduler, dispatcher, journal, registry, versioning,
    cluster router) and the server-side ``CuTSMatcher.match``.
    """
    # Import every module whose names get patched, so that modules which
    # imported a function by name are loaded before the patch runs.
    import repro.checkpoint.atomic  # noqa: F401
    import repro.checkpoint.runner  # noqa: F401
    import repro.checkpoint.store as store
    import repro.core.columnar as columnar
    import repro.core.matcher as matcher
    import repro.core.result as result
    import repro.core.stream  # noqa: F401
    import repro.distributed.comm as comm
    import repro.distributed.runtime  # noqa: F401
    import repro.parallel.matcher  # noqa: F401
    import repro.storage.trie as trie

    _patch_method(tracer, columnar.ColumnarEngine, "extend", "core.extend")
    _patch_method(tracer, columnar.ColumnarEngine, "child_carry", "core.carry")
    _patch_method(tracer, columnar.ColumnarEngine, "bloom_of", "core.carry")
    _patch_method(tracer, matcher.CuTSMatcher, "expand_frontier",
                  "core.expand_frontier")
    _patch_method(tracer, trie.PathTrie, "columns_at", "storage.columns_at")
    _patch_method(tracer, trie.PathTrie, "extract_subtrie", "storage.subtrie")
    _patch_method(tracer, store.CheckpointStore, "save_snapshot",
                  "checkpoint.snapshot")
    _patch_function(tracer, "repro.checkpoint.atomic", "atomic_write_bytes",
                    "checkpoint.write", _len_of(1, "data"))
    _patch_function(tracer, "repro.checkpoint.atomic", "fsync_dir",
                    "checkpoint.fsync_dir")
    for method in ("send", "receive", "broadcast"):
        _patch_method(tracer, comm.SimComm, method, "distributed.comm")
    _patch_method(tracer, result.MatchResult, "merge", "parallel.merge")
    if server:
        _install_server(tracer)


def _install_server(tracer: Tracer) -> None:
    import repro.core.matcher as matcher
    import repro.service.cluster as cluster
    import repro.service.dispatcher as dispatcher
    import repro.service.http as http
    import repro.service.registry as registry
    import repro.service.scheduler as scheduler
    import repro.service.state as state
    import repro.storage.overlay  # noqa: F401
    import repro.versioning.incremental  # noqa: F401

    _patch_method(tracer, matcher.CuTSMatcher, "match", "core.match")
    _patch_method(tracer, http._Handler, "do_POST", "service.http.post")
    _patch_method(tracer, http._Handler, "do_GET", "service.http.get")
    _patch_method(
        tracer, scheduler.Scheduler, "submit", "service.scheduler.submit",
        lambda a, k, o: (a[1].job_id, None),
    )
    _patch_method(
        tracer, scheduler.Scheduler, "pop_batch", "service.scheduler.pop",
        lambda a, k, o: (None, [r.job_id for r in o[0]]),
    )
    def dispatch_info(args: tuple, _kwargs: dict, out: Any) -> tuple[Any, Any]:
        return None, (
            len(args[2]),
            sum(1 for o in out if o.cached),
            sum(1 for o in out if o.coalesced),
            sum(1 for o in out if o.incremental),
        )

    _patch_method(tracer, dispatcher.Dispatcher, "dispatch",
                  "service.dispatcher.dispatch", dispatch_info)
    _patch_method(tracer, state.ServiceState, "record_jobs",
                  "service.state.journal", _len_of(1, "records"))
    _patch_method(tracer, state.ServiceState, "append_version",
                  "service.state.version_append")
    _patch_method(tracer, state.ServiceState, "save_graph",
                  "service.state.save_graph")
    _patch_method(tracer, registry.GraphRegistry, "mutate_edges",
                  "service.registry.mutate")
    _patch_method(tracer, registry.GraphRegistry, "register",
                  "service.registry.register")
    _patch_function(tracer, "repro.storage.overlay", "spliced_graph",
                    "storage.splice")
    _patch_function(tracer, "repro.versioning.incremental", "promotion_safe",
                    "versioning.promotion")
    _patch_function(tracer, "repro.versioning.incremental",
                    "incremental_match", "versioning.incremental")

    def run_job_info(args: tuple, _kwargs: dict, _out: Any) -> tuple[Any, Any]:
        job = args[1]
        return job.id, (job.submitted_at, job.finished_at)

    _patch_method(tracer, cluster.ClusterService, "_run_job",
                  "service.cluster.run_job", run_job_info)

    def collect_info(args: tuple, _kwargs: dict, _out: Any) -> tuple[Any, Any]:
        router, job, attempt = args[0], args[1], args[2]
        rank_job = router.ranks[attempt.rank_id].service.job(
            attempt.rank_job_id
        )
        return job.id, (rank_job.submitted_at, rank_job.finished_at)

    _patch_method(tracer, cluster.ClusterService, "_collect_attempt",
                  "service.cluster.collect", collect_info)


def load_spans(path: str) -> list[Span]:
    spans: list[Span] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            spans.append(tuple(row))  # type: ignore[arg-type]
    return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time (duration minus its children's durations)."""
    child_total: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, *_rest in spans:
        if parent:
            child_total[parent] += end - start
    return {
        sid: (end - start) - child_total.get(sid, 0.0)
        for sid, _parent, _name, start, end, *_rest in spans
    }

"""Matching service: the cuTS engine as a long-lived query server.

Every pre-existing entry point is one-shot — each call re-loads the
data graph, re-plans the query, and recomputes answers computed moments
ago.  The paper's own economics (trie reuse, chunked BFS–DFS, strided
work placement, §4) argue for amortizing graph-resident state across
many queries; this package is that argument applied at serving scale:

* :class:`GraphRegistry` — each data graph loaded once, fingerprint-
  keyed, with a persistent engine per graph (shared-memory segment +
  process pool under ``workers > 1``);
* :class:`Scheduler` — bounded priority queue, per-request deadlines
  and cancellation, admission control that rejects with a reason
  (queue depth, oversized query, memory budget) instead of dropping;
* :class:`Dispatcher` — same-graph requests coalesced and batched into
  a single :meth:`ParallelMatcher.match_many
  <repro.parallel.ParallelMatcher.match_many>` pool pass, results
  demultiplexed per request;
* :class:`LRUBytesCache` — the result cache, keyed by
  ``(graph fp, query fp, config fp)``, byte-budgeted,
  charged against the memory governor, explicitly invalidated on graph
  re-registration.

Resilience (DESIGN.md §12): :class:`ServiceState` keeps graphs in a
content-addressed store and names, versions and job transitions in one
append-only log, so ``--state-dir`` restarts recover them;
:class:`ServiceFaultPlan` / :class:`ServiceFaultInjector` inject
deterministic faults end-to-end for chaos testing; the client heals
itself with :class:`RetryPolicy` backoff, idempotency keys, and a
:class:`CircuitBreaker`.

Versioned mutation (DESIGN.md §16): registered graphs are **mutable
through immutable versions** — ``POST /graphs/<name>/edges`` commits an
edge delta built by a non-mutating overlay splice, the name advances to
the content-addressed child fingerprint, and retained ancestors stay
servable (``as_of`` time travel, shadow ``/compare``).  Result-cache
entries provably outside the commit's dirty ball are *promoted* to the
child fingerprint instead of invalidated, and a post-commit miss whose
parent entry survives is served by incremental re-matching
(:mod:`repro.versioning`) — dirty-ball re-execution plus an arithmetic
merge, equivalence-gated against the full match.

Scale-out (DESIGN.md §15): :class:`ClusterService` replicates the
service across N ranks behind a consistent-hash router
(:class:`HashRing`) with R-way replication per graph shard — requests
fail over across replicas with exactly-once integration, oversized
split queries resume on survivors, commits fan out to the shard, and
below-quorum shards shed load with machine-readable 503s until a
replacement replica catches up.  The router keeps names, versions and
jobs in its own registry and log, as one rank does.

Faces: :class:`FrontDoor`, the one surface :class:`MatchingService` and
:class:`ClusterService` share, each sized by one :class:`ServiceConfig`;
``python -m repro.serve`` (stdlib HTTP, :mod:`repro.service.http`),
which always serves a router, over one rank unless ``--ranks N`` asks
for more; and :class:`ServiceClient` (:mod:`repro.service.client`).
"""

from .cache import LRUBytesCache
from .cluster import ClusterRank, ClusterService, HashRing
from .client import (
    CircuitBreaker,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from .config import ServiceConfig
from .dispatcher import Dispatcher
from .faults import (
    InjectedEngineFault,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from .registry import (
    GraphHandle,
    GraphRegistry,
    VersionCommit,
    VersionConflictError,
)
from .scheduler import AdmissionError, Request, Scheduler
from .service import (
    DeadlineExpired,
    FrontDoor,
    Job,
    JobFailed,
    MatchingService,
)
from .state import ServiceState

__all__ = [
    "AdmissionError",
    "CircuitBreaker",
    "ClusterRank",
    "ClusterService",
    "DeadlineExpired",
    "Dispatcher",
    "FrontDoor",
    "HashRing",
    "GraphHandle",
    "GraphRegistry",
    "InjectedEngineFault",
    "Job",
    "JobFailed",
    "LRUBytesCache",
    "MatchingService",
    "Request",
    "RetryPolicy",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
    "ServiceState",
    "VersionCommit",
    "VersionConflictError",
]

"""Durable jobs: atomic checkpoint/resume for long enumerations.

The paper's engines assume a run completes in one sitting; this package
makes a run **survive being killed**.  Progress snapshots reuse the
distributed work-shipping trie wire format
(:mod:`repro.storage.serialize`), commit via tmp+fsync+rename
(:mod:`repro.checkpoint.atomic`; analysis rule RP006 enforces that no
checkpoint byte is written any other way), and carry config/graph
fingerprints (:mod:`repro.fingerprint`, re-exported here) so a resume
refuses mismatched inputs.

Every engine opens, resumes and finishes its job directory through one
protocol, :meth:`CheckpointStore.open_job` /
:meth:`CheckpointStore.finish_job`, with fingerprints from
:func:`job_fingerprints`; each keeps only its own progress format.

Entry points: ``CuTSMatcher.match(checkpoint_dir=...)`` (serial),
``ParallelMatcher.match(checkpoint_dir=...)`` (multi-core, per-shard
persistence + worker watchdog), ``DistributedCuTS.match(checkpoint_dir=...)``
(committed ledger intervals), ``--checkpoint-dir``/``--resume`` in the
CLI, and :func:`run_durable` directly.
"""

from ..fingerprint import (
    CheckpointMismatchError,
    check_fingerprints,
    config_fingerprint,
    graph_fingerprint,
)
from .atomic import atomic_write_bytes, atomic_write_json
from .runner import run_durable
from .store import FORMAT_VERSION, CheckpointStore, job_fingerprints

__all__ = [
    "CheckpointMismatchError",
    "CheckpointStore",
    "FORMAT_VERSION",
    "atomic_write_bytes",
    "atomic_write_json",
    "check_fingerprints",
    "config_fingerprint",
    "graph_fingerprint",
    "job_fingerprints",
    "run_durable",
]

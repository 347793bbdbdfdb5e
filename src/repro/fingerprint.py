"""Content fingerprints shared by the checkpoint store and the service.

A fingerprint names a *job input* by content, not by path or identity:
the SHA-256 of the CSR arrays for a graph, the SHA-256 of every
:class:`~repro.core.config.CuTSConfig` field for a config.  Two
subsystems key on them and must agree bit-for-bit:

* **durable jobs** (:mod:`repro.checkpoint`) stamp every manifest with
  the fingerprints of the inputs the snapshot was taken under, and
  refuse to resume against anything else;
* the **matching service** (:mod:`repro.service`) keys its graph
  registry and its result cache on the same fingerprints, so a
  cache entry can never be served for a graph or config that would
  enumerate differently.

Keeping one implementation here (``repro.checkpoint`` re-exports it)
is what makes that agreement structural rather than accidental.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from .core.config import CuTSConfig
from .graph.csr import CSRGraph

__all__ = [
    "CheckpointMismatchError",
    "check_fingerprints",
    "config_fingerprint",
    "graph_fingerprint",
]


class CheckpointMismatchError(ValueError):
    """Resume was attempted against a checkpoint of a different job."""


def graph_fingerprint(graph: CSRGraph) -> str:
    """SHA-256 over the CSR arrays (and labels, when present)."""
    h = hashlib.sha256()
    h.update(
        f"v={graph.num_vertices};e={graph.num_edges};".encode("ascii")
    )
    for arr in (graph.indptr, graph.indices, graph.rindptr, graph.rindices):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    if graph.labels is not None:
        h.update(b"labels:")
        h.update(np.ascontiguousarray(graph.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def config_fingerprint(config: CuTSConfig) -> str:
    """SHA-256 over every :class:`CuTSConfig` field, in field order.

    The config holds only the choices that decide what is enumerated,
    so any config change yields a different fingerprint (and therefore
    a cache miss / resume refusal rather than a stale answer).
    """
    h = hashlib.sha256()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        h.update(f"{f.name}={value!r};".encode("utf-8"))
    return h.hexdigest()


def check_fingerprints(
    stored: dict[str, str], current: dict[str, str]
) -> None:
    """Raise :class:`CheckpointMismatchError` on any disagreement."""
    for key in sorted(set(stored) | set(current)):
        if stored.get(key) != current.get(key):
            raise CheckpointMismatchError(
                f"checkpoint fingerprint mismatch on {key!r}: the snapshot "
                f"was taken for a different {key}; refusing to resume "
                f"(stored {stored.get(key)!r}, current {current.get(key)!r})"
            )

"""Version lineage: immutable parent → delta → child records.

Every mutation of a named graph appends one :class:`GraphVersion` link:
the parent fingerprint, the normalised delta (or ``None`` for a
whole-graph replacement), and the content fingerprint of the child.
The service writes these links as ``version`` records of its state log
(:mod:`repro.service.state`), after the child graph's bytes, and a
version record is also the name move — so a crash at any point leaves
a recoverable prefix:

* crash after the graph write: an orphan graph, no record — the head
  stays the parent (the commit never happened);
* crash after the record: the log names the child and its graph is on
  disk — replay moves the name to the child (the commit happened).

:func:`recover_chains` rebuilds the retained chains from those records,
purely, so the crash-consistency argument is unit-testable without a
filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .delta import EdgeDelta

__all__ = [
    "GraphVersion",
    "recover_chains",
    "version_from_record",
    "version_record",
]

KIND_ROOT = "root"
KIND_DELTA = "delta"
KIND_REPLACE = "replace"
_KINDS = (KIND_ROOT, KIND_DELTA, KIND_REPLACE)


@dataclass(frozen=True)
class GraphVersion:
    """One link of a named graph's version chain."""

    name: str
    fingerprint: str
    parent: str | None
    depth: int
    kind: str
    delta: EdgeDelta | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown version kind {self.kind!r}")
        if self.kind == KIND_DELTA and self.delta is None:
            raise ValueError("a delta version link requires a delta")
        if self.kind != KIND_ROOT and self.parent is None:
            raise ValueError(f"a {self.kind} version link requires a parent")


def version_record(version: GraphVersion) -> dict[str, object]:
    """JSON-safe journal record for one lineage link."""
    return {
        "name": version.name,
        "fingerprint": version.fingerprint,
        "parent": version.parent,
        "depth": version.depth,
        "kind": version.kind,
        "delta": None if version.delta is None else version.delta.to_json(),
    }


def version_from_record(record: dict[str, object]) -> GraphVersion:
    delta = record.get("delta")
    return GraphVersion(
        name=str(record["name"]),
        fingerprint=str(record["fingerprint"]),
        parent=None if record["parent"] is None else str(record["parent"]),
        depth=int(record["depth"]),  # type: ignore[arg-type]
        kind=str(record["kind"]),
        delta=None if delta is None else EdgeDelta.from_json(delta),  # type: ignore[arg-type]
    )


def recover_chains(
    records: Iterable[dict[str, object]],
    available: set[str],
) -> tuple[dict[str, list[GraphVersion]], int]:
    """Per-name retained chains implied by a journal prefix.

    ``available`` is the set of graph fingerprints actually on disk.
    For each name the head is the **latest journal record whose child
    graph exists** (records whose graph write was lost — impossible
    under the commit order, but tolerated — are skipped, as are pruned
    versions); the chain then extends backwards through parents that
    are still available.  A parent with no record of its own is the
    chain's registered root (registration moves a name with a ``names``
    record, not a ``version`` one) and ends the chain as a root link.
    Returns the chains (each oldest → head) plus the number of
    malformed records skipped.
    """
    by_name: dict[str, list[GraphVersion]] = {}
    by_fp: dict[str, GraphVersion] = {}
    malformed = 0
    for record in records:
        try:
            version = version_from_record(record)
        except (KeyError, TypeError, ValueError):
            malformed += 1
            continue
        by_name.setdefault(version.name, []).append(version)
        by_fp[version.fingerprint] = version
    chains: dict[str, list[GraphVersion]] = {}
    for name, versions in by_name.items():
        head = next(
            (v for v in reversed(versions) if v.fingerprint in available),
            None,
        )
        if head is None:
            continue
        chain = [head]
        seen = {head.fingerprint}
        cursor = head
        while cursor.parent is not None and cursor.parent in available:
            parent = by_fp.get(cursor.parent) or GraphVersion(
                name, cursor.parent, None, max(0, cursor.depth - 1), KIND_ROOT
            )
            if parent.fingerprint in seen:
                break
            chain.append(parent)
            seen.add(parent.fingerprint)
            cursor = parent
        chains[name] = list(reversed(chain))
    return chains, malformed

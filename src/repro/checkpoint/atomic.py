"""Atomic durable writes: the only sanctioned way to write a checkpoint.

Every byte under a checkpoint directory must land via tmp + ``fsync`` +
``os.replace`` so a crash (including SIGKILL) at any instant leaves
either the old file or the new file, never a torn one.  The temporary
file is created in the *same directory* as the target (``os.replace`` is
only atomic within a filesystem), and the directory entry itself is
fsynced after the rename so the new name survives a power cut.

Analysis rule RP006 (durable-write safety) enforces that no other module
under ``repro.checkpoint`` opens files for writing directly.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

__all__ = ["atomic_write_bytes", "atomic_write_json", "fsync_dir"]


def fsync_dir(dirname: str) -> None:
    """Flush the directory entry (best effort on exotic filesystems)."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform quirk
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (all-or-nothing)."""
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=dirname)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(dirname)


def atomic_write_json(path: str, payload: dict[str, Any]) -> None:
    """Durably replace ``path`` with ``payload`` as JSON."""
    data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, data)

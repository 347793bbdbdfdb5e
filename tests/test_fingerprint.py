"""Tests for the shared content-fingerprint module.

``repro.fingerprint`` moved out of ``repro.checkpoint`` so the service
cache and the checkpoint store key on the *same* hashes; these tests pin
the refactor: the checkpoint re-exports are the same objects, and the
fingerprints behave (content-sensitive, name-insensitive, count-relevant
config fields only).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import fingerprint as shared
from repro.checkpoint import fingerprint as compat
from repro.core.config import CuTSConfig
from repro.fingerprint import (
    COUNT_IRRELEVANT_FIELDS,
    CheckpointMismatchError,
    check_fingerprints,
    config_fingerprint,
    graph_fingerprint,
)
from repro.graph import from_edges, mesh_graph


# ---------------------------------------------------------------------------
# Satellite regression: checkpoint/fingerprint.py must stay a pure alias.
# ---------------------------------------------------------------------------


def test_checkpoint_reexports_are_the_same_objects():
    assert compat.graph_fingerprint is shared.graph_fingerprint
    assert compat.config_fingerprint is shared.config_fingerprint
    assert compat.check_fingerprints is shared.check_fingerprints
    assert compat.CheckpointMismatchError is shared.CheckpointMismatchError


def test_checkpoint_and_shared_agree_on_real_inputs(mesh44):
    cfg = CuTSConfig()
    assert compat.graph_fingerprint(mesh44) == graph_fingerprint(mesh44)
    assert compat.config_fingerprint(cfg) == config_fingerprint(cfg)


def test_checkpoint_package_still_exposes_the_names():
    import repro.checkpoint as cp

    assert cp.fingerprint.graph_fingerprint is shared.graph_fingerprint


# ---------------------------------------------------------------------------
# Graph fingerprints.
# ---------------------------------------------------------------------------


def test_graph_fingerprint_is_stable_and_content_keyed(mesh44):
    fp1 = graph_fingerprint(mesh44)
    fp2 = graph_fingerprint(mesh_graph(4, 4))
    assert fp1 == fp2
    assert fp1 != graph_fingerprint(mesh_graph(4, 5))
    assert len(fp1) == 64  # sha256 hex


def test_graph_fingerprint_ignores_name_but_not_labels():
    a = from_edges([(0, 1), (1, 0)], name="a")
    b = from_edges([(0, 1), (1, 0)], name="b")
    assert graph_fingerprint(a) == graph_fingerprint(b)
    labelled = a.with_labels(np.array([1, 2], dtype=np.int64))
    assert graph_fingerprint(labelled) != graph_fingerprint(a)


# ---------------------------------------------------------------------------
# Config fingerprints: count-relevant fields only.
# ---------------------------------------------------------------------------


def test_config_fingerprint_ignores_count_irrelevant_fields():
    base = config_fingerprint(CuTSConfig())
    assert config_fingerprint(
        CuTSConfig(workers=4, memory_budget_mb=64, service_queue_depth=7,
                   profile_expansion=True)
    ) == base


def test_config_fingerprint_tracks_count_relevant_fields():
    base = config_fingerprint(CuTSConfig())
    assert config_fingerprint(CuTSConfig(chunk_size=64)) != base
    assert config_fingerprint(CuTSConfig(ordering="id")) != base


def test_irrelevant_field_set_matches_the_dataclass():
    names = {f.name for f in dataclasses.fields(CuTSConfig)}
    assert COUNT_IRRELEVANT_FIELDS <= names, (
        "COUNT_IRRELEVANT_FIELDS names a field CuTSConfig no longer has"
    )


def test_check_fingerprints_raises_on_mismatch(mesh44):
    cfg = CuTSConfig()
    stored = {
        "graph": graph_fingerprint(mesh44),
        "config": config_fingerprint(cfg),
    }
    check_fingerprints(stored, dict(stored))  # identical: fine
    bad = dict(stored, graph="0" * 64)
    with pytest.raises(CheckpointMismatchError):
        check_fingerprints(bad, stored)

"""Tests for the shared content-fingerprint module.

``repro.fingerprint`` lives at the package root so the service cache and
the checkpoint store key on the *same* hashes; these tests pin that:
``repro.checkpoint`` re-exports the same objects, a job manifest's
fingerprints are those hashes, and the fingerprints behave
(content-sensitive, name-insensitive, every config field covered).
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

import repro.checkpoint as cp
from repro import fingerprint as shared
from repro.core.config import CuTSConfig
from repro.fingerprint import (
    CheckpointMismatchError,
    check_fingerprints,
    config_fingerprint,
    graph_fingerprint,
)
from repro.gpusim import A100
from repro.graph import chain_graph, from_edges, mesh_graph


# ---------------------------------------------------------------------------
# One implementation: the checkpoint package re-exports it.
# ---------------------------------------------------------------------------


def test_checkpoint_reexports_are_the_same_objects():
    for name in shared.__all__:
        assert getattr(cp, name) is getattr(shared, name), name


def test_checkpoint_and_shared_agree_on_real_inputs(mesh44):
    cfg = CuTSConfig()
    prints = cp.job_fingerprints(cfg, mesh44, chain_graph(4), shard="0/1")
    assert prints["config"] == config_fingerprint(cfg)
    assert prints["data"] == graph_fingerprint(mesh44)
    assert prints["query"] == graph_fingerprint(chain_graph(4))


def test_checkpoint_package_still_exposes_the_names():
    assert set(shared.__all__) <= set(cp.__all__)
    # The re-export shim module is gone; the package is the one alias.
    with pytest.raises(ImportError):
        importlib.import_module("repro.checkpoint.fingerprint")


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
# Config fingerprints: every field, nothing else.
# ---------------------------------------------------------------------------

# The default digest checkpoints and state dirs are stamped with; a
# change here would refuse every existing one.
DEFAULT_CONFIG_FINGERPRINT = (
    "07eb5e1277c5d93c404f23e99bf770b25a0b273527c7af908ea590af58a96a75"
)

# One non-default value per field.
OTHER_VALUES = {
    "device": A100,
    "chunk_size": 64,
    "randomize_placement": False,
    "intersection": "c",
    "ordering": "id",
    "engine": "reference",
    "virtual_warp_size": 8,
    "trie_buffer_fraction": 0.25,
    "seed": 1,
    "max_materialized": 10,
    "neighborhood_filter": True,
}


def test_config_fingerprint_pins_the_default_digest():
    base = config_fingerprint(CuTSConfig())
    assert base == DEFAULT_CONFIG_FINGERPRINT
    names = [f.name for f in dataclasses.fields(CuTSConfig)]
    assert sorted(OTHER_VALUES) == sorted(names)
    for name in names:
        changed = dataclasses.replace(CuTSConfig(), **{name: OTHER_VALUES[name]})
        assert config_fingerprint(changed) != base, name


def test_config_fingerprint_tracks_count_relevant_fields():
    base = config_fingerprint(CuTSConfig())
    assert config_fingerprint(CuTSConfig(chunk_size=64)) != base
    assert config_fingerprint(CuTSConfig(ordering="id")) != base


def test_config_holds_exactly_the_engine_fields():
    assert [f.name for f in dataclasses.fields(CuTSConfig)] == [
        "device", "chunk_size", "randomize_placement", "intersection",
        "ordering", "engine", "virtual_warp_size", "trie_buffer_fraction",
        "seed", "max_materialized", "neighborhood_filter",
    ]


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

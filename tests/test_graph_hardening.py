"""Adversarial graph-input hardening tests.

Durable jobs fingerprint their input graphs, so a malformed graph must
fail loudly at load time — not corrupt a checkpoint three hours in.
These tests feed deliberately broken files and arrays to every
validation layer: the text readers, the edge-list builders, and the
CSR invariant checks.
"""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    GraphFormatError,
    from_edges,
    from_undirected_edges,
    read_cuts_format,
    read_gsi_format,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ----------------------------------------------------------------------
# cuTS text format
# ----------------------------------------------------------------------
def test_cuts_malformed_header(tmp_path):
    p = _write(tmp_path, "bad.txt", "3\n0 1\n")
    with pytest.raises(GraphFormatError, match="malformed header"):
        read_cuts_format(p)


def test_cuts_non_integer_header(tmp_path):
    p = _write(tmp_path, "bad.txt", "three 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="non-integer header"):
        read_cuts_format(p)


def test_cuts_negative_header_counts(tmp_path):
    p = _write(tmp_path, "bad.txt", "-3 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="negative counts"):
        read_cuts_format(p)


def test_cuts_edge_count_mismatch(tmp_path):
    p = _write(tmp_path, "bad.txt", "3 5\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="header says 5 edges, found 2"):
        read_cuts_format(p)


def test_cuts_negative_vertex_id(tmp_path):
    p = _write(tmp_path, "bad.txt", "3 2\n0 1\n-1 2\n")
    with pytest.raises(GraphFormatError, match="negative vertex id -1"):
        read_cuts_format(p)


def test_cuts_dangling_vertex_id(tmp_path):
    p = _write(tmp_path, "bad.txt", "3 2\n0 1\n1 7\n")
    with pytest.raises(GraphFormatError, match="dangling"):
        read_cuts_format(p)


def test_cuts_unparseable_edges(tmp_path):
    p = _write(tmp_path, "bad.txt", "3 2\n0 1\n1 x\n")
    with pytest.raises(GraphFormatError, match="unparseable edge list"):
        read_cuts_format(p)


def test_cuts_self_loop_policy(tmp_path):
    p = _write(tmp_path, "loops.txt", "3 3\n0 1\n1 1\n1 2\n")
    g = read_cuts_format(p)  # default: drop
    assert g.num_edges == 2
    with pytest.raises(GraphFormatError, match="self-loop"):
        read_cuts_format(p, self_loops="error")


def test_cuts_valid_roundtrip_still_works(tmp_path):
    from repro.graph import write_cuts_format

    g = from_edges([(0, 1), (1, 2), (2, 0)])
    p = tmp_path / "ok.txt"
    write_cuts_format(g, p)
    h = read_cuts_format(p)
    assert h.num_vertices == g.num_vertices
    assert np.array_equal(h.edge_list(), g.edge_list())


# ----------------------------------------------------------------------
# GSI text format
# ----------------------------------------------------------------------
def test_gsi_malformed_record(tmp_path):
    p = _write(tmp_path, "bad.g", "t 2 1\nv 0 0\nv 1\ne 0 1 0\n")
    with pytest.raises(GraphFormatError, match="malformed record"):
        read_gsi_format(p)


def test_gsi_vertex_record_out_of_range(tmp_path):
    p = _write(tmp_path, "bad.g", "t 2 1\nv 0 0\nv 5 0\ne 0 1 0\n")
    with pytest.raises(GraphFormatError, match="outside"):
        read_gsi_format(p)


def test_gsi_dangling_edge(tmp_path):
    p = _write(tmp_path, "bad.g", "t 2 1\nv 0 0\nv 1 0\ne 0 9 0\n")
    with pytest.raises(GraphFormatError, match="dangling"):
        read_gsi_format(p)


def test_gsi_self_loop_policy(tmp_path):
    p = _write(tmp_path, "loops.g", "t 2 2\nv 0 0\nv 1 0\ne 0 0 0\ne 0 1 0\n")
    assert read_gsi_format(p).num_edges == 1
    with pytest.raises(GraphFormatError, match="self-loop"):
        read_gsi_format(p, self_loops="error")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def test_from_edges_self_loop_error_policy():
    with pytest.raises(GraphFormatError, match="self-loop"):
        from_edges([(0, 1), (2, 2)], self_loops="error")


def test_from_undirected_edges_self_loop_error_policy():
    with pytest.raises(GraphFormatError, match="self-loop"):
        from_undirected_edges([(0, 0)], self_loops="error")


def test_invalid_self_loop_policy_rejected():
    with pytest.raises(ValueError, match="self_loops must be"):
        from_edges([(0, 1)], self_loops="keep")


def test_from_edges_dangling_is_format_error():
    with pytest.raises(GraphFormatError, match="dangling"):
        from_edges([(0, 9)], num_vertices=3)


def test_from_edges_negative_is_format_error():
    with pytest.raises(GraphFormatError, match="non-negative"):
        from_edges([(-2, 1)])


# ----------------------------------------------------------------------
# CSR invariants
# ----------------------------------------------------------------------
def _dual(indptr, indices, rindptr, rindices, n):
    return CSRGraph(
        num_vertices=n,
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        rindptr=np.asarray(rindptr, dtype=np.int64),
        rindices=np.asarray(rindices, dtype=np.int64),
    )


def test_csr_non_monotone_indptr():
    with pytest.raises(GraphFormatError, match="indptr offsets must be non-decreasing"):
        _dual([0, 2, 1, 2], [1, 2], [0, 0, 1, 2], [0, 1], 3)


def test_csr_non_monotone_rindptr():
    with pytest.raises(
        GraphFormatError, match="rindptr offsets must be non-decreasing"
    ):
        _dual([0, 1, 2, 2], [1, 2], [0, 2, 1, 2], [0, 1], 3)


def test_csr_negative_index_is_format_error():
    with pytest.raises(GraphFormatError, match="negative vertex id"):
        _dual([0, 1, 1, 2], [1, -1], [0, 0, 1, 2], [0, 1], 3)


def test_csr_unsorted_row_in_indices():
    # Row 2 is [3, 0], after an empty row 1.
    with pytest.raises(
        GraphFormatError, match=r"^indices row 2 is not strictly increasing"
    ):
        _dual([0, 1, 1, 3, 3], [1, 3, 0], [0, 1, 2, 2, 3], [2, 0, 2], 4)


def test_csr_duplicate_in_indices():
    with pytest.raises(
        GraphFormatError, match=r"^indices row 0 is not strictly increasing"
    ):
        _dual([0, 2, 2, 2], [1, 1], [0, 0, 1, 2], [0, 0], 3)


def test_csr_unsorted_row_in_rindices():
    # The last vertex's parent list is [2, 0, 1].
    with pytest.raises(
        GraphFormatError, match=r"^rindices row 3 is not strictly increasing"
    ):
        _dual([0, 1, 2, 3, 3], [3, 3, 3], [0, 0, 0, 0, 3], [2, 0, 1], 4)


def test_csr_duplicate_in_rindices():
    with pytest.raises(
        GraphFormatError, match=r"^rindices row 0 is not strictly increasing"
    ):
        _dual([0, 0, 1, 2], [0, 0], [0, 2, 2, 2], [1, 1], 3)


def test_csr_earlier_checks_win_over_row_order():
    # Row 0 is both unsorted and dangling: the id-range message wins.
    with pytest.raises(GraphFormatError, match="out-of-range vertex id 5"):
        _dual([0, 2, 2, 2], [5, 1], [0, 0, 1, 2], [0, 0], 3)


def test_graph_format_error_is_value_error():
    assert issubclass(GraphFormatError, ValueError)

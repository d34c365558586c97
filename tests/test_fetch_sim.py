"""Simulator semantics: trip decomposition, peak placement, conservation."""

from __future__ import annotations

import csv
import dataclasses
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rowfetch import fetch_sim
from rowfetch.core_model import FetchPlan, WorkloadSpec, quantized_cost, round_trips
from rowfetch.fetch_sim import (
    DriverSpec,
    HopSpec,
    NetworkSpec,
    ServerSpec,
    cost_constants,
    effective_prefetch,
    simulate_fetch,
    stage_breakdown,
    transport_time,
    write_trace_csv,
)

WIDE = WorkloadSpec(502, (50, 4000, 8, 16))
WAN = NetworkSpec.uniform(2, 600.0, 150.0, 0.9)
SERVER = ServerSpec(hard_parse=40.0, soft_parse=3.0, per_record_search=0.05,
                    server_cache_size=100, disk_access_per_refill=12.0)
DRIVER = DriverSpec(recommended_prefetch=100, default_prefetch=10,
                    per_field_conversion=0.05, request_overhead=2.0)


def peak_rows(trace):
    return [row for row, ms in trace.samples if ms > 0.0]


def dense_samples(trace):
    """Reference per-row trace: n zeros, trip i's total at 0-based row (i-1)*f."""
    elapsed = [0.0] * trace.total_records
    for i, trip in enumerate(trace.trip_log[1:], start=2):
        elapsed[(i - 1) * trace.effective_prefetch] = trip.total_ms
    return [[row + 1, ms] for row, ms in enumerate(elapsed)]


def reference_csv(trace, samples_path, trips_path):
    """Reference writer: csv.writer over dense_samples() and the trip log, row by row."""
    with open(samples_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("row_index", "elapsed_ms"))
        writer.writerows(dense_samples(trace))
    with open(trips_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("trip_index", "records", "r_ms", "e_ms", "a_ms", "t_ms", "c_ms"))
        writer.writerows(dataclasses.astuple(trip) for trip in trace.trip_log)


def assert_matches_reference(tmp_path, n, f, jitter):
    """write_trace_csv gives reference_csv's bytes for WIDE at n records and size f."""
    driver = dataclasses.replace(DRIVER, enforced_prefetch=f)
    trace = simulate_fetch(WorkloadSpec(n, WIDE.field_byte_sizes), WAN, SERVER, driver,
                           seed=11, jitter=jitter)
    write_trace_csv(trace, tmp_path / "t.csv", tmp_path / "t_trips.csv")
    reference_csv(trace, tmp_path / "r.csv", tmp_path / "r_trips.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    assert (tmp_path / "t_trips.csv").read_bytes() == (tmp_path / "r_trips.csv").read_bytes()


class TestEffectivePrefetch:
    def test_default_wins_without_enforcement(self):
        d = DriverSpec(recommended_prefetch=100, default_prefetch=10)
        assert effective_prefetch(d) == 10

    def test_enforced_override_wins(self):
        d = DriverSpec(recommended_prefetch=20, enforced_prefetch=20)
        assert effective_prefetch(d) == 20

    def test_plain_default(self):
        assert effective_prefetch(DriverSpec()) == 10


class TestTransportTime:
    def test_single_hop(self):
        net = NetworkSpec((HopSpec(bandwidth=100.0, base_latency=5.0),))
        assert transport_time(1000, net) == pytest.approx(15.0)

    def test_no_hops_costs_nothing(self):
        assert transport_time(10**6, NetworkSpec(())) == 0.0

    def test_two_identical_hops_double(self):
        net = NetworkSpec.uniform(2, 100.0, 5.0)
        assert transport_time(1000, net) == pytest.approx(30.0)

    def test_availability_scales_bandwidth_down(self):
        full = NetworkSpec((HopSpec(100.0, 0.0, 1.0),))
        half = NetworkSpec((HopSpec(100.0, 0.0, 0.5),))
        assert transport_time(1000, half) == pytest.approx(2 * transport_time(1000, full))

    def test_negative_byte_count_rejected(self):
        with pytest.raises(ValueError, match="byte_count must be >= 0"):
            transport_time(-1, WAN)

    def test_cost_constants_reject_zero_prefetch(self):
        with pytest.raises(ValueError, match="prefetch size must be >= 1"):
            cost_constants(WIDE, WAN, SERVER, DRIVER, 0)


class TestSimulateFetch:
    def test_trip_count_and_batch_sizes(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        assert len(trace.trip_log) == round_trips(502, 10) == 51
        assert [t.records for t in trace.trip_log[:-1]] == [10] * 50
        assert trace.trip_log[-1].records == 2

    def test_peaks_at_every_tenth_row_from_eleven(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        assert peak_rows(trace) == list(range(11, 502, 10))

    def test_first_batch_rows_are_free(self):
        # The execute call performs trip 1, so rows 1..f never block.
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        assert [ms for _, ms in trace.samples[:10]] == [0.0] * 10

    def test_peak_rows_for_divisible_workload(self):
        w = WorkloadSpec(500, (100,))
        for f in (4, 10, 25, 100):
            d = DriverSpec(enforced_prefetch=f, request_overhead=1.0)
            trace = simulate_fetch(w, WAN, SERVER, d)
            assert peak_rows(trace) == [k * f + 1 for k in range(1, 500 // f)]

    def test_hard_parse_only_on_first_trip(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        t1, t2 = trace.trip_log[0], trace.trip_log[1]
        assert t1.records == t2.records
        assert t1.execute_ms - t2.execute_ms == pytest.approx(40.0)

    def test_refills_total_matches_cache_arithmetic(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        total_refill = math.fsum(t.cache_refill_ms for t in trace.trip_log)
        assert total_refill == pytest.approx(-(-502 // 100) * 12.0)

    def test_refill_lands_on_crossing_trip(self):
        # Cache of 25 with batches of 10: the cumulative count crosses a
        # 25-record boundary during trips 1 (10), 3 (30), 6 (60), 8 (80).
        server = ServerSpec(server_cache_size=25, disk_access_per_refill=7.0)
        w = WorkloadSpec(100, (10,))
        d = DriverSpec(enforced_prefetch=10)
        trace = simulate_fetch(w, NetworkSpec(()), server, d)
        charged = [t.trip_index for t in trace.trip_log if t.cache_refill_ms > 0]
        assert charged == [1, 3, 6, 8]
        assert math.fsum(t.cache_refill_ms for t in trace.trip_log) == pytest.approx(4 * 7.0)

    def test_conservation_is_exact(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=3, jitter=0.15)
        lhs = math.fsum([ms for _, ms in trace.samples] + [trace.execution_call_ms])
        rhs = math.fsum(t.total_ms for t in trace.trip_log)
        assert lhs == rhs

    def test_matches_component_derived_constants(self):
        # With no hard parse and the server cache sized to the batch,
        # the closed-form model reproduces the simulated total.
        server = ServerSpec(soft_parse=3.0, per_record_search=0.05,
                            server_cache_size=10, disk_access_per_refill=12.0)
        trace = simulate_fetch(WIDE, WAN, server, DRIVER)
        k = cost_constants(WIDE, WAN, server, DRIVER, 10)
        predicted = quantized_cost(FetchPlan(10, 502), k)
        assert trace.total_elapsed_ms == pytest.approx(predicted, rel=1e-9)

    def test_doubling_hops_doubles_transport_exactly(self):
        near = NetworkSpec.uniform(1, 600.0, 120.0, 0.9)
        far = NetworkSpec(near.hops + near.hops)
        t_near = simulate_fetch(WIDE, near, SERVER, DRIVER)
        t_far = simulate_fetch(WIDE, far, SERVER, DRIVER)
        assert (math.fsum(t.transport_ms for t in t_far.trip_log)
                == 2 * math.fsum(t.transport_ms for t in t_near.trip_log))

    def test_empty_workload_empty_trace(self):
        w = WorkloadSpec(0, (100,))
        trace = simulate_fetch(w, WAN, SERVER, DRIVER)
        assert trace.samples.shape == (0, 2)
        assert trace.trip_log == ()
        assert trace.total_elapsed_ms == 0.0
        assert stage_breakdown(trace) == (0.0, 0.0)

    def test_rejects_zero_byte_records(self):
        with pytest.raises(ValueError):
            simulate_fetch(WorkloadSpec(10, ()), WAN, SERVER, DRIVER)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError):
            simulate_fetch(WIDE, WAN, SERVER, DRIVER, jitter=1.5)

    @pytest.mark.parametrize("jitter", [0.0, 1.0])
    def test_rejects_a_total_past_float64(self, jitter):
        # Each trip's 1e307 ms is finite; 51 of them are not.
        slow = ServerSpec(per_record_search=1e306)
        with pytest.raises(ValueError, match="overflows"):
            simulate_fetch(WIDE, WAN, slow, DRIVER, seed=1, jitter=jitter)


class TestJitter:
    def test_zero_jitter_is_reproducible(self):
        a = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=1)
        b = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=2)
        assert a.trip_log == b.trip_log

    def test_same_seed_same_trace(self):
        a = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=9, jitter=0.15)
        b = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=9, jitter=0.15)
        assert a.trip_log == b.trip_log

    def test_different_seeds_differ(self):
        a = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=1, jitter=0.15)
        b = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=2, jitter=0.15)
        assert a.trip_log != b.trip_log

    def test_components_stay_within_band(self):
        base = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        noisy = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=5, jitter=0.3)
        for clean, shaken in zip(base.trip_log, noisy.trip_log):
            for name in ("request_ms", "execute_ms", "cache_refill_ms",
                         "transport_ms", "convert_ms"):
                lo = getattr(clean, name) * 0.7
                hi = getattr(clean, name) * 1.3
                assert lo <= getattr(shaken, name) <= hi

    def test_cache_rows_stay_exactly_zero_under_jitter(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=5, jitter=0.3)
        zero_rows = [ms for row, ms in trace.samples if (row - 1) % 10 or row == 1]
        assert set(zero_rows) == {0.0}


class TestSamplesFromTripLog:
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("n,f", [(0, 10), (7, 10), (10, 10), (500, 25),
                                     (37, 1), (502, 10)])
    def test_samples_match_dense_reference(self, n, f, jitter):
        d = DriverSpec(enforced_prefetch=f, request_overhead=1.0)
        trace = simulate_fetch(WorkloadSpec(n, (100,)), WAN, SERVER, d, seed=11, jitter=jitter)
        assert trace.samples.tolist() == dense_samples(trace)

    def test_simulation_memory_is_o_trips(self):
        # Two trips over two million rows: nothing may be allocated per row.
        w = WorkloadSpec(2_000_000, (100,))
        d = DriverSpec(enforced_prefetch=1_000_000)
        tracemalloc.start()
        try:
            trace = simulate_fetch(w, WAN, SERVER, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.trip_log) == 2
        assert peak < 2**20


class TestStageBreakdown:
    def test_single_trip_is_execution_heavy(self):
        w = WorkloadSpec(5, (50, 4000, 8, 16))
        server = ServerSpec(hard_parse=300.0, soft_parse=3.0, per_record_search=0.05,
                            server_cache_size=100, disk_access_per_refill=12.0)
        trace = simulate_fetch(w, NetworkSpec.uniform(1, 600.0, 150.0, 0.9), server, DRIVER)
        execution, retrieval = stage_breakdown(trace)
        assert len(trace.trip_log) == 1
        assert execution > retrieval

    def test_many_trips_are_retrieval_heavy(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        execution, retrieval = stage_breakdown(trace)
        assert retrieval > 100 * execution

    def test_split_sums_to_total(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        execution, retrieval = stage_breakdown(trace)
        assert execution + retrieval == pytest.approx(trace.total_elapsed_ms)

    def test_execution_is_first_trip_engine_share(self):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        first = trace.trip_log[0]
        execution, _ = stage_breakdown(trace)
        assert execution == first.request_ms + first.execute_ms


class TestRandomizedConservation:
    def test_fifty_seeded_configs(self):
        rng = random.Random(20260814)
        for case in range(50):
            n = rng.randrange(0, 400)
            fields = tuple(rng.randrange(1, 5000) for _ in range(rng.randrange(1, 5)))
            w = WorkloadSpec(n, fields)
            hops = rng.randrange(0, 4)
            net = NetworkSpec(tuple(
                HopSpec(rng.uniform(50, 5000), rng.uniform(0, 200), rng.uniform(0.5, 1.0))
                for _ in range(hops)))
            server = ServerSpec(rng.uniform(0, 100), rng.uniform(0, 10),
                                rng.uniform(0, 0.2), rng.randrange(1, 300),
                                rng.uniform(0, 30))
            driver = DriverSpec(enforced_prefetch=rng.randrange(1, 60),
                                per_field_conversion=rng.uniform(0, 0.1),
                                request_overhead=rng.uniform(0, 5))
            jitter = 0.0 if case % 2 else 0.2
            first = simulate_fetch(w, net, server, driver, seed=case, jitter=jitter)
            again = simulate_fetch(w, net, server, driver, seed=case, jitter=jitter)
            assert first.trip_log == again.trip_log
            lhs = math.fsum([ms for _, ms in first.samples] + [first.execution_call_ms])
            rhs = math.fsum(t.total_ms for t in first.trip_log)
            assert lhs == rhs
            rows = [row for row, _ in first.samples]
            assert rows == list(range(1, n + 1))


class TestTraceCsv:
    def test_headers_and_determinism(self, tmp_path):
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER, seed=4, jitter=0.15)
        paths = [(tmp_path / f"t{i}.csv", tmp_path / f"t{i}_trips.csv") for i in (1, 2)]
        for samples_path, trips_path in paths:
            write_trace_csv(trace, samples_path, trips_path)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        assert paths[0][0].read_text().splitlines()[0] == "row_index,elapsed_ms"
        assert (paths[0][1].read_text().splitlines()[0]
                == "trip_index,records,r_ms,e_ms,a_ms,t_ms,c_ms")
        assert len(paths[0][0].read_text().splitlines()) == 503
        assert len(paths[0][1].read_text().splitlines()) == 52

    # Several blocks: one trip's zero rows, and the trip columns, each span
    # more than one block.
    BLOCKS = 3 * fetch_sim._BLOCK + 5

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("n,f", [
        (0, 10), (7, 10), (10, 10), (500, 10), (502, 10), (300, 1), (37, 10**6),
        (BLOCKS, 2 * fetch_sim._BLOCK + 3), (BLOCKS, 3),
        # Every row a first row, across blocks.
        (BLOCKS, 1),
        # First rows at 1 + m * _BLOCK, the first row of a block.
        (BLOCKS, fetch_sim._BLOCK),
        # Row 1000 = 1 + 27 * 37 is a first row, in a block crossing 10, 100, 1000.
        (1000, 37),
        # The block holding rows 99,999 and 100,000 crosses 10**5 mid-block,
        # and 100,000 = 1 + 11,111 * 9 is a first row.
        (10**5 + fetch_sim._BLOCK, 9),
    ])
    def test_bytes_match_row_by_row_csv_writer(self, tmp_path, n, f, jitter):
        assert_matches_reference(tmp_path, n, f, jitter)

    def test_longest_reprs_match_row_by_row_csv_writer(self, tmp_path):
        # The largest, smallest normal and smallest subnormal doubles and a
        # 17-digit one: the longest reprs a total can have, in each form.
        longest = [1.7976931348623157e+308, 2.2250738585072014e-308, 5e-324,
                   0.30000000000000004]
        totals = np.array([1.0, *longest, *longest])
        components = np.zeros((len(totals), 5))
        components[:, 1] = totals
        trace = fetch_sim.LatencyTrace(np.full(len(totals), 3), components, 3,
                                       3 * len(totals), totals, math.inf)
        write_trace_csv(trace, tmp_path / "t.csv", tmp_path / "t_trips.csv")
        reference_csv(trace, tmp_path / "r.csv", tmp_path / "r_trips.csv")
        text = (tmp_path / "t.csv").read_bytes()
        assert text == (tmp_path / "r.csv").read_bytes()
        assert (tmp_path / "t_trips.csv").read_bytes() == (tmp_path / "r_trips.csv").read_bytes()
        assert all(f",{ms!r}\r\n".encode() in text for ms in longest)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.integers(0, 1200), st.integers(1, 300),
           st.sampled_from([0.0, 0.3]))
    def test_bytes_match_reference_at_any_block_size(self, block, n, f, jitter):
        # Small blocks put powers of ten, first rows and the last row at
        # every offset within a block and on block boundaries.
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(fetch_sim, "_BLOCK", block)
            assert_matches_reference(Path(tmp), n, f, jitter)

    def test_write_memory_is_bounded_by_a_block(self, tmp_path):
        # A 3.6 MB trace of 3e5 rows and 3e4 trips: the writer may hold a
        # block of text and of trip values at a time, never the whole file
        # or every trip as Python numbers (about 6 MB here).
        w = WorkloadSpec(300_000, WIDE.field_byte_sizes)
        trace = simulate_fetch(w, WAN, SERVER, DRIVER, seed=1, jitter=0.1)
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "t.csv", tmp_path / "t_trips.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20 < (tmp_path / "t.csv").stat().st_size


# Any integer is a valid run seed; the simulator reduces it to a Philox key.
seeds = st.integers(-2**140, 2**140)
jitters = st.floats(0.0, 1.0)
costs = st.floats(0.0, 100.0)


@st.composite
def scenarios(draw, prefetch=st.integers(1, 700)):
    """(workload, net, server, driver) with every component exercised."""
    fields = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4))
    hops = draw(st.lists(st.builds(HopSpec, st.floats(50.0, 5000.0), costs,
                                   st.floats(0.5, 1.0)), max_size=3))
    server = ServerSpec(draw(costs), draw(costs), draw(st.floats(0.0, 0.2)),
                        draw(st.integers(1, 300)), draw(costs))
    driver = DriverSpec(enforced_prefetch=draw(prefetch),
                        per_field_conversion=draw(st.floats(0.0, 0.1)),
                        request_overhead=draw(costs))
    return WorkloadSpec(draw(st.integers(0, 600)), fields), NetworkSpec(hops), server, driver


class TestSimulatorProperties:
    @given(scenarios(), seeds, jitters)
    def test_conservation_is_exact(self, scenario, seed, jitter):
        trace = simulate_fetch(*scenario, seed=seed, jitter=jitter)
        lhs = math.fsum([ms for _, ms in trace.samples] + [trace.execution_call_ms])
        assert lhs == math.fsum(t.total_ms for t in trace.trip_log)
        assert lhs == trace.total_elapsed_ms

    @settings(deadline=None)
    @given(scenarios(), seeds, jitters)
    def test_reruns_are_identical_down_to_csv_bytes(self, scenario, seed, jitter):
        first, again = (simulate_fetch(*scenario, seed=seed, jitter=jitter) for _ in "ab")
        assert first.trip_log == again.trip_log
        with tempfile.TemporaryDirectory() as tmp:
            files = [(Path(tmp, f"{k}.csv"), Path(tmp, f"{k}_trips.csv")) for k in "ab"]
            for trace, (samples_path, trips_path) in zip((first, again), files):
                write_trace_csv(trace, samples_path, trips_path)
            for path_a, path_b in zip(*files):
                assert path_a.read_bytes() == path_b.read_bytes()

    @given(scenarios(), seeds, jitters)
    def test_jittered_components_stay_within_band(self, scenario, seed, jitter):
        clean = simulate_fetch(*scenario).trip_log
        shaken = simulate_fetch(*scenario, seed=seed, jitter=jitter).trip_log
        for before, after in zip(clean, shaken, strict=True):
            assert (before.trip_index, before.records) == (after.trip_index, after.records)
            for name in ("request_ms", "execute_ms", "cache_refill_ms",
                         "transport_ms", "convert_ms"):
                value = getattr(before, name)
                assert value * (1 - jitter) <= getattr(after, name) <= value * (1 + jitter)

    @given(scenarios(prefetch=st.integers(1, 50)),
           st.integers(1, 20), st.integers(0, 200), st.integers(0, 200), seeds,
           st.floats(0.01, 1.0))
    def test_jitter_of_a_trip_depends_only_on_seed_and_trip(self, scenario, k, extra_a,
                                                           extra_b, seed, jitter):
        # Two workloads whose first k trips are full and identical draw the
        # same factors for those trips, however many trips follow.
        workload, net, server, driver = scenario
        f = effective_prefetch(driver)
        logs = [simulate_fetch(WorkloadSpec(k * f + extra, workload.field_byte_sizes),
                               net, server, driver, seed=seed, jitter=jitter).trip_log
                for extra in (extra_a, extra_b)]
        assert logs[0][:k] == logs[1][:k]

"""Simulator semantics: trip decomposition, peak placement, conservation."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rowfetch import cli, config, fetch_sim
from rowfetch.core_model import (FetchPlan, FieldError, WorkloadSpec, dyadic_ints, quantized_cost,
                                 replace, round_trips)
from rowfetch.fetch_sim import (
    DriverSpec,
    HopSpec,
    NetworkSpec,
    ServerSpec,
    cost_constants,
    effective_prefetch,
    jitter_free_total,
    simulate_fetch,
    transport_time,
    write_trace_csv,
)

WIDE = WorkloadSpec(502, (50, 4000, 8, 16))
WAN = NetworkSpec.uniform(2, 600.0, 150.0, 0.9)
SERVER = ServerSpec(hard_parse=40.0, soft_parse=3.0, per_record_search=0.05,
                    server_cache_size=100, disk_access_per_refill=12.0)
DRIVER = DriverSpec(default_prefetch=10, per_field_conversion=0.05, request_overhead=2.0)


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
        writer.writerows(vars(trip).values() for trip in trace.trip_log)


def assert_matches_reference(tmp_path, n, f, jitter):
    """write_trace_csv gives reference_csv's bytes for WIDE at n records and size f."""
    driver = replace(DRIVER, enforced_prefetch=f)
    trace = simulate_fetch(WorkloadSpec(n, WIDE.field_byte_sizes), WAN, SERVER, driver,
                           seed=11, jitter=jitter)
    write_trace_csv(trace, tmp_path / "t.csv", tmp_path / "t_trips.csv")
    reference_csv(trace, tmp_path / "r.csv", tmp_path / "r_trips.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    assert (tmp_path / "t_trips.csv").read_bytes() == (tmp_path / "r_trips.csv").read_bytes()


def write_specs(directory: Path, workload, net, server, driver) -> str:
    """A config file under directory that loads back as exactly these specs."""
    pairs = {"workload.total_records": workload.total_records,
             "workload.field_bytes": ",".join(map(str, workload.field_byte_sizes)),
             "network.hops": len(net.hops)}
    specs = {"server": server, "driver": driver}
    for key, (spec, field, *_) in config._KEYS.items():
        if spec == "hop" and net.hops:
            pairs[key] = ",".join(repr(getattr(hop, field)) for hop in net.hops)
        elif spec in specs and getattr(specs[spec], field) is not None:
            pairs[key] = repr(getattr(specs[spec], field))
    path = directory / "specs.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()))
    cfg = config.load_config(str(path))
    assert (cfg.workload, cfg.network, cfg.server, cfg.driver) == (workload, net, server, driver)
    return str(path)


def simulate_summary(tmp_path, capsys, workload, net, server, driver) -> dict[str, str]:
    """The `name: value` lines that `rowfetch simulate` prints for these specs,
    simulated by cli.main in-process from a config written by write_specs."""
    path = write_specs(tmp_path, workload, net, server, driver)
    assert cli.main(["simulate", path, "--out-trace", str(tmp_path / "t.csv")]) == 0
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def stages(summary: dict[str, str]) -> tuple[float, float]:
    """(execution_ms, retrieval_ms) of a simulate summary."""
    return float(summary["execution_ms"]), float(summary["retrieval_ms"])


class TestEffectivePrefetch:
    def test_default_wins_without_enforcement(self):
        d = DriverSpec(default_prefetch=12)
        assert effective_prefetch(d) == 12

    def test_enforced_override_wins(self):
        d = DriverSpec(enforced_prefetch=20)
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

    @pytest.mark.parametrize("cache", [1, 7, 10, 100, 501, 502, 10**6])
    def test_matches_component_derived_constants(self, cache):
        # With the hard parse and any server cache size, a * ceil(N/f) + C
        # reproduces the simulated total at every f.
        server = replace(SERVER, server_cache_size=cache)
        k = cost_constants(WIDE, WAN, server, DRIVER)
        assert (k.k1, k.k2, k.k3, k.k4) == (305.0, 0.0, 305.0, 0.0)
        for f in (1, 3, 10, 100, 168, 251, 502, 600):
            trace = simulate_fetch(WIDE, WAN, server, replace(DRIVER, enforced_prefetch=f))
            predicted = quantized_cost(FetchPlan(f, 502), k)
            assert predicted == pytest.approx(trace.total_elapsed_ms, rel=1e-12)

    def test_constants_are_priced_by_the_trip_formula(self, monkeypatch):
        # A second copy of the formula would not see a change to the first.
        price = fetch_sim._price_trip
        before = cost_constants(WIDE, WAN, SERVER, DRIVER)
        requests = simulate_fetch(WIDE, WAN, SERVER, DRIVER).components[:, 0]
        calls = 0

        def slower(*args):
            nonlocal calls
            calls += 1
            r, *rest = price(*args)
            return r + 1.0, *rest  # every trip's request time

        monkeypatch.setattr(fetch_sim, "_price_trip", slower)
        after = cost_constants(WIDE, WAN, SERVER, DRIVER)
        assert (after.k1, after.k3) == (before.k1 + 1.0, before.k3 + 1.0) == (306.0, 306.0)
        trace = simulate_fetch(WIDE, WAN, SERVER, DRIVER)
        assert trace.components[:, 0].tolist() == (requests + 1.0).tolist()
        assert repr(jitter_free_total(WIDE, WAN, SERVER, DRIVER)) == repr(trace.total_elapsed_ms)
        calls = 0
        trace = simulate_fetch(WorkloadSpec(10**6, (100,)), WAN, SERVER, DRIVER)
        assert len(trace.records) == 10**5 and calls <= 4  # one price per kind of trip

    @pytest.mark.parametrize("field, value", [("request_overhead", 1e308),
                                              ("per_field_conversion", 1e306)])
    def test_cost_constants_overflow_is_the_total_error(self, field, value):
        # a or C past float64 is checked_total's error, not a FieldError naming floor.
        driver = replace(DRIVER, **{field: value})
        net = NetworkSpec.uniform(1, 600.0, 1e308)  # one finite hop; a needs both terms
        with pytest.raises(ValueError, match="elapsed time overflows float64") as exc:
            cost_constants(WIDE, net, SERVER, driver)
        assert not isinstance(exc.value, FieldError)

    def test_doubling_hops_doubles_transport_exactly(self):
        near = NetworkSpec.uniform(1, 600.0, 120.0, 0.9)
        far = NetworkSpec(near.hops + near.hops)
        t_near = simulate_fetch(WIDE, near, SERVER, DRIVER)
        t_far = simulate_fetch(WIDE, far, SERVER, DRIVER)
        assert (math.fsum(t.transport_ms for t in t_far.trip_log)
                == 2 * math.fsum(t.transport_ms for t in t_near.trip_log))

    def test_empty_workload_empty_trace(self, tmp_path, capsys):
        w = WorkloadSpec(0, (100,))
        trace = simulate_fetch(w, WAN, SERVER, DRIVER)
        assert trace.samples.shape == (0, 2)
        assert trace.trip_log == ()
        assert trace.total_elapsed_ms == 0.0
        summary = simulate_summary(tmp_path, capsys, w, WAN, SERVER, DRIVER)
        assert (summary["execution_ms"], summary["retrieval_ms"]) == ("0.0", "0.0")

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError):
            simulate_fetch(WIDE, WAN, SERVER, DRIVER, jitter=1.5)

    @pytest.mark.parametrize("jitter", [0.0, 1.0])
    def test_rejects_a_total_past_float64(self, jitter):
        # Each trip's 1e307 ms is finite; 51 of them are not.
        slow = ServerSpec(per_record_search=1e306)
        with pytest.raises(ValueError, match="overflows"):
            simulate_fetch(WIDE, WAN, slow, DRIVER, seed=1, jitter=jitter)


class TestJitterFreeTotal:
    @pytest.mark.parametrize("n, f", [
        (0, 10), (1, 1), (502, 600), (502, 502), (502, 503),  # no trip, then one
        (502, 251), (502, 300),  # two trips, the last full or short
        (502, 99), (502, 100), (502, 101), (502, 168),  # around the cache size
    ])
    def test_is_the_simulated_total(self, n, f):
        workload = WorkloadSpec(n, WIDE.field_byte_sizes)
        driver = replace(DRIVER, enforced_prefetch=f)
        simulated = simulate_fetch(workload, WAN, SERVER, driver).total_elapsed_ms
        assert repr(jitter_free_total(workload, WAN, SERVER, driver)) == repr(simulated)

    @pytest.mark.parametrize("f", [1, 168, 2**53])
    def test_prices_2_to_53_records_in_constant_work(self, f):
        # Never simulated: 2**53 trips of arrays would not fit in memory.
        workload = WorkloadSpec(2**53, WIDE.field_byte_sizes)
        driver = replace(DRIVER, enforced_prefetch=f)
        k = cost_constants(workload, WAN, SERVER, driver)
        assert jitter_free_total(workload, WAN, SERVER, driver) == pytest.approx(
            quantized_cost(FetchPlan(f, 2**53), k), rel=1e-12)

    def test_rejects_a_total_past_float64(self):
        # Finite trips whose sum overflows, then a trip that is itself infinite.
        for search in (1e306, 1e308):
            with pytest.raises(ValueError, match="overflows"):
                jitter_free_total(WIDE, WAN, ServerSpec(per_record_search=search), DRIVER)

    def test_sum_past_float64_is_simulate_fetchs_error(self):
        slow = ServerSpec(per_record_search=1e306)  # 51 finite trips of 1e307 ms
        with pytest.raises(ValueError) as simulated:
            simulate_fetch(WIDE, WAN, slow, DRIVER)
        with pytest.raises(ValueError) as priced:
            jitter_free_total(WIDE, WAN, slow, DRIVER)
        assert (type(priced.value), str(priced.value)) == (type(simulated.value),
                                                          str(simulated.value))

    @given(st.integers(0, 3000), st.integers(1, 400), st.integers(1, 400), st.data())
    def test_sums_its_trips_exactly(self, n, f, cache, data):
        # Each kind of trip costs a drawn total, from subnormal to past 1e300;
        # the reference walks every trip of the fetch and sums in Fractions.
        totals = {}

        def drawn_total(records, refills, first, *specs):
            kind = records, refills, first
            if kind not in totals:
                totals[kind] = data.draw(st.floats(0.0, sys.float_info.max))
            return totals[kind]

        workload = WorkloadSpec(n, WIDE.field_byte_sizes)
        server = replace(SERVER, server_cache_size=cache)
        driver = replace(DRIVER, enforced_prefetch=f)
        with mock.patch.object(fetch_sim, "_trip_total", drawn_total):
            try:
                priced = jitter_free_total(workload, WAN, server, driver)
            except ValueError as exc:
                priced = exc

        def refills(served):  # disk refills behind the first served records
            return -(-served // cache)

        served = [min(f * i, n) for i in range(round_trips(n, f) + 1)]
        exact = sum(Fraction(totals[now - before, refills(now) - refills(before), not before])
                    for before, now in zip(served, served[1:]))
        try:
            expected = float(exact)
        except OverflowError:  # the exact sum leaves float64
            assert isinstance(priced, ValueError) and "overflows" in str(priced)
        else:
            assert priced == expected


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

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    @pytest.mark.parametrize("n, f", [(2_000_000, 1_000_000), (100_000, 10), (1_000_000, 10)])
    def test_simulation_memory_is_o_trips(self, n, f, jitter):
        # Nothing may be allocated per row, and at most 112 B per trip; the
        # peak was 88 B per trip at 1e4 and 1e5 trips, with or without jitter.
        d = DriverSpec(enforced_prefetch=f)
        tracemalloc.start()
        try:
            trace = simulate_fetch(WorkloadSpec(n, (100,)), WAN, SERVER, d, jitter=jitter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trips = round_trips(n, f)
        assert len(trace.records) == trips
        assert peak < 112 * trips + 2**20


class TestStageBreakdown:
    """The execution_ms and retrieval_ms lines that `rowfetch simulate` prints."""

    def test_single_trip_is_execution_heavy(self, tmp_path, capsys):
        w = WorkloadSpec(5, (50, 4000, 8, 16))
        server = ServerSpec(hard_parse=300.0, soft_parse=3.0, per_record_search=0.05,
                            server_cache_size=100, disk_access_per_refill=12.0)
        summary = simulate_summary(tmp_path, capsys, w, NetworkSpec.uniform(1, 600.0, 150.0, 0.9),
                                   server, DRIVER)
        execution, retrieval = stages(summary)
        assert summary["trips"] == "1"
        assert execution > retrieval

    def test_many_trips_are_retrieval_heavy(self, tmp_path, capsys):
        execution, retrieval = stages(simulate_summary(tmp_path, capsys, WIDE, WAN, SERVER,
                                                       DRIVER))
        assert retrieval > 100 * execution

    def test_split_sums_to_total(self, tmp_path, capsys):
        summary = simulate_summary(tmp_path, capsys, WIDE, WAN, SERVER, DRIVER)
        execution, retrieval = stages(summary)
        assert execution + retrieval == pytest.approx(float(summary["total_elapsed_ms"]))

    def test_execution_is_first_trip_engine_share(self, tmp_path, capsys):
        first = simulate_fetch(WIDE, WAN, SERVER, DRIVER).trip_log[0]
        execution, _ = stages(simulate_summary(tmp_path, capsys, WIDE, WAN, SERVER, DRIVER))
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

    # 3e5 rows in 3e4 trips, and 1e5 rows each its own trip: the peak may
    # not grow with the trip count (1.52 and 1.505 MiB measured).
    @pytest.mark.parametrize("n,f", [(300_000, 10), (100_000, 1)])
    def test_write_memory_is_bounded_by_a_block(self, tmp_path, n, f):
        # A 3.7 or 2.4 MiB trace: the writer may hold a block of text and of
        # trip values at a time, never the whole file, every trip as Python
        # numbers, nor a trips-long array.
        w = WorkloadSpec(n, WIDE.field_byte_sizes)
        driver = replace(DRIVER, enforced_prefetch=f)
        trace = simulate_fetch(w, WAN, SERVER, driver, seed=1, jitter=0.1)
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "t.csv", tmp_path / "t_trips.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 < (tmp_path / "t.csv").stat().st_size


# Any integer is a valid run seed; the simulator reduces it to a Philox key.
seeds = st.integers(-2**140, 2**140)
jitters = st.floats(0.0, 1.0)
costs = st.floats(0.0, 100.0)


@st.composite
def scenarios(draw, prefetch=st.integers(1, 700), records=st.integers(0, 600),
              cache=st.integers(1, 300)):
    """(workload, net, server, driver) with every component exercised."""
    fields = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4))
    hops = draw(st.lists(st.builds(HopSpec, st.floats(50.0, 5000.0), costs,
                                   st.floats(0.5, 1.0)), max_size=3))
    server = ServerSpec(draw(costs), draw(costs), draw(st.floats(0.0, 0.2)),
                        draw(cache), draw(costs))
    driver = DriverSpec(enforced_prefetch=draw(prefetch),
                        per_field_conversion=draw(st.floats(0.0, 0.1)),
                        request_overhead=draw(costs))
    return WorkloadSpec(draw(records), fields), NetworkSpec(hops), server, driver


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

    @given(scenarios())
    def test_model_is_the_simulator_at_zero_jitter(self, scenario):
        # The drift guard: the closed-form constants reproduce every
        # jitter-free total, and both are exactly 0.0 for an empty set.
        workload, net, server, driver = scenario
        f = effective_prefetch(driver)
        for n in (workload.total_records, 0):
            w = WorkloadSpec(n, workload.field_byte_sizes)
            predicted = quantized_cost(FetchPlan(f, n), cost_constants(w, net, server, driver))
            simulated = simulate_fetch(w, net, server, driver).total_elapsed_ms
            assert predicted == pytest.approx(simulated, rel=1e-12, abs=0.0)
        assert predicted == simulated == 0.0

    @given(scenarios())
    def test_per_trip_constant_is_the_fixed_trip_costs(self, scenario):
        # The reference formula: a is what a trip pays whatever it moves.
        workload, net, server, driver = scenario
        a = driver.request_overhead + server.soft_parse + sum(h.base_latency for h in net.hops)
        k = cost_constants(workload, net, server, driver)
        assert repr(k.k1) == repr(k.k3) == repr(a)

    @settings(deadline=None)
    @given(scenarios(prefetch=st.integers(1, 1100) | st.integers(1, 2**53),
                     records=st.integers(0, 200_000), cache=st.integers(1, 1000)))
    def test_jitter_free_total_is_the_simulated_total(self, scenario):
        assert repr(jitter_free_total(*scenario)) == repr(simulate_fetch(*scenario)
                                                          .total_elapsed_ms)

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


class TestTripKinds:
    @settings(deadline=None)
    @given(scenarios(prefetch=st.integers(1, 700) | st.integers(1, 2**53),
                     records=st.integers(0, 3000), cache=st.integers(1, 1000)))
    def test_prices_every_trip_and_every_stage(self, scenario):
        # Both totals read _trip_kinds, so they agree even if a trip is
        # given the wrong kind; the reference walks every trip instead.
        workload, net, server, driver = scenario
        n, f = workload.total_records, effective_prefetch(driver)
        cache = min(server.server_cache_size, max(n, 1))

        def refills(served):  # disk refills behind the first served records
            return -(-served // cache)

        trips = [(min(f, n - f * (i - 1)), refills(min(f * i, n)) - refills(f * (i - 1)), i == 1)
                 for i in range(1, round_trips(n, f) + 1)]
        block = simulate_fetch(*scenario).components
        assert block.tolist() == [list(fetch_sim._price_trip(*trip, *scenario)) for trip in trips]
        # Each stage's sum over the trips is the kinds' exact count-weighted
        # sum, rounded once, as math.fsum rounds it.
        kinds = fetch_sim._trip_kinds(n, f, server.server_cache_size)
        prices = [fetch_sim._price_trip(*kind[:3], *scenario) for kind in kinds]
        for column, stage in zip(block.T.tolist(), zip(*prices), strict=True):
            ints, scale = dyadic_ints(stage)
            exact = sum(p * count for p, (*_, count) in zip(ints, kinds))
            assert math.fsum(column) == exact / scale

    @given(st.integers(0, 2**53), st.integers(1, 50) | st.integers(1, 2**53),
           st.integers(1, 50) | st.integers(1, 2**53))
    def test_counts_cover_the_fetch(self, n, f, cache):
        kinds = fetch_sim._trip_kinds(n, f, cache)
        assert [first for _, _, first, _ in kinds] == [True, False, False, False]
        assert min(count for *_, count in kinds) >= 0
        assert sum(count for *_, count in kinds) == round_trips(n, f)
        assert sum(records * count for records, _, _, count in kinds) == n
        assert (sum(refills * count for _, refills, _, count in kinds)
                == -(-n // min(cache, max(n, 1))))


def run_cli(*argv: str) -> str:
    """What cli.main(argv) prints, in-process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


class TestDrillDownChain:
    @settings(deadline=None)
    @given(scenarios(prefetch=st.integers(3, 100), records=st.integers(7, 600)))
    def test_commands_agree_on_a_jitter_free_fetch(self, scenario):
        # At jitter 0, f >= 3 puts the zero floor under most rows, and a
        # request overhead above 0 makes every trip after the execute call
        # a peak on its batch's first row, so the chain must close exactly.
        workload, net, server, driver = scenario
        f = effective_prefetch(driver)
        trips = round_trips(workload.total_records, f)
        assume(trips >= 3 and driver.request_overhead > 0)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_specs(Path(tmp), *scenario)
            trace, trip_log, sweep = (str(Path(tmp, name)) for name in ("t.csv", "t_trips.csv",
                                                                        "s.tsv"))
            summary = dict(line.split(": ", 1) for line in run_cli(
                "simulate", cfg, "--out-trace", trace, "--out-trips", trip_log).splitlines())
            report = json.loads(run_cli("analyze", trace))
            run_cli("sweep", cfg, "--mode", "sim", "--f-range", f"{f}:{f}", "--out", sweep)
            with open(trip_log, newline="") as fh:
                later_trips = list(csv.reader(fh))[2:]  # past the header and trip 1
            swept = Path(sweep).read_text().splitlines()[1].split("\t")
        assert (report["inferred_prefetch"], report["confidence"]) == (f, 1.0)
        # TripRecord.total_ms's order, then the exact mean rounded once.
        totals = [r + e + a + t + c for r, e, a, t, c in (map(float, row[2:])
                                                           for row in later_trips)]
        assert len(totals) == trips - 1
        assert report["avg_trip_time"] == float(sum(map(Fraction, totals)) / len(totals))
        assert swept[:2] == [str(f), summary["total_elapsed_ms"]]

    @settings(deadline=None)
    @given(scenarios(prefetch=st.integers(3, 100), records=st.integers(7, 600)))
    def test_fit_recovers_the_law_from_a_sweep(self, scenario):
        # Every swept size leaves a short last trip, so the elapsed time is
        # a * (n // f) + (a + C): k1 takes a and k3, the residual trip, a + C.
        workload, net, server, driver = scenario
        n = workload.total_records
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_specs(Path(tmp), *scenario)
            sweep, samples = str(Path(tmp, "s.tsv")), Path(tmp, "samples.csv")
            run_cli("sweep", cfg, "--mode", "sim", "--f-range", "1:40", "--out", sweep)
            rows = [line.split("\t")[:2] for line in Path(sweep).read_text().splitlines()[1:]]
            rows = [(f, ms) for f, ms in rows if n % int(f)]
            assert len(rows) >= 4
            samples.write_text(f"# N={n}\nf,elapsed_ms\n"
                               + "".join(f"{f},{ms}\n" for f, ms in rows))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["fit", str(samples)])
        assume(code != cli.EXIT_MODEL)  # a rank-deficient design is refused
        assert code == 0
        fitted = json.loads(out.getvalue())
        k = cost_constants(*scenario)
        a, whole = k.k1, k.k1 + k.floor
        assert fitted["k1"] == pytest.approx(a, rel=1e-9, abs=1e-12 * whole)  # a may be 0
        assert fitted["k3"] == pytest.approx(whole, rel=1e-9)
        assert max(fitted["k2"], fitted["k4"]) <= 1e-12 * whole

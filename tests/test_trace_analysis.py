"""Peak detection and prefetch inference on synthetic and simulated traces."""

from __future__ import annotations

import gzip
import io
import json
import math
import random
import socket
import statistics
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rowfetch import cli, trace_analysis
from rowfetch.core_model import (FieldError, InputError, WorkloadSpec, _number, _row_number,
                                 replace, round_trips)
from rowfetch.fetch_sim import (
    DriverSpec,
    NetworkSpec,
    ServerSpec,
    simulate_fetch,
    write_trace_csv,
)
from rowfetch.trace_analysis import (
    _BLOCK_ROWS,
    _TRACE_DTYPE,
    PeakReport,
    _above_threshold,
    _mean_and_std,
    _median,
    analyze_trace,
    avg_trip_time_from_trace,
    detect_peaks,
    infer_effective_prefetch,
    read_trace_samples,
)

DBL_MAX = sys.float_info.max
NET = NetworkSpec.uniform(2, 600.0, 150.0, 0.9)
SERVER = ServerSpec(hard_parse=40.0, soft_parse=3.0, per_record_search=0.05,
                    server_cache_size=100, disk_access_per_refill=12.0)
# Whitespace that str.strip, float() and np.loadtxt may each treat differently.
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028",
          "\u3000"]


def simulated_trace(n: int, f: int, seed: int = 0, jitter: float = 0.0):
    w = WorkloadSpec(n, (50, 4000, 8, 16))
    d = DriverSpec(enforced_prefetch=f, per_field_conversion=0.05, request_overhead=2.0)
    return simulate_fetch(w, NET, SERVER, d, seed=seed, jitter=jitter)


def synthetic(n: int, peak_rows: dict[int, float], floor: float = 0.0):
    return [(row, peak_rows.get(row, floor)) for row in range(1, n + 1)]


def reference_infer(peaks):
    """The sorted/Counter prefetch inference, in plain Python ints."""
    rows = sorted(peaks)
    gaps = tuple(b - a for a, b in zip(rows, rows[1:]))
    if len(rows) < 2:
        return PeakReport(tuple(rows), None, gaps, None, 0.0)
    counts = Counter(gaps)
    top = max(counts.values())
    modal = min(g for g, c in counts.items() if c == top)
    evidence = list(gaps) + [rows[0] - 1]
    confidence = sum(1 for g in evidence if g == modal) / len(evidence)
    return PeakReport(tuple(rows), modal, gaps, None, confidence)


def reference_threshold(scaled, median_ratio, sigma_k):
    """The peak threshold as taken when np.median made its own copy of scaled."""
    return max(median_ratio * np.median(scaled), scaled.mean() + sigma_k * scaled.std())


def reference_analyze(samples, median_ratio=10.0, sigma_k=3.0):
    """The per-row tuple algorithm, with exact statistics-module arithmetic."""
    values = [ms for _, ms in samples]
    if max(values) == min(values):
        peaks = []
    elif sum(1 for v in values if v == 0.0) > len(values) / 2:
        peaks = [row for row, ms in samples if ms > 0.0]
    else:
        threshold = max(median_ratio * statistics.median(values),
                        statistics.mean(values) + sigma_k * statistics.pstdev(values))
        peaks = [row for row, ms in samples if ms > threshold]
    report = reference_infer(peaks)
    wanted = set(peaks)
    peak_values = [ms for row, ms in samples if row in wanted]
    return replace(report, avg_trip_time=statistics.mean(peak_values) if peak_values else None)


def random_trace(rng: random.Random):
    """A seeded trace of one of four shapes: zero floor, noisy floor, flat, noise."""
    n = rng.randint(1, 400)
    period = rng.randint(2, 40)
    shape = rng.choice(("zero_floor", "noisy_floor", "flat", "noise"))
    samples = []
    for row in range(1, n + 1):
        if shape == "flat":
            ms = 3.25
        elif shape == "noise":
            ms = rng.lognormvariate(0.0, 1.5)
        elif row % period == 1 and row > 1 and rng.random() > 0.05:
            ms = rng.uniform(200.0, 600.0)
        elif shape == "zero_floor":
            ms = 0.0
        else:
            ms = rng.uniform(0.002, 0.02)
        samples.append((row, ms))
    return samples


class TestDetectPeaks:
    def test_zero_floor_trace(self):
        samples = synthetic(502, {row: 400.0 for row in range(11, 502, 10)})
        assert detect_peaks(samples) == list(range(11, 502, 10))

    def test_negative_zero_floor_takes_the_zero_floor_rule(self):
        # -0.0 == 0.0, so a floor of negative zeros is the cache-hit floor
        # too: every row that cost anything is a peak, however small.  The
        # statistical rule would keep only the two tall rows.
        samples = synthetic(30, {5: 0.001, 15: 500.0, 25: 500.0}, floor=-0.0)
        assert detect_peaks(samples) == [5, 15, 25]
        column = np.array([ms for _, ms in samples])
        assert np.flatnonzero(_above_threshold(column, 10.0, 3.0)).tolist() == [14, 24]

    def test_flat_trace_has_no_peaks(self):
        assert detect_peaks([(i, 250.0) for i in range(1, 100)]) == []

    def test_all_zero_trace_has_no_peaks(self):
        assert detect_peaks([(i, 0.0) for i in range(1, 100)]) == []

    def test_noisy_floor_with_tall_peaks(self):
        # No exact zeros: the median/stdev rule applies. Floor near 1 ms,
        # peaks hundreds of ms.
        floor = {row: 1.0 + 0.001 * (row % 7) for row in range(1, 101)}
        for row in (21, 41, 61, 81):
            floor[row] = 380.0 + row / 10
        samples = [(row, floor[row]) for row in range(1, 101)]
        assert detect_peaks(samples) == [21, 41, 61, 81]

    def test_median_guard_suppresses_tail_noise(self):
        # A peak-less floor with a skewed tail: the 1.5 ms rows clear
        # mean + 3 sigma (~1.25 ms) but not 10x the median, so they stay
        # unflagged.
        samples = [(row, 1.5 if row % 40 == 0 else 1.0) for row in range(1, 201)]
        assert detect_peaks(samples) == []

    def test_scale_invariance(self):
        base = synthetic(300, {row: 420.0 for row in range(21, 300, 20)})
        rows = detect_peaks(base)
        for factor in (0.001, 7.0, 1000.0):
            scaled = [(r, ms * factor) for r, ms in base]
            assert detect_peaks(scaled) == rows

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(0.5, 2.0)),
                    max_size=200),
           st.integers(-689, 690), st.floats(0.0, 100.0), st.floats(0.0, 10.0))
    @example([1.0e100, 1.0], 690, 10.0, 3.0)
    @example([0.0, 2.0e-27], -437, 0.0, 1.0)  # the squared deviations underflow
    def test_power_of_two_scaling_keeps_the_rows(self, values, k, median_ratio, sigma_k):
        # A power-of-two factor scales every statistic exactly while the
        # sums, squares and products stay normal floats.  Scaled values
        # stay normal for every k here, up to 2**690 * 1e100 near float64's
        # top and down to 2**-689 * 1e-100 near its bottom, but their
        # statistics may over- or underflow; then they are redone at an
        # exact other scale.  Either way the same rows must come back, bit
        # for bit and not just approximately.
        samples = list(enumerate(values, start=1))
        scaled = [(row, ms * 2.0**k) for row, ms in samples]
        knobs = {"median_ratio": median_ratio, "sigma_k": sigma_k}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detect_peaks(scaled, **knobs) == detect_peaks(samples, **knobs)

    def test_peaks_survive_scaling_to_float64s_top(self):
        # The mean's sum of this still finite trace overflows float64.
        values = [1000.0 if row in (37, 74) else 1.0 for row in range(1, 75)]
        top = [(row, ms * 2.0**1014) for row, ms in enumerate(values, start=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze_trace(top)
        assert report.peak_rows == (37, 74)
        assert report.inferred_prefetch == 37
        assert report.confidence == 0.5

    FINITE = st.floats(allow_nan=False, allow_infinity=False)
    VALUES = st.one_of(
        st.lists(FINITE | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                            2.2250738585072014e-308, DBL_MAX, -DBL_MAX]),
                 min_size=1, max_size=60),
        st.builds(lambda value, n: [value] * n, FINITE, st.integers(1, 9)))

    @example([5e-324, 1e-320, -5e-324, 0.0], 10.0, 3.0)  # subnormals only
    @example([DBL_MAX, -DBL_MAX, 1.0], 1.0, 0.0)
    @example([-7.5] * 5, 1.0, 0.0)  # all equal
    @example([5.9, 1.3, 9.2, 4.7], 0.0, 3.0)  # sorted first, the stdev sums round differently
    @given(VALUES,
           st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 100.0),
           st.sampled_from([0.0, 3.0]) | st.floats(0.0, 10.0))
    def test_threshold_matches_the_copying_formula(self, values, median_ratio, sigma_k):
        # The statistics are taken block by block in one reused buffer, not
        # in a scaled copy of the column.  The mask must be the copying
        # formula's, and the caller's column untouched.
        samples = np.column_stack((np.arange(1.0, len(values) + 1), values))
        before = samples.tobytes()
        column = samples[:, 1]
        scaled = np.ldexp(column, -np.frexp(max(column.max(), -column.min()))[1])
        expected = reference_threshold(scaled, median_ratio, sigma_k)
        assert np.array_equal(_above_threshold(column, median_ratio, sigma_k), scaled > expected)
        assert samples.tobytes() == before

    @example([5e-324, 1e-320, -5e-324, 0.0], 10.0, 3.0, 1)  # subnormals only
    @example([DBL_MAX, -DBL_MAX, 1.0], 1.0, 0.0, 2)
    @example([5.9, 1.3, 9.2, 4.7, 0.5], 0.0, 3.0, 2)
    @given(VALUES,
           st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 100.0),
           st.sampled_from([0.0, 3.0]) | st.floats(0.0, 10.0),
           st.integers(1, 40))
    def test_threshold_sums_per_block(self, values, median_ratio, sigma_k, block):
        # With blocks of 1..40 rows, the mean and stdev are the block sums
        # added by math.fsum, and the median is still np.median's.
        samples = np.column_stack((np.arange(1.0, len(values) + 1), values))
        before = samples.tobytes()
        column = samples[:, 1]
        scaled = np.ldexp(column, -np.frexp(max(column.max(), -column.min()))[1])
        blocks = [scaled[lo:lo + block] for lo in range(0, len(scaled), block)]
        mean = math.fsum(np.add.reduce(b) for b in blocks) / len(scaled)
        std = math.sqrt(math.fsum(np.add.reduce(np.square(b - mean)) for b in blocks)
                        / len(scaled))
        expected = max(median_ratio * np.median(scaled), mean + sigma_k * std)
        with mock.patch.object(trace_analysis, "_BLOCK_ROWS", block):
            mask = _above_threshold(column, median_ratio, sigma_k)
        assert np.array_equal(mask, scaled > expected)
        assert samples.tobytes() == before

    @example([5e-324, 1e-320, -5e-324, 0.0])  # subnormals only
    @example([DBL_MAX, -DBL_MAX, 1.0])
    @example([-DBL_MAX, 2.5, -1e-300])  # mixed signs
    @example([-7.5] * 5)  # all equal
    @given(VALUES)
    def test_one_blocks_mean_and_stdev_are_numpys_bit_for_bit(self, values):
        column = np.array(values)
        exponent = -np.frexp(max(column.max(), -column.min()))[1]
        scaled = np.ldexp(column, exponent)
        mean, std = _mean_and_std(column, exponent, np.empty(len(column)))
        assert (mean.hex(), std.hex()) == (float(scaled.mean()).hex(), float(scaled.std()).hex())

    @example([7.25], _BLOCK_ROWS)  # n = 1
    @example([DBL_MAX, DBL_MAX], 1)  # n = 2, and the middle values' sum overflows
    @example([5e-324, 1e-320, -5e-324], 2)  # subnormals only
    @example([-DBL_MAX, DBL_MAX, 0.0, -0.0], 1)
    @example([0.0, -0.0, -0.0, 0.0, 0.0], 2)  # which zero lands in the middle
    @example([0.0, -0.0, -0.0, 0.0, 0.0], _BLOCK_ROWS)
    @given(VALUES, st.integers(1, 40) | st.just(_BLOCK_ROWS))
    def test_radix_median_is_numpys_bit_for_bit(self, values, block):
        # Blocks of 1..40 rows run the multi-block collection, the middle
        # ranks in two buckets, and the refinement of a bucket by its next bits.
        with np.errstate(over="ignore"), mock.patch.object(trace_analysis, "_BLOCK_ROWS", block):
            expected = np.median(values)
            got = _median(np.array(values), 0, np.empty(block))
        assert float(got).hex() == float(expected).hex()

    @pytest.mark.parametrize("shape", ["measured", "ties"])
    def test_statistical_rule_memory_is_bounded(self, shape):
        # 1e6 rows: the rule's one n-length allocation is its 1-byte mask,
        # beside buffers of _BLOCK_ROWS values.  The peak rows returned, as
        # an int64 array and then a list of ints, come on top.
        rows = np.arange(1.0, 1_000_001)
        if shape == "measured":  # a positive floor and a trip row every 37, as measured
            values = np.where(rows % 37 == 0, 400.0, 0.002 + rows % 1000 * 1.8e-5)
        else:  # keys alike in their top 48 bits, so every 16-bit level is refined
            values = 1.0 + rows % 65536 * 2.0**-52
        samples = np.column_stack((rows, values))
        tracemalloc.start()
        try:
            peaks = detect_peaks(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks == (list(range(37, 1_000_001, 37)) if shape == "measured" else [])
        rows = 8 * len(peaks) + sys.getsizeof(peaks) + sum(map(sys.getsizeof, peaks))
        assert peak < 2 * 2**20 + rows

    def test_threshold_knobs_are_live(self):
        # One modest bump over a noisy floor: invisible at the default
        # ratio, found when both knobs are relaxed.
        samples = [(row, 10.0 + (row % 3)) for row in range(1, 50)]
        samples[24] = (25, 40.0)
        assert detect_peaks(samples) == []
        assert detect_peaks(samples, median_ratio=3.0, sigma_k=2.0) == [25]

    def test_empty_trace_has_no_peaks(self):
        assert detect_peaks([]) == []

    @pytest.mark.parametrize("knob", ["median_ratio", "sigma_k"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_knobs_must_be_finite_and_nonnegative(self, knob, value):
        with pytest.raises(FieldError) as exc:
            detect_peaks(synthetic(50, {11: 400.0}), **{knob: value})
        assert exc.value.field == knob


class CountedPairs(Sequence):
    """(row_index, elapsed_ms) pairs that count how often they are read whole."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.reads = 0

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, index):
        return self.pairs[index]

    def __iter__(self):
        self.reads += 1
        return iter(self.pairs)


class TestTraceRule:
    """In-memory traces obey the reader's rule: rows 1..n, finite elapsed_ms."""

    def test_analyze_trace_converts_a_sequence_once(self):
        pairs = CountedPairs(synthetic(502, {row: 400.0 for row in range(11, 503, 10)}))
        report = analyze_trace(pairs)
        assert (report.inferred_prefetch, report.avg_trip_time) == (10, 400.0)
        assert pairs.reads == 1

    @staticmethod
    def count_checks(monkeypatch) -> list[tuple[int, int]]:
        """The (rows, ms) column lengths of every trace-rule check from now on."""
        checks = []
        check = trace_analysis._check_trace_rule

        def counted(rows, ms):
            checks.append((len(rows), len(ms)))
            check(rows, ms)

        monkeypatch.setattr(trace_analysis, "_check_trace_rule", counted)
        return checks

    def test_analyze_trace_checks_the_rule_once(self, monkeypatch):
        checks = self.count_checks(monkeypatch)
        samples = np.array(synthetic(502, {row: 400.0 for row in range(11, 503, 10)}))
        assert analyze_trace(samples).inferred_prefetch == 10
        assert checks == [(502, 502)]
        # Called alone, each step checks its trace itself.
        detect_peaks(samples)
        avg_trip_time_from_trace(samples, [11])
        assert checks == [(502, 502)] * 3

    def test_reader_checks_the_rule_once(self, tmp_path, monkeypatch):
        # Three blocks of rows, all checked by one call on the parsed table.
        n = 2 * _BLOCK_ROWS + 1
        trace = simulated_trace(n, 10)
        write_trace_csv(trace, tmp_path / "trace.csv", tmp_path / "trips.csv")
        checks = self.count_checks(monkeypatch)
        assert np.array_equal(read_trace_samples(tmp_path / "trace.csv"), trace.samples)
        assert checks == [(n, n)]

    @pytest.mark.parametrize("samples", [
        [(1, 0.0), (3, 400.0), (4, 0.0)],
        [(1, 0.0), (2, 400.0), (2, 400.0), (3, 0.0)],
        [(2, 400.0), (1, 0.0), (3, 0.0)],
        [(0, 0.0), (1, 400.0), (2, 0.0)],
        [(1, 0.0), (2, float("nan")), (3, 0.0)],
        [(1, 0.0), (2, float("inf")), (3, 0.0)],
        [1, 0.0, 2, 5.0, 3, 0.0],
        [(1, 0.0, 2, 5.0), (3, 0.0, 4, 5.0)],
    ], ids=["gap", "duplicate", "unsorted", "first_row_0", "nan", "inf", "flat",
            "four_columns"])
    def test_broken_trace_raises(self, samples):
        for given in (samples, np.array(samples)):
            with pytest.raises(ValueError):
                analyze_trace(given)
            with pytest.raises(ValueError):
                detect_peaks(given)
            with pytest.raises(ValueError):
                avg_trip_time_from_trace(given, [2])

    def test_empty_trace_is_inconclusive(self):
        for given in ([], np.empty((0, 2))):
            assert analyze_trace(given) == PeakReport((), None, (), None, 0.0)

    def test_peaks_outside_the_trace_are_ignored(self):
        samples = synthetic(30, {11: 400.0, 21: 410.0})
        assert avg_trip_time_from_trace(samples, [0, 11, 21, 21, 31, -4]) == 405.0
        assert avg_trip_time_from_trace(samples, [31, 0]) is None

    def test_avg_trip_time_memory_is_positional(self):
        # 1e6 rows (16 MB) and 1e5 peaks: the rule check and a gather of
        # the peak values, no per-row search index.
        rows = np.arange(1, 1_000_001, dtype=np.float64)
        samples = np.column_stack((rows, np.where(rows % 10 == 1, 457.25, 0.0)))
        peaks = list(range(11, 1_000_001, 10))
        tracemalloc.start()
        try:
            avg = avg_trip_time_from_trace(samples, peaks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert avg == 457.25
        assert peak < 12 * 2**20


class TestTraceRuleAtBlockEdges:
    """The trace rule is checked _BLOCK_ROWS rows at a time; no fault hides at a block edge."""

    B = _BLOCK_ROWS
    # (n, position of the bad row): the last row of a lone partial block,
    # the last row of a full block, and the first row of a second, partial block.
    CASES = [(B - 1, B - 2), (B, B - 1), (B + 1, B - 1), (B + 1, B)]

    @staticmethod
    def trace(n: int) -> np.ndarray:
        rows = np.arange(1.0, n + 1)
        return np.column_stack((rows, np.where(rows % 10 == 0, 400.0, 0.0)))

    @pytest.mark.parametrize("n", [B - 1, B, B + 1])
    def test_intact_trace_passes(self, n):
        samples = self.trace(n)
        assert detect_peaks(samples) == list(range(10, n + 1, 10))
        assert avg_trip_time_from_trace(samples, [10]) == 400.0

    @pytest.mark.parametrize("n, bad", CASES)
    @pytest.mark.parametrize("fault", ["row_index", "nan", "inf"])
    def test_fault_is_found(self, tmp_path, n, bad, fault):
        samples = self.trace(n)
        if fault == "row_index":
            samples[bad, 0] += 1
        else:
            samples[bad, 1] = float(fault)
        with pytest.raises(ValueError):
            detect_peaks(samples)
        with pytest.raises(ValueError):
            avg_trip_time_from_trace(samples, [10])
        path = tmp_path / "trace.csv"
        path.write_text("row_index,elapsed_ms\n"
                        + "".join(f"{row:.0f},{ms!r}\n" for row, ms in samples.tolist()))
        with pytest.raises(InputError, match=f"trace.csv:{bad + 2}: "):
            read_trace_samples(path)


class TestMatchesTupleReference:
    KNOBS = ({}, {"median_ratio": 3.0, "sigma_k": 2.0}, {"median_ratio": 1.5, "sigma_k": 0.5})

    def test_random_traces(self):
        rng = random.Random(2012)
        shapes = set()
        for case in range(200):
            samples = random_trace(rng)
            knobs = self.KNOBS[case % len(self.KNOBS)]
            expected = reference_analyze(samples, **knobs)
            for given in (samples, np.array(samples)):
                report = analyze_trace(given, **knobs)
                assert report == expected, (case, knobs)
                assert all(type(row) is int for row in report.peak_rows)
            zeros = sum(1 for _, ms in samples if ms == 0.0)
            shapes.add("flat" if len({ms for _, ms in samples}) == 1
                       else "zero_floor" if zeros > len(samples) / 2 else "statistical")
        assert shapes == {"flat", "zero_floor", "statistical"}


class TestInferEffectivePrefetch:
    def test_regular_spacing_full_confidence(self):
        report = infer_effective_prefetch([11, 21, 31, 41])
        assert report.inferred_prefetch == 10
        assert report.confidence == 1.0
        assert report.inter_peak_gaps == (10, 10, 10)

    def test_spacing_of_twenty(self):
        report = infer_effective_prefetch([21, 41, 61])
        assert report.inferred_prefetch == 20
        assert report.confidence == 1.0

    def test_ambiguous_gaps_tie_break_smallest(self):
        # Gaps (10, 9, 11) have no repeated value; the tie breaks toward
        # the smallest candidate, and only 1 of the 4 evidence items
        # (three gaps plus the first-peak offset of 10) agrees with it.
        report = infer_effective_prefetch([11, 21, 30, 41])
        assert report.inferred_prefetch == 9
        assert report.confidence == pytest.approx(0.25)

    def test_first_peak_offset_counts_as_evidence(self):
        # Same gaps, shifted start: peaks at 31, 41, 51 say f=10 but the
        # first peak sits 30 rows in, so one of three evidence items
        # disagrees.
        report = infer_effective_prefetch([31, 41, 51])
        assert report.inferred_prefetch == 10
        assert report.confidence == pytest.approx(2 / 3)

    def test_single_peak_is_inconclusive(self):
        report = infer_effective_prefetch([11])
        assert report.inferred_prefetch is None
        assert report.confidence == 0.0
        assert report.peak_rows == (11,)

    def test_no_peaks_is_inconclusive(self):
        report = infer_effective_prefetch([])
        assert report.inferred_prefetch is None
        assert report.confidence == 0.0

    def test_peak_rows_reuse_the_callers_ints(self):
        # Rows above the small-int cache, so each is its own object.
        peaks = [10**6 + 1, 10**6 + 11, 10**6 + 21]
        report = infer_effective_prefetch(reversed(peaks))
        assert all(row is peak for row, peak in zip(report.peak_rows, peaks))
        # Anything else np.int64 accepts still comes back as plain ints.
        for given in (np.array(peaks), [True, np.int64(5), 9.7]):
            rows = infer_effective_prefetch(given).peak_rows
            assert rows == tuple(np.array(given, dtype=np.int64).tolist())
            assert all(type(row) is int for row in rows)

    @pytest.mark.parametrize("peaks, error", [
        ([np.array([5])], ValueError),  # int() alone would raise TypeError, or accept it
        ([float("nan")], ValueError),
        ([float("inf")], OverflowError),
        ([2**63], OverflowError),
        ([None], TypeError),
    ])
    def test_rejects_what_int64_rejects(self, peaks, error):
        with pytest.raises(error):
            np.fromiter(peaks, dtype=np.int64)
        with pytest.raises(error):
            infer_effective_prefetch(peaks)

    @example([])
    @example([7])
    @example([1, 10**15])  # one gap far too wide to count with a dense array
    @example([11, 21, 30, 41])  # three gaps tied at one each
    @example([5, 5, 5, 9, 13])  # duplicate rows: the zero gap is modal
    @example([-30, -20, -10, 0, 7])
    @given(st.one_of(st.lists(st.integers(-40, 120), max_size=40),
                     st.lists(st.integers(-10**12, 10**12), max_size=12),
                     st.lists(st.sampled_from([1, 11, 21, 31, 41, 46, 51]), max_size=12)))
    def test_matches_counter_reference(self, peaks):
        report = infer_effective_prefetch(peaks)
        expected = reference_infer(peaks)
        assert report == expected
        assert report.confidence.hex() == expected.confidence.hex()
        assert all(type(v) is int for v in report.peak_rows + report.inter_peak_gaps)
        assert type(report.inferred_prefetch) is (int if len(peaks) > 1 else type(None))
        assert type(report.confidence) is float


class TestAvgTripTime:
    def test_mean_over_peaks_only(self):
        samples = synthetic(50, {11: 400.0, 21: 410.0, 31: 390.0})
        assert avg_trip_time_from_trace(samples, [11, 21, 31]) == pytest.approx(400.0)

    def test_no_peaks_gives_none(self):
        assert avg_trip_time_from_trace(synthetic(10, {}), []) is None

    @example([DBL_MAX] * 3)  # the sum overflows float64; the mean does not
    @example([DBL_MAX, -DBL_MAX, 5e-324, -0.0])
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([0.0, -0.0, 5e-324, -5e-324, DBL_MAX, -DBL_MAX]),
                              st.floats(1e307, DBL_MAX)),
                    min_size=1, max_size=60))
    def test_mean_is_statistics_mean_bit_for_bit(self, values):
        samples = list(enumerate(values, start=1))
        got = avg_trip_time_from_trace(samples, range(1, len(values) + 1))
        assert got.hex() == statistics.mean(values).hex()


class TestOnSimulatedTraces:
    def test_baseline_shape_inferred_exactly(self):
        trace = simulated_trace(502, 10)
        report = analyze_trace(trace.samples)
        assert report.peak_rows == tuple(range(11, 502, 10))
        assert report.inferred_prefetch == 10
        assert report.confidence == 1.0
        assert report.avg_trip_time == pytest.approx(
            sum(t.total_ms for t in trace.trip_log[1:]) / 50)

    def test_peak_count_closes_round_trip_arithmetic(self):
        for n, f in [(502, 10), (502, 251), (100, 7), (30, 30), (65, 64)]:
            trace = simulated_trace(n, f)
            peaks = detect_peaks(trace.samples)
            assert len(peaks) + 1 == round_trips(n, f)

    def test_inference_recovers_f_across_sizes(self):
        # Needs at least three trips (two peaks); below that the
        # inference contract reports absent.
        for f in range(2, 51):
            for n in (2 * f + 1, 2 * f + 2, 5 * f, 7 * f + 3, 20 * f):
                report = analyze_trace(simulated_trace(n, f).samples)
                assert report.inferred_prefetch == f, (n, f)

    def test_two_trips_make_one_peak_and_no_inference(self):
        report = analyze_trace(simulated_trace(15, 10).samples)
        assert report.peak_rows == (11,)
        assert report.inferred_prefetch is None
        assert report.confidence == 0.0

    def test_robust_to_heavy_jitter(self):
        for seed in (1, 7, 1234):
            trace = simulated_trace(502, 10, seed=seed, jitter=0.3)
            report = analyze_trace(trace.samples)
            assert report.inferred_prefetch == 10
            assert report.confidence == 1.0

    def test_sub_batch_tail_does_not_shift_peaks(self):
        trace = simulated_trace(95, 30)  # trips of 30,30,30,5
        report = analyze_trace(trace.samples)
        assert report.peak_rows == (31, 61, 91)
        assert report.inferred_prefetch == 30

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_analysis_memory_is_o_peaks(self, n):
        # A zero floor: the 1-byte mask per row and 64 B per peak (47 measured)
        # over 0.6 MiB of blocks.  The peak was 0.63 MiB at 2,703 peaks and
        # 0.93 MiB at 10,811.
        samples = simulated_trace(n, 37).samples
        tracemalloc.start()
        try:
            report = analyze_trace(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.inferred_prefetch == 37
        assert peak < n + 64 * len(report.peak_rows) + 0.6 * 2**20


class TestTraceCsvReader:
    @given(st.sampled_from([(0, 10), (7, 10), (37, 1), (5, 1000), (500, 10), (9000, 8200)]),
           st.sampled_from([0.0, 0.3]), st.integers(0, 2**64))
    def test_round_trip_through_file(self, shape, jitter, seed):
        # n = 0, n < f, f = 1, f > n, and a trip whose zero rows span two
        # writer blocks: the written file reads back as trace.samples.
        trace = simulated_trace(*shape, seed=seed, jitter=jitter)
        with tempfile.TemporaryDirectory() as tmp:
            samples_path = Path(tmp) / "trace.csv"
            write_trace_csv(trace, samples_path, Path(tmp) / "trips.csv")
            loaded = read_trace_samples(samples_path)
        assert trace.samples.dtype == loaded.dtype == np.float64
        assert np.array_equal(loaded, trace.samples)

    @pytest.mark.parametrize("edit", [
        lambda text: text,
        lambda text: text.replace(b"\r\n", b"\n"),
        lambda text: text.replace(b"\r\n", b"\r\n\r\n"),
        lambda text: text.replace(b"\r\n", b"\n\n", 5),
        lambda text: text.removesuffix(b"\r\n"),
        lambda text: text.replace(b"\r\n", b"\n").removesuffix(b"\n"),
    ], ids=["crlf", "lf", "blank_lines", "blank_lines_lf", "no_final_crlf", "no_final_lf"])
    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    def test_line_ends_and_path_type_do_not_change_the_array(self, tmp_path, edit, as_path):
        trace = simulated_trace(500, 10, seed=5, jitter=0.3)
        written = tmp_path / "trace.csv"
        write_trace_csv(trace, written, tmp_path / "trips.csv")
        edited = tmp_path / "edited.csv"
        edited.write_bytes(edit(written.read_bytes()))
        assert np.array_equal(read_trace_samples(as_path(edited)), trace.samples)

    def test_gzip_trace_fails_at_the_header(self, tmp_path):
        trace = simulated_trace(50, 10)
        plain = tmp_path / "trace.csv"
        write_trace_csv(trace, plain, tmp_path / "trips.csv")
        path = tmp_path / "trace.csv.gz"
        path.write_bytes(gzip.compress(plain.read_bytes()))
        with pytest.raises(InputError, match="expected header"):
            read_trace_samples(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_is_refused(self, tmp_path, suffix):
        # numpy would open it as a compressed file; the name is refused instead.
        path = tmp_path / f"trace.csv{suffix}"
        path.write_text("row_index,elapsed_ms\n1,0.5\n")
        with pytest.raises(InputError, match=f"named \\*\\{suffix}"):
            read_trace_samples(path)

    def test_url_like_path_is_a_missing_file(self, monkeypatch):
        def no_connection(*args, **kwargs):
            raise AssertionError("the reader opened a socket")

        monkeypatch.setattr(socket.socket, "connect", no_connection)
        monkeypatch.setattr(socket, "create_connection", no_connection)
        with pytest.raises(FileNotFoundError):
            read_trace_samples("http://127.0.0.1:9/t.csv")

    def test_accepts_external_csv(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text("row_index,elapsed_ms\n1,0.5\n2,0.4\n3,350.0\n")
        assert read_trace_samples(path).tolist() == [[1, 0.5], [2, 0.4], [3, 350.0]]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("row,ms\n1,2\n")
        with pytest.raises(InputError):
            read_trace_samples(path)

    @example([], "\n", True)  # header only
    @example([], "\r\n", False)  # header only, without a line end
    @example([0.5], "\r", False)  # one row
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
           st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"]), st.booleans())
    def test_array_is_the_float64_parse(self, values, end, final_end):
        # Parsed as int64 and converted in place, the rows must read to the
        # very array a float64 parse of the file gives.
        text = end.join(["row_index,elapsed_ms"]
                        + [f"{row},{ms!r}" for row, ms in enumerate(values, start=1)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_bytes((text + end * final_end).encode())
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                expected = np.loadtxt(path, skiprows=1, encoding="utf-8", delimiter=",",
                                      dtype=np.float64, comments=None, ndmin=2)
            samples = read_trace_samples(path)
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert samples.shape == (len(values), 2)
        assert samples.tobytes() == expected.tobytes()

    def test_header_only_trace_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("row_index,elapsed_ms\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_trace_samples(path).shape == (0, 2)

    # 200,000 rows as (int, float) tuples take over 20 MB; as two float64
    # columns they take 3.2 MB, and reading or analyzing them holds that
    # array plus fixed-size blocks and O(peaks) data.
    BIG_ROWS = 200_000
    MEMORY_BOUND = 1.5 * BIG_ROWS * 16

    @staticmethod
    def write_big_trace(path, rows):
        with open(path, "w") as fh:
            fh.write("row_index,elapsed_ms\n")
            fh.writelines(f"{row},{0.0 if row % 37 != 1 else 457.1234567891234!r}\n"
                          for row in range(1, rows + 1))
        return path

    @pytest.fixture
    def big_trace(self, tmp_path):
        return self.write_big_trace(tmp_path / "big.csv", self.BIG_ROWS)

    @pytest.mark.parametrize("rows", [BIG_ROWS, 2 * BIG_ROWS])
    def test_reader_memory_is_columnar(self, tmp_path, rows):
        # 24 B per row at each size, so the rate is checked, not one total:
        # the peak was 3.89 MiB at 2e5 rows and 7.56 MiB at 4e5 rows.
        path = self.write_big_trace(tmp_path / "big.csv", rows)
        tracemalloc.start()
        try:
            samples = read_trace_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * 16
        assert samples.shape == (rows, 2)

    def test_analyze_memory_is_the_reader_array(self, big_trace, capsys):
        tracemalloc.start()
        try:
            assert cli.main(["analyze", str(big_trace)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.MEMORY_BOUND
        report = json.loads(capsys.readouterr().out)
        assert report["inferred_prefetch"] == 37
        assert report["peak_rows"] == list(range(1, self.BIG_ROWS + 1, 37))

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("row_index,elapsed_ms\n1,abc\n")
        with pytest.raises(InputError):
            read_trace_samples(path)

    @given(st.text(st.sampled_from(list("0123456789\u0661.eE+-_infaxNI\x00") + SPACES), max_size=10)
           | st.builds(lambda before, value, after: before + repr(value) + after,
                       st.sampled_from(SPACES), st.floats(), st.sampled_from(SPACES)))
    def test_fallback_parser_agrees_with_numpy(self, field):
        # _first_bad_line re-reads a failed trace with _number, so it must
        # accept exactly the fields np.loadtxt accepts, with the same value.
        try:
            expected = np.loadtxt(io.StringIO(f"1,{field}\n"), delimiter=",", comments=None,
                                  dtype=np.float64, ndmin=2)[0, 1]
        except ValueError:
            expected = None
        try:
            value = _number(field)
        except ValueError:
            value = None
        if expected is None or value is None:
            assert value is None and expected is None
        else:
            assert value == expected or math.isnan(value) and math.isnan(expected)

    @example("1.0")
    @example("1e0")
    @example("1_0")
    @example(str(2**63 - 1))
    @example(str(2**63))
    @given(st.text(st.sampled_from(list("0123456789\u0661.eE+-_infaxNI\x00") + SPACES), max_size=10)
           | st.builds(lambda before, value, after: before + str(value) + after,
                       st.sampled_from(SPACES), st.integers(-2**64, 2**64) | st.integers(),
                       st.sampled_from(SPACES)))
    def test_row_field_parser_agrees_with_numpy(self, field):
        # _first_bad_line re-reads a failed trace with _row_number, so it
        # must accept exactly the row fields the reader's int64 parse
        # accepts, with the same value; the float fallback of older numpy
        # is a bad row to the reader.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                expected = np.loadtxt(io.StringIO(f"{field},0.5\n"), delimiter=",",
                                      comments=None, dtype=_TRACE_DTYPE, ndmin=1)["row"][0]
        except (ValueError, DeprecationWarning):
            expected = None
        try:
            value = _row_number(field)
        except ValueError:
            value = None
        assert value == expected

"""Cost-model arithmetic against brute-force oracles and hand expansions."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rowfetch.config import RunConfig
from rowfetch.core_model import (
    CostConstants,
    CurvePoint,
    FetchPlan,
    FieldError,
    Record,
    SlopeRow,
    WorkloadSpec,
    dyadic_ints,
    quantized_cost,
    replace,
    round_trips,
    slope_table,
    sweep_curve,
    trip_decrease_per_unit_f,
)
from rowfetch.fetch_sim import (DriverSpec, HopSpec, LatencyTrace, NetworkSpec, ServerSpec,
                                simulate_fetch)
from rowfetch.model_fit import FitResult, FitSample
from rowfetch.trace_analysis import PeakReport
from rowfetch.tuner import MemoryBudget, Recommendation


def consume_in_batches(n: int, f: int) -> int:
    """Independent trip counter: actually hand out rows batch by batch."""
    trips = 0
    left = n
    while left > 0:
        left -= min(f, left)
        trips += 1
    return trips


class TestRoundTrips:
    @pytest.mark.parametrize("n,f,expected", [
        (502, 10, 51),
        (502, 251, 2),
        (502, 168, 3),
        (0, 10, 0),
        (5, 10, 1),
        (1, 1, 1),
        (500, 10, 50),
    ])
    def test_known_counts(self, n, f, expected):
        assert round_trips(n, f) == expected

    def test_matches_batch_consumption_oracle(self):
        for n in range(0, 260):
            for f in range(1, n + 3):
                assert round_trips(n, f) == consume_in_batches(n, f)

    def test_covers_all_records(self):
        for n in range(1, 400, 7):
            for f in range(1, n + 2):
                assert round_trips(n, f) * f >= n

    def test_monotone_non_increasing_in_f(self):
        for n in (1, 37, 502, 1999):
            trips = [round_trips(n, f) for f in range(1, n + 2)]
            assert all(a >= b for a, b in zip(trips, trips[1:]))

    def test_rejects_zero_prefetch(self):
        with pytest.raises(ValueError):
            round_trips(502, 0)
        with pytest.raises(ValueError):
            round_trips(10, -1)

    def test_rejects_negative_records(self):
        with pytest.raises(ValueError):
            round_trips(-1, 10)


class TestQuantizedCost:
    def test_single_trip_costs_one_k1(self):
        k = CostConstants(1.0, 0.0, 0.0, 0.0)
        assert quantized_cost(FetchPlan(502, 502), k) == 1.0

    def test_fifty_full_trips(self):
        # 502 records at f=10: 50 full batches are charged k1, the
        # 2-record leftover trip falls under k3/k4 (both zero here).
        k = CostConstants(274.5, 0.0, 0.0, 0.0)
        assert quantized_cost(FetchPlan(10, 502), k) == pytest.approx(50 * 274.5)

    def test_all_four_terms_by_hand(self):
        # 10 records, batches of 3: 3 full trips + residual of 1.
        k = CostConstants(10.0, 1.0, 5.0, 2.0)
        expected = 10.0 * 3 + 1.0 * 3 + 5.0 + 2.0 * 1
        assert quantized_cost(FetchPlan(3, 10), k) == expected == 40.0

    @pytest.mark.parametrize("k", [CostConstants(10.0, 1.0, 5.0, 2.0),
                                   CostConstants(10.0, 1.0, 5.0, 2.0, floor=300.0)])
    def test_empty_result_set_costs_nothing(self, k):
        assert quantized_cost(FetchPlan(7, 0), k) == 0.0

    def test_trip_term_equals_k1_times_trips_when_f_divides_n(self):
        for n, f in [(500, 10), (502, 251), (168, 168), (400, 8)]:
            assert n % f == 0
            k = CostConstants(31.25, 0.0, 0.0, 0.0)
            assert quantized_cost(FetchPlan(f, n), k) == 31.25 * round_trips(n, f)

    @pytest.mark.parametrize("floor", [0.0, 300.0])
    def test_charging_residual_like_full_gives_k1_times_ceil(self, floor):
        # With the residual trip priced at k1 as well, the total is the
        # batch-consumption trip count times k1, above the floor, for any n, f.
        k1 = 17.5
        k = CostConstants(k1, 0.0, k1, 0.0, floor)
        for n in range(1, 120):
            for f in range(1, n + 2):
                assert quantized_cost(FetchPlan(f, n), k) == pytest.approx(
                    k1 * consume_in_batches(n, f) + floor)

    def test_residual_terms_only_fire_on_leftover(self):
        k = CostConstants(0.0, 0.0, 7.0, 3.0)
        assert quantized_cost(FetchPlan(10, 500), k) == 0.0
        assert quantized_cost(FetchPlan(10, 502), k) == 7.0 + 3.0 * 2

    def test_overflowing_total_is_an_error_not_inf(self):
        k = CostConstants(1e307, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="overflows"):
            quantized_cost(FetchPlan(10, 502), k)
        with pytest.raises(ValueError, match="overflows"):
            sweep_curve(502, 10, 10, k, mode="reciprocal")
        with pytest.raises(ValueError, match="overflows"):  # a finite curve, but not with its floor
            sweep_curve(502, 1, 1, CostConstants(1e305, 0.0, 0.0, 0.0, floor=1.7e308),
                        mode="reciprocal")


def reciprocal(n: int, f: int, k1: float) -> float:
    """sweep_curve's reciprocal-mode elapsed at the one size f, with no floor."""
    [point] = sweep_curve(n, f, f, CostConstants(k1, 0.0, 0.0, 0.0), mode="reciprocal")
    assert point.prefetch_size == f
    return point.elapsed


class TestReciprocalCost:
    """sweep_curve's reciprocal mode: the k1 * n / f hyperbola."""

    def test_hyperbola_values(self):
        assert reciprocal(502, 10, 200.0) == pytest.approx(10040.0)
        assert reciprocal(502, 502, 200.0) == pytest.approx(200.0)
        assert reciprocal(502, 251, 200.0) == pytest.approx(400.0)

    def test_asymptote_vanishes(self):
        for n in (1, 502, 2000):
            assert reciprocal(n, 10**6 * n, 200.0) < 200.0 * 1e-5 * n

    def test_rejects_zero_prefetch(self):
        with pytest.raises(ValueError):
            reciprocal(502, 0, 200.0)

    def test_rejects_negative_record_count(self):
        with pytest.raises(ValueError, match="record count must be >= 0"):
            reciprocal(-1, 1, 1.0)


class TestTripDecrease:
    @pytest.mark.parametrize("f,expected", [(1, 251), (10, 5), (100, 1), (200, 0)])
    def test_reference_decreases(self, f, expected):
        assert trip_decrease_per_unit_f(502, f) == expected

    def test_never_negative(self):
        for n in (1, 10, 502, 777):
            for f in range(1, n + 5):
                assert trip_decrease_per_unit_f(n, f) >= 0


class TestSlopeTable:
    def test_reference_rows(self):
        rows = slope_table(502, [1, 10, 100, 168, 200], 400.0)
        got = [(r.prefetch_size, r.trips, r.trips_after_increment,
                r.trip_decrease, r.slope_ms) for r in rows]
        assert got == [
            (1, 502, 251, 251, 100400.0),
            (10, 51, 46, 5, 2000.0),
            (100, 6, 5, 1, 400.0),
            (168, 3, 3, 0, 0.0),
            (200, 3, 3, 0, 0.0),
        ]

    def test_slope_prices_each_saved_trip(self):
        for row in slope_table(1000, range(1, 60), 123.0):
            assert row.slope_ms == row.trip_decrease * 123.0


class TestSweepCurve:
    @pytest.mark.parametrize("floor", [0.0, 50.0])
    def test_reciprocal_first_five_sizes(self, floor):
        points = sweep_curve(502, 1, 5, CostConstants(200.0, 0.0, 0.0, 0.0, floor),
                             mode="reciprocal")
        assert [p.prefetch_size for p in points] == [1, 2, 3, 4, 5]
        expected = [100400.0, 50200.0, 502 / 3 * 200.0, 25100.0, 20080.0]
        for point, want in zip(points, expected):
            assert point.elapsed == pytest.approx(want + floor, rel=1e-12)

    def test_quantized_plateau_holds_value(self):
        k = CostConstants(400.0, 0.0, 400.0, 0.4)
        points = sweep_curve(502, 251, 260, k)
        # trips stay at 2 across this stretch, so only the small k4
        # residual term moves; elapsed at 251 (no residual) is 2*k1.
        assert points[0].elapsed == 800.0
        assert all(p.elapsed >= 800.0 for p in points)

    def test_reciprocal_strictly_decreasing(self):
        points = sweep_curve(502, 1, 300, CostConstants(200.0, 0.0, 0.0, 0.0),
                             mode="reciprocal")
        assert all(a.elapsed > b.elapsed for a, b in zip(points, points[1:]))

    @pytest.mark.parametrize("k", [CostConstants(10.0, 2.0, 5.0, 1.0),
                                   CostConstants(10.0, 2.0, 5.0, 1.0, floor=300.0)])
    def test_empty_workload_is_flat_zero(self, k):
        for mode in ("quantized", "reciprocal"):
            assert all(p.elapsed == 0.0 for p in sweep_curve(0, 1, 50, k, mode=mode))

    def test_empty_range_gives_empty_list(self):
        assert sweep_curve(502, 10, 9, CostConstants(1, 1, 1, 1)) == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sweep_curve(502, 0, 10, CostConstants(1, 1, 1, 1))
        with pytest.raises(ValueError):
            sweep_curve(502, 1, 10, CostConstants(1, 1, 1, 1), mode="nope")


class TestDyadicInts:
    @given(st.lists(st.floats(0.0, sys.float_info.max)))
    @example([])
    @example([0.0])
    @example([0.0, math.ulp(0.0), sys.float_info.min / 3, 1.5, sys.float_info.max])
    def test_each_value_is_its_int_over_one_power_of_two(self, values):
        ints, scale = dyadic_ints(values)
        assert [Fraction(p, scale) for p in ints] == [Fraction(v) for v in values]
        assert scale > 0 and scale & (scale - 1) == 0


class TestTypes:
    def test_fetch_plan_rejects_zero_prefetch(self):
        with pytest.raises(ValueError):
            FetchPlan(0, 502)

    def test_workload_rejects_zero_byte_field(self):
        with pytest.raises(ValueError):
            WorkloadSpec(10, (50, 0))

    def test_workload_rejects_a_record_with_no_fields(self):
        # A zero-byte record would be priced and simulated as free.
        with pytest.raises(FieldError) as exc:
            WorkloadSpec(10, ())
        assert exc.value.field == "field_byte_sizes"

    def test_workload_records_capped_at_2_53(self):
        assert WorkloadSpec(2**53, (8,)).total_records == 2**53
        with pytest.raises(FieldError) as exc:
            WorkloadSpec(2**53 + 1, (8,))
        assert exc.value.field == "total_records"

    def test_workload_record_bytes_capped_at_2_53(self):
        assert WorkloadSpec(5, (2**53 - 1, 1)).record_bytes == 2**53
        with pytest.raises(FieldError) as exc:
            WorkloadSpec(5, (2**53, 1))
        assert exc.value.field == "field_byte_sizes"

    def test_workload_record_bytes(self):
        assert WorkloadSpec(502, (50, 4000, 8, 16)).record_bytes == 4074

    def test_constants_reject_negative(self):
        with pytest.raises(ValueError):
            CostConstants(-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("floor", [-1.0, math.inf, math.nan])
    def test_constants_reject_bad_floor(self, floor):
        with pytest.raises(FieldError) as exc:
            CostConstants(1.0, 0.0, 1.0, 0.0, floor=floor)
        assert exc.value.field == "floor"

    @pytest.mark.parametrize("spec", [
        CostConstants(1.0, 0.0, 2.0, 3.0),
        HopSpec(600.0, 150.0, 0.9),
        ServerSpec(),
        DriverSpec(),
        RunConfig(WorkloadSpec(5, (8,)), NetworkSpec(()), ServerSpec(), DriverSpec()),
    ], ids=lambda spec: type(spec).__name__)
    def test_every_float_field_rejects_nan_and_inf(self, spec):
        names = [name for name, kind in type(spec).__annotations__.items() if kind == "float"]
        assert names
        for name in names:
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(FieldError) as exc:
                    replace(spec, **{name: bad})
                assert exc.value.field == name


def record_examples() -> list[Record]:
    """One instance of every value type in the package."""
    workload = WorkloadSpec(5, [8, 4])
    trace = simulate_fetch(workload, NetworkSpec.uniform(1, 600.0, 150.0), ServerSpec(),
                           DriverSpec(enforced_prefetch=2))
    return [
        workload, FetchPlan(2, 5), CostConstants(1.0, 0.0, 2.0, 3.0), CurvePoint(2, 3.5),
        SlopeRow(2, 3, 2, 1, 150.0), HopSpec(600.0, 150.0), NetworkSpec([HopSpec(600.0, 1.0)]),
        ServerSpec(hard_parse=40.0), DriverSpec(), trace.trip_log[1], trace,
        RunConfig(workload, NetworkSpec(()), ServerSpec(), DriverSpec(), seed=7),
        FitSample(2, 450.0, 5), FitResult(305.0, 0.0, None, None, 0.0, 4, False),
        PeakReport((3, 5), 2, (2,), 305.0, 1.0), MemoryBudget(100, 12),
        Recommendation(3, 2, 3, 915.0, 24, False, ("capped",)),
    ]


class TestRecord:
    def test_examples_cover_every_value_type(self):
        assert {type(r) for r in record_examples()} == set(Record.__subclasses__())

    @pytest.mark.parametrize("record", record_examples(), ids=lambda r: type(r).__name__)
    def test_fields_are_the_annotations_in_order(self, record):
        cls = type(record)
        names = list(cls.__annotations__)
        assert list(vars(record)) == names
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(record, name)!r}" for name in names) + ")"
        assert vars(cls(*vars(record).values())).keys() == vars(record).keys()

    @pytest.mark.parametrize("record", record_examples(), ids=lambda r: type(r).__name__)
    def test_assignment_and_deletion_raise(self, record):
        for name in [*vars(record), "not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert "not_a_field" not in vars(record)

    @pytest.mark.parametrize("record", record_examples(), ids=lambda r: type(r).__name__)
    def test_equality_and_hash_are_by_field(self, record):
        cls = type(record)
        twin = cls(**vars(record))
        assert twin is not record
        if cls is LatencyTrace:  # by identity: its fields are arrays
            assert twin != record and record == record
            assert hash(record) == object.__hash__(record)
            return
        assert twin == record and hash(twin) == hash(record)
        assert record != tuple(vars(record).values())
        for name in vars(record):
            other = cls(**vars(record))
            object.__setattr__(other, name, object())  # unchecked, on purpose
            assert other != record

    @pytest.mark.parametrize("record", record_examples(), ids=lambda r: type(r).__name__)
    def test_defaults_apply(self, record):
        cls = type(record)
        defaults = {name: vars(cls)[name] for name in cls.__annotations__ if name in vars(cls)}
        made = cls(**{k: v for k, v in vars(record).items() if k not in defaults})
        assert {name: getattr(made, name) for name in defaults} == defaults

    @pytest.mark.parametrize("record", record_examples(), ids=lambda r: type(r).__name__)
    def test_missing_or_unknown_argument_is_a_type_error(self, record):
        cls = type(record)
        with pytest.raises(TypeError):
            cls(**vars(record), not_a_field=1)
        with pytest.raises(TypeError):
            cls(*vars(record).values(), 1)
        required = [name for name in cls.__annotations__ if name not in vars(cls)]
        for name in required:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in vars(record).items() if k != name})
        with pytest.raises(TypeError):
            replace(record, not_a_field=1)

    def test_replace_checks_the_copy_again(self):
        driver = DriverSpec(enforced_prefetch=3)
        assert replace(driver, default_prefetch=4) == DriverSpec(3, 4)
        assert replace(driver) == driver and replace(driver) is not driver
        with pytest.raises(FieldError) as exc:
            replace(driver, default_prefetch=0)
        assert exc.value.field == "default_prefetch"
        assert driver.default_prefetch == 10
        # __post_init__ runs on the copy, so a list still becomes a tuple.
        assert replace(WorkloadSpec(5, (8,)), field_byte_sizes=[1, 2]).field_byte_sizes == (1, 2)

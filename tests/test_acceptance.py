"""Acceptance checks: one test per advertised guarantee.

Every test prints exactly one `[acceptance] <name>: PASS|FAIL` line (run
pytest with -s to see them all; failures also surface through the
assert).  Tolerances are stated inline; exact means `==` on floats.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from rowfetch.config import load_config
from rowfetch.core_model import (
    CostConstants,
    FetchPlan,
    SlopeRow,
    WorkloadSpec,
    quantized_cost,
    round_trips,
    slope_table,
    sweep_curve,
)
from rowfetch.fetch_sim import (
    DriverSpec,
    HopSpec,
    NetworkSpec,
    ServerSpec,
    simulate_fetch,
    write_trace_csv,
)
from rowfetch.model_fit import FitSample, fit_cost_model
from rowfetch.trace_analysis import analyze_trace
from rowfetch.tuner import MemoryBudget, optimal_prefetch, recommend, threshold_prefetch


def report(name: str, problems: list[str], detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert not problems, f"{name}: " + "; ".join(problems[:5])


def simulate_preset(name: str):
    cfg = load_config(name)
    return simulate_fetch(cfg.workload, cfg.network, cfg.server, cfg.driver,
                          seed=cfg.seed, jitter=cfg.jitter)


def test_slope_table_values_and_speed():
    """Trip-decrease table exact at five sizes; one call under 1 ms."""
    expected = [
        SlopeRow(1, 502, 251, 251, 100400.0),
        SlopeRow(10, 51, 46, 5, 2000.0),
        SlopeRow(100, 6, 5, 1, 400.0),
        SlopeRow(168, 3, 3, 0, 0.0),
        SlopeRow(200, 3, 3, 0, 0.0),
    ]
    sizes = tuple(row.prefetch_size for row in expected)
    problems = []
    if slope_table(502, sizes, 400.0) != expected:
        problems.append(f"table mismatch: {slope_table(502, sizes, 400.0)}")
    best = min(_timed(lambda: slope_table(502, sizes, 400.0)) for _ in range(200))
    if best >= 1e-3:
        problems.append(f"slowest acceptable is 1 ms, best run took {best * 1e3:.3f} ms")
    report("slope-table", problems, f"5 exact rows, best of 200 runs {best * 1e6:.1f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_round_trip_counts():
    """Exact ceil(n/f) trip counts across the reference grid."""
    cases = [
        (502, 1, 502), (502, 10, 51), (502, 100, 6), (502, 168, 3),
        (502, 200, 3), (502, 251, 2), (502, 502, 1),
        (500, 100, 5), (1000, 100, 10), (1, 1, 1), (0, 7, 0),
    ]
    problems = [f"round_trips({n}, {f}) = {round_trips(n, f)}, want {want}"
                for n, f, want in cases if round_trips(n, f) != want]
    report("round-trip-counts", problems, f"{len(cases)} exact cases")


def test_recommendation_for_reference_workload():
    """502 records: threshold 168, optimal 168, exactly 3 round trips."""
    problems = []
    threshold = threshold_prefetch(502)
    if threshold != 168:
        problems.append(f"threshold {threshold} != 168")
    rec = recommend(502, MemoryBudget(10_000_000, 4074),
                    CostConstants(400.0, 0.0, 400.0, 0.0))
    if (rec.threshold_f, rec.optimal_f, rec.round_trips_at_optimal) != (168, 168, 3):
        problems.append(f"recommendation {rec.threshold_f}/{rec.optimal_f}"
                        f"/{rec.round_trips_at_optimal} != 168/168/3")
    if not rec.memory_ok:
        problems.append("generous budget reported as not fitting")
    report("tuned-recommendation", problems,
           "threshold 168, optimal 168, 3 trips, exact")


def test_latency_peaks_and_inference_on_baseline():
    """Jitter-free baseline: peaks exactly at rows 11,21,...,501; f inferred 10."""
    trace = simulate_preset("baseline.cfg")
    problems = []
    positive = [row for row, ms in trace.samples if ms > 0]
    if positive != list(range(11, 502, 10)):
        problems.append(f"{len(positive)} positive rows at {positive[:5]}...")
    peak_rows = set(positive)
    if any(ms != 0.0 for row, ms in trace.samples if row not in peak_rows):
        problems.append("cache-served rows are not exactly 0.0")
    reportage = analyze_trace(trace.samples)
    if reportage.inferred_prefetch != 10:
        problems.append(f"inferred {reportage.inferred_prefetch} != 10")
    if reportage.confidence != 1.0:
        problems.append(f"confidence {reportage.confidence} != 1.0")
    report("peak-inference", problems,
           "50 peaks at rows 11..501, inferred prefetch 10 at confidence 1.0")


def test_transport_doubles_with_hop_count():
    """far_path = near_path with the hop duplicated: transport exactly 2x,
    total elapsed ratio within [1.7, 2.3]."""
    near = simulate_preset("near_path.cfg")
    far = simulate_preset("far_path.cfg")
    problems = []
    for trip_near, trip_far in zip(near.trip_log, far.trip_log):
        if trip_far.transport_ms != 2.0 * trip_near.transport_ms:
            problems.append(f"trip {trip_near.trip_index} transport "
                            f"{trip_far.transport_ms} != 2 * {trip_near.transport_ms}")
            break
    ratio = far.total_elapsed_ms / near.total_elapsed_ms
    if not 1.7 <= ratio <= 2.3:
        problems.append(f"total ratio {ratio} outside [1.7, 2.3]")
    report("hop-doubling", problems,
           f"51 trips transport exactly doubled, total ratio {ratio:.4f}")


def test_model_curves_monotone_and_steep():
    """Both model curves non-increasing over f=1..300 for 502 records;
    elapsed(1)/elapsed(251) >= 100 (reciprocal) and >= 50 (quantized)."""
    problems = []
    curves = {
        "quantized": (sweep_curve(502, 1, 300, CostConstants(400.0, 0.0, 400.0, 0.0),
                                  "quantized"), 50.0),
        "reciprocal": (sweep_curve(502, 1, 300, CostConstants(200.0, 0.0, 0.0, 0.0),
                                   "reciprocal"), 100.0),
    }
    ratios = {}
    for mode, (points, min_ratio) in curves.items():
        rising = [(a.prefetch_size, a.elapsed, b.elapsed)
                  for a, b in zip(points, points[1:]) if b.elapsed > a.elapsed]
        if rising:
            problems.append(f"{mode} rises at f={rising[0][0]}")
        ratios[mode] = points[0].elapsed / points[250].elapsed
        if ratios[mode] < min_ratio:
            problems.append(f"{mode} ratio {ratios[mode]:.1f} < {min_ratio}")
    report("sweep-monotone", problems,
           f"300 sizes non-increasing, f=1 over f=251 ratio "
           f"{ratios['quantized']:.0f}x quantized / {ratios['reciprocal']:.0f}x reciprocal")


def test_fit_recovers_constants():
    """Noise-free fit within rel 1e-6; with 5% noise, p95 of k1 error over
    100 seeded repetitions within the frozen 0.046 bound."""
    true_k = CostConstants(250.0, 0.5, 120.0, 0.4)
    grid = (5, 10, 25, 50, 100, 168, 251)
    problems = []

    exact = fit_cost_model([FitSample(f, quantized_cost(FetchPlan(f, 502), true_k), 502)
                            for f in grid]).constants
    for name, got, want in (("k1", exact.k1, 250.0), ("k2", exact.k2, 0.5),
                            ("k3", exact.k3, 120.0), ("k4", exact.k4, 0.4)):
        if abs(got - want) > 1e-6 * want:
            problems.append(f"noise-free {name} = {got}, want {want}")

    errors = []
    for rep in range(100):
        rng = np.random.default_rng(rep)
        samples = [FitSample(f, quantized_cost(FetchPlan(f, 502), true_k)
                             * (1 + rng.uniform(-0.05, 0.05)), 502)
                   for f in grid]
        fitted = fit_cost_model(samples).constants.k1
        errors.append(abs(fitted - 250.0) / 250.0)
    errors.sort()
    if errors[94] > 0.046:
        problems.append(f"noisy p95 k1 error {errors[94]:.4f} > 0.046")
    report("fit-recovery", problems,
           f"exact within 1e-6, noisy p95 k1 error {errors[94]:.4f} <= 0.046")


def _random_scenario(rng: random.Random):
    fields = tuple(rng.randrange(1, 500) for _ in range(rng.randrange(1, 6)))
    workload = WorkloadSpec(rng.randrange(0, 400), fields)
    hops = tuple(HopSpec(rng.uniform(100.0, 2000.0), rng.uniform(0.0, 200.0),
                         rng.uniform(0.5, 1.0))
                 for _ in range(rng.randrange(0, 4)))
    server = ServerSpec(hard_parse=rng.uniform(0.0, 60.0),
                        soft_parse=rng.uniform(0.0, 5.0),
                        per_record_search=rng.uniform(0.0, 0.2),
                        server_cache_size=rng.randrange(1, 200),
                        disk_access_per_refill=rng.uniform(0.0, 20.0))
    driver = DriverSpec(default_prefetch=rng.randrange(1, 60),
                        per_field_conversion=rng.uniform(0.0, 0.1),
                        request_overhead=rng.uniform(0.0, 5.0))
    jitter = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.05, 0.5), 3)
    return workload, NetworkSpec(hops), server, driver, rng.randrange(10 ** 6), jitter


def test_determinism_and_conservation(tmp_path):
    """50 random scenarios: reruns byte-identical, and sample times plus the
    execute call sum exactly (fsum ==) to the trip totals."""
    rng = random.Random(99)
    problems = []
    for case in range(50):
        workload, net, server, driver, seed, jitter = _random_scenario(rng)
        first = simulate_fetch(workload, net, server, driver, seed=seed, jitter=jitter)
        again = simulate_fetch(workload, net, server, driver, seed=seed, jitter=jitter)
        paths = [(tmp_path / f"{case}_{run}.csv", tmp_path / f"{case}_{run}_trips.csv")
                 for run in ("a", "b")]
        write_trace_csv(first, *paths[0])
        write_trace_csv(again, *paths[1])
        if (paths[0][0].read_bytes() != paths[1][0].read_bytes()
                or paths[0][1].read_bytes() != paths[1][1].read_bytes()):
            problems.append(f"case {case}: rerun output differs")
        lhs = math.fsum([ms for _, ms in first.samples] + [first.execution_call_ms])
        rhs = math.fsum(t.total_ms for t in first.trip_log)
        if lhs != rhs:
            problems.append(f"case {case}: conservation off by {lhs - rhs!r}")
    report("determinism-conservation", problems,
           "50 scenarios byte-identical and exactly conserving")


def test_recommended_size_is_minimal():
    """For every n <= 2000 and threshold t <= n the tuner returns the
    smallest size with the threshold's trip count, in under 60 s."""
    start = time.perf_counter()
    failures = 0
    example = ""
    for n in range(1, 2001):
        for t in range(1, n + 1):
            opt = optimal_prefetch(n, t)
            trips = -(-n // t)
            if -(-n // opt) != trips or (opt > 1 and -(-n // (opt - 1)) == trips):
                failures += 1
                if not example:
                    example = f"n={n} t={t} opt={opt}"
    elapsed = time.perf_counter() - start
    problems = []
    if failures:
        problems.append(f"{failures} non-minimal results, first at {example}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f} s, budget 60 s")
    report("minimal-recommendation", problems,
           f"2001000 (n, t) pairs exhaustively minimal in {elapsed:.1f} s")

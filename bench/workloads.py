"""The benchmark's workloads: seeded inputs, CLI command lines, output checks.

Each workload writes its inputs once per run (configs as overrides of the
bundled baseline.cfg, plus a synthetic trace for measured_trace) and then
yields the rowfetch commands of one pass.  The program only ever sees the
generated files.

The checks are structural -- counts, positions and the identities the
README promises -- rather than golden hashes, so a change that
legitimately alters jittered values still passes while a wrong answer
(a corrupted row, a shifted peak, a miscounted trip) fails.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
BASELINE_CFG = ROOT / "src" / "rowfetch" / "presets" / "baseline.cfg"


class CheckFailed(Exception):
    """A command's output broke the workload's expectations."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Command:
    """One rowfetch invocation of a pass and how to judge its output.

    check receives the command's stdout and raises CheckFailed (or any
    error from reading a malformed output) when the output is wrong.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[str], None]


def write_config(path: Path, overrides: dict[str, object]) -> dict[str, str]:
    """Write baseline.cfg with some keys replaced; return the final pairs."""
    pairs: dict[str, str] = {}
    lines = []
    for raw in BASELINE_CFG.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#") and "=" in line:
            key = line.split("=", 1)[0].strip()
            if key in overrides:
                raw = f"{key}={overrides[key]}"
            pairs[key] = raw.split("=", 1)[1].strip()
        lines.append(raw)
    for key in overrides.keys() - pairs.keys():
        lines.append(f"{key}={overrides[key]}")
        pairs[key] = str(overrides[key])
    path.write_text("\n".join(lines) + "\n")
    return pairs


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def parse_colon_lines(stdout: str) -> dict[str, str]:
    """`key: value` lines of the simulate/sweep summaries."""
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def csv_rows(path: Path, header: str) -> Iterator[list[str]]:
    """Stream a CSV's data rows after checking its header line."""
    with open(path) as fh:
        require(fh.readline().rstrip("\n") == header, f"{path.name}: bad header")
        for line in fh:
            yield line.rstrip("\n").split(",")


def check_peak_report(stdout: str, peaks: list[int], prefetch: int,
                      confidence: float, avg_trip_time: float) -> None:
    """Compare an `analyze` JSON report with the expected peak structure."""
    report = json.loads(stdout)
    require(report["peak_rows"] == peaks, "analyze: peak rows differ from the expected rows")
    require(report["inter_peak_gaps"] == [b - a for a, b in zip(peaks, peaks[1:])],
            "analyze: inter-peak gaps do not match the peak rows")
    require(report["inferred_prefetch"] == prefetch,
            f"analyze: inferred {report['inferred_prefetch']}, expected {prefetch}")
    require(report["confidence"] == confidence,
            f"analyze: confidence {report['confidence']}, expected {confidence}")
    got = report["avg_trip_time"]
    require(isinstance(got, float) and math.isclose(got, avg_trip_time, rel_tol=1e-9),
            f"analyze: avg_trip_time {got}, expected {avg_trip_time}")


class Trace1M:
    """Capture then diagnose: simulate a jittered fetch, analyze its trace."""

    name = "trace_1m"
    reported = {"simulate_s": ("simulate",), "analyze_s": ("analyze",)}

    def __init__(self, work: Path, seed: int, records: int = 1_000_000):
        self.records = records
        self.config = work / "trace_1m.cfg"
        pairs = write_config(self.config, {"workload.total_records": records,
                                           "run.jitter": 0.1, "run.seed": seed})
        self.prefetch = int(pairs["driver.default_prefetch"])
        self.trips = ceil_div(records, self.prefetch)
        self.trace = work / "trace.csv"
        self.trip_log = work / "trace_trips.csv"
        self.trip_totals: list[float] = []

    def commands(self) -> Iterator[Command]:
        yield Command("simulate", ("simulate", str(self.config), "--out-trace", str(self.trace),
                                   "--out-trips", str(self.trip_log)),
                      (self.trace, self.trip_log), self.check_simulate)
        yield Command("analyze", ("analyze", str(self.trace)), (), self.check_analyze)

    def expected_peaks(self) -> list[int]:
        return list(range(self.prefetch + 1, self.records + 1, self.prefetch))

    def check_simulate(self, stdout: str) -> None:
        summary = parse_colon_lines(stdout)
        require(summary.get("effective_prefetch") == str(self.prefetch), "simulate: wrong prefetch")
        require(summary.get("trips") == str(self.trips), "simulate: wrong trip count")
        totals = []
        records = 0
        for index, row in enumerate(csv_rows(self.trip_log, "trip_index,records,r_ms,e_ms,"
                                                            "a_ms,t_ms,c_ms"), start=1):
            require(int(row[0]) == index, f"trips: row {index} has index {row[0]}")
            records += int(row[1])
            r, e, a, t, c = map(float, row[2:7])
            totals.append(r + e + a + t + c)  # TripRecord.total_ms, same order
        require(len(totals) == self.trips, f"trips: {len(totals)} trips, expected {self.trips}")
        require(records == self.records, f"trips: carry {records} records")
        self.trip_totals = totals

        peaks = iter(self.expected_peaks())
        next_peak = next(peaks, None)
        rows = 0

        def values():
            nonlocal rows, next_peak
            for row in csv_rows(self.trace, "row_index,elapsed_ms"):
                rows += 1
                require(int(row[0]) == rows, f"trace: row {rows} has index {row[0]}")
                ms = float(row[1])
                require(math.isfinite(ms) and ms >= 0, f"trace: row {rows} has {ms}")
                if ms > 0:
                    require(rows == next_peak, f"trace: unexpected peak at row {rows}")
                    next_peak = next(peaks, None)
                yield ms
            yield totals[0]  # the execute call carries the first trip

        lhs = math.fsum(values())
        require(rows == self.records, f"trace: {rows} rows, expected {self.records}")
        require(next_peak is None, f"trace: no peak at row {next_peak}")
        require(lhs == math.fsum(totals), "trace: samples plus execute call do not sum "
                                          "to the trip totals")

    def check_analyze(self, stdout: str) -> None:
        totals = self.trip_totals[1:]
        check_peak_report(stdout, self.expected_peaks(), self.prefetch, 1.0,
                          math.fsum(totals) / len(totals))


class MeasuredTrace:
    """Analyze a trace shaped like a real instrumented fetch loop.

    Every row has a small positive latency, so the zero-floor rule cannot
    fire and the statistical rule runs over the whole trace.  Trip rows
    sit every PERIOD rows with values spread +-20% around a seeded base
    far above the floor, and about DROP_RATE of them are missing, so the
    planted rows are exactly the peaks and a few gaps are 2*PERIOD.
    """

    name = "measured_trace"
    reported = {"analyze_s": ("analyze",)}
    PERIOD = 37
    DROP_RATE = 0.01
    SPREAD = 0.2

    def __init__(self, work: Path, seed: int, rows: int = 1_000_000):
        rng = random.Random(seed)
        base = rng.uniform(200.0, 600.0)
        self.trace = work / "measured.csv"
        self.peaks: list[int] = []
        peak_values = []
        with open(self.trace, "w") as fh:
            fh.write("row_index,elapsed_ms\n")
            for row in range(1, rows + 1):
                if row % self.PERIOD == 1 and row > 1 and rng.random() >= self.DROP_RATE:
                    text = f"{base * rng.uniform(1 - self.SPREAD, 1 + self.SPREAD):.3f}"
                    self.peaks.append(row)
                    peak_values.append(float(text))
                else:
                    text = f"{rng.uniform(0.002, 0.02):.6f}"
                fh.write(f"{row},{text}\n")
        (work / "measured_planted.json").write_text(
            json.dumps({"rows": self.peaks, "elapsed_ms": peak_values}))
        self.avg_trip_time = statistics.mean(peak_values)
        evidence = [b - a for a, b in zip(self.peaks, self.peaks[1:])] + [self.peaks[0] - 1]
        self.confidence = evidence.count(self.PERIOD) / len(evidence)

    def commands(self) -> Iterator[Command]:
        yield Command("analyze", ("analyze", str(self.trace)), (), self.check_analyze)

    def check_analyze(self, stdout: str) -> None:
        check_peak_report(stdout, self.peaks, self.PERIOD, self.confidence, self.avg_trip_time)


class SweepTune:
    """Sweep the simulator over f, then recommend and fit at small cost."""

    name = "sweep_tune"
    reported = {"sweep_s": ("sweep",), "tune_s": ("recommend", "fit")}
    ZERO_RUN = 50
    FIT_SAMPLES = 8

    def __init__(self, work: Path, seed: int, records: int = 50_000, f_hi: int = 300):
        rng = random.Random(seed)
        self.records, self.f_hi = records, f_hi
        self.config = work / "sweep_tune.cfg"
        pairs = write_config(self.config, {"workload.total_records": records,
                                           "run.jitter": 0, "run.seed": seed})
        self.record_bytes = sum(int(b) for b in pairs["workload.field_bytes"].split(","))
        self.sweep = work / "sweep.tsv"
        self.samples = work / "fit_samples.csv"

        self.threshold = self.brute_force_threshold()
        trips = ceil_div(records, self.threshold)
        self.minimal = next(f for f in range(1, self.threshold + 1)
                            if ceil_div(records, f) == trips)
        # A budget a little above cap records, so the answer is capped at cap.
        self.cap = rng.randint(2, self.minimal - 1)
        self.budget = self.cap * self.record_bytes + rng.randrange(self.record_bytes)
        while True:
            sizes = sorted(rng.sample(range(1, f_hi + 1), self.FIT_SAMPLES))
            if any(records % f for f in sizes):  # else k3/k4 are unidentifiable
                break
        self.fit_sizes = sizes

    def brute_force_threshold(self) -> int:
        streak = 0
        for f in range(1, self.records + self.ZERO_RUN + 1):
            if ceil_div(self.records, f) == ceil_div(self.records, f + 1):
                streak += 1
                if streak == self.ZERO_RUN:
                    return f - self.ZERO_RUN + 1
            else:
                streak = 0
        raise AssertionError("unreachable: trips are flat past f = n")

    def commands(self) -> Iterator[Command]:
        yield Command("sweep", ("sweep", str(self.config), "--mode", "sim",
                                "--f-range", f"1:{self.f_hi}", "--out", str(self.sweep)),
                      (self.sweep,), self.check_sweep)
        yield Command("recommend", ("recommend", str(self.config), "--budget-bytes",
                                    str(self.budget), "--zero-run", str(self.ZERO_RUN)),
                      (), self.check_recommend)
        elapsed = {int(row[0]): row[1] for row in self.sweep_rows()}
        lines = [f"# N={self.records}", "f,elapsed_ms"] + [f"{f},{elapsed[f]}"
                                                          for f in self.fit_sizes]
        self.samples.write_text("\n".join(lines) + "\n")
        yield Command("fit", ("fit", str(self.samples)), (), self.check_fit)

    def sweep_rows(self) -> list[list[str]]:
        with open(self.sweep) as fh:
            require(fh.readline() == "# f\telapsed_ms\ttrips\tslope_ms\n", "sweep: bad header")
            return [line.rstrip("\n").split("\t") for line in fh]

    def check_sweep(self, stdout: str) -> None:
        require(stdout.startswith(f"sweep: {self.sweep} ({self.f_hi} sizes, mode sim)"),
                "sweep: unexpected summary line")
        rows = self.sweep_rows()
        require([int(r[0]) for r in rows] == list(range(1, self.f_hi + 1)), "sweep: wrong f column")
        elapsed = [float(r[1]) for r in rows]
        for (f, _, trips, slope), here, nxt in zip(rows, elapsed, elapsed[1:] + [None]):
            require(int(trips) == ceil_div(self.records, int(f)), f"sweep: f={f} trips {trips}")
            require(math.isfinite(here) and here > 0, f"sweep: f={f} elapsed {here}")
            if nxt is not None:
                require(float(slope) == here - nxt, f"sweep: f={f} slope is not the "
                                                    "forward difference")

    def check_recommend(self, stdout: str) -> None:
        rec = json.loads(stdout.splitlines()[0])
        expected = {"threshold_f": self.threshold, "optimal_f": self.cap,
                    "round_trips_at_optimal": ceil_div(self.records, self.cap),
                    "memory_at_optimal": self.cap * self.record_bytes, "memory_ok": False}
        got = {key: rec[key] for key in expected}
        require(got == expected, f"recommend: {got}, expected {expected}")
        require(math.isfinite(rec["predicted_elapsed"]) and rec["predicted_elapsed"] > 0,
                "recommend: bad predicted_elapsed")

    def check_fit(self, stdout: str) -> None:
        fit = json.loads(stdout)
        for key in ("k1", "k2", "k3", "k4", "residual_rms"):
            value = fit[key]
            require(isinstance(value, float) and math.isfinite(value) and value >= 0,
                    f"fit: {key} = {value}")
        require(fit["sample_count"] == self.FIT_SAMPLES, "fit: wrong sample_count")


WORKLOADS = {w.name: w for w in (Trace1M, MeasuredTrace, SweepTune)}

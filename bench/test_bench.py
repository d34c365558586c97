"""Tests of the benchmark itself, at small input sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "trace_1m": dict(records=2_000),
    "measured_trace": dict(rows=5_000),
    "sweep_tune": dict(records=2_000, f_hi=40),
}


def small(name, work, seed=3):
    return workloads.WORKLOADS[name](work, seed, **SMALL[name])


def one_pass(workload, work, modes=("cli",), corrupt=None):
    """Run one pass; corrupt(cmd) may damage a command's output before it is judged."""
    runner = run.Runner(workload, work)

    def execute(cmd, mode):
        outcome = runner.execute(cmd, mode)
        if corrupt is not None:
            corrupt(cmd)
        return outcome

    outcomes = run.run_pass(workload, execute, runner.checker, modes)
    return runner.checker, outcomes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_code_passes_every_check(tmp_path, name):
    checker, _ = one_pass(small(name, tmp_path), tmp_path)
    assert checker.attempted >= 1
    assert checker.failed == 0


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    small("measured_trace", a, seed=9)
    small("measured_trace", b, seed=9)
    assert (a / "measured.csv").read_bytes() == (b / "measured.csv").read_bytes()
    assert small("sweep_tune", a, seed=9).budget == small("sweep_tune", b, seed=9).budget


def replace_row(path: Path, row: int, value: str) -> None:
    lines = path.read_text().splitlines()
    lines[row] = f"{row},{value}"  # line 0 is the header
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_trace_row_is_a_failed_command(tmp_path):
    workload = small("trace_1m", tmp_path)

    def corrupt(cmd):
        if cmd.name == "simulate":
            replace_row(workload.trace, 5, "0.5")

    checker, outcomes = one_pass(workload, tmp_path, corrupt=corrupt)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert ("analyze", "cli") not in outcomes  # the pass stops at the failure


def test_shifted_peak_is_a_failed_command(tmp_path):
    workload = small("measured_trace", tmp_path)
    lines = workload.trace.read_text().splitlines()
    row = workload.peaks[3]
    lines[row], lines[row + 1] = (f"{row},{lines[row + 1].split(',')[1]}",
                                  f"{row + 1},{lines[row].split(',')[1]}")
    workload.trace.write_text("\n".join(lines) + "\n")
    checker, _ = one_pass(workload, tmp_path)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_wrong_recommendation_is_a_failed_command(tmp_path):
    workload = small("sweep_tune", tmp_path)
    workload.cap += 1  # the program answers for the real budget
    checker, _ = one_pass(workload, tmp_path)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_traced_pass_counts_the_layers(tmp_path):
    workload = small("trace_1m", tmp_path)
    checker, outcomes = one_pass(workload, tmp_path, modes=("plain", "spans"))
    assert checker.failed == 0
    metrics = run.layer_metrics(outcomes)
    trips = workload.trips
    assert metrics["fetch_sim.calls"] == 1
    assert metrics["fetch_sim.trips"] == trips
    assert metrics["fetch_sim.rows_materialized"] == workload.records
    assert metrics["fetch_sim.useful_row_ratio"] == (trips - 1) / workload.records
    assert metrics["trace_analysis.rows_read"] == workload.records
    assert metrics["trace_analysis.peaks"] == trips - 1
    assert metrics["trace_analysis.zero_floor_rule"] == 1
    assert metrics["fetch_sim.bytes_written"] == (workload.trace.stat().st_size
                                                  + workload.trip_log.stat().st_size)
    for name, value in metrics.items():
        if name.endswith("_s") and name not in ("trace.overhead_s", "fetch_sim.jitter_s"):
            assert value >= 0, name


def test_memory_pass_reports_first_call_peaks(tmp_path):
    workload = small("trace_1m", tmp_path)
    checker, outcomes = one_pass(workload, tmp_path, modes=("memory",))
    assert checker.failed == 0
    counts = {k: v for o in outcomes.values() for k, v in o.record["counts"].items()}
    assert counts["fetch_sim.simulate_fetch_peak_mb"] > 0
    assert counts["trace_analysis.read_trace_samples_peak_mb"] > 0


def test_self_time_subtracts_covered_child_time():
    spans = [["root", 0.0, 10.0, None],
             ["a", 1.0, 3.0, 0], ["b", 2.0, 5.0, 0], ["c", 8.0, 12.0, 0],
             ["leaf", 2.5, 2.75, 2]]
    assert run.self_times(spans) == [4.0, 2.0, 2.75, 4.0, 0.25]


@st.composite
def span_trees(draw):
    spans = []
    for index in range(draw(st.integers(1, 12))):
        start = draw(st.floats(0, 100))
        end = start + draw(st.floats(0, 50))
        parent = draw(st.none() | st.integers(0, index - 1)) if index else None
        spans.append([f"s{index}", start, end, parent])
    return spans


@given(span_trees())
def test_self_time_is_never_negative_nor_above_duration(spans):
    for (name, start, end, parent), own in zip(spans, run.self_times(spans)):
        assert 0.0 <= own <= end - start + 1e-9


# Lines of `python -X importtime -c "import rowfetch.cli"` on CPython 3,
# in their order, with the lines of other modules left out.
IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       184 |        184 |   _io
import time:      5816 |      14087 |     rowfetch.core_model
import time:      8030 |      12902 |     rowfetch.fetch_sim
import time:      2189 |       5514 |     rowfetch.trace_analysis
import time:      1349 |     140671 |       numpy
import time:      4479 |     146930 |     rowfetch.model_fit
import time:      3472 |       3472 |     rowfetch.tuner
import time:      3593 |       3593 |     rowfetch.config
import time:       629 |     187125 |   rowfetch
import time:      3419 |     193265 | rowfetch.cli
"""


def test_importtime_parser_takes_cumulative_times():
    times = run.parse_importtime(IMPORTTIME)
    assert times["numpy"] == 0.140671
    assert times["rowfetch"] == 0.187125
    assert times["rowfetch.cli"] == 0.193265


def test_cli_import_time_covers_the_package_and_numpy():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rowfetch.cli"],
                          env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    times = run.parse_importtime(proc.stderr)
    assert times["rowfetch.cli"] >= times["rowfetch"] >= times.get("numpy", 0.0)


def test_failed_pass_is_not_timed(tmp_path):
    workload = small("sweep_tune", tmp_path)
    workload.cap += 1  # recommend now fails, so fit never runs
    metrics = run.Runner(workload, tmp_path).timed(0.1)
    assert metrics["job_s"] == 0.0
    assert metrics["peak_rss_mb"] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "trace_1m",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""What bench/probe.py relies on in rowfetch stays bound.

The probe patches module attributes by name and reads traces through a
few attributes, so a rename or deletion here would only show as an
AttributeError in `bench/run.py --trace 1`.  Its spans count only the
calls that go through those attributes, so the callers it times must
keep looking them up on the module.  The probe's tables are read from
its source with ast, without importing or executing it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from rowfetch import cli, fetch_sim, trace_analysis
from rowfetch.core_model import WorkloadSpec
from rowfetch.fetch_sim import DriverSpec, NetworkSpec, ServerSpec, simulate_fetch, write_trace_csv

PROBE = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
TABLES = ("SPANNED", "COUNTED", "MEMORY")


def probe_tables() -> dict[str, tuple]:
    tree = ast.parse(PROBE.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES}


def test_probe_tables_name_bound_attributes():
    tables = probe_tables()
    assert set(tables) == set(TABLES)
    rows = [(table, module, attr) for table, entries in tables.items()
            for module, attr, _ in entries]
    assert ("COUNTED", "tuner", "trip_decrease_per_unit_f") in rows
    assert ("COUNTED", "cli", "round_trips") in rows
    for table, module, attr in rows:
        assert hasattr(importlib.import_module(f"rowfetch.{module}"), attr), \
            f"{table} names rowfetch.{module}.{attr}, which is not bound"


def test_probe_binds_the_arguments_it_reads():
    assert "jitter" in inspect.signature(simulate_fetch).parameters
    assert {"samples_path", "trips_path"} <= set(inspect.signature(write_trace_csv).parameters)


@pytest.mark.parametrize("n, f", [(0, 10), (502, 10)])
def test_trace_has_the_rows_the_probe_counts(n, f):
    trace = simulate_fetch(WorkloadSpec(n, (100,)), NetworkSpec.uniform(1, 600.0, 150.0),
                           ServerSpec(), DriverSpec(enforced_prefetch=f), seed=1, jitter=0.1)
    trips = len(trace.trip_log)
    assert len(trace.samples) == n
    assert sum(1 for _, ms in trace.samples if ms) == max(trips - 1, 0)


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_trace_reaches_each_spanned_step_once(monkeypatch):
    steps = ("detect_peaks", "infer_effective_prefetch", "avg_trip_time_from_trace")
    calls = {name: counting(monkeypatch, trace_analysis, name) for name in steps}
    trace = simulate_fetch(WorkloadSpec(502, (100,)), NetworkSpec.uniform(1, 600.0, 150.0),
                           ServerSpec(), DriverSpec(enforced_prefetch=10))
    report = trace_analysis.analyze_trace(trace.samples)
    assert report.inferred_prefetch == 10
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(steps, 1)


def test_sim_sweep_simulates_once_per_size(monkeypatch, tmp_path):
    calls = counting(monkeypatch, fetch_sim, "simulate_fetch")
    assert cli.main(["sweep", "baseline.cfg", "--f-range", "3:9", "--mode", "sim",
                     "--jitter", "0.1", "--out", str(tmp_path / "sweep.tsv")]) == cli.EXIT_OK
    # One past HI as well, for the last row's forward difference.
    assert [args[3].enforced_prefetch for args, _ in calls] == list(range(3, 11))


def test_jitter_free_sim_sweep_prices_once_per_size(monkeypatch, tmp_path):
    simulated = counting(monkeypatch, fetch_sim, "simulate_fetch")
    priced = counting(monkeypatch, fetch_sim, "jitter_free_total")
    assert cli.main(["sweep", "baseline.cfg", "--f-range", "3:9", "--mode", "sim",
                     "--out", str(tmp_path / "sweep.tsv")]) == cli.EXIT_OK
    assert simulated == []
    assert [args[3].enforced_prefetch for args, _ in priced] == list(range(3, 11))


@pytest.mark.parametrize("argv", [
    ["sweep", "baseline.cfg", "--f-range", "1:20", "--mode", "quantized"],
    ["sweep", "baseline.cfg", "--f-range", "1:20", "--mode", "reciprocal"],
    ["recommend", "baseline.cfg", "--budget-bytes", "1000000"],
], ids=["sweep_quantized", "sweep_reciprocal", "recommend"])
def test_model_sweep_calibrates_once(monkeypatch, tmp_path, argv):
    calls = counting(monkeypatch, fetch_sim, "cost_constants")
    out = ["--out", str(tmp_path / "sweep.tsv")] if argv[0] == "sweep" else []
    assert cli.main(argv + out) == cli.EXIT_OK
    assert len(calls) == 1

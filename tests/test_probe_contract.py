"""What bench/probe.py relies on in rowfetch stays bound.

The probe patches module attributes by name and reads traces through a
few attributes, so a rename or deletion here would only show as an
AttributeError in `bench/run.py --trace 1`.  The probe's tables are read
from its source with ast, without importing or executing it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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

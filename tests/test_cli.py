"""End-to-end exercise of the command-line interface.

Each test drives cli.main with real files under tmp_path and checks the
exit code, the printed summary, and the artifacts on disk.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rowfetch
from rowfetch import cli, config, fetch_sim
from rowfetch.cli import EXIT_INPUT, EXIT_MODEL, EXIT_OK, EXIT_USAGE, SEED_ENV
from rowfetch.config import list_presets, load_config
from rowfetch.core_model import CostConstants, FetchPlan, quantized_cost, round_trips
from rowfetch.model_fit import FitSample, write_fit_samples
from rowfetch.trace_analysis import read_trace_samples

BASE_PAIRS = {
    "workload.total_records": "502",
    "workload.field_bytes": "50,4000,8,16",
    "network.hops": "2",
    "network.bandwidth_bytes_per_ms": "600",
    "network.base_latency_ms": "150",
    "network.availability": "0.9",
    "server.hard_parse_ms": "40",
    "server.soft_parse_ms": "3",
    "server.per_record_search_ms": "0.05",
    "server.cache_records": "100",
    "server.disk_access_ms": "12",
    "driver.default_prefetch": "10",
    "driver.per_field_conversion_ms": "0.05",
    "driver.request_overhead_ms": "2",
    "run.seed": "7",
    "run.jitter": "0",
}


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


def config_file(tmp_path, overrides=None, drop=(), name="run.cfg") -> str:
    pairs = dict(BASE_PAIRS)
    for key in drop:
        pairs.pop(key, None)
    pairs.update(overrides or {})
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    return str(path)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`rowfetch ARGS...` in a child process, killed after 20 s so a hang fails."""
    src = str(Path(rowfetch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "rowfetch.cli", *args], env=env,
                          capture_output=True, text=True, timeout=20)


def simulate(tmp_path, config, stem="trace", extra=()):
    out = tmp_path / f"{stem}.csv"
    rc = cli.main(["simulate", config, "--out-trace", str(out), *extra])
    return rc, out, out.with_name(f"{stem}_trips.csv")


def command_args(tmp_path, command: str, cfg: str) -> list[str]:
    """CLI arguments running command on cfg; sweep_MODE is sweep --mode MODE."""
    if command == "simulate":
        return ["simulate", cfg, "--out-trace", str(tmp_path / "t.csv")]
    if command == "recommend":
        return ["recommend", cfg, "--budget-bytes", "1000000"]
    mode = command.partition("_")[2] or "sim"
    return ["sweep", cfg, "--f-range", "1:5", "--mode", mode, "--out", str(tmp_path / "s.tsv")]


class TestSimulate:
    def test_baseline_preset(self, tmp_path, capsys):
        rc, trace, trips = simulate(tmp_path, "baseline.cfg")
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "effective_prefetch: 10" in out
        assert "trips: 51" in out
        assert "execution_ms:" in out and "retrieval_ms:" in out
        assert trace.exists() and trips.exists()
        assert len(trace.read_text().splitlines()) == 503  # header + one per row
        assert len(trips.read_text().splitlines()) == 52

    def test_explicit_trips_path(self, tmp_path):
        out = tmp_path / "t.csv"
        other = tmp_path / "components.csv"
        rc = cli.main(["simulate", "baseline.cfg", "--out-trace", str(out),
                       "--out-trips", str(other)])
        assert rc == EXIT_OK
        assert other.exists()
        assert not (tmp_path / "t_trips.csv").exists()

    @pytest.mark.parametrize("trace_arg, trips_arg", [("x.csv", "{abs}"), ("{abs}", "./x.csv")])
    def test_trips_path_equal_to_trace_path_exit_input(self, tmp_path, monkeypatch, capsys,
                                                       trace_arg, trips_arg):
        # One file spelled relative and absolute: the trip log would overwrite the trace.
        monkeypatch.chdir(tmp_path)
        spell = {"abs": str(tmp_path / "x.csv")}
        rc = cli.main(["simulate", "baseline.cfg", "--out-trace", trace_arg.format(**spell),
                       "--out-trips", trips_arg.format(**spell)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --out-trips: ")
        assert not (tmp_path / "x.csv").exists()

    def test_trips_path_hard_linked_to_trace_path_exit_input(self, tmp_path, capsys):
        trace, link = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.write_text("kept\n")
        os.link(trace, link)
        rc = cli.main(["simulate", "baseline.cfg", "--out-trace", str(trace),
                       "--out-trips", str(link)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --out-trips: ")
        assert trace.read_text() == "kept\n"

    def test_empty_workload(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"workload.total_records": "0"})
        rc, trace, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_OK
        assert "trips: 0" in capsys.readouterr().out
        assert trace.read_text().splitlines() == ["row_index,elapsed_ms"]

    def test_enforced_prefetch_moves_peaks(self, tmp_path):
        cfg = config_file(tmp_path, {"driver.enforced_prefetch": "20"})
        rc, trace, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_OK
        samples = read_trace_samples(trace)
        peaks = [row for row, ms in samples if ms > 0]
        assert peaks == list(range(21, 502, 20))

    def test_jittered_rerun_is_byte_identical(self, tmp_path):
        cfg = config_file(tmp_path, {"run.jitter": "0.25"})
        _, trace_a, trips_a = simulate(tmp_path, cfg, stem="a")
        _, trace_b, trips_b = simulate(tmp_path, cfg, stem="b")
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert trips_a.read_bytes() == trips_b.read_bytes()


class TestSeedPrecedence:
    def test_env_overrides_config_and_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = config_file(tmp_path, {"run.jitter": "0.25"})
        _, base, _ = simulate(tmp_path, cfg, stem="base")
        monkeypatch.setenv(SEED_ENV, "99")
        _, env_run, _ = simulate(tmp_path, cfg, stem="env")
        assert env_run.read_bytes() != base.read_bytes()
        _, flagged, _ = simulate(tmp_path, cfg, stem="flag", extra=("--seed", "7"))
        assert flagged.read_bytes() == base.read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**130])
    def test_any_integer_seed_reruns_byte_identical(self, tmp_path, seed):
        runs = [simulate(tmp_path, "baseline.cfg", stem=stem,
                         extra=(f"--seed={seed}", "--jitter", "0.1")) for stem in ("a", "b")]
        assert [rc for rc, _, _ in runs] == [EXIT_OK, EXIT_OK]
        (_, trace_a, trips_a), (_, trace_b, trips_b) = runs
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert trips_a.read_bytes() == trips_b.read_bytes()

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = config_file(tmp_path, {"run.jitter": "0.25"})
        monkeypatch.setenv(SEED_ENV, "lucky")
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert SEED_ENV in capsys.readouterr().err


class TestAnalyze:
    def test_baseline_trace_report(self, tmp_path, capsys):
        _, trace, _ = simulate(tmp_path, "baseline.cfg")
        capsys.readouterr()
        rc = cli.main(["analyze", str(trace)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["peak_rows"] == list(range(11, 502, 10))
        assert report["inferred_prefetch"] == 10
        assert set(report["inter_peak_gaps"]) == {10}
        assert report["confidence"] == 1.0
        assert report["avg_trip_time"] > 0

    def test_empty_trace_is_inconclusive_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("row_index,elapsed_ms\n")
        rc = cli.main(["analyze", str(path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"peak_rows": [], "inferred_prefetch": None,
                          "inter_peak_gaps": [], "avg_trip_time": None,
                          "confidence": 0.0}

    def test_detection_knobs_are_wired(self, tmp_path, capsys):
        _, trace, _ = simulate(tmp_path, "baseline.cfg")
        capsys.readouterr()
        rc = cli.main(["analyze", str(trace), "--median-ratio", "3",
                       "--sigma-k", "2"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inferred_prefetch"] == 10

    @pytest.mark.parametrize("flag, value", [
        ("--median-ratio", "nan"), ("--median-ratio", "inf"), ("--median-ratio", "-1"),
        ("--sigma-k", "nan"), ("--sigma-k", "inf"), ("--sigma-k", "-1"),
    ])
    def test_bad_knob_exit_input_naming_flag(self, tmp_path, capsys, flag, value):
        _, trace, _ = simulate(tmp_path, "baseline.cfg")
        empty = tmp_path / "empty.csv"
        empty.write_text("row_index,elapsed_ms\n")
        capsys.readouterr()
        for path in (trace, empty):
            assert cli.main(["analyze", str(path), f"{flag}={value}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: {flag}:") == 2

    def test_trace_near_float64_top(self, tmp_path):
        # Finite rows, but the mean's sum overflows float64 at this scale.
        path = tmp_path / "top.csv"
        path.write_text("row_index,elapsed_ms\n" + "".join(
            f"{row},{(1000.0 if row in (37, 74) else 1.0) * 2.0**1014!r}\n"
            for row in range(1, 75)))
        done = run_cli("analyze", str(path))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        report = json.loads(done.stdout)
        assert report["peak_rows"] == [37, 74]
        assert report["inferred_prefetch"] == 37
        assert report["confidence"] == 0.5

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["analyze", str(tmp_path / "nope.csv")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("row,latency\n1,0.0\n")
        assert cli.main(["analyze", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize("body, line", [
        (b"1,0.5\n2,nan\n3,1.0\n", 3),
        (b"1,0.5\n2,0.4\n3,inf\n", 4),
        (b"1,0.5\n2,0.4\n3,350.0\n3,350.0\n4,0.5\n", 5),
        (b"1,0.5\n\n3,0.4\n", 4),
        (b"1,0.5\n3,350.0\n2,0.4\n", 3),
        (b"1,abc\n", 2),
        (b"1,0.5\n2\n", 3),
        (b"1,0.5\n2,\xff\n", 3),
        (b"1,0.5\n2,0.4,\xff\n", 3),
        ("1,\xa00.0\n2,5.0\n3,x\n".encode(), 4),
        (b"1,0.5\n   \n2,0.4\n", 3),
    ], ids=["nan", "inf", "duplicate", "gap", "unsorted", "not_a_number", "missing_column",
            "not_utf8", "not_utf8_extra_column", "after_unicode_space", "spaces_only"])
    def test_bad_rows_exit_input_naming_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"row_index,elapsed_ms\n" + body)
        assert cli.main(["analyze", str(path)]) == EXIT_INPUT
        assert f"{path}:{line}:" in capsys.readouterr().err


class TestSweep:
    def test_quantized_mode_matches_model(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        rc = cli.main(["sweep", "baseline.cfg", "--f-range", "1:12",
                       "--mode", "quantized", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# f\telapsed_ms\ttrips\tslope_ms"
        rows = [line.split("\t") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 13))

        cfg = load_config("baseline.cfg")
        k = fetch_sim.cost_constants(cfg.workload, cfg.network, cfg.server,
                                     cfg.driver, 10)
        for f_text, elapsed_text, trips_text, slope_text in rows:
            f = int(f_text)
            expected = quantized_cost(FetchPlan(f, 502), k)
            assert float(elapsed_text) == expected
            assert int(trips_text) == round_trips(502, f)
            next_elapsed = quantized_cost(FetchPlan(f + 1, 502), k)
            assert float(slope_text) == expected - next_elapsed

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("lo, hi", [(1, 40), (250, 252)])  # 251 divides 502
    def test_sim_mode_matches_simulator(self, tmp_path, lo, hi, jitter):
        out = tmp_path / "sweep.tsv"
        rc = cli.main(["sweep", "baseline.cfg", "--f-range", f"{lo}:{hi}",
                       "--mode", "sim", "--jitter", str(jitter), "--out", str(out)])
        assert rc == EXIT_OK
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(lo, hi + 1))

        cfg = load_config("baseline.cfg")

        def simulated(f):
            driver = fetch_sim.DriverSpec(
                recommended_prefetch=cfg.driver.recommended_prefetch,
                enforced_prefetch=f,
                default_prefetch=cfg.driver.default_prefetch,
                per_field_conversion=cfg.driver.per_field_conversion,
                request_overhead=cfg.driver.request_overhead)
            return fetch_sim.simulate_fetch(cfg.workload, cfg.network, cfg.server,
                                            driver, seed=cfg.seed, jitter=jitter)

        for f_text, elapsed_text, trips_text, slope_text in rows:
            trace = simulated(int(f_text))
            assert float(elapsed_text) == trace.total_elapsed_ms
            assert int(trips_text) == len(trace.trip_log)
            next_elapsed = simulated(int(f_text) + 1).total_elapsed_ms
            assert float(slope_text) == trace.total_elapsed_ms - next_elapsed

    def test_reciprocal_mode_strictly_decreasing(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert cli.main(["sweep", "baseline.cfg", "--f-range", "1:40",
                         "--mode", "reciprocal", "--out", str(out)]) == EXIT_OK
        elapsed = [float(line.split("\t")[1])
                   for line in out.read_text().splitlines()[1:]]
        assert all(a > b for a, b in zip(elapsed, elapsed[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = []
        for name in ("one.tsv", "two.tsv"):
            out = tmp_path / name
            cli.main(["sweep", "baseline.cfg", "--f-range", "1:30",
                      "--mode", "sim", "--jitter", "0.2", "--seed", "11",
                      "--out", str(out)])
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spec", ["5:1", "0:10", "abc", "3"])
    def test_bad_range_rejected(self, tmp_path, spec, capsys):
        rc = cli.main(["sweep", "baseline.cfg", "--f-range", spec,
                       "--out", str(tmp_path / "s.tsv")])
        assert rc == EXIT_INPUT
        assert "--f-range" in capsys.readouterr().err


class TestFit:
    TRUE_K = CostConstants(250.0, 0.5, 120.0, 0.4)

    def make_samples(self, sizes, n=502):
        return [FitSample(f, quantized_cost(FetchPlan(f, n), self.TRUE_K), n)
                for f in sizes]

    def test_recovers_constants_from_file(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        write_fit_samples(self.make_samples((5, 10, 25, 50, 100, 168, 251)), path)
        rc = cli.main(["fit", str(path)])
        assert rc == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["k1"] == pytest.approx(250.0, rel=1e-6)
        assert result["k2"] == pytest.approx(0.5, rel=1e-6)
        assert result["k3"] == pytest.approx(120.0, rel=1e-6)
        assert result["k4"] == pytest.approx(0.4, rel=1e-6)
        assert result["sample_count"] == 7
        assert result["condition_warning"] is False

    def test_samples_near_float64_top_print_strict_json(self, tmp_path):
        # The README's samples times 2**1000: squared residuals overflow.
        readme = ((5, 46136.4), (10, 23236.4), (25, 9496.4), (60, 4304.4),
                  (100, 2626.4), (150, 2470.4), (168, 3745.2))
        path = tmp_path / "samples.csv"
        path.write_text("# N=502\nf,elapsed_ms\n" + "".join(
            f"{f},{ms * 2.0**1000!r}\n" for f, ms in readme))
        done = run_cli("fit", str(path))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        result = json.loads(done.stdout, parse_constant=reject)
        assert math.isfinite(result["residual_rms"])

    def test_collinear_samples_exit_model(self, tmp_path, capsys):
        # 10, 25, 50, 100 all leave residual 2 against 502, so the
        # residual-records column is a multiple of the indicator column.
        path = tmp_path / "samples.csv"
        write_fit_samples(self.make_samples((10, 25, 50, 100)), path)
        rc = cli.main(["fit", str(path)])
        assert rc == EXIT_MODEL
        assert "collinear" in capsys.readouterr().err

    def test_bad_header_exit_input(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("# N=502\nprefetch,ms\n10,100.0\n")
        assert cli.main(["fit", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize("row", [b"10,-5.0", b"10,nan", b"0,100.0", b"10,\xff"])
    def test_bad_sample_value_exit_input_naming_line(self, tmp_path, capsys, row):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"# N=502\nf,elapsed_ms\n5,100.0\n" + row + b"\n")
        assert cli.main(["fit", str(path)]) == EXIT_INPUT
        assert f"{path}:4:" in capsys.readouterr().err

    def test_conflicting_n_comments_exit_input_naming_line(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        write_fit_samples(self.make_samples((5, 10, 25, 50, 100, 168, 251)), path)
        with path.open("a") as fh:
            fh.write("# N=9999\n")
        assert cli.main(["fit", str(path)]) == EXIT_INPUT
        assert f"{path}:10:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        (f"# N=502\nf,elapsed_ms\n5,100.0\n{10**400},100.0\n", 4),
        (f"# N={10**400}\nf,elapsed_ms\n5,100.0\n10,90.0\n", 1),
    ], ids=["f", "N"])
    def test_count_beyond_float64_exit_input_naming_line(self, tmp_path, text, line):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        done = run_cli("fit", str(path))
        assert done.returncode == EXIT_INPUT
        assert f"{path}:{line}:" in done.stderr and "Traceback" not in done.stderr

    def test_missing_n_comment_exit_input(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("f,elapsed_ms\n10,100.0\n")
        assert cli.main(["fit", str(path)]) == EXIT_INPUT


class TestRecommend:
    def test_generous_budget(self, capsys):
        rc = cli.main(["recommend", "baseline.cfg", "--budget-bytes", "1000000"])
        assert rc == EXIT_OK
        blocks = capsys.readouterr().out.split("\n\n", 1)
        rec = json.loads(blocks[0])
        assert rec["threshold_f"] == 168
        assert rec["optimal_f"] == 168
        assert rec["round_trips_at_optimal"] == 3
        assert rec["memory_ok"] is True
        assert rec["memory_at_optimal"] == 168 * 4074
        for label in ("bottleneck", "change", "tradeoff", "estimated benefit"):
            assert label in blocks[1]

    def test_budget_cap(self, capsys):
        rc = cli.main(["recommend", "baseline.cfg", "--budget-bytes", "400000"])
        assert rc == EXIT_OK
        blocks = capsys.readouterr().out.split("\n\n", 1)
        rec = json.loads(blocks[0])
        assert rec["optimal_f"] == 400000 // 4074
        assert rec["round_trips_at_optimal"] == round_trips(502, rec["optimal_f"])
        assert rec["memory_ok"] is False
        assert "memory-capped" in blocks[1]

    def test_zero_run_flag(self, capsys):
        rc = cli.main(["recommend", "baseline.cfg", "--budget-bytes", "1000000",
                       "--zero-run", "25"])
        assert rc == EXIT_OK
        rec = json.loads(capsys.readouterr().out.split("\n\n", 1)[0])
        assert rec["threshold_f"] == 126
        assert rec["optimal_f"] == 126
        assert rec["round_trips_at_optimal"] == 4

    def test_budget_below_one_record_exit_model(self, capsys):
        rc = cli.main(["recommend", "baseline.cfg", "--budget-bytes", "100"])
        assert rc == EXIT_MODEL

    def test_empty_workload_exit_model(self, tmp_path):
        cfg = config_file(tmp_path, {"workload.total_records": "0"})
        rc = cli.main(["recommend", cfg, "--budget-bytes", "1000000"])
        assert rc == EXIT_MODEL

    def test_record_count_above_2_53_exit_input_at_parse(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"workload.total_records": str(10**20)})
        assert cli.main(["recommend", cfg, "--budget-bytes", "1000000"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: workload.total_records:")

    def test_record_ceiling_returns_a_flat_block_start(self, tmp_path):
        n = 2**53
        cfg = config_file(tmp_path, {"workload.total_records": str(n)})
        done = run_cli("recommend", cfg, "--budget-bytes", "1000000")
        assert done.returncode == EXIT_OK, done.stderr
        threshold = json.loads(done.stdout.split("\n\n", 1)[0])["threshold_f"]
        trips = round_trips(n, threshold)
        assert round_trips(n, threshold - 1) > trips
        assert round_trips(n, threshold + 50) == trips

    def test_zero_run_longer_than_any_block_returns_n(self):
        done = run_cli("recommend", "baseline.cfg", "--budget-bytes", "1000000",
                       "--zero-run", "100000000000")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout.split("\n\n", 1)[0])["threshold_f"] == 502

    @pytest.mark.parametrize("flags, named", [
        (["--budget-bytes", "0"], "--budget-bytes"),
        (["--budget-bytes=-5"], "--budget-bytes"),
        (["--budget-bytes", "1000000", "--zero-run", "0"], "--zero-run"),
        (["--budget-bytes", "1000000", "--zero-run=-3"], "--zero-run"),
    ])
    def test_bad_flag_exit_input_naming_flag(self, capsys, flags, named):
        assert cli.main(["recommend", "baseline.cfg", *flags]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {named}:")


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"workload.row_count": "5"})
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert "workload.row_count" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path, capsys):
        path = tmp_path / "dup.cfg"
        path.write_text("workload.total_records=5\nworkload.total_records=6\n")
        rc, _, _ = simulate(tmp_path, str(path))
        assert rc == EXIT_INPUT
        assert "duplicate" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        for key in ("workload.total_records", "network.hops"):
            rc, _, _ = simulate(tmp_path, config_file(tmp_path, drop=(key,)))
            assert rc == EXIT_INPUT
            assert capsys.readouterr().err == f"error: {key}: required key missing\n"

    def test_line_without_equals_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "noeq.cfg"
        path.write_text("# comment\nworkload.total_records 502\n")
        rc, _, _ = simulate(tmp_path, str(path))
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: line 2: expected key=value")

    def test_jitter_without_seed(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"run.jitter": "0.2"}, drop=("run.seed",))
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert "run.seed" in capsys.readouterr().err

    def test_per_hop_list_length_mismatch(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"network.bandwidth_bytes_per_ms": "600,700,800"})
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert "network.bandwidth_bytes_per_ms" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(config._KEYS))
    def test_value_outside_its_domain_names_its_key(self, tmp_path, capsys, key):
        parse = config._KEYS[key][2]
        special = {"workload.field_bytes": "0", "run.seed": "x"}
        bad = special.get(key, "-1" if parse is int else "nan")
        rc, _, _ = simulate(tmp_path, config_file(tmp_path, {key: bad}))
        assert rc == EXIT_INPUT
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        (b"workload.total_records=5\xff", "workload.total_records"),
        (b"workload.total\xffrecords=5", "workload.total\ufffdrecords"),
    ], ids=["value", "key"])
    def test_undecodable_bytes_exit_input_naming_key(self, tmp_path, capsys, line, key):
        path = Path(config_file(tmp_path, drop=("workload.total_records",)))
        path.write_bytes(line + b"\n" + path.read_bytes())
        rc, _, _ = simulate(tmp_path, str(path))
        assert rc == EXIT_INPUT
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("jitter", ["2", "nan", "-0.5"])
    def test_out_of_range_jitter_flag_exit_input(self, tmp_path, capsys, jitter):
        rc, _, _ = simulate(tmp_path, "baseline.cfg", extra=(f"--jitter={jitter}",))
        assert rc == EXIT_INPUT
        rc = cli.main(["sweep", "baseline.cfg", "--f-range", "1:5", f"--jitter={jitter}",
                       "--out", str(tmp_path / "s.tsv")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.count("error: --jitter:") == 2

    @pytest.mark.parametrize("key", ["network.bandwidth_bytes_per_ms",
                                     "network.availability"])
    def test_subnormal_effective_bandwidth_names_bandwidth(self, tmp_path, capsys, key):
        # 1e-320 is finite and > 0, but one byte over it takes an
        # infinite time.
        cfg = config_file(tmp_path, {key: "1e-320"})
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert cli.main(["recommend", cfg, "--budget-bytes", "1000000"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: network.bandwidth_bytes_per_ms:") == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep", "recommend"])
    @pytest.mark.parametrize("bandwidth", ["1e-306", "1e-302"])
    def test_whole_set_transport_overflow_names_bandwidth(self, tmp_path, capsys,
                                                          bandwidth, command):
        # One hop's per-byte time is finite, but moving all 502 records is not.
        cfg = config_file(tmp_path, {"network.bandwidth_bytes_per_ms": bandwidth})
        assert cli.main(command_args(tmp_path, command, cfg)) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: network.bandwidth_bytes_per_ms:")

    @pytest.mark.parametrize("key, value", [
        ("network.base_latency_ms", "1e308"),  # each hop finite, the two-hop sum is not
        ("workload.field_bytes", f"{2**53},1"),  # past float64's exact integers
    ])
    def test_sums_past_float64_name_their_key(self, tmp_path, capsys, key, value):
        rc, _, _ = simulate(tmp_path, config_file(tmp_path, {key: value}))
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "sweep_quantized",
                                         "sweep_reciprocal", "recommend"])
    def test_elapsed_total_overflow_exit_model(self, tmp_path, capsys, command):
        # Every trip is finite (1e307 ms of search), but no run total is.
        cfg = config_file(tmp_path, {"server.per_record_search_ms": "1e306"})
        assert cli.main(command_args(tmp_path, command, cfg)) == EXIT_MODEL
        captured = capsys.readouterr()
        assert "inf" not in captured.out
        assert captured.err.startswith("error: elapsed time overflows float64")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # no output file

    def test_readme_key_table_matches_key_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        assert set(re.findall(r"^\| `([\w.]+)` \|", section, re.M)) == set(config._KEYS)

    def test_unknown_preset_lists_bundled_names(self, tmp_path, capsys):
        rc, _, _ = simulate(tmp_path, "no_such.cfg")
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "baseline.cfg" in err

    def test_bundled_presets_all_load(self):
        names = list_presets()
        assert names == ["baseline.cfg", "far_path.cfg", "near_path.cfg",
                         "tiny_result.cfg"]
        for name in names:
            load_config(name)


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_sweep_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "baseline.cfg", "--f-range", "1:5",
                      "--mode", "psychic", "--out", str(tmp_path / "s.tsv")])
        assert exc.value.code == EXIT_USAGE


class TestPythonApi:
    def test_readme_block_runs_and_imports_exactly_the_root_exports(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(block, {})
        assert capsys.readouterr().out == "168 3\n"
        imported = re.search(r"from rowfetch import \(([^)]*)\)", block).group(1)
        exported = {name for name, value in vars(rowfetch).items()
                    if not name.startswith("_") and not inspect.ismodule(value)}
        assert exported == {name.strip() for name in imported.split(",") if name.strip()}


def readme_sessions():
    """Each `$ command` in the README's code blocks, with the lines shown after it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sessions, shown = {}, None
    for line in readme.splitlines():
        if line.startswith("```"):
            shown = None
        elif line.startswith("$ "):
            shown = sessions[line[2:]] = []
        elif shown is not None:
            shown.append(line)
    return sessions


class TestReadmeExamples:
    SESSIONS = readme_sessions()

    def run(self, command, capsys):
        argv = shlex.split(command)
        assert argv[0] == "rowfetch"
        assert cli.main(argv[1:]) == EXIT_OK
        return capsys.readouterr().out.splitlines()

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_simulate_output(self, capsys):
        command = "rowfetch simulate baseline.cfg --out-trace trace.csv"
        assert self.run(command, capsys) == self.SESSIONS[command]

    def test_sweep_summary_and_head(self, capsys):
        command = "rowfetch sweep baseline.cfg --f-range 1:300 --mode sim --out sweep.tsv"
        assert self.run(command, capsys) == self.SESSIONS[command]
        head = Path("sweep.tsv").read_text().splitlines()[:4]
        assert head == self.SESSIONS["head -4 sweep.tsv"]

    def test_recommend_rationale(self, capsys):
        command = "rowfetch recommend baseline.cfg --budget-bytes 1000000"
        out, shown = self.run(command, capsys), self.SESSIONS[command]
        assert out[0].startswith(shown[0].removesuffix(" ...}"))
        assert out[1:] == shown[1:]

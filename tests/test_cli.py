"""End-to-end exercise of the command-line interface.

Each test drives cli.main with real files under tmp_path and checks the
exit code, the printed summary, and the artifacts on disk.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rowfetch
from rowfetch import cli, config, core_model, fetch_sim, trace_analysis, tuner
from rowfetch.cli import EXIT_INPUT, EXIT_MODEL, EXIT_OK, EXIT_USAGE
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


def config_file(tmp_path, overrides=None, drop=(), name="run.cfg") -> str:
    pairs = dict(BASE_PAIRS)
    for key in drop:
        pairs.pop(key, None)
    pairs.update(overrides or {})
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()), encoding="utf-8")
    return str(path)


# The samples of the README's fit example, N = 502.
README_SAMPLES = ((5, 46136.4), (10, 23236.4), (25, 9496.4), (60, 4304.4),
                  (100, 2626.4), (150, 2470.4), (168, 3745.2))

# Any import of numpy in a child process started with this prelude fails.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "
# Likewise for numpy.ma, which np.median imports.
BLOCK_NUMPY_MA = "import sys; sys.modules['numpy.ma'] = None; "
# Likewise for dataclasses, and for inspect, which dataclasses imports.
BLOCK_DATACLASSES = "import sys; sys.modules['dataclasses'] = None; "
BLOCK_INSPECT = "import sys; sys.modules['inspect'] = None; "


def block_layers(*layers: str) -> str:
    """A prelude after which importing any of the named rowfetch modules fails."""
    return f"import sys; sys.modules.update(dict.fromkeys({[f'rowfetch.{m}' for m in layers]})); "


# Every rowfetch module that cli imports only inside a command.
LAYERS = tuple(sorted({m.name for m in pkgutil.iter_modules(rowfetch.__path__)}
                      - {"cli", "core_model"}))


# A child process started with this prelude prints, as it exits, its
# OPENBLAS_NUM_THREADS setting and its thread count (-1 if it cannot count).
REPORT_THREADS = ("import atexit, os, sys; atexit.register(lambda: print("
                  "os.environ.get('OPENBLAS_NUM_THREADS'), "
                  "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
                  "else -1, file=sys.stderr)); ")


def run_python(code: str, *args: str, environ=None, options=(),
               stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python OPTIONS... -c CODE ARGS...` with rowfetch importable.

    The child is killed after 20 s, so a hang fails.  Its environment is
    environ, by default this process's, and its stdout goes to stdout, by
    default a pipe read into the result.
    """
    environ = os.environ if environ is None else environ
    src = str(Path(rowfetch.__file__).resolve().parents[1])
    env = {**environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *options, "-c", code, *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=20)


def run_cli(*args: str, prelude: str = "", environ=None) -> subprocess.CompletedProcess:
    """`rowfetch ARGS...` in a child process that first runs prelude."""
    return run_python(prelude + "from rowfetch.cli import run; run()", *args, environ=environ)


def loaded_after(argv, *modules: str) -> list[str]:
    """Those of modules that a child has imported once it has imported
    rowfetch.cli and, unless argv is empty, run main(argv) to exit 0."""
    done = run_python("import sys, rowfetch.cli; modules, *argv = sys.argv[1:]; "
                      "rc = rowfetch.cli.main(argv) if argv else 0; "
                      "print(*sorted(set(modules.split()) & set(sys.modules)), file=sys.stderr); "
                      "sys.exit(rc)", " ".join(modules), *argv)
    assert done.returncode == EXIT_OK
    return done.stderr.split()


def outputs_match_with_prelude(tmp_path, argv, prelude: str) -> bool:
    """Whether `rowfetch ARGV...` prints and writes the same after prelude as without it.

    Both runs must exit 0 with nothing on stderr.  What a run writes is
    every file in tmp_path after it, where command_args puts a command's
    outputs.
    """
    outputs = []
    for before in (prelude, ""):
        done = run_cli(*argv, prelude=before)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        outputs.append((done.stdout, {path.name: path.read_bytes()
                                      for path in tmp_path.iterdir()}))
    return outputs[0] == outputs[1]


def write_readme_samples(tmp_path) -> Path:
    samples = tmp_path / "samples.csv"
    samples.write_text("# N=502\nf,elapsed_ms\n"
                       + "".join(f"{f},{ms!r}\n" for f, ms in README_SAMPLES))
    return samples


def simulate(tmp_path, config, stem="trace", extra=()):
    out = tmp_path / f"{stem}.csv"
    rc = cli.main(["simulate", config, "--out-trace", str(out), *extra])
    return rc, out, out.with_name(f"{stem}_trips.csv")


def command_args(tmp_path, command: str, cfg: str) -> list[str]:
    """CLI arguments running command on cfg; sweep_MODE is sweep --mode MODE.

    recommend_capped is recommend under a budget that caps baseline.cfg
    at 24 records.
    """
    if command == "simulate":
        return ["simulate", cfg, "--out-trace", str(tmp_path / "t.csv")]
    if command == "recommend":
        return ["recommend", cfg, "--budget-bytes", "1000000"]
    if command == "recommend_capped":
        return ["recommend", cfg, "--budget-bytes", "100000"]
    mode = command.partition("_")[2] or "sim"
    return ["sweep", cfg, "--f-range", "1:5", "--mode", mode, "--out", str(tmp_path / "s.tsv")]


def baseline_args(tmp_path, command: str) -> list[str]:
    """command_args on baseline.cfg, plus fit on the README's samples and
    analyze on baseline.cfg's trace, both written to tmp_path first."""
    if command == "fit":
        return ["fit", str(write_readme_samples(tmp_path))]
    if command == "analyze":
        trace = tmp_path / "in.csv"
        assert cli.main(["simulate", "baseline.cfg", "--out-trace", str(trace)]) == EXIT_OK
        return ["analyze", str(trace)]
    return command_args(tmp_path, command, "baseline.cfg")


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


# Names that earlier versions read: an environment variable that overrode
# run.seed, and a config key that was recorded and never applied.  Each is
# spelled in two parts, so a search of src, tests and the README finds neither.
FORMER_SEED_ENV = "ROWFETCH" + "_SEED"
FORMER_KEY = "driver.recommended" + "_prefetch"


class TestSeedPrecedence:
    @pytest.mark.parametrize("flag, key, value", [("--seed", "run.seed", "99"),
                                                  ("--seed", "run.seed", "-1"),
                                                  ("--seed", "run.seed", str(2**130)),
                                                  ("--jitter", "run.jitter", "0.4")])
    def test_flag_overrides_config(self, tmp_path, flag, key, value):
        cfg = config_file(tmp_path, {"run.jitter": "0.25"})
        _, base, _ = simulate(tmp_path, cfg, stem="base")
        _, flagged, _ = simulate(tmp_path, cfg, stem="flag", extra=(flag, value))
        keyed_cfg = config_file(tmp_path, {"run.jitter": "0.25", key: value}, name="keyed.cfg")
        _, keyed, _ = simulate(tmp_path, keyed_cfg, stem="keyed")
        assert flagged.read_bytes() == keyed.read_bytes() != base.read_bytes()

    def test_seed_flag_on_seedless_config_writes_what_run_seed_writes(self, tmp_path):
        seedless = config_file(tmp_path, {"run.jitter": "0.5"}, drop=("run.seed",))
        seeded = config_file(tmp_path, {"run.jitter": "0.5", "run.seed": "5"}, name="seeded.cfg")
        flag_run = simulate(tmp_path, seedless, stem="flag", extra=("--seed", "5"))
        key_run = simulate(tmp_path, seeded, stem="key")
        assert (flag_run[0], key_run[0]) == (EXIT_OK, EXIT_OK)
        assert [p.read_bytes() for p in flag_run[1:]] == [p.read_bytes() for p in key_run[1:]]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("cfg_jitter, cfg_seed, flags, rc", [
        ("0.5", None, (), EXIT_INPUT),
        ("0.5", None, ("--seed", "5"), EXIT_OK),
        ("0.5", None, ("--jitter", "0"), EXIT_OK),
        ("0", None, ("--jitter", "0.5"), EXIT_INPUT),
        ("0", None, ("--jitter", "0.5", "--seed", "5"), EXIT_OK),
        ("0", None, (), EXIT_OK),
        ("0.5", "7", (), EXIT_OK),
        ("0", "7", ("--jitter", "0.5"), EXIT_OK),
    ])
    def test_jitter_needs_a_seed_from_flag_or_config(self, tmp_path, capsys, command,
                                                     cfg_jitter, cfg_seed, flags, rc):
        seed = {"run.seed": cfg_seed} if cfg_seed else {}
        cfg = config_file(tmp_path, {"run.jitter": cfg_jitter, **seed}, drop=("run.seed",))
        assert cli.main(command_args(tmp_path, command, cfg) + list(flags)) == rc
        expected = "" if rc == EXIT_OK else "error: run.seed: required when jitter > 0\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_former_seed_env_var_changes_nothing(self, tmp_path, monkeypatch, command):
        cfg = config_file(tmp_path, {"run.jitter": "0.25"})
        outputs = []
        for env in (None, "99"):
            if env is not None:
                monkeypatch.setenv(FORMER_SEED_ENV, env)
            assert cli.main(command_args(tmp_path, command, cfg)) == EXIT_OK
            outputs.append(sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()
                                  if p.suffix != ".cfg"))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", [-1, 2**130])
    def test_any_integer_seed_reruns_byte_identical(self, tmp_path, seed):
        runs = [simulate(tmp_path, "baseline.cfg", stem=stem,
                         extra=(f"--seed={seed}", "--jitter", "0.1")) for stem in ("a", "b")]
        assert [rc for rc, _, _ in runs] == [EXIT_OK, EXIT_OK]
        (_, trace_a, trips_a), (_, trace_b, trips_b) = runs
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert trips_a.read_bytes() == trips_b.read_bytes()


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
        (b"1,0.5\n2.0,0.4\n3,0.5\n", 3),
    ], ids=["nan", "inf", "duplicate", "gap", "unsorted", "not_a_number", "missing_column",
            "not_utf8", "not_utf8_extra_column", "after_unicode_space", "spaces_only",
            "float_row_index"])
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
        k = fetch_sim.cost_constants(cfg.workload, cfg.network, cfg.server, cfg.driver)
        for f_text, elapsed_text, trips_text, slope_text in rows:
            f = int(f_text)
            expected = quantized_cost(FetchPlan(f, 502), k)
            assert float(elapsed_text) == expected
            assert int(trips_text) == round_trips(502, f)
            next_elapsed = quantized_cost(FetchPlan(f + 1, 502), k)
            assert float(slope_text) == expected - next_elapsed

    @pytest.mark.parametrize("preset", ["baseline.cfg", "far_path.cfg", "near_path.cfg",
                                        "tiny_result.cfg"])
    def test_quantized_mode_is_sim_mode_at_zero_jitter(self, tmp_path, preset):
        rows = {}
        for mode in ("sim", "quantized"):
            out = tmp_path / f"{mode}.tsv"
            assert cli.main(["sweep", preset, "--f-range", "1:520", "--mode", mode,
                             "--jitter", "0", "--out", str(out)]) == EXIT_OK
            rows[mode] = [[float(x) for x in line.split("\t")]
                          for line in out.read_text().splitlines()[1:]]
        for sim, model in zip(rows["sim"], rows["quantized"], strict=True):
            assert model[0::2] == sim[0::2]  # f and trips
            assert model[1] == pytest.approx(sim[1], rel=1e-12)
            # A slope is a difference of two such totals, so its error is theirs.
            assert model[3] == pytest.approx(sim[3], rel=0.0, abs=1e-12 * sim[1])

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
        path = tmp_path / "samples.csv"
        path.write_text("# N=502\nf,elapsed_ms\n" + "".join(
            f"{f},{ms * 2.0**1000!r}\n" for f, ms in README_SAMPLES))
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

    @pytest.mark.parametrize("row", [b"10,-5.0", b"10,nan", b"0,100.0", b"10,\xff",
                                     b"10,100.0,\xff",  # undecodable past elapsed_ms
                                     # The trace reader's field grammar: no
                                     # underscores, ASCII digits only.
                                     b"1,5_0", b"1_0,50.0", "\u0661,50.0".encode(),
                                     "10,\u0661\u0665.0".encode(),
                                     "# N=\u0665\u0660\u0662".encode()])  # N=502, Arabic-Indic
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


class TestNumpyFreeCommands:
    """Only the commands that build arrays import numpy.

    baseline.cfg runs at jitter 0, so its sim-mode sweep builds none.
    """

    @pytest.mark.parametrize("command", ["recommend", "recommend_capped", "fit", "sweep_sim",
                                         "sweep_quantized", "sweep_reciprocal"])
    def test_runs_and_prints_the_same_with_numpy_blocked(self, tmp_path, command):
        assert outputs_match_with_prelude(tmp_path, baseline_args(tmp_path, command),
                                          BLOCK_NUMPY)

    def test_root_imports_with_numpy_blocked(self):
        done = run_python(BLOCK_NUMPY + "import rowfetch; from rowfetch import "
                          "CostConstants, MemoryBudget, fit_cost_model, recommend")
        assert (done.returncode, done.stderr) == (0, "")

    def test_statistical_analyze_runs_with_numpy_ma_blocked(self, tmp_path):
        # numpy.ma would add about 1.2 MB to analyze's peak memory.
        if run_python(BLOCK_NUMPY_MA + "import numpy").returncode:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        trace = tmp_path / "t.csv"
        trace.write_text("row_index,elapsed_ms\n" + "".join(
            f"{row},{400.0 + row if row % 37 == 1 and row > 1 else 1.0 + row % 7 / 1000}\n"
            for row in range(1, 201)))
        done = [run_cli("analyze", str(trace), prelude=prelude)
                for prelude in (BLOCK_NUMPY_MA, "")]
        assert [(d.returncode, d.stderr) for d in done] == [(EXIT_OK, "")] * 2
        assert done[0].stdout == done[1].stdout
        assert json.loads(done[0].stdout)["peak_rows"] == [38, 75, 112, 149, 186]

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_array_commands_load_no_exact_arithmetic(self, tmp_path, command):
        # No rowfetch module uses rationals, and model_fit would only add
        # to these commands' memory.
        trace = tmp_path / "t.csv"
        assert cli.main(["simulate", "baseline.cfg", "--out-trace", str(trace)]) == EXIT_OK
        argv = (["analyze", str(trace)] if command == "analyze"
                else command_args(tmp_path, command, "baseline.cfg"))
        assert loaded_after(argv, "fractions", "decimal", "rowfetch.model_fit") == []

    @pytest.mark.parametrize("command", ["sweep_sim", "recommend"])
    def test_jitter_free_commands_load_no_exact_arithmetic(self, tmp_path, command):
        # jitter_free_total sums its trips exactly in ints.
        argv = command_args(tmp_path, command, "baseline.cfg")
        assert loaded_after(argv, "fractions", "decimal") == []

    def test_fit_loads_no_exact_arithmetic(self, tmp_path):
        # The fit solves its normal equations exactly in ints.
        assert loaded_after(baseline_args(tmp_path, "fit"), "fractions", "decimal") == []


class TestCommandLayers:
    """cli loads core_model alone; each command imports the layers it runs."""

    def test_import_loads_only_core_model(self):
        done = run_python("import sys, rowfetch.cli; print(sorted(m for m in sys.modules "
                          "if m.partition('.')[0] in ('rowfetch', 'numpy')))")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "['rowfetch', 'rowfetch.cli', 'rowfetch.core_model']\n"

    @pytest.mark.parametrize("command, blocked", [
        ("fit", ("fetch_sim", "config", "tuner")),
        ("analyze", ("fetch_sim", "config", "tuner", "model_fit")),
        ("sweep_sim", ("tuner",)),
    ])
    def test_runs_and_prints_the_same_with_unused_layers_blocked(self, tmp_path, command,
                                                                 blocked):
        assert outputs_match_with_prelude(tmp_path, baseline_args(tmp_path, command),
                                          block_layers(*blocked))

    @pytest.mark.parametrize("command", ["", "sweep_sim"])
    def test_import_and_sweep_load_no_json(self, tmp_path, command):
        # Only analyze, fit and recommend print JSON.
        argv = command_args(tmp_path, command, "baseline.cfg") if command else []
        assert loaded_after(argv, "json") == []

    def test_zero_run_default_is_the_tuners(self):
        args = cli.build_parser().parse_args(["recommend", "baseline.cfg",
                                              "--budget-bytes", "1"])
        assert args.zero_run == tuner.DEFAULT_ZERO_RUN

    @pytest.mark.parametrize("command", ["", "simulate", "analyze", "sweep", "fit",
                                         "recommend"])
    def test_help_loads_no_layer(self, command):
        assert {"config", "fetch_sim", "tuner"} <= set(LAYERS)
        done = run_cli(*command.split(), "--help", prelude=BLOCK_NUMPY + block_layers(*LAYERS))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.startswith(f"usage: rowfetch {command}".rstrip())


class TestNoDataclasses:
    """No command imports dataclasses: the value types are core_model.Records.

    With inspect, which it imports, dataclasses cost every process about
    7 ms of start-up.  numpy imports inspect itself, so it stays
    importable for the commands that build arrays.
    """

    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep_sim", "sweep_quantized",
                                         "sweep_reciprocal", "fit", "recommend"])
    def test_runs_and_writes_the_same_with_dataclasses_blocked(self, tmp_path, command):
        prelude = BLOCK_DATACLASSES + ("" if command in ("simulate", "analyze")
                                       else BLOCK_INSPECT)
        assert outputs_match_with_prelude(tmp_path, baseline_args(tmp_path, command), prelude)

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        done = run_python("import sys, rowfetch.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def numpy_uses_openblas() -> bool:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return False
    return "openblas" in blas.lower()


class TestBlasThreads:
    """A CLI process caps OpenBLAS at one thread unless the user set a count.

    Each child's environment lacks OPENBLAS_NUM_THREADS unless a test sets
    it, so the environment the tests run in cannot mask the result.
    """

    @staticmethod
    def environ(**settings):
        return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | settings

    @staticmethod
    def argv(tmp_path, command):
        trace = tmp_path / "t.csv"
        if command == "simulate":
            return ["simulate", "baseline.cfg", "--out-trace", str(trace)]
        assert cli.main(["simulate", "baseline.cfg", "--out-trace", str(trace)]) == EXIT_OK
        return ["analyze", str(trace)]

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_unset_count_becomes_one(self, tmp_path, command):
        done = run_cli(*self.argv(tmp_path, command), prelude=REPORT_THREADS,
                       environ=self.environ())
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr.split()[0] == "1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="threads are counted in /proc/self/task")
    @pytest.mark.skipif(not numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_process_runs_one_thread(self, tmp_path, command):
        done = run_cli(*self.argv(tmp_path, command), prelude=REPORT_THREADS,
                       environ=self.environ())
        assert (done.returncode, done.stderr) == (EXIT_OK, "1 1\n")

    def test_user_count_is_kept(self, tmp_path):
        done = run_cli(*self.argv(tmp_path, "analyze"), prelude=REPORT_THREADS,
                       environ=self.environ(OPENBLAS_NUM_THREADS="2"))
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr.split()[0] == "2"

    def test_main_in_process_leaves_the_environment_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        for command in ("simulate", "analyze"):
            assert cli.main(self.argv(tmp_path, command)) == EXIT_OK
        assert dict(os.environ) == before


class TestProcessExit:
    """run() ends its process without interpreter teardown, which nobody can observe.

    Its atexit handlers run, stdout and stderr are flushed, and every file a
    command writes is closed before main() returns.
    """

    CASES = ["simulate", "analyze", "sweep_sim", "fit", "recommend", "missing_samples",
             "bad_mode"]

    @staticmethod
    def environ(unbuffered: bool):
        """This process's environment with PYTHONUNBUFFERED set or unset."""
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return environ | {"PYTHONUNBUFFERED": "1"} if unbuffered else environ

    @staticmethod
    def case_args(tmp_path, case: str) -> list[str]:
        if case == "missing_samples":  # exit 3
            return ["fit", str(tmp_path / "missing.csv")]
        if case == "bad_mode":  # exit 2
            return ["sweep", "baseline.cfg", "--f-range", "1:5", "--mode", "psychic",
                    "--out", str(tmp_path / "s.tsv")]
        return baseline_args(tmp_path, case)

    @pytest.mark.parametrize("case", CASES)
    def test_process_matches_main_in_process(self, tmp_path, capsys, case):
        argv = self.case_args(tmp_path, case)
        capsys.readouterr()
        inputs = set(tmp_path.iterdir())

        def take_outputs():
            written = {path: path.read_bytes() for path in set(tmp_path.iterdir()) - inputs}
            for path in written:
                path.unlink()
            return written

        done = run_cli(*argv, environ=self.environ(unbuffered=False))
        in_child = (done.returncode, done.stdout, done.stderr, take_outputs())
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert in_child == (rc, *capsys.readouterr(), take_outputs())
        assert rc == {"missing_samples": EXIT_INPUT, "bad_mode": EXIT_USAGE}.get(case, EXIT_OK)

    def test_atexit_handlers_run_before_the_streams_are_flushed(self):
        # Buffered, so only the flush sends what the handler prints.
        done = run_cli("recommend", "baseline.cfg", "--budget-bytes", "1000000",
                       prelude="import atexit, sys; atexit.register(lambda: (print('out'), "
                               "print('err', file=sys.stderr))); ",
                       environ=self.environ(unbuffered=False))
        assert (done.returncode, done.stderr) == (EXIT_OK, "err\n")
        assert done.stdout.startswith("{") and done.stdout.endswith("\nout\n")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_pipe_exits_as_before(self, unbuffered):
        argv = ["recommend", "baseline.cfg", "--budget-bytes", "1000000"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = [run_python(entry, *argv, environ=self.environ(unbuffered), stdout=write_end)
                    for entry in ("from rowfetch.cli import run; run()",
                                  "import sys; from rowfetch.cli import main; sys.exit(main())")]
        finally:
            os.close(write_end)
        assert (done[0].returncode, done[0].stderr) == (done[1].returncode, done[1].stderr)
        if unbuffered:  # print fails inside main(), which reports it
            assert (done[0].returncode, done[0].stderr) == (
                EXIT_INPUT, "error: [Errno 32] Broken pipe\n")

    def test_missing_stdout_is_no_error(self):
        # Python starts with sys.stdout None when file descriptor 1 is closed.
        done = run_cli("recommend", "baseline.cfg", "--budget-bytes", "1000000",
                       prelude="import os, sys; os.close(1); sys.stdout = None; ")
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "", "")

    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep_sim", "sweep_jittered",
                                         "fit", "recommend"])
    def test_commands_leave_no_file_open(self, tmp_path, command):
        # os._exit would drop what an unclosed file still buffers; under
        # -X dev the normal teardown reports any such file as a ResourceWarning.
        argv = (baseline_args(tmp_path, "sweep_sim") + ["--jitter", "0.1"]
                if command == "sweep_jittered" else baseline_args(tmp_path, command))
        done = run_python("import sys; from rowfetch.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", *argv,
                          options=("-X", "dev", "-W", "error::ResourceWarning"))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")


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

    @pytest.mark.parametrize("preset", ["baseline", "far_path", "near_path", "tiny_result"])
    def test_predicted_elapsed_is_the_simulated_total(self, preset, tmp_path, capsys):
        # The law's constants are priced as the simulator's trips, so the
        # prediction is sim-mode sweep's total at the same size, bit for bit.
        assert cli.main(["recommend", f"{preset}.cfg", "--budget-bytes", "1000000"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out.split("\n\n", 1)[0])
        f, out = rec["optimal_f"], tmp_path / "sim.tsv"
        assert cli.main(["sweep", f"{preset}.cfg", "--mode", "sim", "--f-range", f"{f}:{f}",
                         "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[1].split("\t")[1] == repr(rec["predicted_elapsed"])

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

    def test_seedless_jittered_config_prices_the_jitter_free_law(self, tmp_path, capsys):
        outputs = []
        for jitter in ("0.5", "0"):
            cfg = config_file(tmp_path, {"run.jitter": jitter}, drop=("run.seed",))
            assert cli.main(["recommend", cfg, "--budget-bytes", "1000000"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_jitter_out_of_range_still_exit_input(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"run.jitter": "2"})
        assert cli.main(["recommend", cfg, "--budget-bytes", "1000000"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: run.jitter:")

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
    @pytest.mark.parametrize("key", ["workload.row_count", FORMER_KEY])
    def test_unknown_key(self, tmp_path, capsys, key):
        cfg = config_file(tmp_path, {key: "5"})
        rc, _, _ = simulate(tmp_path, cfg)
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {key}: unknown config key\n"

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

    def test_255_hops_load(self, tmp_path):
        cfg = load_config(config_file(tmp_path, {"network.hops": "255"}))
        assert len(cfg.network.hops) == 255

    def test_256_hops_exit_input_naming_the_key(self, tmp_path, capsys):
        rc, _, _ = simulate(tmp_path, config_file(tmp_path, {"network.hops": "256"}))
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == ("error: network.hops: must be <= 255, the largest"
                                           " IPv4 TTL and IPv6 hop limit\n")

    @pytest.mark.parametrize("key", sorted(config._KEYS))
    def test_value_outside_its_domain_names_its_key(self, tmp_path, capsys, key):
        parse = config._KEYS[key][2]
        special = {"workload.field_bytes": "0", "run.seed": "x"}
        bad = special.get(key, "-1" if parse is core_model._integer else "nan")
        rc, _, _ = simulate(tmp_path, config_file(tmp_path, {key: bad}))
        assert rc == EXIT_INPUT
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recommend", "fit"])
    def test_files_are_read_as_utf8_in_any_locale(self, tmp_path, command):
        # Under the C locale stderr is ASCII and escapes what it cannot encode:
        # an Arabic-Indic 5 read as UTF-8 prints as \u0665, and read by the
        # locale's codec as \ufffd.
        if command == "recommend":
            argv = [config_file(tmp_path, {"workload.total_records": "\u0665\u0660\u0662"}),
                    "--budget-bytes", "1000000"]
        else:
            path = tmp_path / "samples.csv"
            path.write_bytes("# N=502\nf,elapsed_ms\n\u0665,100.0\n".encode())
            argv = [str(path)]
        environ = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
        done = run_cli(command, *argv, environ=environ)
        assert done.returncode == EXIT_INPUT
        assert "\\u0665" in done.stderr and "\\ufffd" not in done.stderr

    # Python's int() and float() read both as 10; the trace and fit readers refuse them.
    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"], ids=["underscore", "arabic_indic"])
    @pytest.mark.parametrize("key", [*sorted(config._KEYS), "--f-range"])
    def test_values_follow_the_readers_number_grammar(self, tmp_path, capsys, key, value):
        if key == "--f-range":
            rc = cli.main(["sweep", config_file(tmp_path), "--f-range", f"1:{value}",
                           "--out", str(tmp_path / "s.tsv")])
        else:
            rc, _, _ = simulate(tmp_path, config_file(tmp_path, {key: value}))
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {key}: expected ")

    # argparse's int() and float() read "1_0" and "٣"; the readers refuse them.
    @pytest.mark.parametrize("value", ["1_0", "٣", "abc"],
                             ids=["underscore", "arabic_indic", "letters"])
    @pytest.mark.parametrize("flag", ["--seed", "--jitter", "--budget-bytes", "--zero-run",
                                      "--median-ratio", "--sigma-k"])
    def test_numeric_flags_follow_the_readers_number_grammar(self, tmp_path, capsys, flag,
                                                             value):
        trace = tmp_path / "t.csv"
        trace.write_text("row_index,elapsed_ms\n1,0.5\n2,400\n")
        argv = {"--seed": ["simulate", "baseline.cfg", "--out-trace", str(tmp_path / "o.csv")],
                "--jitter": ["simulate", "baseline.cfg", "--out-trace", str(tmp_path / "o.csv")],
                "--budget-bytes": ["recommend", "baseline.cfg"],
                "--zero-run": ["recommend", "baseline.cfg", "--budget-bytes", "1000000"],
                "--median-ratio": ["analyze", str(trace)],
                "--sigma-k": ["analyze", str(trace)]}[flag]
        assert cli.main([*argv, flag, value]) == EXIT_INPUT
        captured = capsys.readouterr()
        expected = "an integer" if flag in ("--seed", "--budget-bytes", "--zero-run") else "a number"
        assert captured.err == f"error: {flag}: expected {expected}, got {value!r}\n"
        assert captured.out == ""
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("jitter", ["0", "0.5"])
    def test_trip_cost_overflow_is_one_error_line(self, tmp_path, capsys, jitter):
        # 1e308 ms of search per record leaves float64 while numpy prices
        # the trips; its overflow warning must not precede the error line.
        cfg = config_file(tmp_path, {"server.per_record_search_ms": "1e308"})
        argv = command_args(tmp_path, "simulate", cfg) + ["--jitter", jitter]
        assert cli.main(argv) == EXIT_MODEL
        assert capsys.readouterr().err == ("error: elapsed time overflows float64; "
                                           "the configured costs are too large\n")

    @pytest.mark.parametrize("jitter", ["0", "0.1"])  # priced exactly, and simulated
    @pytest.mark.parametrize("search_ms, rc", [("1e306", EXIT_MODEL), ("1e303", EXIT_OK)])
    def test_sim_sweep_total_overflow_at_scale(self, tmp_path, capsys, jitter, search_ms, rc):
        # At N = 5e4 records, 1e306 ms of search each leaves float64; 1e303 ms does not.
        cfg = config_file(tmp_path, {"server.per_record_search_ms": search_ms,
                                     "workload.total_records": "50000"})
        assert cli.main(command_args(tmp_path, "sweep", cfg) + ["--jitter", jitter]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_OK:
            assert err == ""
        else:
            assert err == ("error: elapsed time overflows float64; "
                           "the configured costs are too large\n")
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


class TestOutOfMemory:
    """An input too large for memory is one error line and exit 3, not a traceback."""

    @pytest.mark.parametrize("module, name, command", [
        (fetch_sim, "simulate_fetch", "simulate"),
        (trace_analysis, "read_trace_samples", "analyze"),
    ], ids=["simulate", "analyze"])
    def test_memory_error_is_exit_input(self, tmp_path, capsys, monkeypatch, module, name,
                                        command):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(module, name, exhausted)
        argv = (["analyze", str(tmp_path / "t.csv")] if command == "analyze"
                else command_args(tmp_path, command, "baseline.cfg"))
        assert cli.main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


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

    def test_fit_output(self, capsys):
        Path("samples.csv").write_text("\n".join(self.SESSIONS["cat samples.csv"]) + "\n")
        assert cli.main(["fit", "samples.csv"]) == EXIT_OK
        # The README wraps the one JSON line; its pieces join back with "".
        assert capsys.readouterr().out == "".join(self.SESSIONS["rowfetch fit samples.csv"]) + "\n"


# sha256 of every CLI output on each bundled preset; TestGoldenDigests says
# how to regenerate them.
GOLDEN_DIGESTS = {
    "baseline": {
        "simulate": "66b0b2d5e85df20e40395e7501a46e972d21bce568b9fe8f00a2301b6d956323",
        "trace.csv": "39edc1e97bc56fdf91bfb26a4e23a466881b62317a1bfc60fa522ef1cb9b3013",
        "trace_trips.csv": "e220abc1a76812b6a66cb41be45d5db9afd82ee75f716b99cfc5837ca3ecb59f",
        "analyze": "0037ac5c883faa98416749322f4e4b2e206f50e17275ff621b8e965e42813761",
        "sim.tsv": "e3270ab202ed85c6faa5bcdd5919ca022457c93bb33760cf27d0bb23289882a1",
        "quantized.tsv": "5fddff2bc129f2b7b1f3f80809f1b17e0362c0aba58cd47f6414a0e358dc245a",
        "reciprocal.tsv": "6b60d1befd0ee3bb56362ee8b902ad71ab03759f848a9e651c7a86b8717fc42f",
        "recommend": "e1487aaf88288e84d56f72f81962162150c31eb1c4fbf84eff9f64785d16704d",
    },
    "near_path": {
        "simulate": "a6a99d24f739f0e22265ead896937912704fbf55765e0db2a15736290d1f9c3e",
        "trace.csv": "bd1dd511e634705b764445e786c2cdd08e6bc76dc75278a3657dcfc345ec904d",
        "trace_trips.csv": "9a5b9dd161d5624d0f548cd300b4e4f009d5f9050765d89d9b65d6e6ed52fcdc",
        "analyze": "d8ace529136a79965de442d741970014c3c97f0ab5404a1918370d3be9b62c01",
        "sim.tsv": "64fdca51efd9e3f97a0c4b2d504aeac864e13ef241ed14e52ee3004f04bbb33a",
        "quantized.tsv": "567ae02ae073ee16d9b1d6817c2e920fca81eab499215e963f7922bab060428e",
        "reciprocal.tsv": "bdc2d6310aeb2d24db3761a35dc2c69068761f1a80db9a3eb59aa61fcc907d86",
        "recommend": "695386805925ef6b81e995fbc287cefa3c6b3fb56cedb5c651b851b8b9190549",
    },
    "far_path": {
        "simulate": "a1b8858d44716ca757a1196aabe2066dc82ebb9494465171211805a2360589cc",
        "trace.csv": "2e976abc69b23cdbe45fabce8b543363770e144e7eab4f380a8b8c5335db5a19",
        "trace_trips.csv": "a696ef7d33bc6a67788f3b2487561fda4c3073def60c3fea9e9590ab183110e8",
        "analyze": "beb1a355dd7fedc84ed31faddb314b8aa12580f86ba4f58a90034253016343e5",
        "sim.tsv": "0012999c2a53b78ac43c0de167cf318baca6598dbaa0f77bf0cbebc6d98a4ffa",
        "quantized.tsv": "98f557f2fda8e8fb726b673e95235bc2e15be4a451bd7f1b426bce518f9695bf",
        "reciprocal.tsv": "15eb33499057323c7e6be621a892dc7e87fb67c0675857a15ec16ee2999c05a6",
        "recommend": "8db0e047423eae351c27de86997bb67114605e0607c4c6a07db190717e21203c",
    },
    "tiny_result": {
        "simulate": "a2ca4038318444e2bc75942dce682477b0d534a708ff4cb03107c3017bbfc279",
        "trace.csv": "48965e5c7920888c8b1f2203c4b36d5de2eec6cc1a14a41d1fe06e248d387ca6",
        "trace_trips.csv": "1c4940b5fb88fb858846c731599325252f29d25dd109830a91ad4232a3aa1f69",
        "analyze": "77409da182a5bae40210cd20959f8333bbb7be8ebe178202eccf17f0bd30fb06",
        "sim.tsv": "7e56fd9232376c035bea22dc813f13d70d0a96245848d3ef07b10a190aed6ee2",
        "quantized.tsv": "0139c366200f52cb078af6a195c0b8af8fd7470a4201c538387cad78e4692c70",
        "reciprocal.tsv": "35465ef35aad90784b344be6a17a481cb2428a9ccd35b663db1a76e3a6559e91",
        "recommend": "f43fecd838d7758ade97c0222c98c2569ff1dd0c91e466eca97f3ee28615dd23",
    },
}


# sha256 of `sweep baseline.cfg --mode sim --jitter 0.1 --seed 7 --f-range 1:50`.
JITTERED_SWEEP_DIGEST = "dcf2aa94d1cc19bb2f29a1ade90499fd62233a1bc1be6d70771dfd0c1595a2ec"


class TestGoldenDigests:
    """Every preset's CLI outputs are byte-identical to the frozen digests.

    Every preset runs at jitter 0 and its trace is mostly exact zeros, so
    no preset digest depends on numpy's RNG or float reductions.  The one
    jittered sim-mode sweep, JITTERED_SWEEP_DIGEST, does: it pins the path
    that still simulates each size.  When an output changes on purpose,
    regenerate the table from an empty directory:

        rf() { PYTHONPATH=<repo>/src python -m rowfetch.cli "$@"; }
        for p in baseline near_path far_path tiny_result; do
          rf simulate $p.cfg --out-trace trace.csv | sha256sum      # simulate
          sha256sum trace.csv trace_trips.csv
          rf analyze trace.csv | sha256sum                          # analyze
          for m in sim quantized reciprocal; do
            rf sweep $p.cfg --f-range 1:300 --mode $m --out $m.tsv > /dev/null
          done
          sha256sum sim.tsv quantized.tsv reciprocal.tsv
          rf recommend $p.cfg --budget-bytes 1000000 | sha256sum    # recommend
        done
        rf sweep baseline.cfg --mode sim --jitter 0.1 --seed 7 --f-range 1:50 \\
          --out jittered.tsv > /dev/null && sha256sum jittered.tsv
    """

    @pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
    def test_outputs_match_frozen_digests(self, preset, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def stdout_of(*argv):
            assert cli.main(list(argv)) == EXIT_OK
            return capsys.readouterr().out.encode()

        outputs = {"simulate": stdout_of("simulate", f"{preset}.cfg", "--out-trace", "trace.csv"),
                   "analyze": stdout_of("analyze", "trace.csv")}
        for mode in ("sim", "quantized", "reciprocal"):
            stdout_of("sweep", f"{preset}.cfg", "--f-range", "1:300", "--mode", mode,
                      "--out", f"{mode}.tsv")
        for name in ("trace.csv", "trace_trips.csv", "sim.tsv", "quantized.tsv",
                     "reciprocal.tsv"):
            outputs[name] = Path(name).read_bytes()
        outputs["recommend"] = stdout_of("recommend", f"{preset}.cfg", "--budget-bytes", "1000000")
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == GOLDEN_DIGESTS[preset]

    def test_jittered_sim_sweep_matches_frozen_digest(self, tmp_path):
        out = tmp_path / "jittered.tsv"
        assert cli.main(["sweep", "baseline.cfg", "--mode", "sim", "--jitter", "0.1",
                         "--seed", "7", "--f-range", "1:50", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == JITTERED_SWEEP_DIGEST

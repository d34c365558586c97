"""rowfetch benchmark: drive the real CLI on seeded workloads and time it.

    python3 bench/run.py --workload trace_1m --seed 1 --seconds 25 --trace 0

Every command runs in a fresh `python -m rowfetch.cli` process, one at a
time, with src/ on the path.  A run generates the workload's inputs from
--seed (untimed), then repeats passes over the workload's commands for
--seconds, checks every output, and prints one JSON object as its last
line of stdout.

--trace 0 reports the end-to-end metrics (tracing off):
  setup_s      median wall time of a fresh interpreter importing rowfetch.cli
  job_s        median, over the passes that ran every command, of the summed
               spawn-to-exit wall time of the pass's command processes
  peak_rss_mb  highest ru_maxrss among the command processes (os.wait4)

--trace 1 runs each command through bench/probe.py instead, untraced and
traced in turn, and reports the per-layer metrics in LAYER_METRICS (medians
over passes), plus `-X importtime` figures and one tracemalloc pass.  The
spans of every traced command are written to .bench_work/.

Inputs and outputs live under .bench_work/ in the checkout; the inputs are
deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ROOT, CheckFailed, Command, WORKLOADS

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PER_PASS = 3
SETUP_MIN = 9
IMPORTTIME_REPEATS = 3

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "config", "core_model", "fetch_sim", "trace_analysis", "model_fit", "tuner")
LAYER_METRICS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.teardown_s": "s",
    "config.load_config_s": "s",
    "core_model.round_trips_calls": "count",
    "fetch_sim.simulate_fetch_s": "s", "fetch_sim.calls": "count", "fetch_sim.trips": "count",
    "fetch_sim.rows_materialized": "count", "fetch_sim.nonzero_rows": "count",
    "fetch_sim.useful_row_ratio": "ratio",
    "fetch_sim.jitter_s": "s", "fetch_sim.write_trace_csv_s": "s",
    "fetch_sim.bytes_written": "bytes", "fetch_sim.cost_constants_s": "s",
    "fetch_sim.simulate_fetch_peak_mb": "MB",
    "trace_analysis.read_trace_samples_s": "s", "trace_analysis.rows_read": "count",
    "trace_analysis.bytes_read": "bytes", "trace_analysis.detect_peaks_s": "s",
    "trace_analysis.peaks": "count", "trace_analysis.zero_floor_rule": "flag",
    "trace_analysis.infer_effective_prefetch_s": "s", "trace_analysis.avg_trip_time_s": "s",
    "trace_analysis.read_trace_samples_peak_mb": "MB",
    "model_fit.import_numpy_s": "s", "model_fit.read_fit_samples_s": "s",
    "model_fit.fit_cost_model_s": "s",
    "tuner.threshold_prefetch_s": "s", "tuner.recommend_s": "s",
    "tuner.slope_evaluations": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """One finished command process."""

    returncode: int
    stdout: str
    wall_s: float
    maxrss_mb: float
    record: dict | None = None  # probe measurements, for probe runs


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ROWFETCH_SEED", None)  # would override the configs' seeds
    return env


def spawn(argv: list[str], logs: Path) -> Outcome:
    """Run argv to completion; wall time from spawn to exit, rusage via wait4."""
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    if proc.returncode != 0 and stderr:
        print(f"[{' '.join(argv[1:4])}...] exit {proc.returncode}: {stderr.strip()[-500:]}",
              file=sys.stderr)
    return Outcome(proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024)


def file_digest(h, path: Path) -> None:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)


@dataclass
class Checker:
    """Judges command outputs and counts attempts and failures.

    Reruns on the same inputs are deterministic, so an output whose bytes
    match an already-verified one is verified without re-parsing it.
    """

    attempted: int = 0
    failed: int = 0
    verified: set = field(default_factory=set)

    def judge(self, cmd: Command, outcome: Outcome) -> bool:
        self.attempted += 1
        ok = outcome.returncode == 0 and self._output_ok(cmd, outcome.stdout)
        self.failed += not ok
        return ok

    def fail(self, problem: str) -> None:
        print(f"check failed: {problem}", file=sys.stderr)
        self.attempted += 1
        self.failed += 1

    def _output_ok(self, cmd: Command, stdout: str) -> bool:
        try:
            h = hashlib.sha256(stdout.encode())
            for path in cmd.outputs:
                file_digest(h, path)
            key = (cmd.name, h.hexdigest())
            if key not in self.verified:
                cmd.check(stdout)
                self.verified.add(key)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"check failed: {cmd.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False
        return True


def run_pass(workload, execute, checker: Checker, modes) -> dict[tuple[str, str], Outcome]:
    """Run each command of one pass in each mode; stop at the first failure."""
    outcomes = {}
    commands = workload.commands()
    while True:
        try:
            cmd = next(commands)
        except StopIteration:
            return outcomes
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            checker.fail(f"preparing the next command: {exc}")
            return outcomes
        for mode in modes:
            outcome = execute(cmd, mode)
            outcomes[cmd.name, mode] = outcome
            if not checker.judge(cmd, outcome):
                return outcomes


def repeat_passes(seconds: float, one_pass) -> list:
    """Call one_pass for about `seconds`: at least once, and again while at
    least half of a pass (as long as the last one) still fits."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if now + (now - start) / 2 > deadline:
            return results


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, workload, logs: Path):
        self.workload = workload
        self.logs = logs
        self.checker = Checker()

    def python(self, *args: str) -> Outcome:
        return spawn([sys.executable, *args], self.logs)

    def execute(self, cmd: Command, mode: str) -> Outcome:
        if mode == "cli":
            return self.python("-m", "rowfetch.cli", *cmd.argv)
        record_path = self.logs / "probe.json"
        record_path.unlink(missing_ok=True)
        outcome = self.python(str(PROBE), mode, str(record_path), *cmd.argv)
        try:
            outcome.record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            outcome.returncode = outcome.returncode or 1  # no record: count it as failed
        return outcome

    def setup_time(self) -> float:
        return self.python("-c", "import rowfetch.cli").wall_s

    def timed(self, seconds: float) -> dict[str, float]:
        self.setup_time()  # warm-up: bytecode and page cache
        setup: list[float] = []

        def one_pass():
            # Interleaved with the passes, so set-up samples the same
            # stretch of machine time as the commands do.
            setup.extend(self.setup_time() for _ in range(SETUP_PER_PASS))
            return run_pass(self.workload, self.execute, self.checker, ("cli",))

        passes = repeat_passes(seconds, one_pass)
        while len(setup) < SETUP_MIN:
            setup.append(self.setup_time())
        # A pass cut short by a failed command has a smaller sum, so only
        # passes that ran every command are timed.
        everything = {c for commands in self.workload.reported.values() for c in commands}
        complete = [p for p in passes if all((c, "cli") in p for c in everything)]
        report = {name: median_or_zero(sum(p[c, "cli"].wall_s for c in commands)
                                       for p in complete)
                  for name, commands in self.workload.reported.items()}
        report["error_rate"] = self.checker.failed / self.checker.attempted
        print_table(f"{self.workload.name}: {len(passes)} passes ({len(complete)} complete), "
                    f"{self.checker.attempted} commands", report,
                    {**dict.fromkeys(report, "s"), "error_rate": "ratio"})
        return {
            "setup_s": statistics.median(setup),
            "job_s": median_or_zero(sum(o.wall_s for o in p.values()) for p in complete),
            "peak_rss_mb": max(o.maxrss_mb for p in passes for o in p.values()),
        }

    def traced(self, seconds: float, spans_out: Path) -> dict[str, float]:
        orders = itertools.cycle((("plain", "spans"), ("spans", "plain")))
        # Alternating which mode runs first keeps order effects out of
        # trace.overhead_s.
        passes = repeat_passes(seconds, lambda: run_pass(
            self.workload, self.execute, self.checker, next(orders)))
        per_pass = [layer_metrics(p) for p in passes]
        metrics = {name: median_or_zero(m.get(name, 0.0) for m in per_pass)
                   for name in LAYER_METRICS}
        memory = run_pass(self.workload, self.execute, self.checker, ("memory",))
        for name in ("fetch_sim.simulate_fetch_peak_mb",
                     "trace_analysis.read_trace_samples_peak_mb"):
            metrics[name] = max((o.record["counts"].get(name, 0.0)
                                 for o in memory.values() if o.record), default=0.0)
        metrics.update(self.import_times())
        with open(spans_out, "w") as fh:
            for number, outcomes in enumerate(passes):
                for (name, mode), outcome in outcomes.items():
                    if mode == "spans" and outcome.record:
                        for span in outcome.record["spans"]:
                            fh.write(json.dumps({"command": f"{number}:{name}",
                                                 "name": span[0], "start": span[1],
                                                 "end": span[2], "parent": span[3]}) + "\n")
        print_table(f"{self.workload.name}: {len(passes)} traced passes, "
                    f"{self.checker.attempted} commands, spans in {spans_out}", metrics,
                    LAYER_METRICS)
        return metrics

    def import_times(self) -> dict[str, float]:
        """Cumulative import times of rowfetch.cli and numpy from -X importtime.

        Importing rowfetch.cli imports the rowfetch package first, inside
        the rowfetch.cli line, so its cumulative time covers the package
        __init__, every module that loads and numpy.
        """
        found = {"cli.import_s": [], "model_fit.import_numpy_s": []}
        for _ in range(IMPORTTIME_REPEATS):
            self.python("-X", "importtime", "-c", "import rowfetch.cli")
            times = parse_importtime((self.logs / "stderr.txt").read_text())
            found["cli.import_s"].append(times.get("rowfetch.cli", 0.0))
            found["model_fit.import_numpy_s"].append(times.get("numpy", 0.0))
        return {name: statistics.median(values) for name, values in found.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """First cumulative time (s) per module in `-X importtime` output."""
    times: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                times.setdefault(name.strip(), int(cumulative) / 1e6)
    return times


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def layer_metrics(outcomes: dict[tuple[str, str], Outcome]) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its commands."""
    metrics: Counter = Counter()
    for (name, mode), outcome in outcomes.items():
        record = outcome.record
        if record is None:
            continue
        if mode == "plain":
            metrics["cli.teardown_s"] += outcome.wall_s - record["import_s"] - record["main_s"]
            metrics["trace.overhead_s"] -= record["main_s"]
        elif mode == "spans":
            metrics["trace.overhead_s"] += record["main_s"]
            metrics.update(record["counts"])
            for span, own in zip(record["spans"], self_times(record["spans"])):
                metric = "cli.self_s" if span[0] == "cli.main" else span[0] + "_s"
                metrics[metric] += own
    rows = metrics["fetch_sim.rows_materialized"]
    metrics["fetch_sim.useful_row_ratio"] = metrics["fetch_sim.nonzero_rows"] / rows if rows else 0.0
    return dict(metrics)


def print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rowfetch" / "cli.py").is_file():
        print(f"error: no rowfetch sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        workload = WORKLOADS[args.workload](run_dir, args.seed)
        runner = Runner(workload, run_dir)
        if args.trace:
            spans_out = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = runner.traced(args.seconds, spans_out)
            units = LAYER_METRICS
        else:
            metrics = runner.timed(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checker = runner.checker
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

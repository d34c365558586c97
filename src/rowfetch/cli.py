"""Command-line front end for the row-prefetch lab.

Subcommands: simulate (emit latency + trip CSVs), analyze (peak report
from a trace), sweep (elapsed vs prefetch size as TSV), fit (recover the
cost constants from measurements), recommend (tuned prefetch size under
a memory budget).

Exit codes: 0 success, 2 usage error, 3 malformed input (config, trace,
samples file or flag value) or an input too large for memory, 4 model
error (unfittable or untunable data).  simulate and sweep take --seed
and --jitter, which override run.seed and run.jitter.  Same inputs and
seed always produce byte-identical outputs.

Importing this module loads only core_model, which every command uses.
Each command imports the layers it runs when it runs: simulate and
sweep load config and fetch_sim, recommend loads config, fetch_sim and
tuner, analyze loads trace_analysis, and fit loads model_fit.  Building
the parser (and so --help) loads none of them.  Only analyze, fit and
recommend print JSON, so only they import json.

Only simulate, analyze and a jittered sim-mode sweep build arrays, and
only they import numpy: fetch_sim imports it inside the functions that
build arrays, and trace_analysis imports it at load.  A jitter-free
sim-mode sweep prices each size exactly with
fetch_sim.jitter_free_total, which builds no array.

Run as a program (the rowfetch script or python -m rowfetch.cli), the
CLI sets OPENBLAS_NUM_THREADS=1 unless the environment already sets it,
before numpy is first imported.  No rowfetch code calls a BLAS routine,
so OpenBLAS's worker threads would only cost start-up time.

A program run also ends without the interpreter's teardown.  Once
main() returns its exit code, run() calls the atexit handlers, flushes
stdout and stderr, and ends the process with os._exit.  That skips the
final garbage collection and module clearing, which took 8-12 ms a
process on a 2-vCPU machine, and 20-22 ms once numpy was loaded.
Every file a command writes is closed by its with block before main()
returns, so nothing is lost.  If the flush fails (a closed stdout pipe,
say), run() exits through sys.exit as before.  A usage error and an
uncaught exception exit as before too.

main() sets no environment variable and ends no process, for callers
that run it in-process.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core_model import (FieldError, InputError, _curve_points, _integer, _number, replace,
                         round_trips)

if TYPE_CHECKING:
    from .config import RunConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MODEL = 4

# The flag behind each field a FieldError can name; any other field is the model's.
_FLAG_OF = {"jitter": "--jitter", "median_ratio": "--median-ratio",
            "sigma_k": "--sigma-k", "max_bytes": "--budget-bytes", "zero_run": "--zero-run"}
# The numeric flags, read with the readers' number grammar rather than by argparse.
_NUMBER_FLAGS = {"--seed": _integer, "--jitter": _number, "--budget-bytes": _integer,
                 "--zero-run": _integer, "--median-ratio": _number, "--sigma-k": _number}


# bench/probe.py times config loads by patching this name, so the commands
# call it rather than config.load_config, until the package reports its own run stats.
def load_config(*args, **kwargs) -> RunConfig:
    from . import config
    return config.load_config(*args, **kwargs)


def _run_config(args) -> RunConfig:
    """The config with --seed and --jitter applied and checked."""
    return load_config(args.config, seed=args.seed, jitter=args.jitter)


def _simulate(cfg: RunConfig, driver):
    """fetch_sim.simulate_fetch of cfg under driver; running out of memory names the input."""
    from . import fetch_sim

    try:
        return fetch_sim.simulate_fetch(cfg.workload, cfg.network, cfg.server, driver,
                                        seed=cfg.seed, jitter=cfg.jitter)
    except MemoryError:
        n, f = cfg.workload.total_records, fetch_sim.effective_prefetch(driver)
        raise InputError(f"workload.total_records: {n} records in {round_trips(n, f)} trips "
                         f"at prefetch {f} are too many for memory") from None


def cmd_simulate(args) -> int:
    from . import fetch_sim

    cfg = _run_config(args)
    trace_path = Path(args.out_trace)
    trips_path = (Path(args.out_trips) if args.out_trips
                  else trace_path.with_name(trace_path.stem + "_trips.csv"))
    if trips_path.resolve() == trace_path.resolve() or (
            trace_path.exists() and trips_path.exists() and trips_path.samefile(trace_path)):
        raise InputError(f"--out-trips: {trips_path} is the --out-trace file; "
                         "the trip log would overwrite the trace")
    trace = _simulate(cfg, cfg.driver)
    fetch_sim.write_trace_csv(trace, trace_path, trips_path)
    # Execution is trip 1's request + execute; retrieval is the rest, its refill included.
    execution = math.fsum(trace.components[:1, :2].flat)
    retrieval = trace.total_elapsed_ms - execution
    print(f"effective_prefetch: {trace.effective_prefetch}")
    print(f"trips: {len(trace.records)}")
    print(f"total_elapsed_ms: {trace.total_elapsed_ms!r}")
    print(f"execution_ms: {execution!r}")
    print(f"retrieval_ms: {retrieval!r}")
    print(f"trace: {trace_path}")
    print(f"trip_log: {trips_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    import json

    from . import trace_analysis

    try:
        # The array is passed on, not kept, so it is freed before the JSON is built.
        report = trace_analysis.analyze_trace(trace_analysis.read_trace_samples(args.trace),
                                              median_ratio=args.median_ratio,
                                              sigma_k=args.sigma_k)
    except MemoryError:
        raise InputError(f"{args.trace}: the trace is too large for memory") from None
    # vars() is the report's fields in order, its tuples shared, not copied.
    print(json.dumps(vars(report)))
    return EXIT_OK


def _parse_f_range(spec: str) -> tuple[int, int]:
    try:
        lo, hi = map(_integer, spec.split(":", 1))
    except ValueError:
        raise InputError(f"--f-range: expected LO:HI, got {spec!r}") from None
    if lo < 1 or hi < lo:
        raise InputError(f"--f-range: need 1 <= LO <= HI, got {spec!r}")
    return lo, hi


def cmd_sweep(args) -> int:
    from . import fetch_sim

    cfg = _run_config(args)
    lo, hi = _parse_f_range(args.f_range)
    n = cfg.workload.total_records
    sizes = range(lo, hi + 2)  # one past hi for the last forward difference
    # Each size is priced only as its row is written, so memory is O(1) in the range.
    if args.mode == "sim" and not cfg.jitter:
        elapsed = (fetch_sim.jitter_free_total(cfg.workload, cfg.network, cfg.server,
                                               replace(cfg.driver, enforced_prefetch=f))
                   for f in sizes)
    elif args.mode == "sim":
        elapsed = (_simulate(cfg, replace(cfg.driver, enforced_prefetch=f)).total_elapsed_ms
                   for f in sizes)
    else:
        k = fetch_sim.cost_constants(cfg.workload, cfg.network, cfg.server, cfg.driver)
        elapsed = (p.elapsed for p in _curve_points(n, lo, hi + 1, k, args.mode))
    rows = itertools.pairwise(elapsed)
    rows = itertools.chain([next(rows)], rows)  # the first row priced before the file exists
    with open(args.out, "w") as fh:
        try:
            fh.write("# f\telapsed_ms\ttrips\tslope_ms\n")
            for f, (ms, nxt) in zip(sizes, rows):
                fh.write(f"{f}\t{ms!r}\t{round_trips(n, f)}\t{ms - nxt!r}\n")
        except BaseException:  # a later size failed: leave no partial file
            fh.close()
            os.remove(args.out)
            raise
    print(f"sweep: {args.out} ({hi - lo + 1} sizes, mode {args.mode})")
    return EXIT_OK


def cmd_fit(args) -> int:
    import json

    from . import model_fit

    samples = model_fit.read_fit_samples(args.samples)
    result = model_fit.fit_cost_model(samples)
    print(json.dumps(vars(result)))
    return EXIT_OK


def cmd_recommend(args) -> int:
    import json

    from . import fetch_sim, tuner

    # The jitter-free law is priced, so a jittered config needs no seed here.
    cfg = load_config(args.config, jitter=0.0)
    n = cfg.workload.total_records
    budget = tuner.MemoryBudget(args.budget_bytes, cfg.workload.record_bytes)
    k = fetch_sim.cost_constants(cfg.workload, cfg.network, cfg.server, cfg.driver)
    rec = tuner.recommend(n, budget, k, zero_run=args.zero_run)
    print(json.dumps(vars(rec)))
    print()
    print(tuner.render_recommendation(n, rec, budget))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowfetch",
        description="Row-prefetch performance lab: simulate, analyze, sweep, fit, recommend.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The inputs of a run: simulate and sweep share them.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("config", help="config file path or bundled preset name")
    run.add_argument("--seed", help="override run.seed")
    run.add_argument("--jitter", help="override run.jitter")

    p = sub.add_parser("simulate", parents=[run],
                       help="simulate one fetch and write trace CSVs")
    p.add_argument("--out-trace", required=True, help="per-row samples CSV path")
    p.add_argument("--out-trips", help="trip component CSV path "
                                       "(default: <out-trace>_trips.csv)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="peak report for a latency trace CSV")
    p.add_argument("trace", help="row_index,elapsed_ms CSV path")
    p.add_argument("--median-ratio", default=10.0,
                   help="peak threshold as a multiple of the trace median")
    p.add_argument("--sigma-k", default=3.0,
                   help="peak threshold in standard deviations above the mean")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", parents=[run], help="elapsed vs prefetch size over a range")
    p.add_argument("--f-range", required=True, help="inclusive range LO:HI")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--mode", choices=("sim", "quantized", "reciprocal"),
                   default="sim", help="simulate per size, or draw a model curve")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fit", help="fit the cost constants to f,elapsed_ms samples")
    p.add_argument("samples", help="samples CSV with a `# N=<count>` comment")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("recommend", help="tuned prefetch size under a memory budget")
    p.add_argument("config", help="config file path or bundled preset name")
    p.add_argument("--budget-bytes", required=True,
                   help="client prefetch cache ceiling in bytes")
    # tuner.DEFAULT_ZERO_RUN, written out so that building the parser loads no tuner.
    p.add_argument("--zero-run", default=50,
                   help="sizes of sustained zero trip decrease marking the threshold")
    p.set_defaults(fn=cmd_recommend)
    return parser


def _parse_numbers(args) -> None:
    """Replace each numeric flag's text by its value; a refused one is an InputError."""
    for flag, parse in _NUMBER_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        text = getattr(args, dest, None)
        if isinstance(text, str):  # not a default, and not absent
            try:
                setattr(args, dest, parse(text))
            except ValueError:
                expected = "an integer" if parse is _integer else "a number"
                raise InputError(f"{flag}: expected {expected}, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _parse_numbers(args)
        return args.fn(args)
    except FieldError as exc:
        flag = _FLAG_OF.get(exc.field)
        print(f"error: {flag}: {exc.rule}" if flag else f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if flag else EXIT_MODEL
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: the input is too large for memory", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def run() -> None:
    """The rowfetch program: main() on sys.argv, ended without interpreter teardown."""
    # Before numpy is imported, so OpenBLAS starts no thread pool that nothing uses.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    atexit._run_exitfuncs()  # the first step of the teardown skipped below
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when Python started with the fd closed
                stream.flush()
    except OSError:
        sys.exit(code)  # the teardown reports the failed flush as it always has
    os._exit(code)


if __name__ == "__main__":
    run()

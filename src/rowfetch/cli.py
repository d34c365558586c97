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
the parser (and so --help) loads none of them.

Only simulate, analyze and a jittered sim-mode sweep build arrays, and
only they import numpy: fetch_sim imports it inside the functions that
build arrays, and trace_analysis imports it at load.  A jitter-free
sim-mode sweep prices each size exactly with
fetch_sim.jitter_free_total, which builds no array.

Run as a program (the rowfetch script or python -m rowfetch.cli), the
CLI sets OPENBLAS_NUM_THREADS=1 unless the environment already sets it,
before numpy is first imported.  No rowfetch code calls a BLAS routine,
so OpenBLAS's worker threads would only cost start-up time.  main()
leaves the environment alone, for callers that run it in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .core_model import FieldError, InputError, round_trips, sweep_curve

if TYPE_CHECKING:
    from .config import RunConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_MODEL = 4

# The flag behind each field a FieldError can name; any other field is the model's.
_FLAG_OF = {"jitter": "--jitter", "median_ratio": "--median-ratio",
            "sigma_k": "--sigma-k", "max_bytes": "--budget-bytes", "zero_run": "--zero-run"}


# bench/probe.py times config loads by patching this name, so the commands
# call it rather than config.load_config.  The package's own run stats
# (ROADMAP item 7) remove it.
def load_config(*args, **kwargs) -> RunConfig:
    from . import config
    return config.load_config(*args, **kwargs)


def _run_config(args) -> RunConfig:
    """The config with --seed and --jitter applied and checked."""
    return load_config(args.config, seed=args.seed, jitter=args.jitter)


def cmd_simulate(args) -> int:
    from . import fetch_sim
    from .config import ConfigError

    cfg = _run_config(args)
    trace_path = Path(args.out_trace)
    trips_path = (Path(args.out_trips) if args.out_trips
                  else trace_path.with_name(trace_path.stem + "_trips.csv"))
    if trips_path.resolve() == trace_path.resolve() or (
            trace_path.exists() and trips_path.exists() and trips_path.samefile(trace_path)):
        raise ConfigError("--out-trips", f"{trips_path} is the --out-trace file; "
                          "the trip log would overwrite the trace")
    trace = fetch_sim.simulate_fetch(cfg.workload, cfg.network, cfg.server, cfg.driver,
                                     seed=cfg.seed, jitter=cfg.jitter)
    fetch_sim.write_trace_csv(trace, trace_path, trips_path)
    execution, retrieval = fetch_sim.stage_breakdown(trace)
    print(f"effective_prefetch: {trace.effective_prefetch}")
    print(f"trips: {len(trace.records)}")
    print(f"total_elapsed_ms: {trace.total_elapsed_ms!r}")
    print(f"execution_ms: {execution!r}")
    print(f"retrieval_ms: {retrieval!r}")
    print(f"trace: {trace_path}")
    print(f"trip_log: {trips_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import trace_analysis

    # The array is passed on, not kept, so it is freed before the JSON is built.
    report = trace_analysis.analyze_trace(trace_analysis.read_trace_samples(args.trace),
                                          median_ratio=args.median_ratio,
                                          sigma_k=args.sigma_k)
    # vars() is the shallow form of dataclasses.asdict, which would
    # deep-copy every peak row and gap one by one.
    print(json.dumps(vars(report)))
    return EXIT_OK


def _parse_f_range(spec: str) -> tuple[int, int]:
    from .config import ConfigError

    try:
        lo_text, hi_text = spec.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError("--f-range", f"expected LO:HI, got {spec!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError("--f-range", f"need 1 <= LO <= HI, got {spec!r}")
    return lo, hi


def cmd_sweep(args) -> int:
    from . import fetch_sim

    cfg = _run_config(args)
    lo, hi = _parse_f_range(args.f_range)
    n = cfg.workload.total_records
    sizes = range(lo, hi + 2)  # one past hi for the last forward difference
    if args.mode == "sim" and not cfg.jitter:
        elapsed = [fetch_sim.jitter_free_total(cfg.workload, cfg.network, cfg.server,
                                               replace(cfg.driver, enforced_prefetch=f))
                   for f in sizes]
    elif args.mode == "sim":
        elapsed = [fetch_sim.simulate_fetch(cfg.workload, cfg.network, cfg.server,
                                            replace(cfg.driver, enforced_prefetch=f),
                                            seed=cfg.seed, jitter=cfg.jitter).total_elapsed_ms
                   for f in sizes]
    else:
        k = fetch_sim.cost_constants(cfg.workload, cfg.network, cfg.server, cfg.driver)
        elapsed = [p.elapsed for p in sweep_curve(n, lo, hi + 1, k, args.mode)]
    with open(args.out, "w") as fh:
        fh.write("# f\telapsed_ms\ttrips\tslope_ms\n")
        for f, ms, nxt in zip(sizes, elapsed, elapsed[1:]):
            fh.write(f"{f}\t{ms!r}\t{round_trips(n, f)}\t{ms - nxt!r}\n")
    print(f"sweep: {args.out} ({hi - lo + 1} sizes, mode {args.mode})")
    return EXIT_OK


def cmd_fit(args) -> int:
    from . import model_fit

    samples = model_fit.read_fit_samples(args.samples)
    result = model_fit.fit_cost_model(samples)
    print(json.dumps(vars(result)))
    return EXIT_OK


def cmd_recommend(args) -> int:
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
    run.add_argument("--seed", type=int, help="override run.seed")
    run.add_argument("--jitter", type=float, help="override run.jitter")

    p = sub.add_parser("simulate", parents=[run],
                       help="simulate one fetch and write trace CSVs")
    p.add_argument("--out-trace", required=True, help="per-row samples CSV path")
    p.add_argument("--out-trips", help="trip component CSV path "
                                       "(default: <out-trace>_trips.csv)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="peak report for a latency trace CSV")
    p.add_argument("trace", help="row_index,elapsed_ms CSV path")
    p.add_argument("--median-ratio", type=float, default=10.0,
                   help="peak threshold as a multiple of the trace median")
    p.add_argument("--sigma-k", type=float, default=3.0,
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
    p.add_argument("--budget-bytes", type=int, required=True,
                   help="client prefetch cache ceiling in bytes")
    # tuner.DEFAULT_ZERO_RUN, written out so that building the parser loads no tuner.
    p.add_argument("--zero-run", type=int, default=50,
                   help="sizes of sustained zero trip decrease marking the threshold")
    p.set_defaults(fn=cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    # Before numpy is imported, so OpenBLAS starts no thread pool that nothing uses.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    run()

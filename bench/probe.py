"""Run one rowfetch CLI command in this process and record what it did.

    python3 bench/probe.py MODE RECORD_JSON CLI_ARG...

The command runs through rowfetch.cli.main exactly as `rowfetch CLI_ARG...`
would; its stdout and exit code are the command's own.  RECORD_JSON
receives the measurements:

* plain  -- import time of rowfetch.cli and the duration of main();
* spans  -- also a span around each layer's public functions (patched on
  the module attributes their callers look up), call counters, counts
  taken from the values they return, exceptions raised out of them, and
  the cost of jitter (a jittered simulate_fetch call repeated at
  jitter 0);
* memory -- the tracemalloc peak of the first simulate_fetch and
  read_trace_samples call, in a pass of its own because tracemalloc
  slows allocation several times over.

Spans stay in memory as [name, start, end, parent] and are written out
once main() returns.  Nothing here is imported by rowfetch itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute its caller looks up, span name).  The span name's
# prefix is the layer that owns the function.
SPANNED = (
    ("cli", "load_config", "config.load_config"),
    ("fetch_sim", "simulate_fetch", "fetch_sim.simulate_fetch"),
    ("fetch_sim", "write_trace_csv", "fetch_sim.write_trace_csv"),
    ("fetch_sim", "cost_constants", "fetch_sim.cost_constants"),
    ("trace_analysis", "read_trace_samples", "trace_analysis.read_trace_samples"),
    ("trace_analysis", "detect_peaks", "trace_analysis.detect_peaks"),
    ("trace_analysis", "infer_effective_prefetch", "trace_analysis.infer_effective_prefetch"),
    ("trace_analysis", "avg_trip_time_from_trace", "trace_analysis.avg_trip_time"),
    ("model_fit", "read_fit_samples", "model_fit.read_fit_samples"),
    ("model_fit", "fit_cost_model", "model_fit.fit_cost_model"),
    ("tuner", "recommend", "tuner.recommend"),
    ("tuner", "threshold_prefetch", "tuner.threshold_prefetch"),
)

# Hot functions get a call counter instead of a span.  round_trips is
# imported by name into several modules, so each binding is patched.
COUNTED = (
    ("core_model", "round_trips", "core_model.round_trips_calls"),
    ("fetch_sim", "round_trips", "core_model.round_trips_calls"),
    ("tuner", "round_trips", "core_model.round_trips_calls"),
    ("cli", "round_trips", "core_model.round_trips_calls"),
    ("tuner", "trip_decrease_per_unit_f", "tuner.slope_evaluations"),
)

MEMORY = (
    ("fetch_sim", "simulate_fetch", "fetch_sim.simulate_fetch_peak_mb"),
    ("trace_analysis", "read_trace_samples", "trace_analysis.read_trace_samples_peak_mb"),
)

COUNT_SPAN = "bench.count"


def _module(name: str):
    return importlib.import_module(f"rowfetch.{name}")


class Recorder:
    """Spans, counters and error tallies for one command."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.jittered_call = None  # (fn, bound arguments, span index)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        hook = HOOKS.get(name)
        if hook is not None:
            # Counting runs as a sibling span so it is not billed to the
            # caller's self time.
            count = [COUNT_SPAN, time.perf_counter(), None, parent]
            hook(self, index, fn, result, args, kwargs)
            count[2] = time.perf_counter()
            self.spans.append(count)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[name.split(".", 1)[0] + ".errors"] += 1
                raise
        return counted

    def install(self) -> None:
        for module, attr, name in SPANNED:
            mod = _module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, attr, name in COUNTED:
            mod = _module(module)
            setattr(mod, attr, self.counter(name, getattr(mod, attr)))

    def measure_jitter(self) -> None:
        """fetch_sim.jitter_s: the jittered call's span minus the same call at jitter 0."""
        if self.jittered_call is None:
            return
        fn, bound, index = self.jittered_call
        arguments = dict(bound.arguments, jitter=0.0)
        start = time.perf_counter()
        fn(**arguments)
        zero_jitter_s = time.perf_counter() - start
        _, begin, end, _ = self.spans[index]
        self.counts["fetch_sim.jitter_s"] += (end - begin) - zero_jitter_s


def _count_simulate(rec, index, fn, trace, args, kwargs):
    rec.counts["fetch_sim.calls"] += 1
    rec.counts["fetch_sim.trips"] += len(trace.trip_log)
    rec.counts["fetch_sim.rows_materialized"] += len(trace.samples)
    rec.counts["fetch_sim.nonzero_rows"] += sum(1 for _, ms in trace.samples if ms)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["jitter"] and rec.jittered_call is None:
        rec.jittered_call = (fn, bound, index)


def _count_write(rec, index, fn, result, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    rec.counts["fetch_sim.bytes_written"] += sum(
        os.path.getsize(bound.arguments[p]) for p in ("samples_path", "trips_path"))


def _count_read(rec, index, fn, samples, args, kwargs):
    rec.counts["trace_analysis.rows_read"] += len(samples)
    rec.counts["trace_analysis.bytes_read"] += os.path.getsize(args[0])


def _count_peaks(rec, index, fn, peaks, args, kwargs):
    samples = args[0]
    zeros = sum(1 for _, ms in samples if ms == 0.0)
    rec.counts["trace_analysis.peaks"] += len(peaks)
    rec.counts["trace_analysis.zero_floor_rule"] |= int(zeros > len(samples) / 2)


HOOKS = {
    "fetch_sim.simulate_fetch": _count_simulate,
    "fetch_sim.write_trace_csv": _count_write,
    "trace_analysis.read_trace_samples": _count_read,
    "trace_analysis.detect_peaks": _count_peaks,
}


def install_memory_probes(peaks: dict) -> None:
    """Measure the tracemalloc peak of the first call of each MEMORY function."""
    for module, attr, name in MEMORY:
        mod = _module(module)
        original = getattr(mod, attr)

        def first_call_peak(*args, _fn=original, _name=name, **kwargs):
            if _name in peaks:
                return _fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return _fn(*args, **kwargs)
            finally:
                peaks[_name] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        setattr(mod, attr, first_call_peak)


def main() -> int:
    mode, record_path, *argv = sys.argv[1:]
    start = time.perf_counter()
    from rowfetch import cli
    import_s = time.perf_counter() - start

    recorder = Recorder()
    peaks: dict[str, float] = {}
    if mode == "spans":
        recorder.install()
    elif mode == "memory":
        install_memory_probes(peaks)
    elif mode != "plain":
        raise SystemExit(f"unknown probe mode {mode!r}")

    start = time.perf_counter()
    try:
        if mode == "spans":
            rc = recorder.call("cli.main", cli.main, argv)
        else:
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    if mode == "spans":
        recorder.measure_jitter()

    with open(record_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "spans": recorder.spans,
                   "counts": {**recorder.counts, **peaks}}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Row-prefetch performance laboratory.

Cost-model arithmetic, deterministic fetch simulation, latency-trace
analysis, least-squares constant recovery, and prefetch-size tuning for
batched database row transport.  The root exports only the names of the
README's Python API example; import any other name from its module.

Each name is imported from its module on first access (PEP 562), so
`import rowfetch` loads no layer, and numpy only with a layer that
builds arrays.
"""

import importlib

_EXPORTS = {
    "CostConstants": "core_model", "FetchPlan": "core_model", "WorkloadSpec": "core_model",
    "quantized_cost": "core_model",
    "DriverSpec": "fetch_sim", "NetworkSpec": "fetch_sim", "ServerSpec": "fetch_sim",
    "simulate_fetch": "fetch_sim",
    "fit_cost_model": "model_fit",
    "analyze_trace": "trace_analysis",
    "MemoryBudget": "tuner", "recommend": "tuner",
}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value

"""Row-prefetch performance laboratory.

Cost-model arithmetic, deterministic fetch simulation, latency-trace
analysis, least-squares constant recovery, and prefetch-size tuning for
batched database row transport.
"""

from .core_model import (
    CostConstants,
    CurvePoint,
    FetchPlan,
    FieldError,
    SlopeRow,
    WorkloadSpec,
    quantized_cost,
    reciprocal_cost,
    round_trips,
    slope_table,
    sweep_curve,
    trip_decrease_per_unit_f,
)
from .fetch_sim import (
    DriverSpec,
    HopSpec,
    LatencyTrace,
    NetworkSpec,
    ServerSpec,
    TripRecord,
    cost_constants,
    effective_prefetch,
    simulate_fetch,
    stage_breakdown,
    transport_time,
    write_trace_csv,
)
from .trace_analysis import (
    PeakReport,
    analyze_trace,
    avg_trip_time_from_trace,
    detect_peaks,
    infer_effective_prefetch,
    read_trace_samples,
)
from .model_fit import (
    FitResult,
    FitSample,
    fit_cost_model,
    read_fit_samples,
    write_fit_samples,
)
from .tuner import (
    MemoryBudget,
    Recommendation,
    check_memory,
    optimal_prefetch,
    recommend,
    threshold_prefetch,
)
from .config import ConfigError, RunConfig, list_presets, load_config, parse_config

__version__ = "0.1.0"

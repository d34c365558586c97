"""Row-prefetch performance laboratory.

Cost-model arithmetic, deterministic fetch simulation, latency-trace
analysis, least-squares constant recovery, and prefetch-size tuning for
batched database row transport.  The root exports only the names of the
README's Python API example; import any other name from its module.
"""

from .core_model import CostConstants, FetchPlan, WorkloadSpec, quantized_cost
from .fetch_sim import DriverSpec, NetworkSpec, ServerSpec, simulate_fetch
from .model_fit import fit_cost_model
from .trace_analysis import analyze_trace
from .tuner import MemoryBudget, recommend

__version__ = "0.1.0"

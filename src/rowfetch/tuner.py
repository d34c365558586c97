"""Pick a prefetch size: past the knee of the curve, as small as possible.

Raising the prefetch size stops paying off once it no longer removes
round trips.  The threshold finder walks f upward until the trip count
has been flat for a sustained run of sizes (a single flat step can be a
local plateau between drops, not the knee).  The optimal size is then
the smallest f that still achieves the threshold's trip count, which
wastes no client memory.  A memory budget can cap the result, in which
case the trip count is recomputed honestly for the capped size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core_model import (
    CostConstants,
    FetchPlan,
    quantized_cost,
    require,
    round_trips,
    trip_decrease_per_unit_f,
)

DEFAULT_ZERO_RUN = 50

CostSource = CostConstants | Callable[[int], CostConstants]


@dataclass(frozen=True)
class MemoryBudget:
    """Client-side cache ceiling: total bytes and the per-record cost."""

    max_bytes: int
    record_bytes: int

    def __post_init__(self):
        require(self.max_bytes >= 1, "max_bytes", "must be >= 1")
        require(self.record_bytes >= 1, "record_bytes", "must be >= 1")
        if self.max_bytes < self.record_bytes:
            raise ValueError("budget must afford at least one record")


@dataclass(frozen=True)
class Recommendation:
    """A tuned prefetch size and the reasoning that produced it.

    optimal_f is the final answer (after any memory cap); memory_ok
    records whether the trip-minimal size fit the budget uncapped.
    """

    threshold_f: int
    optimal_f: int
    round_trips_at_optimal: int
    predicted_elapsed: float
    memory_at_optimal: int
    memory_ok: bool
    rationale: tuple[str, ...]


def threshold_prefetch(n: int, zero_run: int = DEFAULT_ZERO_RUN) -> int:
    """Smallest f whose trip decrease stays zero for zero_run sizes.

    Beyond f = n every size needs exactly one trip, so a result always
    exists and never exceeds n.
    """
    require(zero_run >= 1, "zero_run", "must be >= 1")
    if n < 1:
        raise ValueError("need at least one record")
    streak_start = None
    f = 1
    while True:
        if trip_decrease_per_unit_f(n, f) == 0:
            if streak_start is None:
                streak_start = f
            if f - streak_start + 1 >= zero_run:
                return streak_start
        else:
            streak_start = None
        f += 1


def optimal_prefetch(n: int, threshold_f: int) -> int:
    """Smallest f with the same round-trip count as threshold_f."""
    trips = round_trips(n, threshold_f)
    return -(-n // trips)


def check_memory(f: int, budget: MemoryBudget) -> tuple[bool, int, int]:
    """Whether f records fit the budget: (ok, bytes_at_f, max_feasible_f)."""
    bytes_at_f = f * budget.record_bytes
    return bytes_at_f <= budget.max_bytes, bytes_at_f, budget.max_bytes // budget.record_bytes


def recommend(
    n: int,
    budget: MemoryBudget,
    cost_source: CostSource,
    *,
    zero_run: int = DEFAULT_ZERO_RUN,
) -> Recommendation:
    """Full tuning pass: threshold, minimal size, memory cap, prediction.

    cost_source supplies the model constants used for the predicted
    elapsed time: either a fixed CostConstants (a fitted model) or a
    callable mapping the final f to constants (component-derived).
    """
    threshold = threshold_prefetch(n, zero_run)
    optimal = optimal_prefetch(n, threshold)
    trips = round_trips(n, optimal)
    ok, _, max_feasible = check_memory(optimal, budget)
    rationale = [
        f"trip count stops improving at prefetch {threshold} "
        f"(zero decrease sustained over {zero_run} sizes)",
        f"prefetch {optimal} is the smallest size that still needs {trips} round trips",
    ]
    final = optimal
    if not ok:
        final = max_feasible
        trips = round_trips(n, final)
        rationale.append(
            f"memory budget caps the prefetch at {max_feasible} records; "
            f"round trips recomputed to {trips}")
    bytes_final = final * budget.record_bytes
    rationale.append(f"client cache at the recommended size: {bytes_final} "
                     f"of {budget.max_bytes} budget bytes")
    k = cost_source(final) if callable(cost_source) else cost_source
    predicted = quantized_cost(FetchPlan(final, n), k)
    return Recommendation(threshold, final, trips, predicted, bytes_final, ok,
                          tuple(rationale))


def render_recommendation(n: int, rec: Recommendation, budget: MemoryBudget) -> str:
    """Human-readable advisory block for a tuning result."""
    lines = [
        f"bottleneck        : {n} records cross the network in "
        f"{rec.round_trips_at_optimal}+ round trips; small prefetch sizes pay per trip",
        f"change            : set the driver prefetch size to {rec.optimal_f} "
        f"(trip count is flat from {rec.threshold_f})",
        f"tradeoff          : client prefetch cache grows to {rec.memory_at_optimal} "
        f"bytes of the {budget.max_bytes}-byte budget",
        f"estimated benefit : about {rec.predicted_elapsed:.1f} ms of transport at "
        f"{rec.round_trips_at_optimal} round trips",
    ]
    if not rec.memory_ok:
        lines.append("note              : the trip-minimal size did not fit the "
                     "budget; the size above is memory-capped")
    lines.append("out of scope      : co-locating client and server, removing "
                 "staging copies, row limits, and column right-sizing are other "
                 "levers this tool does not evaluate")
    return "\n".join(lines)

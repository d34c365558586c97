"""Pick a prefetch size: past the knee of the curve, as small as possible.

Raising the prefetch size stops paying off once it no longer removes
round trips.  The sizes that need the same trip count ceil(n/f) form a
block, and the threshold is the start of the first block long enough to
hold a sustained run of flat sizes (a single flat step can be a local
plateau between drops, not the knee).  As a block's start, the threshold
is already the smallest f with its trip count, so it wastes no client
memory and is the recommendation.  A memory budget can cap the result,
in which case the trip count is recomputed honestly for the capped size.
"""

from __future__ import annotations

import math

from .core_model import (
    CostConstants,
    FetchPlan,
    Record,
    quantized_cost,
    require,
    round_trips,
    trip_decrease_per_unit_f,  # noqa: F401 -- bench/probe.py patches this binding
)

DEFAULT_ZERO_RUN = 50


class MemoryBudget(Record):
    """Client-side cache ceiling: total bytes and the per-record cost."""

    max_bytes: int
    record_bytes: int

    def __post_init__(self):
        require(self.max_bytes >= 1, "max_bytes", "must be >= 1")
        require(self.record_bytes >= 1, "record_bytes", "must be >= 1")
        if self.max_bytes < self.record_bytes:
            raise ValueError("budget must afford at least one record")


class Recommendation(Record):
    """A tuned prefetch size and the reasoning that produced it.

    threshold_f is the trip-minimal size (the smallest with its trip
    count); optimal_f is the final answer, threshold_f capped by the
    budget; memory_ok records whether threshold_f fit the budget uncapped.
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

    That is the start of the first trip-count block holding zero_run + 1
    sizes.  The sizes needing t trips are [ceil(n/t), ceil(n/(t-1)) - 1],
    fewer than n/(t(t-1)) + 1 of them, so only t with t(t-1)*zero_run <= n
    can qualify.  The walk starts at the largest such t and steps t down,
    in integer arithmetic only; it takes at most about n**0.25 steps
    (under 10**4 for n <= 2**53), whatever zero_run.  The block t = 1
    (every f >= n) always qualifies, so the result never exceeds n.
    """
    require(zero_run >= 1, "zero_run", "must be >= 1")
    if n < 1:
        raise ValueError("need at least one record")
    for t in range((1 + math.isqrt(1 + 4 * (n // zero_run))) // 2, 1, -1):
        start = -(-n // t)
        if round_trips(n, start + zero_run) == t:
            return start
    return n


def optimal_prefetch(n: int, threshold_f: int) -> int:
    """Smallest f with the same round-trip count as threshold_f."""
    if n < 1:
        raise ValueError("need at least one record")
    trips = round_trips(n, threshold_f)
    return -(-n // trips)


def recommend(
    n: int,
    budget: MemoryBudget,
    k: CostConstants,
    *,
    zero_run: int = DEFAULT_ZERO_RUN,
) -> Recommendation:
    """Full tuning pass: threshold, memory cap, prediction.

    The threshold is the start of a trip-count block, so it is already
    the smallest size with its trip count; the budget caps it at
    max_bytes // record_bytes records.  k prices the final size: the
    predicted elapsed time is quantized_cost at that size.
    """
    threshold = threshold_prefetch(n, zero_run)
    trips = round_trips(n, threshold)
    final = min(threshold, budget.max_bytes // budget.record_bytes)
    rationale = [
        f"trip count stops improving at prefetch {threshold} "
        f"(zero decrease sustained over {zero_run} sizes)",
        f"prefetch {threshold} is the smallest size that still needs {trips} round trips",
    ]
    if final < threshold:
        trips = round_trips(n, final)
        rationale.append(
            f"memory budget caps the prefetch at {final} records; "
            f"round trips recomputed to {trips}")
    bytes_final = final * budget.record_bytes
    rationale.append(f"client cache at the recommended size: {bytes_final} "
                     f"of {budget.max_bytes} budget bytes")
    predicted = quantized_cost(FetchPlan(final, n), k)
    return Recommendation(threshold, final, trips, predicted, bytes_final,
                          final == threshold, tuple(rationale))


def render_recommendation(n: int, rec: Recommendation, budget: MemoryBudget) -> str:
    """Human-readable advisory block for a tuning result."""
    # Fixed point would print a finite but huge prediction digit by digit.
    ms = rec.predicted_elapsed
    benefit = f"{ms:.1f}" if ms < 1e15 else f"{ms:.6g}"
    lines = [
        f"bottleneck        : {n} records cross the network in "
        f"{rec.round_trips_at_optimal}+ round trips; small prefetch sizes pay per trip",
        f"change            : set the driver prefetch size to {rec.optimal_f} "
        f"(trip count is flat from {rec.threshold_f})",
        f"tradeoff          : client prefetch cache grows to {rec.memory_at_optimal} "
        f"bytes of the {budget.max_bytes}-byte budget",
        f"estimated benefit : about {benefit} ms of transport at "
        f"{rec.round_trips_at_optimal} round trips",
    ]
    if not rec.memory_ok:
        lines.append("note              : the trip-minimal size did not fit the "
                     "budget; the size above is memory-capped")
    lines.append("out of scope      : co-locating client and server, removing "
                 "staging copies, row limits, and column right-sizing are other "
                 "levers this tool does not evaluate")
    return "\n".join(lines)

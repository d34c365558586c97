"""Deterministic simulation of batched result-set retrieval.

Every round trip is split into five cost components: issuing the request
(r), executing the statement in the server engine (e), refilling the
server-side record cache from disk (a), hauling the batch across the
network hops (t), and converting wire fields into client values (c).

Two modelling choices shape the traces this module emits:

* The execute call performs the first trip, so the first row that
  blocks on the network is row f+1.  A per-row latency plot therefore
  shows peaks at rows f+1, 2f+1, ... while every cache-served row costs
  exactly 0 ms at jitter=0.
* Each trip's whole cost lands on the first row of its batch (the row
  whose next() call actually blocks).

Optional multiplicative jitter perturbs every component with a seeded
per-trip RNG; the same seed always reproduces the same trace bit for
bit.

A trace is stored as its trip log alone.  Only trips - 1 of its n rows
are nonzero, so the per-row samples are rebuilt from the log on request
and a simulation costs O(trips), not O(rows).
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .core_model import CostConstants, WorkloadSpec, finite_nonneg, require, round_trips


@dataclass(frozen=True)
class HopSpec:
    """One network segment: bandwidth in bytes/ms, latency per crossing."""

    bandwidth: float
    base_latency: float
    availability: float = 1.0

    def __post_init__(self):
        require(finite_nonneg(self.bandwidth) and self.bandwidth > 0, "bandwidth",
                "must be finite and > 0")
        require(finite_nonneg(self.base_latency), "base_latency", "must be finite and >= 0")
        require(0 < self.availability <= 1, "availability", "must be in (0, 1]")
        effective = self.bandwidth * self.availability  # transport divides by it
        require(effective > 0 and math.isfinite(1 / effective), "bandwidth",
                "times availability must give a finite per-byte time")


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered chain of hops; an empty chain is a co-located client."""

    hops: tuple[HopSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))

    @classmethod
    def uniform(cls, count: int, bandwidth: float, base_latency: float,
                availability: float = 1.0) -> "NetworkSpec":
        return cls(tuple(HopSpec(bandwidth, base_latency, availability) for _ in range(count)))


@dataclass(frozen=True)
class ServerSpec:
    """Engine-side costs: parsing, per-record search, disk cache refills."""

    hard_parse: float = 0.0
    soft_parse: float = 0.0
    per_record_search: float = 0.0
    server_cache_size: int = 100
    disk_access_per_refill: float = 0.0

    def __post_init__(self):
        for name in ("hard_parse", "soft_parse", "per_record_search", "disk_access_per_refill"):
            require(finite_nonneg(getattr(self, name)), name, "must be finite and >= 0")
        require(self.server_cache_size >= 1, "server_cache_size", "must be >= 1")


@dataclass(frozen=True)
class DriverSpec:
    """Client-driver knobs.

    What the application asked for (recommended_prefetch) is recorded but
    deliberately never used: the size in force is the enforced override
    when present, else the driver default.
    """

    recommended_prefetch: int | None = None
    enforced_prefetch: int | None = None
    default_prefetch: int = 10
    per_field_conversion: float = 0.0
    request_overhead: float = 0.0

    def __post_init__(self):
        for name in ("recommended_prefetch", "enforced_prefetch"):
            value = getattr(self, name)
            require(value is None or value >= 1, name, "must be >= 1 when set")
        require(self.default_prefetch >= 1, "default_prefetch", "must be >= 1")
        for name in ("per_field_conversion", "request_overhead"):
            require(finite_nonneg(getattr(self, name)), name, "must be finite and >= 0")


@dataclass(frozen=True)
class TripRecord:
    """Component times for one round trip, all in ms."""

    trip_index: int
    records: int
    request_ms: float
    execute_ms: float
    cache_refill_ms: float
    transport_ms: float
    convert_ms: float

    @property
    def total_ms(self) -> float:
        return (self.request_ms + self.execute_ms + self.cache_refill_ms
                + self.transport_ms + self.convert_ms)


@dataclass(frozen=True)
class LatencyTrace:
    """A simulated fetch, stored as the trip log its per-row times come from.

    Trip i's whole cost lands on row (i-1)*f+1, the first row of its
    batch; every other row costs 0.0.  The first trip's cost is carried
    by the execute call rather than any row, so conservation reads:

        fsum(sample values) + execution_call_ms == fsum(trip totals)

    Per-row samples are built from the log on request: iter_samples()
    streams them, and samples materializes all n of them.
    """

    trip_log: tuple[TripRecord, ...]
    effective_prefetch: int
    total_records: int

    def iter_samples(self) -> Iterator[tuple[int, float]]:
        """Yield (row_index, elapsed_ms) for every row, row indices from 1."""
        row = 1
        for trip in self.trip_log:
            yield row, (trip.total_ms if row > 1 else 0.0)
            yield from zip(range(row + 1, row + trip.records), repeat(0.0))
            row += trip.records

    @property
    def samples(self) -> tuple[tuple[int, float], ...]:
        """Every (row_index, elapsed_ms) pair, all n of them."""
        return tuple(self.iter_samples())

    @property
    def execution_call_ms(self) -> float:
        """Wall time of the execute call (the whole first trip)."""
        return self.trip_log[0].total_ms if self.trip_log else 0.0

    @property
    def total_elapsed_ms(self) -> float:
        return math.fsum(t.total_ms for t in self.trip_log)


def effective_prefetch(driver: DriverSpec) -> int:
    """The prefetch size actually in force for a driver."""
    if driver.enforced_prefetch is not None:
        return driver.enforced_prefetch
    return driver.default_prefetch


def transport_time(byte_count: int, net: NetworkSpec) -> float:
    """Time (ms) to move byte_count bytes across every hop in the chain.

    Each hop charges its base latency plus bytes over effective
    bandwidth, where availability scales the bandwidth down.  No hops
    means no transport cost.
    """
    if byte_count < 0:
        raise ValueError("byte_count must be >= 0")
    total = 0.0
    for hop in net.hops:
        total += hop.base_latency + byte_count / (hop.bandwidth * hop.availability)
    return total


def _trip_rng(seed: int, trip_index: int) -> random.Random:
    # One sub-seed per trip, derived by hashing, so the draw order inside
    # a trip never depends on how many trips precede it.
    digest = hashlib.sha256(f"{seed}:{trip_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def simulate_fetch(
    workload: WorkloadSpec,
    net: NetworkSpec,
    server: ServerSpec,
    driver: DriverSpec,
    seed: int = 0,
    jitter: float = 0.0,
) -> LatencyTrace:
    """Run one fetch of the whole workload and return its latency trace.

    Trip i carries f records (the last trip carries n mod f if nonzero).
    Trip 1 additionally pays the hard parse, and disk refills are charged
    to whichever trip pushes the cumulative record count across a
    server-cache boundary.  jitter scales each component by an
    independent uniform factor in [1-jitter, 1+jitter].
    """
    if workload.record_bytes == 0:
        raise ValueError("workload records carry zero bytes; nothing to transport")
    if not 0 <= jitter <= 1:
        raise ValueError("jitter must be in [0, 1]")

    f = effective_prefetch(driver)
    n = workload.total_records
    trips = round_trips(n, f)
    n_fields = len(workload.field_byte_sizes)
    record_bytes = workload.record_bytes

    def batch(records: int) -> tuple[int, float, float, float]:
        # Components that depend only on the batch size: (records, e, t, c).
        return (records,
                server.soft_parse + server.per_record_search * records,
                transport_time(records * record_bytes, net),
                records * n_fields * driver.per_field_conversion)

    full = batch(f)
    last = batch(n - (trips - 1) * f)  # n mod f, or f when f divides n
    log = []
    refills_done = 0
    for i in range(1, trips + 1):
        records, e, t, c = full if i < trips else last
        r = driver.request_overhead
        if i == 1:
            e += server.hard_parse
        served = min(i * f, n)
        refills_needed = -(-served // server.server_cache_size)
        a = (refills_needed - refills_done) * server.disk_access_per_refill
        refills_done = refills_needed
        if jitter:
            rng = _trip_rng(seed, i)
            r, e, a, t, c = (v * rng.uniform(1 - jitter, 1 + jitter) for v in (r, e, a, t, c))
        log.append(TripRecord(i, records, r, e, a, t, c))
    return LatencyTrace(tuple(log), f, n)


def stage_breakdown(trace: LatencyTrace) -> tuple[float, float]:
    """Split total elapsed into (execution_time, retrieval_time) ms.

    Execution is the engine-side share of the first trip (request plus
    execute); retrieval is everything else, including the first batch's
    own refill, transport, and conversion.
    """
    if not trace.trip_log:
        return 0.0, 0.0
    first = trace.trip_log[0]
    execution = first.request_ms + first.execute_ms
    return execution, trace.total_elapsed_ms - execution


def cost_constants(
    workload: WorkloadSpec,
    net: NetworkSpec,
    server: ServerSpec,
    driver: DriverSpec,
    f: int,
) -> CostConstants:
    """Derive the four-constant model from component parameters at size f.

    k1 bundles everything a full trip pays: fixed per-trip overheads,
    disk refills amortized at f/server_cache_size per trip, and f times
    the per-record cost.  k4 is that per-record cost, k3 the fixed
    per-trip share, and k2 has no component analog, so it is 0.  When
    the server cache holds exactly f records the amortization is exact
    and a jitter-free simulation matches quantized_cost to rounding.
    The one-time hard parse has no slot in the model and is excluded.
    """
    if f < 1:
        raise ValueError("prefetch size must be >= 1")
    per_trip = (driver.request_overhead + server.soft_parse
                + sum(h.base_latency for h in net.hops))
    inverse_bw = sum(1.0 / (h.bandwidth * h.availability) for h in net.hops)
    per_record = (server.per_record_search
                  + workload.record_bytes * inverse_bw
                  + len(workload.field_byte_sizes) * driver.per_field_conversion)
    refill = server.disk_access_per_refill * (f / server.server_cache_size)
    k1 = per_trip + refill + f * per_record
    k3 = per_trip + refill
    return CostConstants(k1, 0.0, k3, per_record)


TRACE_HEADER = ("row_index", "elapsed_ms")
TRIP_HEADER = ("trip_index", "records", "r_ms", "e_ms", "a_ms", "t_ms", "c_ms")


def write_trace_csv(trace: LatencyTrace, samples_path, trips_path) -> None:
    """Write the per-row samples and the trip component log as CSV.

    The samples are streamed from the trip log, never held in memory.
    """
    with open(samples_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows((row, repr(ms)) for row, ms in trace.iter_samples())
    with open(trips_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_HEADER)
        for t in trace.trip_log:
            writer.writerow((t.trip_index, t.records, repr(t.request_ms),
                             repr(t.execute_ms), repr(t.cache_refill_ms),
                             repr(t.transport_ms), repr(t.convert_ms)))

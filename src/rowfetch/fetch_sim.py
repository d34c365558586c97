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

Optional multiplicative jitter draws its factors from one counter-based
stream keyed by the seed, trip i's five at stream positions 5(i-1)..5i-1,
so the same seed always reproduces the same trace bit for bit.

A trace is stored as its trip columns alone.  Only trips - 1 of its n rows
are nonzero, so the per-row samples are rebuilt from the columns on request
and a simulation costs O(trips), not O(rows).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterator

import numpy as np

from .core_model import (CostConstants, WorkloadSpec, checked_total, finite_nonneg, require,
                         round_trips)


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


@dataclass(frozen=True, eq=False)
class LatencyTrace:
    """A simulated fetch, stored as the trip columns its per-row times come from.

    records is the int64 column of batch sizes and components the float64
    (trips, 5) block of r, e, a, t, c times in ms; row i-1 is trip i.
    Trip i's whole cost lands on row (i-1)*f+1, the first row of its
    batch; every other row costs 0.0.  The first trip's cost is carried
    by the execute call rather than any row, so conservation reads:

        fsum(sample values) + execution_call_ms == fsum(trip totals)

    Built on request: iter_samples() streams the per-row samples, samples
    materializes all n of them, and trip_log builds the TripRecords.
    """

    records: np.ndarray
    components: np.ndarray
    effective_prefetch: int
    total_records: int

    def _totals(self) -> np.ndarray:
        r, e, a, t, c = self.components.T
        return r + e + a + t + c  # TripRecord.total_ms, same order

    def _trip_rows(self) -> Iterator[tuple]:
        # (trip_index, records, r, e, a, t, c) as Python numbers.
        return zip(count(1), self.records.tolist(), *self.components.T.tolist())

    @property
    def trip_log(self) -> tuple[TripRecord, ...]:
        """One TripRecord per trip, built each time it is read."""
        return tuple(TripRecord(*row) for row in self._trip_rows())

    def iter_samples(self) -> Iterator[tuple[int, float]]:
        """Yield (row_index, elapsed_ms) for every row, row indices from 1."""
        row = 1
        for records, total in zip(self.records.tolist(), self._totals().tolist()):
            yield row, (total if row > 1 else 0.0)
            yield from zip(range(row + 1, row + records), repeat(0.0))
            row += records

    @property
    def samples(self) -> tuple[tuple[int, float], ...]:
        """Every (row_index, elapsed_ms) pair, all n of them."""
        return tuple(self.iter_samples())

    @property
    def execution_call_ms(self) -> float:
        """Wall time of the execute call (the whole first trip)."""
        return (self._totals().tolist() or [0.0])[0]

    @property
    def total_elapsed_ms(self) -> float:
        try:
            return math.fsum(self._totals().tolist())
        except OverflowError:  # finite trips whose sum leaves float64
            return math.inf


def effective_prefetch(driver: DriverSpec) -> int:
    """The prefetch size actually in force for a driver."""
    if driver.enforced_prefetch is not None:
        return driver.enforced_prefetch
    return driver.default_prefetch


def transport_time(byte_count, net: NetworkSpec):
    """Time (ms) to move byte_count bytes across every hop in the chain.

    Each hop charges its base latency plus bytes over effective
    bandwidth, where availability scales the bandwidth down.  No hops
    means no transport cost.  byte_count may also be a numpy array.
    """
    if np.any(byte_count < 0):
        raise ValueError("byte_count must be >= 0")
    total = 0.0
    for hop in net.hops:
        total += hop.base_latency + byte_count / (hop.bandwidth * hop.availability)
    return total


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
    independent uniform factor in [1-jitter, 1+jitter], drawn from the
    Philox stream keyed by seed mod 2**128, so any integer seed is valid.
    """
    if workload.record_bytes == 0:
        raise ValueError("workload records carry zero bytes; nothing to transport")
    if not 0 <= jitter <= 1:
        raise ValueError("jitter must be in [0, 1]")

    f = effective_prefetch(driver)
    n = workload.total_records
    trips = round_trips(n, f)
    # Clamping both sizes to n changes no batch or refill count and keeps
    # int64 products exact.  Byte and field counts are multiplied as floats,
    # which round as Python's int products do and cannot overflow.
    batch = min(f, n)
    cache = min(server.server_cache_size, max(n, 1))
    records = np.minimum(batch, n - batch * np.arange(trips))
    refills = -(-np.cumsum(records) // cache)  # ceil(records served / cache)
    block = np.empty((trips, 5))
    block[:, 0] = driver.request_overhead
    block[:, 1] = server.soft_parse + server.per_record_search * records
    block[:1, 1] += server.hard_parse
    block[:, 2] = np.diff(refills, prepend=0) * server.disk_access_per_refill
    block[:, 3] = transport_time(records * float(workload.record_bytes), net)
    block[:, 4] = (records * float(len(workload.field_byte_sizes))
                   * driver.per_field_conversion)
    if jitter:
        stream = np.random.Generator(np.random.Philox(key=seed % 2**128))
        block *= stream.uniform(1 - jitter, 1 + jitter, block.shape)
    records.flags.writeable = block.flags.writeable = False
    trace = LatencyTrace(records, block, f, n)
    checked_total(trace.total_elapsed_ms)  # every printed time is then finite
    return trace


def stage_breakdown(trace: LatencyTrace) -> tuple[float, float]:
    """Split total elapsed into (execution_time, retrieval_time) ms.

    Execution is the engine-side share of the first trip (request plus
    execute); retrieval is everything else, including the first batch's
    own refill, transport, and conversion.
    """
    if not len(trace.records):
        return 0.0, 0.0
    request, execute = trace.components[0, :2].tolist()
    execution = request + execute
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

    The samples are streamed from the trip columns, never held in
    memory.  csv writes a float as its repr, so values round-trip.
    """
    with open(samples_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(trace.iter_samples())
    with open(trips_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_HEADER)
        writer.writerows(trace._trip_rows())

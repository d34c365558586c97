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
and a simulation costs O(trips), not O(rows).  The trace CSV is written in
blocks of rows, each built as one byte array from the row numbers and the
repr of its few nonzero values.

Without jitter a fetch's total needs no trace: jitter_free_total prices
its at most four kinds of trip once each, in O(1) and bit for bit as
simulate_fetch would, so a jitter-free sim-mode sweep imports no numpy;
only a jittered one simulates each size.

numpy is imported by the functions that build arrays, not by the module,
so specs, configs, cost_constants and jitter_free_total load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .core_model import (TRACE_HEADER, CostConstants, WorkloadSpec, checked_total, finite_nonneg,
                         require, round_trips)

if TYPE_CHECKING:
    import numpy as np


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

    The size in force is the enforced override when present, else the
    driver default.
    """

    enforced_prefetch: int | None = None
    default_prefetch: int = 10
    per_field_conversion: float = 0.0
    request_overhead: float = 0.0

    def __post_init__(self):
        require(self.enforced_prefetch is None or self.enforced_prefetch >= 1,
                "enforced_prefetch", "must be >= 1 when set")
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


# Trip columns become Python numbers this many trips at a time, and the
# trace CSV is built as bytes this many rows at a time, so writing a trace
# or its trip log holds O(_BLOCK) objects whatever n and f are.
_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
class LatencyTrace:
    """A simulated fetch, stored as the trip columns its per-row times come from.

    records is the int64 column of batch sizes and components the float64
    (trips, 5) block of r, e, a, t, c times in ms; row i-1 is trip i.
    totals is the per-trip total column and total_elapsed_ms its fsum,
    both computed once by simulate_fetch.  Trip i's whole cost lands on
    row (i-1)*f+1, the first row of its batch; every other row costs 0.0.
    The first trip's cost is carried by the execute call rather than any
    row, so conservation reads:

        fsum(sample values and execution_call_ms) == total_elapsed_ms
    """

    records: np.ndarray
    components: np.ndarray
    effective_prefetch: int
    total_records: int
    totals: np.ndarray
    total_elapsed_ms: float

    def _first_rows(self) -> tuple[np.ndarray, np.ndarray]:
        # Each batch's first row, from 1, and the time it shows: its trip's
        # total, but 0.0 on row 1, whose trip the execute call pays.
        import numpy as np

        rows = np.cumsum(self.records) - self.records + 1
        shown = self.totals.copy()
        shown[:1] = 0.0
        return rows, shown

    @property
    def trip_log(self) -> tuple[TripRecord, ...]:
        """One TripRecord per trip, built each time it is read."""
        return tuple(TripRecord(*row) for row in zip(
            range(1, len(self.records) + 1), self.records.tolist(), *self.components.T.tolist()))

    @property
    def samples(self) -> np.ndarray:
        """Every (row_index, elapsed_ms) row, as the (n, 2) float64 array
        read_trace_samples returns for this trace's CSV; built each time
        it is read."""
        import numpy as np

        samples = np.zeros((self.total_records, 2))
        samples[:, 0] = np.arange(1, self.total_records + 1)
        rows, shown = self._first_rows()
        samples[rows - 1, 1] = shown
        return samples

    @property
    def execution_call_ms(self) -> float:
        """Wall time of the execute call (the whole first trip)."""
        return self.totals[0].item() if len(self.totals) else 0.0


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
    negative = byte_count < 0
    if negative.any() if hasattr(negative, "any") else negative:
        raise ValueError("byte_count must be >= 0")
    total = 0.0
    for hop in net.hops:
        total += hop.base_latency + byte_count / (hop.bandwidth * hop.availability)
    return total


def _price_trips(out, records, refills, first: bool, workload: WorkloadSpec,
                 net: NetworkSpec, server: ServerSpec, driver: DriverSpec) -> None:
    """Write the r, e, a, t, c ms of jitter-free trips into out[0]..out[4].

    Each trip moves records records and triggers refills disk refills;
    first adds the hard parse.  records and refills are Python ints, with
    out a list, or int64 columns, with out the (5, trips) transposed view
    of their rows of the block.  Each component is stored as soon as it
    is computed: holding the five trip-long temporaries at once made
    simulate_fetch's block fill 2.6x slower at 1e5 trips.  simulate_fetch
    and jitter_free_total both price trips here, so both round every
    component alike.
    """
    out[0] = driver.request_overhead
    out[1] = server.soft_parse + server.per_record_search * records
    if first:
        out[1] += server.hard_parse
    out[2] = refills * server.disk_access_per_refill
    out[3] = transport_time(records * float(workload.record_bytes), net)
    out[4] = records * float(len(workload.field_byte_sizes)) * driver.per_field_conversion


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
    if not 0 <= jitter <= 1:
        raise ValueError("jitter must be in [0, 1]")
    import numpy as np

    f = effective_prefetch(driver)
    n = workload.total_records
    trips = round_trips(n, f)
    # Clamping both sizes to n changes no batch or refill count and keeps
    # int64 products exact.  Byte and field counts are multiplied as floats,
    # which round as Python's int products do and cannot overflow.
    batch = min(f, n)
    cache = min(server.server_cache_size, max(n, 1))
    records = np.minimum(batch, n - batch * np.arange(trips))
    refills = np.diff(-(-np.cumsum(records) // cache), prepend=0)  # per trip
    block = np.empty((trips, 5))
    for rows, first in ((slice(None, 1), True), (slice(1, None), False)):
        _price_trips(block[rows].T, records[rows], refills[rows], first, workload, net,
                     server, driver)
    if jitter:
        stream = np.random.Generator(np.random.Philox(key=seed % 2**128))
        block *= stream.uniform(1 - jitter, 1 + jitter, block.shape)
    r, e, a, t, c = block.T
    totals = r + e + a + t + c  # TripRecord.total_ms, same order
    try:
        total = math.fsum(totals.tolist())
    except OverflowError:  # finite trips whose sum leaves float64
        total = math.inf
    checked_total(total)  # every printed time is then finite
    records.flags.writeable = block.flags.writeable = totals.flags.writeable = False
    return LatencyTrace(records, block, f, n, totals, total)


def jitter_free_total(workload: WorkloadSpec, net: NetworkSpec, server: ServerSpec,
                      driver: DriverSpec) -> float:
    """simulate_fetch(workload, net, server, driver).total_elapsed_ms, in O(1).

    Without jitter every trip is one of at most four kinds: the first,
    which also pays the hard parse; full trips triggering batch // cache
    refills; full trips triggering one more; and the last.  Each kind's
    total is priced once by _price_trips, in simulate_fetch's order,
    and the kinds' exact sum is rounded once.  math.fsum rounds its exact
    sum correctly too, so the two totals are the same float, and both
    raise checked_total's error when the sum leaves float64.  Uses no
    numpy.
    """
    from fractions import Fraction

    f = effective_prefetch(driver)
    n = workload.total_records
    trips = round_trips(n, f)
    if not trips:
        return 0.0
    batch = min(f, n)
    cache = min(server.server_cache_size, n)

    def served_refills(served: int) -> int:
        return -(-served // cache)

    kinds = [(batch, served_refills(batch), True, 1)]  # (records, refills, first, count)
    if trips > 1:
        before_last = batch * (trips - 1)
        middle = trips - 2
        few = batch // cache  # a full trip triggers few or few + 1 refills
        more = served_refills(before_last) - served_refills(batch) - few * middle
        kinds += [(batch, few, False, middle - more), (batch, few + 1, False, more),
                  (n - before_last, served_refills(n) - served_refills(before_last), False, 1)]
    exact = Fraction(0)
    trip = [0.0] * 5
    for records, refills, first, count in kinds:
        if count:
            _price_trips(trip, records, refills, first, workload, net, server, driver)
            r, e, a, t, c = trip
            exact += Fraction(checked_total(r + e + a + t + c)) * count
    try:
        return float(exact)
    except OverflowError:  # finite trips whose sum leaves float64
        return checked_total(math.inf)


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
) -> CostConstants:
    """The simulator's exact law a * ceil(N/f) + C, as model constants.

    a is what every trip pays whatever its size: request overhead, soft
    parse and each hop's latency.  C is paid once: q * N for the per-record
    costs q (search, bytes over each hop's effective bandwidth, field
    conversion), the hard parse and ceil(N / server_cache_size) disk
    refills; it is 0 when N = 0.  With k1 = k3 = a, k2 = k4 = 0 and floor C,
    quantized_cost equals a jitter-free simulate_fetch total to rounding,
    and at jitter > 0 it is that total's mean.
    """
    n = workload.total_records
    a = checked_total(driver.request_overhead + server.soft_parse
                      + sum(h.base_latency for h in net.hops))
    per_record = (server.per_record_search
                  + workload.record_bytes * sum(1.0 / (h.bandwidth * h.availability)
                                                for h in net.hops)
                  + len(workload.field_byte_sizes) * driver.per_field_conversion)
    floor = (per_record * n + server.hard_parse
             + -(-n // server.server_cache_size) * server.disk_access_per_refill) if n else 0.0
    return CostConstants(a, 0.0, a, 0.0, checked_total(floor))


TRIP_HEADER = ("trip_index", "records", "r_ms", "e_ms", "a_ms", "t_ms", "c_ms")


def _trace_blocks(trace: LatencyTrace) -> Iterator[np.ndarray]:
    """The trace CSV body as uint8 arrays of at most _BLOCK rows each.

    Every row of block [lo, hi) is first laid down in a fixed-width slot:
    its number right-aligned in as many bytes as n has digits, ",0.0" in a
    24-byte value field (no float64 repr is longer), then "\\r\\n", every
    unused byte NUL.  The block's first rows, found by searchsorted, get the
    repr of the value _first_rows shows as their value field, and dropping
    the NULs leaves the CSV text, so no row is formatted on its own.
    """
    import numpy as np

    rows, shown = trace._first_rows()
    n = trace.total_records
    digits = len(str(n))
    for lo in range(1, n + 1, _BLOCK):
        index = np.arange(lo, min(lo + _BLOCK, n + 1))
        a, b = np.searchsorted(rows, (lo, index[-1] + 1))
        line = np.zeros((len(index), digits + 27), dtype=np.uint8)
        for j in range(len(str(index[-1]))):
            has = slice(max(10**j - lo, 0), None)  # rows with more than j digits
            line[has, digits - 1 - j] = index[has] // 10**j % 10 + ord("0")
        line[:, digits:digits + 4] = np.frombuffer(b",0.0", dtype=np.uint8)
        line[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        texts = np.array(list(map(repr, shown[a:b].tolist())), dtype="S24")
        line[rows[a:b] - lo, digits + 1:digits + 25] = texts.view(np.uint8).reshape(-1, 24)
        yield line[line != 0]


def write_trace_csv(trace: LatencyTrace, samples_path, trips_path) -> None:
    """Write the per-row samples and the trip component log as CSV.

    Both files have a header line, comma-separated fields and \\r\\n line
    ends, and write each float as its repr, so values round-trip.  The
    samples are built as bytes from the trip columns _BLOCK rows at a
    time, never held in memory whole.
    """
    with open(samples_path, "wb") as fh:
        fh.write(",".join(TRACE_HEADER).encode("ascii") + b"\r\n")
        fh.writelines(_trace_blocks(trace))
    with open(trips_path, "w", newline="") as fh:
        fh.write(",".join(TRIP_HEADER) + "\r\n")
        fh.writelines("%d,%d,%r,%r,%r,%r,%r\r\n" % trip
                      for lo in range(0, len(trace.records), _BLOCK)
                      for trip in zip(range(lo + 1, lo + _BLOCK + 1),
                                      trace.records[lo:lo + _BLOCK].tolist(),
                                      *trace.components[lo:lo + _BLOCK].T.tolist()))

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
and a simulation costs O(trips), not O(rows).  Both CSVs are written in
blocks of rows, each block by one %-format of its rows' line templates,
so no row is formatted on its own.

Without jitter every trip is one of the four kinds that _trip_kinds counts.
simulate_fetch prices each kind once by _price_trip, and jitter_free_total
sums the kinds' totals exactly in Python ints, in O(1) and bit for bit as
simulate_fetch would, so a jitter-free sim-mode sweep imports no numpy;
only a jittered one simulates each size.

numpy is imported by the functions that build arrays, not by the module,
so specs, configs, cost_constants and jitter_free_total load without it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterator

from .core_model import (TRACE_HEADER, CostConstants, Record, WorkloadSpec, checked_total,
                         dyadic_ints, finite_nonneg, require, round_trips)

if TYPE_CHECKING:
    import numpy as np


class HopSpec(Record):
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


class NetworkSpec(Record):
    """An ordered chain of hops; an empty chain is a co-located client."""

    hops: tuple[HopSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))

    @classmethod
    def uniform(cls, count: int, bandwidth: float, base_latency: float,
                availability: float = 1.0) -> "NetworkSpec":
        return cls(tuple(HopSpec(bandwidth, base_latency, availability) for _ in range(count)))


class ServerSpec(Record):
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


class DriverSpec(Record):
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


class TripRecord(Record):
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


# Both CSVs are formatted this many rows at a time, so writing a trace or
# its trip log holds O(_BLOCK) objects whatever n and f are.  At 1 << 13 a
# trip block's text and Python values took about 3 MiB.
_BLOCK = 1 << 12


class LatencyTrace(Record):
    """A simulated fetch, stored as the trip columns its per-row times come from.

    records is the int64 column of batch sizes and components the float64
    (trips, 5) block of r, e, a, t, c times in ms; row i-1 is trip i.
    totals is the per-trip total column and total_elapsed_ms its fsum,
    both computed once by simulate_fetch.  With batch = min(f, n), trip
    i's whole cost lands on row (i-1)*batch+1, the first row of its batch;
    every other row costs 0.0.  The first trip's cost is carried by the
    execute call rather than row 1, so conservation reads:

        fsum(sample values and execution_call_ms) == total_elapsed_ms
    """

    records: np.ndarray
    components: np.ndarray
    effective_prefetch: int
    total_records: int
    totals: np.ndarray
    total_elapsed_ms: float

    # Compared and hashed by identity: its arrays have no one truth value.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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
        batch = max(min(self.effective_prefetch, self.total_records), 1)
        samples[batch::batch, 1] = self.totals[1:]
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


def transport_time(byte_count, net: NetworkSpec) -> float:
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


def _price_trip(records: int, refills: int, first: bool, workload: WorkloadSpec,
                net: NetworkSpec, server: ServerSpec, driver: DriverSpec) -> tuple:
    """The r, e, a, t, c ms of one jitter-free trip.

    The trip moves records records and triggers refills disk refills;
    first adds the hard parse.  simulate_fetch, jitter_free_total and
    cost_constants all price trips here, so all round every component
    alike.
    """
    e = server.soft_parse + server.per_record_search * records
    if first:
        e += server.hard_parse
    return (driver.request_overhead, e, refills * server.disk_access_per_refill,
            transport_time(records * float(workload.record_bytes), net),
            records * float(len(workload.field_byte_sizes)) * driver.per_field_conversion)


def _trip_total(records: int, refills: int, first: bool, *specs) -> float:
    """One jitter-free trip's total ms, summed in TripRecord.total_ms's order."""
    r, e, a, t, c = _price_trip(records, refills, first, *specs)
    return checked_total(r + e + a + t + c)


def _refills(served, cache: int):
    """ceil(served / cache), the disk refills behind served records; an int or int64 column."""
    return -(-served // cache)


def _trip_kinds(n: int, f: int, cache: int) -> list[tuple[int, int, bool, int]]:
    """The four kinds of trip of a jitter-free fetch, as (records, refills, first, count):
    the first trip, full trips triggering batch // cache refills, full trips
    triggering one more, and the last trip.  A kind no trip is of has count
    0, so an empty fetch is four kinds of count 0.
    """
    trips = round_trips(n, f)
    batch = min(f, n)
    before_last = batch * max(trips - 1, 1)  # records served before the last trip
    middle = max(trips - 2, 0)
    few = batch // cache
    more = _refills(before_last, cache) - _refills(batch, cache) - few * middle
    return [(batch, _refills(batch, cache), True, min(trips, 1)),
            (batch, few, False, middle - more), (batch, few + 1, False, more),
            (n - before_last, _refills(n, cache) - _refills(before_last, cache), False,
             int(trips > 1))]


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
    # the int64 columns exact.
    batch = min(f, n)
    cache = min(server.server_cache_size, max(n, 1))
    prices = np.array([_price_trip(records, refills, first, workload, net, server, driver)
                       for records, refills, first, _ in _trip_kinds(n, f, cache)])
    records = np.minimum(batch, n - batch * np.arange(trips))
    # A full trip's refills are batch // cache or one more: kind 1 or 2.
    kind = np.diff(_refills(np.cumsum(records), cache), prepend=0) + (1 - batch // cache)
    kind[-1:], kind[:1] = 3, 0
    block = prices[kind]
    del kind
    with np.errstate(over="ignore"):  # checked_total below reports a cost past float64
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

    Each of _trip_kinds' kinds that some trip is of has its total priced
    once by _trip_total, as simulate_fetch prices it, and the totals'
    dyadic_ints, times their counts, sum exactly, rounded once by
    int / int.  math.fsum rounds its exact sum correctly too, so the two
    totals are the same float, and both raise checked_total's error when
    the sum leaves float64.  Uses no numpy.
    """
    kinds = [kind for kind in _trip_kinds(workload.total_records, effective_prefetch(driver),
                                          server.server_cache_size) if kind[3]]
    totals, scale = dyadic_ints([_trip_total(records, refills, first, workload, net, server,
                                             driver) for records, refills, first, _ in kinds])
    try:
        return sum(p * count for p, (*_, count) in zip(totals, kinds)) / scale
    except OverflowError:  # finite trips whose sum leaves float64
        return checked_total(math.inf)


def cost_constants(workload: WorkloadSpec, net: NetworkSpec, server: ServerSpec,
                   driver: DriverSpec) -> CostConstants:
    """The simulator's exact law a * ceil(N/f) + C, as model constants.

    Both constants are trips priced by _price_trip, so the law and the
    simulator share one cost formula.  a, what every trip pays whatever
    its size, is a later trip that moves no record and triggers no
    refill.  C, what the whole fetch pays once, is one first trip that
    moves all N records and triggers their ceil(N / server_cache_size)
    refills, less a; it is 0 when N = 0.  With k1 = k3 = a, k2 = k4 = 0
    and floor C, quantized_cost is a jitter-free simulate_fetch total to
    within a few ulps, often bit for bit, and at jitter > 0 its mean.
    """
    n = workload.total_records
    specs = (workload, net, server, driver)
    a = _trip_total(0, 0, False, *specs)
    whole = _trip_total(n, _refills(n, server.server_cache_size), True, *specs) if n else a
    return CostConstants(a, 0.0, a, 0.0, whole - a)


TRIP_HEADER = ("trip_index", "records", "r_ms", "e_ms", "a_ms", "t_ms", "c_ms")


def _trace_blocks(trace: LatencyTrace) -> Iterator[str]:
    """The trace CSV body as text of at most _BLOCK rows each.

    Each row's line template is "%d,0.0\\r\\n", or on the first row of
    trip i > 1, row (i-1)*batch+1, the repr of its total in place of 0.0;
    a block's joined templates are formatted once with its row numbers.
    """
    n = trace.total_records
    batch = max(min(trace.effective_prefetch, n), 1)
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        # Trips a..b-1 (from 0) start in rows lo..hi-1; trip 0 shows 0.0.
        a, b = max(-(-(lo - 1) // batch), 1), -(-(hi - 1) // batch)
        lines = ["%d,0.0\r\n"] * (hi - lo)
        lines[a * batch + 1 - lo::batch] = [f"%d,{ms!r}\r\n" for ms in trace.totals[a:b].tolist()]
        yield "".join(lines) % tuple(range(lo, hi))


def _trip_blocks(trace: LatencyTrace) -> Iterator[str]:
    """The trip CSV body as text of at most _BLOCK trips each, one %-format per block."""
    for lo in range(0, len(trace.records), _BLOCK):
        records = trace.records[lo:lo + _BLOCK].tolist()
        trips = zip(range(lo + 1, lo + _BLOCK + 1), records,
                    *trace.components[lo:lo + _BLOCK].T.tolist())
        yield ("%d,%d,%r,%r,%r,%r,%r\r\n" * len(records)) % tuple(chain.from_iterable(trips))


def write_trace_csv(trace: LatencyTrace, samples_path, trips_path) -> None:
    """Write the per-row samples and the trip component log as CSV.

    Both files have a header line, comma-separated fields and \\r\\n line
    ends, and write each float as its repr, so values round-trip.  Both
    are formatted from the trip columns _BLOCK rows at a time, never held
    in memory whole.
    """
    for path, header, blocks in ((samples_path, TRACE_HEADER, _trace_blocks),
                                 (trips_path, TRIP_HEADER, _trip_blocks)):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(blocks(trace))

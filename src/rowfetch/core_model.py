"""Closed-form arithmetic for batched row transport.

A driver that pulls N records in batches of f needs ceil(N/f) round
trips.  Total transport time decomposes into a per-trip constant, a
batch-size term, a residual-trip correction, and a floor C paid once
whatever f is (zero when N = 0):

    T(f) = k1 * floor(N/f) + k2 * f + k3 * [N mod f > 0] + k4 * (N mod f) + C

With k1 = k3 = a and k2 = k4 = 0 this is a * ceil(N/f) + C, the law the
simulator obeys exactly.  Letting the trip count vary continuously gives
the reciprocal approximation T(f) = k1 * N / f + C, a rectangular
hyperbola in f above the floor.  Both forms, the discrete trip-count
slope, and curve sweeps live here.  Nothing in this module simulates
anything or touches I/O.

Record, the base of every value type, replace, which copies one with
fields changed, dyadic_ints, which makes floats exact ints, and the
number grammar of every input reader live here too: every command loads it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, TypeVar


class InputError(ValueError):
    """Malformed input from outside the program: a config, trace or samples file, or a flag."""


class FieldError(ValueError):
    """A spec field outside its domain; .field names the spec's field."""

    def __init__(self, field: str, rule: str):
        self.field = field
        self.rule = rule
        super().__init__(f"{field} {rule}")


# The per-row trace CSV's header: fetch_sim writes it, trace_analysis checks it.
TRACE_HEADER = ("row_index", "elapsed_ms")


def require(ok: bool, field: str, rule: str) -> None:
    """The one validation rule of every spec: raise FieldError unless ok."""
    if not ok:
        raise FieldError(field, rule)


def finite_nonneg(x: float) -> bool:
    """True for 0 <= x < inf; False for negatives, inf and nan."""
    return 0 <= x < math.inf


def checked_total(ms: float) -> float:
    """ms itself, or a ValueError when an elapsed-time total overflows float64."""
    if not math.isfinite(ms):
        raise ValueError("elapsed time overflows float64; the configured costs are too large")
    return ms


def dyadic_ints(values: Iterable[float]) -> tuple[list[int], int]:
    """Finite floats as ints over one power of two: values[i] == ints[i] / scale exactly.

    scale is the largest as_integer_ratio() denominator (1 for no values),
    so sums of the ints are exact and one int / int rounds each correctly.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((q for _, q in ratios), default=1)
    return [p * (scale // q) for p, q in ratios], scale


def _integer(field: str) -> int:
    # Every reader's integer field, of any size: one optional sign and ASCII digits.
    field = field.strip()
    if not (field.isascii() and field.lstrip("+-").isdigit()):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)  # a second sign is a ValueError


def _row_number(field: str) -> int:
    # The trace and fit readers' integer field, as np.loadtxt parses an int64.
    value = _integer(field)
    if not -2**63 <= value < 2**63:
        raise ValueError("integer outside the int64 range")
    return value


def _number(field: str) -> float:
    # Every reader's float field, as np.loadtxt parses a float64:
    # what float() parses, less underscores and non-ASCII digits.
    field = field.strip()
    if not field.isascii() or "_" in field:
        raise ValueError(f"not an ASCII number without underscores: {field!r}")
    return float(field)


class Record:
    """The base of the package's immutable value types.

    A subclass's own annotations, in order, are its fields, and a class
    attribute of the same name is a field's default.  Each subclass gets
    an __init__ that takes the fields in that order, sets them, and then
    calls __post_init__ if the class defines one; it is generated once,
    as collections.namedtuple generates its __new__, so building an
    instance costs what a hand-written __init__ would.  vars(obj) holds
    the fields in order.  Assigning or deleting an attribute raises
    AttributeError, and instances compare and hash by their fields; a
    subclass that sets __eq__ and __hash__ to object's compares by
    identity instead.
    """

    def __init_subclass__(cls):
        fields = list(cls.__annotations__)
        params = ", ".join(f"{name}=_cls.{name}" if name in vars(cls) else name
                           for name in fields)
        body = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


_R = TypeVar("_R", bound=Record)


def replace(record: _R, **changes) -> _R:
    """A copy of record with the named fields changed, checked again by __post_init__.

    An unknown field name is a TypeError, as for the constructor.
    """
    return type(record)(**{**vars(record), **changes})


class WorkloadSpec(Record):
    """A query result set: how many records, and how wide each one is."""

    total_records: int
    field_byte_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "field_byte_sizes", tuple(self.field_byte_sizes))
        # Up to 2**53 every count is exact in float64, and int64 products
        # such as i * f <= n + f cannot overflow.
        require(0 <= self.total_records <= 2**53, "total_records", "must be in [0, 2**53]")
        require(len(self.field_byte_sizes) >= 1, "field_byte_sizes", "must name a field")
        require(all(b >= 1 for b in self.field_byte_sizes), "field_byte_sizes",
                "must each be >= 1")
        # A record's byte count must convert to float64 for transport times.
        require(sum(self.field_byte_sizes) <= 2**53, "field_byte_sizes",
                "must sum to at most 2**53")

    @property
    def record_bytes(self) -> int:
        return sum(self.field_byte_sizes)


class FetchPlan(Record):
    """A prefetch size applied to a result set of known cardinality."""

    prefetch_size: int
    total_records: int

    def __post_init__(self):
        # f = 0 would mean the driver never moves a row; the model has a
        # pole there, so it is rejected at construction.
        require(self.prefetch_size >= 1, "prefetch_size", "must be >= 1")
        require(self.total_records >= 0, "total_records", "must be >= 0")


class CostConstants(Record):
    """The four fitted constants of the transport model and its floor, in ms."""

    k1: float
    k2: float
    k3: float
    k4: float
    floor: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4", "floor"):
            require(finite_nonneg(getattr(self, name)), name, "must be finite and >= 0")


class CurvePoint(Record):
    prefetch_size: int
    elapsed: float


class SlopeRow(Record):
    """One row of a trip-decrease table: what raising f by one buys."""

    prefetch_size: int
    trips: int
    trips_after_increment: int
    trip_decrease: int
    slope_ms: float


def round_trips(n: int, f: int) -> int:
    """Round trips needed to move n records in batches of f (= ceil(n/f))."""
    if f < 1:
        raise ValueError("prefetch size must be >= 1")
    if n < 0:
        raise ValueError("record count must be >= 0")
    return n // f + (1 if n % f else 0)


def quantized_cost(plan: FetchPlan, k: CostConstants) -> float:
    """Transport time (ms) with trips held at integer granularity.

    Full batches are charged k1 each; k2 * f is a single global term, not
    a per-trip one.  The residual constants k3 and k4 contribute only
    when a short final trip exists, the floor always.  An empty result
    set costs nothing.
    """
    n, f = plan.total_records, plan.prefetch_size
    if n == 0:
        return 0.0
    residual = n % f
    cost = k.k1 * (n // f) + k.k2 * f + k.floor
    if residual:
        cost += k.k3 + k.k4 * residual
    return checked_total(cost)


def trip_decrease_per_unit_f(n: int, f: int) -> int:
    """How many round trips a one-record bump of the prefetch size saves."""
    return round_trips(n, f) - round_trips(n, f + 1)


def slope_table(n: int, f_values: Iterable[int], avg_trip_time_ms: float) -> list[SlopeRow]:
    """Tabulate the trip decrease and its time value at selected sizes.

    slope_ms prices each saved trip at one flat avg_trip_time_ms value;
    it is an illustration aid, not a fitted quantity.
    """
    rows = []
    for f in f_values:
        before = round_trips(n, f)
        after = round_trips(n, f + 1)
        rows.append(SlopeRow(f, before, after, before - after, (before - after) * avg_trip_time_ms))
    return rows


def sweep_curve(
    n: int,
    f_lo: int,
    f_hi: int,
    k: CostConstants,
    mode: str = "quantized",
) -> list[CurvePoint]:
    """Evaluate the cost model over an inclusive range of prefetch sizes.

    mode "quantized" uses the four-constant form; "reciprocal" uses the
    k1 * n / f hyperbola above the floor.  An empty range yields an empty
    list.
    """
    return list(_curve_points(n, f_lo, f_hi, k, mode))


def _curve_points(n: int, f_lo: int, f_hi: int, k: CostConstants,
                  mode: str = "quantized") -> Iterator[CurvePoint]:
    """sweep_curve's points one at a time, each priced only when it is taken."""
    if f_lo < 1:
        raise ValueError("range lower bound must be >= 1")
    if mode not in ("quantized", "reciprocal"):
        raise ValueError(f"unknown sweep mode: {mode!r}")
    for f in range(f_lo, f_hi + 1):
        if mode == "quantized":
            elapsed = quantized_cost(FetchPlan(f, n), k)
        elif n < 0:  # FetchPlan refuses it in the quantized branch
            raise ValueError("record count must be >= 0")
        else:
            elapsed = checked_total(k.k1 * n / f + k.floor) if n else 0.0
        yield CurvePoint(f, elapsed)

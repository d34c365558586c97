"""Infer the prefetch size actually in force from a per-row latency trace.

A batched driver serves most rows out of its client cache in about zero
time; the first row of every new batch blocks on a full round trip.
Against the row number those rows stand out as periodic peaks, and the
spacing between peaks is the batch size the driver really used, whatever
the application asked for.

No standard quantitative definition of "peak" exists for such traces,
so the threshold rule here is this module's own invention:

* Rows are peaks when they exceed max(median_ratio * median, mean +
  sigma_k * stdev) over the whole trace (defaults 10 and 3).  The median
  guard keeps tail noise in peak-less traces from being flagged.
* Simulated traces show cache hits as exactly 0 ms.  When such rows make
  up more than half the trace the order statistics above degenerate, so
  the zero rows are treated as the floor and every strictly positive row
  counts as a peak.
* A trace whose values are all equal has no peaks by definition.

Both knobs are exposed (and overridable from the command line; each must
be finite and >= 0), and the rule is scale-invariant: rescaling a trace
by any positive factor leaves the detected rows unchanged.

A trace is handled as columns, never as per-row objects: the reader
returns an (n, 2) float64 array of (row_index, elapsed_ms), and the
analysis functions accept that array or any sequence of pairs.  One
rule holds for every trace, read or in memory: row indices are exactly
1..n and elapsed times are finite, so row r sits at position r - 1 and
peaks are found and read by position.  An empty trace has no peaks.
analyze_trace checks the rule once for all the steps it runs.
The rule is checked a fixed block of rows at a time, so analysis holds
the reader's 16 bytes per row plus O(peaks) data and 1-byte masks; the
statistical rule adds one n-length float64 copy, in which the stdev and
then the median are taken; the median by partitioning that copy, as
np.median does, but without its NaN check and so without numpy.ma.
The median, mean and population stdev are computed in float64, on the
values scaled by the power of two that brings the largest into [0.5, 1); only
the mean over the peak rows (avg_trip_time) is exact: the exact sum divided
by the count with one rounding, bit for bit what statistics.mean returns.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core_model import TRACE_HEADER, InputError, finite_nonneg, require

Samples = np.ndarray | Sequence[tuple[int, float]]


class TraceFormatError(InputError):
    """A trace CSV that does not follow the row_index,elapsed_ms format."""


@dataclass(frozen=True)
class PeakReport:
    """What a latency trace reveals about the driver's batching."""

    peak_rows: tuple[int, ...]
    inferred_prefetch: int | None
    inter_peak_gaps: tuple[int, ...]
    avg_trip_time: float | None
    confidence: float


# Rows per block of the trace-rule check, whose temporaries stay this size.
_BLOCK_ROWS = 1 << 16
_TRACE_RULE = "trace rows must be numbered 1..n with finite elapsed_ms"


class _Checked(np.ndarray):
    """A view of an (n, 2) float64 array that obeys the trace rule.

    analyze_trace checks its trace once and hands this view to
    detect_peaks and avg_trip_time_from_trace, which then skip the check.
    It calls them through the module, not through private bodies, so that
    bench/probe.py, which patches them there, still times each step.
    """


def _sample_array(samples: Samples) -> np.ndarray:
    """View samples as an (n, 2) float64 array, checked against the trace rule.

    An array of that shape is viewed as is, and any other non-empty shape
    (a flat sequence, rows of four) breaks the rule.  A _Checked view is
    not checked again.
    """
    if isinstance(samples, _Checked):
        return samples.view(np.ndarray)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size and (samples.ndim != 2 or samples.shape[1] != 2):
        raise ValueError(_TRACE_RULE)
    samples = samples.reshape(-1, 2)
    _check_trace_rule(samples)
    return samples


def _check_trace_rule(samples: np.ndarray) -> None:
    """Raise ValueError unless the (n, 2) array's rows are 1..n with finite elapsed_ms."""
    for lo in range(0, len(samples), _BLOCK_ROWS):
        block = samples[lo:lo + _BLOCK_ROWS]
        if not (np.array_equal(block[:, 0], np.arange(lo + 1, lo + len(block) + 1))
                and np.isfinite(block[:, 1]).all()):
            raise ValueError(_TRACE_RULE)


def detect_peaks(
    samples: Samples,
    *,
    median_ratio: float = 10.0,
    sigma_k: float = 3.0,
) -> list[int]:
    """Return the row indices whose elapsed time stands out as a peak."""
    require(finite_nonneg(median_ratio), "median_ratio", "must be finite and >= 0")
    require(finite_nonneg(sigma_k), "sigma_k", "must be finite and >= 0")
    values = _sample_array(samples)[:, 1]
    if len(values) == 0 or values.max() == values.min():
        return []
    if np.count_nonzero(values == 0.0) > len(values) / 2:
        # Degenerate statistics: the cache-hit floor dominates, so any
        # row that cost anything at all belongs to a trip.
        peaks = values > 0.0
    else:
        peaks = _above_threshold(values, median_ratio, sigma_k)
    return (np.flatnonzero(peaks) + 1).tolist()


def _above_threshold(values: np.ndarray, median_ratio: float, sigma_k: float) -> np.ndarray:
    """Mask of the values above max(median_ratio * median, mean + sigma_k * stdev).

    The statistics are taken on the values scaled exactly by the power of two
    that brings the largest magnitude into [0.5, 1), so none overflows.  They
    all work in one scaled copy, refilled after the stdev and the median.
    """
    exponent = -np.frexp(max(values.max(), -values.min()))[1]
    scaled = np.ldexp(values, exponent)
    mean = scaled.mean()
    spread = mean + sigma_k * _std_in_place(scaled, mean)
    np.ldexp(values, exponent, out=scaled)
    median = _median_in_place(scaled)
    np.ldexp(values, exponent, out=scaled)  # undo the median's partition
    return scaled > max(median_ratio * median, spread)


def _std_in_place(x: np.ndarray, mean: np.floating) -> np.floating:
    """x.std() bit for bit, given mean = x.mean(), overwriting x.

    These are numpy's own steps for the population stdev (_var): subtract
    the mean, square, add.reduce's pairwise sum, divide by n, square root;
    only the n-length temporary is x itself.
    """
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return np.sqrt(np.add.reduce(x) / len(x))


def _median_in_place(x: np.ndarray) -> np.floating:
    """np.median(x) bit for bit, for a non-empty x without NaNs, partitioning x.

    These are numpy's own steps (_median): partition x about its middle
    one or two positions, then take the mean of those entries.  Only
    np.median's NaN check is left out, which the trace rule makes moot
    and which would import numpy.ma.
    """
    half = len(x) // 2
    kth = (half - 1, half) if len(x) % 2 == 0 else (half,)
    x.partition(kth)
    return x[kth[0]:half + 1].mean()


def infer_effective_prefetch(peaks: Iterable[int]) -> PeakReport:
    """Estimate the batch size from peak spacing.

    The estimate is the modal inter-peak gap: the gap with the highest
    count, ties broken toward the smallest candidate (understating f
    overstates trips, the safer error).  Confidence is the fraction of
    evidence agreeing with the mode, where the evidence is every gap plus
    the offset of the first peak from row 1 (a batch's first blocking row
    sits one batch past the start, so that offset should equal the gap).
    """
    peaks = list(peaks)
    # Cast to int64 before int() runs, so every input fails as it always has.
    rows = np.sort(np.fromiter(peaks, dtype=np.int64, count=len(peaks)))
    # int() returns an exact int itself, so the caller's objects are reused.
    peak_rows = tuple(sorted(map(int, peaks)))
    del peaks
    gaps = np.diff(rows)
    if len(rows) < 2:
        return PeakReport(peak_rows, None, (), None, 0.0)
    values, counts = np.unique(gaps, return_counts=True)
    modal = int(values[counts.argmax()])  # the first maximum is the smallest gap
    agreeing = int(np.count_nonzero(gaps == modal)) + (int(rows[0]) - 1 == modal)
    return PeakReport(peak_rows, modal, tuple(gaps.tolist()), None, agreeing / len(rows))


def avg_trip_time_from_trace(samples: Samples, peaks: Iterable[int]) -> float | None:
    """Mean elapsed over the peak rows, or None when none lies in the trace."""
    samples = _sample_array(samples)
    rows = np.sort(np.fromiter(peaks, dtype=np.int64))
    rows = rows[(rows >= 1) & (rows <= len(samples))]
    rows = rows[np.diff(rows, prepend=0) > 0]  # each row once
    if len(rows) == 0:
        return None
    return _exact_mean(samples[rows - 1, 1])


def _exact_mean(values: np.ndarray) -> float:
    """The mean of finite float64 values, rounded once from the exact sum.

    Each value is m * 2**(e - 53) with m an integer, |m| < 2**53 (frexp).
    The m are summed per exponent e as 26-bit halves, so no int64 sum
    overflows below 2**36 values; the per-exponent sums are combined as
    Python ints and divided by the count in one correctly rounded step.
    """
    fractions, exponents = np.frexp(values)
    fractions *= 2.0**53
    mantissas = fractions.astype(np.int64)
    base = int(exponents.min())
    exponents -= base
    high = np.zeros(int(exponents.max()) + 1, dtype=np.int64)
    low = np.zeros_like(high)
    np.add.at(high, exponents, mantissas >> 26)
    np.add.at(low, exponents, mantissas & (2**26 - 1))
    total = sum(((h << 26) + lo) << e
                for e, (h, lo) in enumerate(zip(high.tolist(), low.tolist())))
    shift = base - 53  # the mean is total * 2**shift / len(values)
    return (total << max(shift, 0)) / (len(values) << max(-shift, 0))


def analyze_trace(
    samples: Samples,
    *,
    median_ratio: float = 10.0,
    sigma_k: float = 3.0,
) -> PeakReport:
    """Full pipeline: detect peaks, average them, infer the prefetch size."""
    # A sequence of pairs is converted, and the trace rule checked, once.
    samples = _sample_array(samples).view(_Checked)
    peaks = detect_peaks(samples, median_ratio=median_ratio, sigma_k=sigma_k)
    # Averaged first, so its temporaries are gone before the report's tuples exist.
    avg_trip_time = avg_trip_time_from_trace(samples, peaks)
    return replace(infer_effective_prefetch(peaks), avg_trip_time=avg_trip_time)


# np.loadtxt opens a path ending in one of these as a compressed file.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# The body as parsed: row indices as int64, turned into float64 in place.
_TRACE_DTYPE = np.dtype([("row", np.int64), ("ms", np.float64)])


def read_trace_samples(path) -> np.ndarray:
    """Load a row_index,elapsed_ms CSV as an (n, 2) float64 array.

    The header must match and the rows must obey the trace rule, with
    each row index a decimal integer; otherwise TraceFormatError names
    the first bad line.  Empty lines are skipped, but a line of only
    spaces or tabs is a bad row.  The header is checked on a plain open,
    so a path that is missing or not a plain-text trace fails there; the
    body is then read by path, which lets numpy parse it in chunks rather
    than line by line.  The row indices are parsed as int64 and, once
    checked, overwritten in place by their float64 values, so the
    returned array is the parsed table itself.
    """
    # Undecodable bytes become U+FFFD, which cannot match the header.
    with open(path, newline="", errors="replace") as fh:
        if tuple(h.strip() for h in fh.readline().split(",")) != TRACE_HEADER:
            raise TraceFormatError(f"{path}: expected header {','.join(TRACE_HEADER)}")
    suffix = os.path.splitext(path)[1]
    if suffix in _COMPRESSED_SUFFIXES:
        raise TraceFormatError(f"{path}: a plain-text trace may not be named *{suffix}")
    try:
        with warnings.catch_warnings():
            # A header-only trace is valid: it is simply empty.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # Older numpy parses a float-formatted int64 field with only this warning.
            warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
            # An absolute path is never taken for a URL.  An undecodable
            # byte raises UnicodeDecodeError, a ValueError.
            table = np.loadtxt(os.path.abspath(path), skiprows=1, encoding="utf-8",
                               delimiter=",", dtype=_TRACE_DTYPE, comments=None,
                               usecols=(0, 1), ndmin=1)
        samples = table.view(np.float64).reshape(-1, 2)
        for lo in range(0, len(table), _BLOCK_ROWS):
            block = table[lo:lo + _BLOCK_ROWS]
            rows = np.arange(lo + 1, lo + len(block) + 1)
            if not (np.array_equal(block["row"], rows) and np.isfinite(block["ms"]).all()):
                raise ValueError(_TRACE_RULE)
            samples[lo:lo + len(block), 0] = rows
        return samples
    except (ValueError, DeprecationWarning) as exc:
        raise TraceFormatError(_first_bad_line(path)) from exc


def _first_bad_line(path) -> str:
    """Describe the first body line that is not the next finite sample.

    Runs only after a read has failed, so it re-scans the file in plain
    Python rather than interpreting numpy's error text.
    """
    expected = 1
    # An undecodable byte is kept as a lone surrogate, which encode() rejects.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        next(fh, None)
        for lineno, line in enumerate(fh, start=2):
            text = line.rstrip("\r\n")
            if not text:
                continue
            fields = text.split(",")
            try:
                text.encode("utf-8")
                row, ms = _row_number(fields[0]), _number(fields[1])
            except (IndexError, ValueError):
                return f"{path}:{lineno}: bad sample row: {text!r}"
            if row != expected:
                return f"{path}:{lineno}: row index {fields[0].strip()}, expected {expected}"
            if not math.isfinite(ms):
                return f"{path}:{lineno}: elapsed_ms {fields[1].strip()} is not finite"
            expected += 1
    return f"{path}: unreadable sample rows"


def _row_number(field: str) -> int:
    # np.loadtxt parses an int64 as one optional sign and ASCII digits,
    # stripped of the whitespace str.strip strips.
    field = field.strip()
    if not (field.isascii() and field.lstrip("+-").isdigit()):
        raise ValueError(field)
    row = int(field)  # a second sign is a ValueError
    if not -2**63 <= row < 2**63:
        raise ValueError(field)
    return row


def _number(field: str) -> float:
    # np.loadtxt parses what float() does, except underscores and
    # non-ASCII digits, and strips all the whitespace str.strip does.
    field = field.strip()
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return float(field)

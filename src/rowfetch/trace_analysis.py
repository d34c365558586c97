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
One function checks the rule, for the reader and once for all of
analyze_trace's steps.  It and the statistical rule take a fixed block of
rows at a time, so analysis holds the reader's 16 bytes per row plus
O(peaks) data and 1-byte masks.  That rule's statistics are taken on the
values scaled by the power of two that brings the largest into [0.5, 1):
the mean and population stdev add each block's pairwise numpy sum by
math.fsum, which up to 65,536 rows is numpy's whole-trace sum, and the
median is np.median's bit for bit, by radix selection on the values'
order-preserving uint64 keys.  Only the mean over the peak rows
(avg_trip_time) is exact: the exact sum divided by the count with one
rounding, bit for bit what statistics.mean returns.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Iterable, Sequence

import numpy as np

from .core_model import (TRACE_HEADER, InputError, Record, _number, _row_number,
                         finite_nonneg, replace, require)

Samples = np.ndarray | Sequence[tuple[int, float]]


class PeakReport(Record):
    """What a latency trace reveals about the driver's batching."""

    peak_rows: tuple[int, ...]
    inferred_prefetch: int | None
    inter_peak_gaps: tuple[int, ...]
    avg_trip_time: float | None
    confidence: float


# Rows per block of the trace-rule check and the statistical rule, whose
# temporaries stay this size.
_BLOCK_ROWS = 1 << 16
_TRACE_RULE = "trace rows must be numbered 1..n with finite elapsed_ms"
# The median's radix selection: 16-bit digits, and the int64 sign bit.
_DIGITS = 1 << 16
_SIGN = np.int64(-(2**63))


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
    _check_trace_rule(samples[:, 0], samples[:, 1])
    return samples


def _check_trace_rule(rows: np.ndarray, ms: np.ndarray) -> None:
    """Raise ValueError unless the rows column is 1..n and every elapsed_ms is finite."""
    for lo in range(0, len(rows), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(rows))
        if not (np.array_equal(rows[lo:hi], np.arange(lo + 1, hi + 1))
                and np.isfinite(ms[lo:hi]).all()):
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
    if len(values) - np.count_nonzero(values) > len(values) / 2:
        # Degenerate statistics: the cache-hit floor dominates, so any
        # row that cost anything at all belongs to a trip.
        peaks = values > 0.0
    else:
        peaks = _above_threshold(values, median_ratio, sigma_k)
    return (np.flatnonzero(peaks) + 1).tolist()


def _above_threshold(values: np.ndarray, median_ratio: float, sigma_k: float) -> np.ndarray:
    """Mask of the values above max(median_ratio * median, mean + sigma_k * stdev).

    The statistics are taken on the values scaled exactly by the power of two
    that brings the largest magnitude into [0.5, 1), so none overflows.  Every
    pass scales _BLOCK_ROWS values at a time into one buffer, so the mask is
    the only n-length allocation.
    """
    exponent = -np.frexp(max(values.max(), -values.min()))[1]
    buf = np.empty(min(len(values), _BLOCK_ROWS))
    mean, std = _mean_and_std(values, exponent, buf)
    threshold = max(median_ratio * _median(values, exponent, buf), mean + sigma_k * std)
    mask = np.empty(len(values), dtype=bool)
    for lo, block in _scaled_blocks(values, exponent, buf):
        np.greater(block, threshold, out=mask[lo:lo + len(block)])
    return mask


def _scaled_blocks(values: np.ndarray, exponent: int, buf: np.ndarray):
    """Yield (start, block) for each _BLOCK_ROWS block of the scaled values, in buf."""
    for lo in range(0, len(values), _BLOCK_ROWS):
        block = values[lo:lo + _BLOCK_ROWS]
        yield lo, np.ldexp(block, exponent, out=buf[:len(block)])


def _mean_and_std(values: np.ndarray, exponent: int, buf: np.ndarray) -> tuple[float, float]:
    """Mean and population stdev of the scaled values.

    Each block is summed by numpy's pairwise np.add.reduce, and the block
    sums are added exactly by math.fsum.
    """
    sums = [np.add.reduce(block) for _, block in _scaled_blocks(values, exponent, buf)]
    mean = math.fsum(sums) / len(values)
    squares = []
    for _, block in _scaled_blocks(values, exponent, buf):
        np.subtract(block, mean, out=block)
        squares.append(np.add.reduce(np.square(block, out=block)))
    return mean, math.sqrt(math.fsum(squares) / len(values))


def _key_blocks(values: np.ndarray, exponent: int, buf: np.ndarray):
    """Yield the scaled values' order-preserving uint64 keys, a block at a time, in buf."""
    for _, block in _scaled_blocks(values, exponent, buf):
        bits = block.view(np.int64)
        # Flipping every bit of a negative float64 and the sign bit of any other
        # orders the bits as unsigned integers, with -0.0 just below 0.0.
        np.bitwise_xor(bits, ~_SIGN, out=bits, where=bits < 0)
        np.bitwise_xor(bits, _SIGN, out=bits)
        yield bits.view(np.uint64)


def _median(values: np.ndarray, exponent: int, buf: np.ndarray) -> np.floating:
    """np.median(np.ldexp(values, exponent)) bit for bit, for values without NaNs."""
    n = len(values)
    ranks = sorted({(n - 1) // 2, n // 2})
    keys = []
    while len(keys) < len(ranks):  # twice only when the middle two lie in two buckets
        keys += _select(values, exponent, buf, ranks[len(keys):])
    bits = np.array(keys, dtype=np.uint64).view(np.int64)
    # The keys' float64s, averaged as np.median averages its middle one or two.
    return (bits ^ (~(bits >> 63) | _SIGN)).view(np.float64).mean()


def _select(values: np.ndarray, exponent: int, buf: np.ndarray, ranks: list[int]) -> list[int]:
    """The keys at those of the sorted ranks that share a radix bucket with the first.

    A histogram of the keys' top 16 bits finds the bucket that holds
    ranks[0], then one of its next 16 bits, until at most _BLOCK_ROWS keys
    are left to collect and partition, or the bucket is one whole key.
    """
    low = 0  # the bucket's first key
    start = 0  # the keys below the bucket
    count = len(values)  # the keys in it
    shift = 48  # the bucket's keys agree above bit shift + 16
    while count > _BLOCK_ROWS and shift >= 0:
        histogram = np.zeros(_DIGITS + 1, dtype=np.int64)
        for block in _key_blocks(values, exponent, buf):
            np.subtract(block, low, out=block)  # the bucket's keys now start at 0
            np.right_shift(block, shift, out=block)
            np.minimum(block, _DIGITS, out=block)  # a key outside the bucket: the last bin
            histogram += np.bincount(block.view(np.int64), minlength=_DIGITS + 1)
        digit = int(np.searchsorted(np.cumsum(histogram), ranks[0] - start, side="right"))
        start += int(histogram[:digit].sum())
        count = int(histogram[digit])
        low += digit << shift
        shift -= 16
    inside = [rank - start for rank in ranks if rank < start + count]
    if count > _BLOCK_ROWS:  # shift < 0: every key in the bucket is low
        return [low] * len(inside)
    pieces = []
    for block in _key_blocks(values, exponent, buf):
        np.subtract(block, low, out=block)
        pieces.append(block[block <= (1 << (shift + 16)) - 1])
    bucket = np.concatenate(pieces)
    bucket.partition(inside)
    return [low + key for key in bucket[inside].tolist()]


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
    each row index a decimal integer; otherwise InputError names the
    first bad line.  Empty lines are skipped, but a line of only
    spaces or tabs is a bad row.  The header is checked on a plain open,
    so a path that is missing or not a plain-text trace fails there; the
    body is then read by path, which lets numpy parse it in chunks rather
    than line by line.  The row indices are parsed as int64 and, once
    checked, overwritten in place by their float64 values, so the
    returned array is the parsed table itself.
    """
    # Undecodable bytes become U+FFFD, which cannot match the header.
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        if tuple(h.strip() for h in fh.readline().split(",")) != TRACE_HEADER:
            raise InputError(f"{path}: expected header {','.join(TRACE_HEADER)}")
    suffix = os.path.splitext(path)[1]
    if suffix in _COMPRESSED_SUFFIXES:
        raise InputError(f"{path}: a plain-text trace may not be named *{suffix}")
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
        _check_trace_rule(table["row"], table["ms"])
        samples = table.view(np.float64).reshape(-1, 2)
        for lo in range(0, len(table), _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, len(table))
            samples[lo:hi, 0] = np.arange(lo + 1, hi + 1)
        return samples
    except (ValueError, DeprecationWarning) as exc:
        raise InputError(_first_bad_line(path)) from exc


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

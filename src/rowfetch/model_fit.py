"""Least-squares recovery of the transport cost constants.

Given total elapsed times measured at several prefetch sizes over one
result set of N records, the four-constant model is linear in the basis

    [floor(N/f),  f,  1 if N mod f > 0 else 0,  N mod f]

so ordinary least squares recovers (k1..k4).  Physical constants cannot
be negative, so the fit is the exact non-negative least-squares optimum:
the best non-negative solve over every subset of the basis columns.

The fit is solved exactly in Python ints.  The basis entries are integers
and dyadic_ints makes every elapsed time an int over one power of two, so
the normal equations are summed once as ints, O(samples) work.  One
fraction-free elimination, `_solve`, gives the exact rank, the inverse for
the condition number and each column subset's solve.  Each constant, and
the residual RMS at the printed constants, is rounded to float64 once.

Identifiability caveats handled here rather than silently mis-reported:

* fewer than four samples or four distinct sizes cannot determine four
  constants -> error;
* samples taken at different N mix incompatible curves -> error;
* when every sample has N mod f == 0 the residual columns are all zero,
  so k3/k4 are unidentifiable (reported as such, not as zero);
* any other exact collinearity among the basis columns -> error naming
  the columns involved.
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from operator import mul

from .core_model import (CostConstants, InputError, Record, _number, _row_number, dyadic_ints,
                         finite_nonneg, require)

BASIS_NAMES = ("full_trips", "prefetch_size", "residual_trip", "residual_records")
CONDITION_WARN_AT = 1e8


class FitError(ValueError):
    """Sample sets the model cannot be fitted to."""


class FitSample(Record):
    """One measured point: total elapsed at a prefetch size, given N."""

    prefetch_size: int
    total_elapsed: float
    total_records: int

    def __post_init__(self):
        # As for WorkloadSpec: up to 2**53 every count is exact in float64.
        require(1 <= self.prefetch_size <= 2**53, "prefetch_size", "must be in [1, 2**53]")
        require(0 <= self.total_records <= 2**53, "total_records", "must be in [0, 2**53]")
        require(finite_nonneg(self.total_elapsed), "total_elapsed", "must be finite and >= 0")


class FitResult(Record):
    """What `rowfetch fit` prints, in order; k3/k4 are None when every sample divides N."""

    k1: float
    k2: float
    k3: float | None
    k4: float | None
    residual_rms: float
    sample_count: int
    condition_warning: bool
    warnings: tuple[str, ...] = ()

    @property
    def constants(self) -> CostConstants:
        """The fitted model, with an unidentifiable constant as 0."""
        return CostConstants(self.k1, self.k2, self.k3 or 0.0, self.k4 or 0.0)


def _gram(columns: list[list[int]]) -> list[list[int]]:
    """X^T X of the integer design whose columns are given."""
    return [[sum(map(mul, a, b)) for b in columns] for a in columns]


def _solve(matrix, *rhs) -> tuple[list[list[int]], int, list[int]]:
    """Int x_j and det with matrix @ x_j == det * rhs_j, and the columns whose pivot was zero.

    Fraction-free (Bareiss) Gauss-Jordan, no row exchanges, on an integer
    positive semidefinite Gram: each step divides exactly by the pivot before
    it, and each nonzero pivot row's diagonal ends as det.  A column's pivot
    is zero exactly when it is a combination of the columns before it; then
    its row and column are zero too, so it is skipped, its unknown 0, and
    its row, never read again, is never updated again.
    """
    rows = [[*row, *(b[i] for b in rhs)] for i, row in enumerate(matrix)]
    det, zero_pivots = 1, []
    for p, pivot_row in enumerate(rows):
        pivot = pivot_row[p]
        if not pivot:
            zero_pivots.append(p)
            continue
        for i, row in enumerate(rows):
            if i != p and i not in zero_pivots:
                factor = row[p]
                row[:] = [(pivot * v - factor * w) // det for v, w in zip(row, pivot_row)]
        det = pivot
    return [[row[len(matrix) + j] if row[p] else 0 for p, row in enumerate(rows)]
            for j in range(len(rhs))], det, zero_pivots


def _solve_nonnegative(gram: list[list[int]], xty: list[int]) -> tuple[list[int], int]:
    """Exact non-negative least squares x = num / det, by trying every column subset.

    The optimum is the unconstrained solve on some subset (Lawson & Hanson
    1974), so the feasible subset solve with the least residual y^T y - xty^T x
    is exact, and unique for a positive definite gram.  Zeroing the other
    columns' rows and entries makes them zero pivots, at 0.  Each subset's det,
    a principal minor of the gram, is > 0, so gains compare by cross-multiplying.
    """
    width = len(gram)
    best, best_det, best_gain = [0] * width, 1, 0  # the empty subset
    for size in range(width, 0, -1):
        for cols in combinations(range(width), size):
            keep = [int(c in cols) for c in range(width)]
            (num,), det, _ = _solve([[keep[i] * keep[j] * g for j, g in enumerate(row)]
                                     for i, row in enumerate(gram)], list(map(mul, keep, xty)))
            if min(num) < 0:
                continue
            if size == width:  # the unconstrained optimum is non-negative
                return num, det
            gain = sum(map(mul, xty, num))
            if gain * best_det > best_gain * det:
                best, best_det, best_gain = num, det, gain
    return best, best_det


def _log_largest_eigenvalue(matrix, den: int = 1) -> float:
    """ln of the largest eigenvalue of a symmetric positive definite matrix / den.

    trace(A**p)**(1/p) falls to the largest eigenvalue as p grows, within
    a factor w**(1/p) for w columns.  A is scaled to unit trace exactly,
    then squared up to 64 times in float64, back to unit trace after
    each squaring, with the logs of the traces summed at weight 1/p.  It
    stops at the first squaring whose trace is exactly 1.
    """
    trace = sum(matrix[i][i] for i in range(len(matrix)))
    common = math.gcd(trace, den)  # the trace's ln from its lowest terms
    log = math.log(trace // common) - math.log(den // common)
    a = [[v / trace for v in row] for row in matrix]
    for k in range(1, 65):
        a = [[sum(map(mul, row, col)) for col in zip(*a)] for row in a]
        t = sum(a[i][i] for i in range(len(a)))
        if t == 1.0:
            # The powers have converged on the top eigenvector: every later
            # trace is 1 to within a few eps, so the terms left sum to a
            # few eps / 2**k.
            break
        log += math.log(t) / 2**k
        a = [[v / t for v in row] for row in a]
    return log


def _condition(gram: list[list[int]], adjugate: list[list[int]], det: int) -> float:
    """The design's 2-norm condition number from its Gram G and G^-1 = adjugate / det.

    It is sqrt(lmax(G) * lmax(G^-1)); both largest eigenvalues are
    accurate to float64 however ill-conditioned G is, where the smallest
    eigenvalue of G would carry an error of eps * lmax(G).
    """
    return math.exp((_log_largest_eigenvalue(gram) + _log_largest_eigenvalue(adjugate, det)) / 2)


def _round(num: int, den: int) -> float:
    """num / den rounded once to float64; inf past its range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _sqrt(num: int, den: int) -> float:
    """The float64 nearest sqrt(num / den) for ints num >= 0 and den > 0, rounded once.

    num / den is scaled by the power of four 4**k that gives its integer
    square root at least 55 bits.  An inexact root then gets a sticky low
    bit, so the one rounding of root / 2**k is the rounding of the square root.
    """
    if not num:
        return 0.0
    k = (112 - num.bit_length() + den.bit_length()) // 2
    whole, rem = divmod(num << 2 * k, den) if k >= 0 else divmod(num, den << -2 * k)
    root = math.isqrt(whole)
    root, k = 2 * root + (rem != 0 or root * root != whole), k + 1
    return _round(root, 1 << k) if k >= 0 else _round(root << -k, 1)


def fit_cost_model(samples: list[FitSample]) -> FitResult:
    """Fit (k1..k4) to elapsed-vs-prefetch measurements of one result set."""
    if len(samples) < 4:
        raise FitError(f"need at least 4 samples, got {len(samples)}")
    if len({s.prefetch_size for s in samples}) < 4:
        raise FitError("need at least 4 distinct prefetch sizes")
    n_values = {s.total_records for s in samples}
    if len(n_values) != 1:
        raise FitError(f"samples mix result-set sizes {sorted(n_values)}; fit one N at a time")
    n = n_values.pop()

    sizes = [s.prefetch_size for s in samples]
    residuals = [n % f for f in sizes]
    columns = [[n // f for f in sizes], sizes, [int(r > 0) for r in residuals], residuals]

    warnings: list[str] = []
    if not any(residuals):
        # Every sample divides N evenly: the residual columns carry no
        # information, so only k1/k2 can be estimated.
        warnings.append("k3/k4 unidentifiable: every sample has N mod f == 0")
        columns = columns[:2]

    gram = _gram(columns)
    identity = [[int(i == j) for i in range(len(gram))] for j in range(len(gram))]
    adjugate, det, zero_pivots = _solve(gram, *identity)  # the rank, and G^-1 at full rank
    if zero_pivots:
        raise FitError("design matrix is rank-deficient; collinear columns: "
                       + ", ".join(BASIS_NAMES[c] for c in zero_pivots))

    condition = _condition(gram, adjugate, det)
    condition_warning = condition > CONDITION_WARN_AT
    if condition_warning:
        warnings.append(f"ill-conditioned design matrix (condition {condition:.3g})")

    ys, scale = dyadic_ints([s.total_elapsed for s in samples])
    num, det = _solve_nonnegative(gram, [sum(map(mul, col, ys)) for col in columns])
    coef = [_round(x, det * scale) for x in num]
    unfitted = 4 - len(coef)
    CostConstants(*coef, *[0.0] * unfitted)  # a non-finite constant fails here, named
    # Each residual at the printed constants ks / k_scale is an int over scale * k_scale.
    ks, k_scale = dyadic_ints(coef)
    rss = sum((sum(map(mul, row, ks)) * scale - y * k_scale) ** 2
              for row, y in zip(zip(*columns), ys))
    return FitResult(*coef, *[None] * unfitted,
                     _sqrt(rss, (scale * k_scale) ** 2 * len(samples)), len(samples),
                     condition_warning, tuple(warnings))


_N_COMMENT = re.compile(r"#\s*N\s*=\s*(\d+)\s*$")


def read_fit_samples(path) -> list[FitSample]:
    """Load an f,elapsed_ms CSV whose `# N=<count>` comment names the set size.

    The comment may repeat, but only with the same count.  Its count and
    each row's f and elapsed_ms are parsed as the trace reader's fields.
    """
    total_records = None
    rows: list[tuple[int, str]] = []
    saw_header = False
    # An undecodable byte is kept as a lone surrogate, which encode() rejects.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = _N_COMMENT.match(line)
                if match:
                    try:
                        count = _row_number(match.group(1))  # ASCII digits only
                        require(count <= 2**53, "N", "must be in [0, 2**53]")
                        require(total_records in (None, count), "N",
                                f"must repeat the earlier N={total_records}")
                    except ValueError as exc:
                        raise InputError(f"{path}:{lineno}: bad N comment: {line!r} "
                                         f"({exc})") from exc
                    total_records = count
                continue
            if not saw_header:
                if [part.strip() for part in line.split(",")] != ["f", "elapsed_ms"]:
                    raise InputError(f"{path}:{lineno}: expected header f,elapsed_ms")
                saw_header = True
                continue
            rows.append((lineno, line))
    if total_records is None:
        raise InputError(f"{path}: missing `# N=<count>` comment line")
    if not saw_header:
        raise InputError(f"{path}: missing f,elapsed_ms header")
    samples = []
    for lineno, line in rows:
        parts = line.split(",")
        try:
            line.encode("utf-8")
            samples.append(FitSample(_row_number(parts[0]), _number(parts[1]), total_records))
        except (IndexError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: bad sample row: {line!r} ({exc})") from exc
    return samples


def write_fit_samples(samples: list[FitSample], path) -> None:
    if len({s.total_records for s in samples}) != 1:
        raise ValueError("samples must share one total_records value")
    with open(path, "w", newline="") as fh:
        # Every line ends in \r\n, as in the trace and trip CSVs.
        fh.write(f"# N={samples[0].total_records}\r\nf,elapsed_ms\r\n")
        fh.writelines(f"{s.prefetch_size},{s.total_elapsed!r}\r\n" for s in samples)

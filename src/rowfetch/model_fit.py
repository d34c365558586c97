"""Least-squares recovery of the transport cost constants.

Given total elapsed times measured at several prefetch sizes over one
result set of N records, the four-constant model is linear in the basis

    [floor(N/f),  f,  1 if N mod f > 0 else 0,  N mod f]

so ordinary least squares recovers (k1..k4).  Physical constants cannot
be negative, so the fit is the exact non-negative least-squares optimum:
the best non-negative solve over every subset of the basis columns.

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

import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core_model import CostConstants, finite_nonneg, require

BASIS_NAMES = ("full_trips", "prefetch_size", "residual_trip", "residual_records")
CONDITION_WARN_AT = 1e8


class SampleFormatError(ValueError):
    """A samples file that does not follow the f,elapsed_ms format."""


class FitError(ValueError):
    """Sample sets the model cannot be fitted to."""


@dataclass(frozen=True)
class FitSample:
    """One measured point: total elapsed at a prefetch size, given N."""

    prefetch_size: int
    total_elapsed: float
    total_records: int

    def __post_init__(self):
        # As for WorkloadSpec: up to 2**53 every count is exact in float64.
        require(1 <= self.prefetch_size <= 2**53, "prefetch_size", "must be in [1, 2**53]")
        require(0 <= self.total_records <= 2**53, "total_records", "must be in [0, 2**53]")
        require(finite_nonneg(self.total_elapsed), "total_elapsed", "must be finite and >= 0")


@dataclass(frozen=True)
class FitResult:
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


def _collinear_columns(design: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """Columns adding no rank to those before them: none iff full column rank."""
    kept: list[int] = []
    guilty = []
    for col in range(design.shape[1]):
        candidate = design[:, kept + [col]]
        if np.linalg.matrix_rank(candidate) == len(kept) + 1:
            kept.append(col)
        else:
            guilty.append(names[col])
    return guilty


def _solve_nonnegative(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact non-negative least squares, by trying every column subset.

    The optimum is the unconstrained solve on some subset (Lawson &
    Hanson 1974), so the best feasible subset solve is exact.
    """
    width = design.shape[1]
    feasible = [np.zeros(width)]
    for size in range(width, 0, -1):
        for cols in map(list, combinations(range(width), size)):
            sol, *_ = np.linalg.lstsq(design[:, cols], y, rcond=None)
            if (sol >= -1e-12).all():
                coef = np.zeros(width)
                coef[cols] = np.clip(sol, 0.0, None)
                if size == width:  # already non-negative: keep it bit for bit
                    return coef
                feasible.append(coef)
    return min(feasible, key=lambda coef: _rms(design @ coef - y))


def _rms(residuals: np.ndarray) -> float:
    """Root mean square, finite for finite residuals: they are squared after
    an exact scaling by the power of two that brings the largest into [0.5, 1)."""
    exponent = int(np.frexp(np.abs(residuals).max())[1])
    scaled = np.ldexp(residuals, -exponent)
    return float(np.ldexp(np.sqrt(np.mean(scaled ** 2)), exponent))


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
    design = np.array([[n // f, f, 1.0 if n % f else 0.0, n % f] for f in sizes], dtype=float)
    y = np.array([s.total_elapsed for s in samples])

    warnings: list[str] = []
    if not design[:, 3].any():
        # Every sample divides N evenly: the residual columns carry no
        # information, so only k1/k2 can be estimated.
        warnings.append("k3/k4 unidentifiable: every sample has N mod f == 0")
        design = design[:, :2]

    if guilty := _collinear_columns(design, BASIS_NAMES):
        raise FitError("design matrix is rank-deficient; collinear columns: "
                       + ", ".join(guilty))

    condition = float(np.linalg.cond(design))
    condition_warning = condition > CONDITION_WARN_AT
    if condition_warning:
        warnings.append(f"ill-conditioned design matrix (condition {condition:.3g})")

    coef = _solve_nonnegative(design, y)
    residual_rms = _rms(design @ coef - y)
    unfitted = 4 - len(coef)
    CostConstants(*coef, *[0.0] * unfitted)  # a non-finite constant fails here, named
    return FitResult(*coef, *[None] * unfitted, residual_rms, len(samples),
                     condition_warning, tuple(warnings))


_N_COMMENT = re.compile(r"#\s*N\s*=\s*(\d+)\s*$")


def read_fit_samples(path) -> list[FitSample]:
    """Load an f,elapsed_ms CSV whose `# N=<count>` comment names the set size.

    The comment may repeat, but only with the same count.
    """
    total_records = None
    rows: list[tuple[int, str]] = []
    saw_header = False
    with open(path, newline="", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = _N_COMMENT.match(line)
                if match:
                    try:
                        count = int(match.group(1))
                        require(count <= 2**53, "N", "must be in [0, 2**53]")
                        require(total_records in (None, count), "N",
                                f"must repeat the earlier N={total_records}")
                    except ValueError as exc:
                        raise SampleFormatError(f"{path}:{lineno}: bad N comment: {line!r} "
                                                f"({exc})") from exc
                    total_records = count
                continue
            if not saw_header:
                if [part.strip() for part in line.split(",")] != ["f", "elapsed_ms"]:
                    raise SampleFormatError(f"{path}:{lineno}: expected header f,elapsed_ms")
                saw_header = True
                continue
            rows.append((lineno, line))
    if total_records is None:
        raise SampleFormatError(f"{path}: missing `# N=<count>` comment line")
    if not saw_header:
        raise SampleFormatError(f"{path}: missing f,elapsed_ms header")
    samples = []
    for lineno, line in rows:
        parts = line.split(",")
        try:
            samples.append(FitSample(int(parts[0]), float(parts[1]), total_records))
        except (IndexError, ValueError) as exc:
            raise SampleFormatError(f"{path}:{lineno}: bad sample row: {line!r} ({exc})") from exc
    return samples


def write_fit_samples(samples: list[FitSample], path) -> None:
    if len({s.total_records for s in samples}) != 1:
        raise ValueError("samples must share one total_records value")
    with open(path, "w", newline="") as fh:
        # Every line ends in \r\n, as in the trace and trip CSVs.
        fh.write(f"# N={samples[0].total_records}\r\nf,elapsed_ms\r\n")
        fh.writelines(f"{s.prefetch_size},{s.total_elapsed!r}\r\n" for s in samples)

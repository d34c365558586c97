"""Constant recovery: exact, noisy, degenerate, and simulator-driven fits."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rowfetch.core_model import (CostConstants, FetchPlan, FieldError, InputError, WorkloadSpec,
                                 quantized_cost)
from rowfetch.fetch_sim import DriverSpec, NetworkSpec, ServerSpec, simulate_fetch
from rowfetch.model_fit import (
    FitError,
    FitSample,
    _condition,
    _gram,
    _solve,
    _sqrt,
    fit_cost_model,
    read_fit_samples,
    write_fit_samples,
)

TRUE_K = (250.0, 0.5, 120.0, 0.4)
F_GRID = (5, 10, 25, 50, 100, 168, 251)
N = 502

# 95th percentile of |k1 error|/k1 over the seeded 100-repetition noise
# sweep below, computed once and frozen (observed 0.04551, max 0.05154).
K1_NOISE_P95_BOUND = 0.046


def make_samples(noise=0.0, rng=None, scale=1.0, f_grid=F_GRID, n=N):
    from rowfetch.core_model import CostConstants
    k = CostConstants(*TRUE_K)
    out = []
    for f in f_grid:
        y = quantized_cost(FetchPlan(f, n), k)
        if rng is not None:
            y *= 1 + rng.uniform(-noise, noise)
        out.append(FitSample(f, y * scale, n))
    return out


class TestExactRecovery:
    def test_constants_recovered_to_machine_precision(self):
        result = fit_cost_model(make_samples())
        k = result.constants
        for got, want in zip((k.k1, k.k2, k.k3, k.k4), TRUE_K):
            assert got == pytest.approx(want, rel=1e-6)
        mean_elapsed = np.mean([s.total_elapsed for s in make_samples()])
        assert result.residual_rms < 1e-9 * mean_elapsed
        assert not result.condition_warning
        assert None not in (result.k3, result.k4)

    def test_scaling_covariance(self):
        base = fit_cost_model(make_samples()).constants
        scaled = fit_cost_model(make_samples(scale=3.5)).constants
        for name in ("k1", "k2", "k3", "k4"):
            assert getattr(scaled, name) == pytest.approx(3.5 * getattr(base, name), rel=1e-6)


class TestNoisyRecovery:
    def test_k1_within_frozen_monte_carlo_bound(self):
        errors = []
        for rep in range(100):
            rng = np.random.default_rng(rep)
            result = fit_cost_model(make_samples(noise=0.05, rng=rng))
            errors.append(abs(result.constants.k1 - TRUE_K[0]) / TRUE_K[0])
        errors.sort()
        assert errors[94] <= K1_NOISE_P95_BOUND
        assert errors[-1] <= 0.10

    @pytest.mark.parametrize("count", [1000, 4000])
    def test_fit_memory_is_o_samples(self, count):
        # At most 352 B per sample over 64 KiB; the peak was 236 B per
        # sample at 1,000 samples and 259 B at 4,000, of N = 1e6.
        samples = make_samples(noise=0.05, rng=np.random.default_rng(0),
                               f_grid=range(1, count + 1), n=1_000_000)
        tracemalloc.start()
        try:
            result = fit_cost_model(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.sample_count == count
        assert peak < 352 * count + 2**16


class TestPreconditions:
    def test_too_few_samples(self):
        with pytest.raises(FitError, match="at least 4 samples"):
            fit_cost_model(make_samples(f_grid=(5, 10, 25)))

    def test_too_few_distinct_sizes(self):
        samples = make_samples(f_grid=(5, 10, 25)) + make_samples(f_grid=(5,))
        with pytest.raises(FitError, match="distinct prefetch sizes"):
            fit_cost_model(samples)

    def test_mixed_result_set_sizes(self):
        samples = make_samples() + make_samples(n=400, f_grid=(7,))
        with pytest.raises(FitError, match="mix result-set sizes"):
            fit_cost_model(samples)


class TestDegenerateDesigns:
    def test_all_divisible_sizes_leave_k3_k4_unidentifiable(self):
        samples = make_samples(f_grid=(2, 4, 10, 20, 40), n=440)
        result = fit_cost_model(samples)
        assert result.k3 is None and result.k4 is None
        assert any("unidentifiable" in w for w in result.warnings)
        assert result.constants.k1 == pytest.approx(TRUE_K[0], rel=1e-6)
        assert result.constants.k2 == pytest.approx(TRUE_K[1], rel=1e-6)
        payload = json.loads(json.dumps(vars(result)))
        assert payload["k3"] is None and payload["k4"] is None
        assert payload["k1"] == pytest.approx(TRUE_K[0], rel=1e-6)

    def test_result_json_key_order(self):
        payload = vars(fit_cost_model(make_samples()))
        assert list(payload) == ["k1", "k2", "k3", "k4", "residual_rms", "sample_count",
                                 "condition_warning", "warnings"]

    def test_collinear_columns_named(self):
        # For N=502 every f in [168, 251) yields floor(N/f)=2 and
        # residual 502-2f, so trips and the residual indicator are both
        # constant and the residual column is a combination of them.
        samples = make_samples(f_grid=(180, 190, 200, 210))
        with pytest.raises(FitError, match="collinear"):
            fit_cost_model(samples)

    def test_ill_conditioned_design_is_flagged(self):
        # At N = 10**12 + 1 the trips column dwarfs f and the residuals.
        result = fit_cost_model(make_samples(f_grid=(2, 3, 5, 7, 11), n=10**12 + 1))
        assert result.condition_warning
        assert result.warnings == ("ill-conditioned design matrix (condition 2.48e+12)",)

    def test_full_integer_rank_fits_however_ill_conditioned(self):
        # Near N = 2**53 an SVD rank tolerance took this residual indicator
        # for a combination of the other columns; in integers the design has
        # full rank, and the simulator's law comes back exactly.
        n = 4585370827824676
        sizes = (742139, 329944953371394, 2259850835975121, 3101917560641336)
        k = CostConstants(305.0, 0.0, 305.0, 0.0)
        result = fit_cost_model([FitSample(f, quantized_cost(FetchPlan(f, n), k), n)
                                 for f in sizes])
        assert (result.k1, result.k2, result.k3, result.k4) == (305.0, 0.0, 305.0, 0.0)
        assert result.residual_rms == 0.0
        assert result.warnings == ("ill-conditioned design matrix (condition 4.49e+15)",)

    def test_shared_residual_is_collinear(self):
        # 10, 25, 50, 100 all divide 500, so N mod f is 2 everywhere and
        # the residual-records column is 2x the indicator column.
        with pytest.raises(FitError, match="residual_records"):
            fit_cost_model(make_samples(f_grid=(10, 25, 50, 100)))

    def test_negative_coefficients_pinned_at_zero(self):
        rng = np.random.default_rng(42)
        samples = []
        for f in F_GRID:
            y = 250.0 * (N // f) + 0.4 * (N % f)  # k2 = k3 = 0 truly
            samples.append(FitSample(f, y * (1 + rng.uniform(-0.02, 0.02)), N))
        result = fit_cost_model(samples)
        k = result.constants
        assert min(k.k1, k.k2, k.k3, k.k4) >= 0.0
        # This seed drives the unconstrained k3 to -33.2; the active-set
        # pass must pin it (and the then-negative k2) at exactly zero.
        assert k.k3 == 0.0
        assert k.k2 == 0.0
        assert k.k1 == pytest.approx(250.0, rel=0.05)


def assert_kkt(n, sizes, y, result):
    """The fit is the exact non-negative least-squares optimum x.

    With gradient g = A^T (A x - y): x >= 0, every g_i >= 0, and g_i = 0
    wherever x_i > 0.
    """
    k = result.constants
    x = np.array([k.k1, k.k2, k.k3, k.k4])
    design = np.array([[n // f, f, 1.0 if n % f else 0.0, n % f] for f in sizes])
    if result.k3 is None:
        design, x = design[:, :2], x[:2]
    grad = design.T @ (design @ x - np.asarray(y))
    tol = 1e-9 * np.linalg.norm(design) * np.linalg.norm(y)
    assert (x >= 0).all()
    assert (grad >= -tol).all(), (n, sizes)
    assert (np.abs(grad[x > 0]) <= tol).all(), (n, sizes)


@st.composite
def designs(draw):
    """(n, sorted distinct sizes, elapsed per size) for one fit.

    Elapsed times are 0 or at least 1 us: below that, squares in the
    tolerance's norms underflow and the check, not the fit, loses precision.
    """
    n = draw(st.integers(4, 5000))
    sizes = sorted(draw(st.sets(st.integers(1, n), min_size=4, max_size=10)))
    elapsed = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
    y = draw(st.lists(elapsed, min_size=len(sizes), max_size=len(sizes)))
    return n, sizes, y


class TestNonNegativeOptimum:
    def test_kkt_conditions_on_random_designs(self):
        # A greedy drop-the-most-negative pass breaks the KKT conditions
        # on about a fifth of these designs.
        rng = np.random.default_rng(1974)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(50, 2000))
            sizes = sorted({int(f) for f in rng.integers(1, n, size=int(rng.integers(5, 10)))})
            y = rng.uniform(0.0, 1000.0, size=len(sizes))
            try:
                result = fit_cost_model([FitSample(f, float(v), n) for f, v in zip(sizes, y)])
            except FitError:
                continue
            assert_kkt(n, sizes, y, result)
            checked += 1
        assert checked > 150

    @settings(deadline=None)
    @given(designs())
    def test_kkt_conditions_hold_on_generated_designs(self, design):
        n, sizes, y = design
        try:
            result = fit_cost_model([FitSample(f, v, n) for f, v in zip(sizes, y)])
        except FitError:
            assume(False)  # exactly collinear columns: no optimum to check
        assert_kkt(n, sizes, y, result)


@st.composite
def small_designs(draw):
    """Columns of small integer designs, 1-4 wide, some with one column a multiple of another."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(-5, 5), min_size=width, max_size=width)
    columns = [list(col) for col in zip(*draw(st.lists(row, min_size=1, max_size=6)))]
    if width > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(width)))[:2]
        factor = draw(st.sampled_from((0, 1, 2, -3)))
        columns[dst] = [factor * v for v in columns[src]]
    return columns


def exact_rank(columns) -> int:
    """Rank of an integer matrix, by Fraction elimination with a pivot search."""
    rows = [[Fraction(v) for v in row] for row in zip(*columns)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def identity(width: int) -> list[list[int]]:
    return [[int(i == j) for i in range(width)] for j in range(width)]


class TestSolve:
    @settings(max_examples=300)
    @given(small_designs())
    def test_one_zero_pivot_per_missing_rank(self, columns):
        # Each zero pivot is a column adding no rank to those before it.
        _, _, zero_pivots = _solve(_gram(columns))
        assert zero_pivots == [c for c in range(len(columns))
                               if exact_rank(columns[:c + 1]) == exact_rank(columns[:c])]

    @settings(max_examples=300)
    @given(small_designs())
    def test_identity_right_hand_sides_give_the_inverse(self, columns):
        # The inverse is adjugate / det: gram @ adjugate == det * I.
        gram = _gram(columns)
        adjugate, det, zero_pivots = _solve(gram, *identity(len(gram)))
        assume(not zero_pivots)
        assert [[sum(a * b for a, b in zip(row, col)) for col in adjugate]
                for row in gram] == [[det * v for v in row] for row in identity(len(gram))]


class TestCondition:
    def test_matches_numpy_where_numpy_is_accurate(self):
        # np.linalg.cond's SVD is accurate to about cond * 2**-52 relative.
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(50, 5000))
            sizes = sorted({int(f) for f in rng.integers(1, n, size=6)})
            columns = [[n // f for f in sizes], sizes, [int(n % f > 0) for f in sizes],
                       [n % f for f in sizes]]
            gram = _gram(columns)
            want = np.linalg.cond(np.array(columns, dtype=float).T)
            adjugate, det, zero_pivots = _solve(gram, *identity(len(gram)))
            if zero_pivots or want > 1e6:
                continue
            assert _condition(gram, adjugate, det) == pytest.approx(want, rel=1e-9)
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("gram, want", [
        ([[5, 0], [0, 5]], 1.0),
        ([[9, 0, 0, 0], [0, 9, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3.0),
        ([[2, 1], [1, 2]], 3**0.5),
    ], ids=["equal", "pairs", "rotated"])
    def test_repeated_eigenvalues(self, gram, want):
        # The slowest case for the trace of powers: ties at the top.
        adjugate, det, _ = _solve(gram, *identity(len(gram)))
        assert _condition(gram, adjugate, det) == pytest.approx(want, rel=1e-12)


def is_nearest_sqrt(root: float, q: Fraction) -> bool:
    """root is a float64 nearest sqrt(q): q lies between the squared midpoints
    from root to its neighbours."""
    below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
    above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    return below * below <= q <= above * above


class TestSqrt:
    @given(st.floats(0.0, sys.float_info.max))
    def test_is_math_sqrt_on_floats(self, x):
        assert _sqrt(*x.as_integer_ratio()) == math.sqrt(x)

    @given(st.integers(0, 2**2200), st.integers(1, 2**2200))
    def test_rounds_a_rational_root_once(self, num, den):
        root = _sqrt(num, den)
        assert root == math.inf or is_nearest_sqrt(root, Fraction(num, den))

    def test_stays_finite_at_float64s_ends(self):
        top, least = sys.float_info.max, math.ulp(0.0)
        assert _sqrt(int(top) ** 2, 1) == top
        assert _sqrt(int(top) ** 2 * 3, 4) == pytest.approx(top / 2 * 3**0.5)
        assert _sqrt(1, 4**1074) == least  # least == 2**-1074
        assert _sqrt(0, 1) == 0.0


def cramer_solve(a, b) -> list[Fraction]:
    """a^-1 b by Cramer's rule over the Leibniz determinant: tiny systems only."""
    def det(m):
        total = Fraction(0)
        for perm in permutations(range(len(m))):
            sign = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
            term = Fraction(sign)
            for i, j in enumerate(perm):
                term *= m[i][j]
            total += term
        return total

    whole = det(a)
    return [det([row[:i] + [v] + row[i + 1:] for row, v in zip(a, b)]) / whole
            for i in range(len(a))]


def reference_fit(n, sizes, y) -> list[Fraction]:
    """The non-negative least-squares optimum as the one subset solve meeting
    the KKT conditions, summed row by row in Fractions."""
    rows = [[n // f, f, int(n % f > 0), n % f] for f in sizes]
    if not any(row[3] for row in rows):
        rows = [row[:2] for row in rows]
    ys = [Fraction(v) for v in y]
    width = len(rows[0])
    for size in range(width + 1):
        for cols in combinations(range(width), size):
            a = [[sum(Fraction(row[i] * row[j]) for row in rows) for j in cols] for i in cols]
            b = [sum(row[i] * v for row, v in zip(rows, ys)) for i in cols]
            x = [Fraction(0)] * width
            for col, value in zip(cols, cramer_solve(a, b)):
                x[col] = value
            residual = [sum(r * c for r, c in zip(row, x)) - v for row, v in zip(rows, ys)]
            gradient = [sum(row[j] * r for row, r in zip(rows, residual)) for j in range(width)]
            if min(x) >= 0 and min(gradient) >= 0:
                return x
    raise AssertionError("no subset meets the KKT conditions")


@st.composite
def tiny_designs(draw):
    """(n, sizes, elapsed) small enough for the brute-force reference."""
    n = draw(st.integers(4, 60))
    sizes = sorted(draw(st.sets(st.integers(1, n), min_size=4, max_size=7)))
    elapsed = st.one_of(st.just(0.0), st.floats(1e-3, 1e4), st.integers(0, 4000).map(float))
    return n, sizes, draw(st.lists(elapsed, min_size=len(sizes), max_size=len(sizes)))


class TestExactFit:
    @pytest.mark.parametrize("k", [(250.0, 0.5, 120.0, 0.375), (305.0, 0.0, 305.0, 0.0),
                                   (2.0**-10, 3.0, 0.0, 2.0**20)])
    def test_dyadic_constants_come_back_bit_for_bit(self, k):
        samples = [FitSample(f, quantized_cost(FetchPlan(f, N), CostConstants(*k)), N)
                   for f in F_GRID]
        result = fit_cost_model(samples)
        assert (result.k1, result.k2, result.k3, result.k4) == k
        assert result.residual_rms == 0.0

    @settings(deadline=None, max_examples=150)
    @given(tiny_designs())
    def test_matches_a_brute_force_fraction_reference(self, design):
        n, sizes, y = design
        columns = [[n // f for f in sizes], sizes, [int(n % f > 0) for f in sizes],
                   [n % f for f in sizes]]
        if not any(columns[3]):
            columns = columns[:2]
        try:
            result = fit_cost_model([FitSample(f, v, n) for f, v in zip(sizes, y)])
        except FitError:
            assert exact_rank(columns) < len(columns)
            return
        assert exact_rank(columns) == len(columns)
        want = [float(x) for x in reference_fit(n, sizes, y)]
        got = [result.k1, result.k2, result.k3, result.k4][:len(want)]
        assert got == want
        k = [Fraction(c) for c in got]
        squares = sum((sum(c * v for c, v in zip(k, row)) - Fraction(ms)) ** 2
                      for row, ms in zip(zip(*columns), y))
        assert is_nearest_sqrt(result.residual_rms, squares / len(sizes))


class TestSimulatorDrivenFits:
    @staticmethod
    def elapsed_at(f, net):
        w = WorkloadSpec(502, (50, 4000, 8, 16))
        server = ServerSpec(hard_parse=40.0, soft_parse=3.0, per_record_search=0.05,
                            server_cache_size=100, disk_access_per_refill=12.0)
        driver = DriverSpec(enforced_prefetch=f, per_field_conversion=0.05,
                            request_overhead=2.0)
        return simulate_fetch(w, net, server, driver).total_elapsed_ms

    def test_predict_then_measure(self):
        # Sizes chosen with varying residuals (2, 22, 2, 52); divisors
        # of 500 would make the residual columns collinear.
        net = NetworkSpec.uniform(2, 600.0, 150.0, 0.9)
        samples = [FitSample(f, self.elapsed_at(f, net), 502)
                   for f in (10, 60, 100, 150)]
        fit = fit_cost_model(samples)
        predicted = quantized_cost(FetchPlan(168, 502), fit.constants)
        measured = self.elapsed_at(168, net)
        assert predicted == pytest.approx(measured, rel=0.02)

    def test_hop_count_scales_fitted_trip_constant(self):
        one_hop = NetworkSpec.uniform(1, 600.0, 120.0, 0.9)
        two_hop = NetworkSpec.uniform(2, 600.0, 120.0, 0.9)
        k1 = {}
        for hops, net in ((1, one_hop), (2, two_hop)):
            samples = [FitSample(f, self.elapsed_at(f, net), 502)
                       for f in (5, 10, 60, 100, 150)]
            k1[hops] = fit_cost_model(samples).constants.k1
        assert k1[2] / k1[1] == pytest.approx(2.0, abs=0.3)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = make_samples()
        write_fit_samples(samples, path)
        assert read_fit_samples(path) == samples
        raw = path.read_bytes()
        assert raw.startswith(b"# N=502\r\nf,elapsed_ms\r\n")
        assert raw.count(b"\n") == raw.count(b"\r\n")  # no bare \n line end
        first = path.read_text().splitlines()
        assert first[0] == "# N=502"
        assert first[1] == "f,elapsed_ms"
        path.write_text("\n".join(first[:3] + [""] + first[3:]))
        assert read_fit_samples(path) == samples  # a blank line between rows is skipped
        path.write_text("\n".join(first[:2] + [row + ",note" for row in first[2:]]))
        assert read_fit_samples(path) == samples  # columns past elapsed_ms are ignored

    def test_writer_refuses_mixed_result_set_sizes(self, tmp_path):
        with pytest.raises(ValueError, match="one total_records"):
            write_fit_samples(make_samples() + make_samples(n=400), tmp_path / "samples.csv")

    def test_missing_n_comment(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("f,elapsed_ms\n10,100.0\n")
        with pytest.raises(InputError, match="N="):
            read_fit_samples(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("# N=502\n10,100.0\n")
        with pytest.raises(InputError):
            read_fit_samples(path)
        path.write_text("# N=502\n\n# no rows yet\n")
        with pytest.raises(InputError, match="missing f,elapsed_ms header"):
            read_fit_samples(path)

    def test_n_comment_repeats_only_with_the_same_count(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_fit_samples(make_samples(), path)
        with path.open("a") as fh:
            fh.write("# N=502\n")
        assert read_fit_samples(path) == make_samples()
        with path.open("a") as fh:
            fh.write("# N=9999\n")
        last = len(path.read_text().splitlines())
        with pytest.raises(InputError) as exc:
            read_fit_samples(path)
        assert str(exc.value).startswith(f"{path}:{last}: ") and "N=502" in str(exc.value)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("# N=502\nf,elapsed_ms\nten,100.0\n")
        with pytest.raises(InputError):
            read_fit_samples(path)

    @pytest.mark.parametrize("args, field", [
        ((0, 100.0, 502), "prefetch_size"),
        ((10, 100.0, -1), "total_records"),
        ((2**53 + 1, 100.0, 502), "prefetch_size"),
        ((10, 100.0, 2**53 + 1), "total_records"),
        ((10, -1.0, 502), "total_elapsed"),
        ((10, float("nan"), 502), "total_elapsed"),
        ((10, float("inf"), 502), "total_elapsed"),
    ])
    def test_sample_fields_checked_by_the_spec_rule(self, args, field):
        with pytest.raises(FieldError) as exc:
            FitSample(*args)
        assert exc.value.field == field

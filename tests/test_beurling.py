import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import beurling
from shiftlab.beurling import (
    CoefficientSeries,
    add,
    algebra_constant,
    check_wa_batch,
    check_wc_batch,
    derivative_probe_batch,
    divide_by_z_minus_1,
    multiply,
)
from shiftlab.seeding import TAG_SERIES, stream
from shiftlab.weights import WeightDataError, WeightSequence

from builders import polynomial_weight

QAS = WeightSequence.preset("quasianalytic_sqrt")
LINEAR = polynomial_weight(1.0, 512)  # omega(n) = n + 1
ONES = polynomial_weight(0.0, 512)    # omega = 1

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    min_size=0, max_size=12,
)


def series(coeffs):
    return CoefficientSeries(np.array(coeffs, dtype=complex))


ONE = series([1])


def monomial(d):
    return series([0] * d + [1])


# The batch kernels applied to one series, as a one-row batch.

def norm(f, w, s=0):
    return float(beurling._weighted_norms(f.coeffs[None], w, s)[0])


def wa_ratio(p, f1, f2, w):
    """||p f1 f2|| / (||p f1|| ||p f2||) in the omega norm."""
    pf1, pf2 = (beurling._cauchy_rows(p.coeffs, f.coeffs[None]) for f in (f1, f2))
    num, d1, d2 = (beurling._weighted_norms(rows, w) for rows in (beurling._cauchy_rows(pf1, f2.coeffs[None]), pf1, pf2))
    return float(num[0] / (d1[0] * d2[0]))


def wc_ratio(f, w):
    """||(z-1) f||_omega / ||f||_omega_1."""
    return float(beurling._wc_ratios(f.coeffs[None], w)[0])


def derivative_sides(f, w):
    """(||f||_omega, |f(0)| + ||f'||_omega_1)."""
    left, right = beurling._derivative_sides(f.coeffs[None], w)
    return float(left[0]), float(right[0])


class TestSeries:
    def test_degree_and_trimming(self):
        assert series([1, 2, 0, 0]).degree == 1
        assert CoefficientSeries.zero().degree == -1
        assert monomial(3).degree == 3

    def test_evaluate(self):
        f = series([-2, 1, 1])  # z^2 + z - 2
        assert f(1.0) == 0
        assert f(2.0) == 4


class TestNorm:
    def test_constant(self):
        for w in (QAS, LINEAR, ONES):
            assert norm(ONE, w) == 1.0

    def test_monomial_quasianalytic(self):
        assert norm(monomial(3), QAS) == pytest.approx(
            math.exp(math.sqrt(3)), rel=1e-14
        )

    def test_two_term_linear_weight(self):
        assert norm(series([1, 2]), LINEAR) == pytest.approx(math.sqrt(17), rel=1e-14)

    def test_shifted_weight(self):
        # against omega_1 the linear weight collapses to omega = 1
        f = series([1, 1, 1])
        assert norm(f, LINEAR, s=1) == pytest.approx(math.sqrt(3), rel=1e-14)


class TestMultiply:
    def test_unit(self):
        f = series([2, 0, 1j])
        assert np.array_equal(multiply(f, ONE).coeffs, f.coeffs)

    def test_difference_of_squares(self):
        out = multiply(series([1, 1]), series([1, -1]))
        assert np.array_equal(out.coeffs, np.array([1, 0, -1], dtype=complex))

    def test_hand_expansion(self):
        out = multiply(series([-1, 1]), series([2, 1]))  # (z-1)(z+2)
        assert np.array_equal(out.coeffs, np.array([-2, 1, 1], dtype=complex))

    def test_zero_factor(self):
        assert multiply(series([1, 2]), CoefficientSeries.zero()).degree == -1

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        f, g = series(a), series(b)
        fg, gf = multiply(f, g), multiply(g, f)
        n = max(len(fg.coeffs), len(gf.coeffs))
        assert np.allclose(fg.padded(n), gf.padded(n), atol=1e-12)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        f, g, h = series(a), series(b), series(c)
        lhs = multiply(multiply(f, g), h)
        rhs = multiply(f, multiply(g, h))
        n = max(len(lhs.coeffs), len(rhs.coeffs), 1)
        scale = max(np.max(np.abs(lhs.padded(n))), 1.0)
        assert np.allclose(lhs.padded(n), rhs.padded(n), atol=1e-12 * scale)


class TestAlgebraConstant:
    def test_specialized_running_maxima(self):
        rep = algebra_constant(None, 16)
        assert rep.running_maxima[:3] == [1.0, 2.0, 2.5625]

    def test_specialized_limit_partial_fraction_oracle(self):
        N = 10_000
        rep = algebra_constant(None, N)
        # oracle from the partial-fraction split of (n+1)/((k+1)(n-k+1)):
        # sum = ((n+1)/(n+2))^2 (2 sum_{j<=n+1} j^-2 + 4 H_{n+1}/(n+2))
        j = np.arange(1, N + 2, dtype=float)
        basel = np.sum(1.0 / j ** 2)
        harmonic = np.sum(1.0 / j)
        oracle = ((N + 1) / (N + 2)) ** 2 * (2 * basel + 4 * harmonic / (N + 2))
        assert rep.kernel_values[-1] == pytest.approx(oracle, rel=1e-10)
        limit = math.pi ** 2 / 3
        assert abs(rep.kernel_values[-1] - limit) <= 1e-3 * limit
        # the max is reached at small n, well above the limit
        assert rep.argmax < 100
        assert rep.value > limit

    def test_general_weight_matches_specialized_for_linear(self):
        spec = algebra_constant(None, 256)
        gen = algebra_constant(polynomial_weight(1.0, 256), 256)
        assert gen.value == pytest.approx(spec.value, rel=1e-12)

    def test_flat_weight_flags_unbounded_trend(self):
        rep = algebra_constant(polynomial_weight(0.0, 256), 256)
        assert rep.unbounded_trend
        # kernel sum is n+1 for omega = 1
        assert rep.kernel_values[-1] == pytest.approx(257.0)


class TestCheckWa:
    def test_z_minus_1_constants(self):
        # p f1 f2 = z - 1 for constant f's, so the ratio is
        # ||z-1|| / ||z-1||^2 = 1/sqrt(5) with omega = (1, 2, ...)
        p = series([-1, 1])
        ratio = wa_ratio(p, ONE, ONE, LINEAR)
        assert ratio == pytest.approx(1.0 / math.sqrt(5), rel=1e-14)

    def test_degree_one_factors(self):
        # (z-1)^2 over ||z-1||^2 happens with f1 = z - 1, f2 = 1
        p = series([-1, 1])
        ratio = wa_ratio(p, ONE, ONE, LINEAR)
        alt = wa_ratio(ONE, p, p, LINEAR)
        assert alt == pytest.approx(math.sqrt(26) / 5, rel=1e-14)
        assert ratio != alt

    def test_p_equal_one_bounded_by_constant(self):
        const = algebra_constant(LINEAR, 128).value
        for i in range(20):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((123, i))))
            f = series(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            g = series(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            assert wa_ratio(ONE, f, g, LINEAR) <= const

    def test_batch_stable_under_degree_doubling(self):
        m32 = check_wa_batch(LINEAR, 32, 200, seed=3)
        m64 = check_wa_batch(LINEAR, 64, 200, seed=3)
        assert math.isfinite(m64)
        assert m64 <= 1.05 * m32


class TestProductInequality:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_norm_submultiplicative_up_to_constant(self, a, b):
        f, g = series(a), series(b)
        if f.degree == -1 or g.degree == -1:
            return
        const = algebra_constant(LINEAR, 64).value
        lhs = norm(multiply(f, g), LINEAR)
        rhs = const * norm(f, LINEAR) * norm(g, LINEAR)
        assert lhs <= rhs * (1 + 1e-12)


class TestDivision:
    def test_hand_example(self):
        g = series([-2, 1, 1])  # z^2 + z - 2
        f = divide_by_z_minus_1(g)
        assert np.array_equal(f.coeffs, np.array([2, 1], dtype=complex))
        # verify through multiplication
        back = multiply(series([-1, 1]), f)
        assert np.array_equal(add(back, series([g(1.0)])).coeffs, g.coeffs)

    def test_constant_gives_zero(self):
        assert divide_by_z_minus_1(ONE).degree == -1

    def test_monomial_gives_geometric_block(self):
        f = divide_by_z_minus_1(monomial(5))
        assert np.array_equal(f.coeffs, np.ones(5, dtype=complex))

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_identity_integer_coeffs(self, coeffs):
        g = series([complex(c) for c in coeffs])
        f = divide_by_z_minus_1(g)
        back = add(multiply(series([-1, 1]), f), series([g(1.0)]))
        n = max(len(back.coeffs), len(g.coeffs), 1)
        assert np.max(np.abs(back.padded(n) - g.padded(n))) <= 1e-12


class TestCheckWc:
    def test_constant_input(self):
        for w in (polynomial_weight(3.0, 512), QAS):
            expected = math.sqrt(1 + math.exp(2 * w.log_omega_array(2)[1]))
            assert wc_ratio(ONE, w) == pytest.approx(expected, rel=1e-14)

    def test_batch_floor_stable(self):
        w = polynomial_weight(3.0, 512)
        m32 = check_wc_batch(w, 32, 200, seed=5)
        m64 = check_wc_batch(w, 64, 200, seed=5)
        assert m32 > 0 and m64 > 0
        assert m64 >= 0.95 * m32

    def test_flat_weight_decays(self):
        # omega_2 = (1+n)^-2 decreases, outside the hypothesis:
        # the ratio for 1 + z + ... + z^d drains away
        ratios = [wc_ratio(series(np.ones(d + 1)), ONES) for d in (8, 32, 128)]
        assert ratios[2] < ratios[1] < ratios[0]


class TestDerivativeEquivalence:
    def test_constant(self):
        assert derivative_sides(ONE, LINEAR) == (1.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_monomial_ratio(self, n):
        left, right = derivative_sides(monomial(n), LINEAR)
        assert left == pytest.approx(n + 1.0, rel=1e-14)
        assert right == pytest.approx(float(n), rel=1e-14)

    def test_derivative_coefficients(self):
        f = series([3, 2, 1])  # 3 + 2z + z^2
        assert np.array_equal(beurling._derivative_rows(f.coeffs), np.array([2, 2], dtype=complex))

    def test_batch_two_sided(self):
        lo, hi = derivative_probe_batch(LINEAR, 64, 200, seed=9)
        assert 0.1 <= lo <= hi <= 10.0


# -- reference: the batch checks as one loop over samples, one series at a time --

def ref_norm(f, w, s=0):
    if f.degree == -1:
        return 0.0
    n = np.arange(len(f.coeffs), dtype=float)
    weights = np.exp(w.log_omega_array(len(f.coeffs)) - s * np.log1p(n))
    return float(np.linalg.norm(f.coeffs * weights))


def ref_series(rng, degree):
    return CoefficientSeries(rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1))


def ref_multiply(f, g):
    if f.degree == -1 or g.degree == -1:
        return CoefficientSeries.zero()
    return CoefficientSeries(np.convolve(f.coeffs, g.coeffs))


def ref_wa_batch(p, w, degree, n_pairs, seed):
    worst = 0.0
    rng = stream(seed, TAG_SERIES, 1)
    for _ in range(n_pairs):
        f1, f2 = ref_series(rng, degree), ref_series(rng, degree)
        pf1, pf2 = ref_multiply(p, f1), ref_multiply(p, f2)
        if pf1.degree == -1 or pf2.degree == -1:
            continue
        worst = max(worst, ref_norm(ref_multiply(pf1, f2), w) / (ref_norm(pf1, w) * ref_norm(pf2, w)))
    return worst


def ref_wc_batch(w, degree, n_samples, seed):
    best = math.inf
    rng = stream(seed, TAG_SERIES, 2)
    for _ in range(n_samples):
        f = ref_series(rng, degree)
        if f.degree == -1:
            continue
        best = min(best, ref_norm(ref_multiply(series([-1, 1]), f), w) / ref_norm(f, w, s=1))
    return best


def ref_derivative_batch(w, degree, n_samples, seed):
    lo, hi = math.inf, 0.0
    rng = stream(seed, TAG_SERIES, 3)
    for _ in range(n_samples):
        f = ref_series(rng, degree)
        if f.degree == -1:
            continue
        df = CoefficientSeries(np.arange(1, len(f.coeffs)) * f.coeffs[1:])
        ratio = ref_norm(f, w) / (abs(complex(f.coeffs[0])) + ref_norm(df, w, s=1))
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


BATCH_WEIGHTS = (
    WeightSequence.preset("unweighted"),
    WeightSequence.preset("bergman"),
    QAS,
    polynomial_weight(3.0, 512),
)
Z_MINUS_1 = series([-1, 1])


def close(got, ref, rel=1e-13):
    return abs(got - ref) <= rel * abs(ref)


def record_block_draws(monkeypatch, hook):
    """Make every probe's stream pass each block of uniform draws through
    hook(parts, first), first the stream's index of the block's first sample;
    return the list of the (seed, *tags) keys of the streams opened."""
    opened = []

    class Hooked:
        def __init__(self, rng):
            self.rng, self.drawn = rng, 0

        def uniform(self, low, high, size):
            first, self.drawn = self.drawn, self.drawn + size[0]
            return hook(self.rng.uniform(low, high, size), first)

    def hooked_stream(*key):
        opened.append(key)
        return Hooked(stream(*key))

    monkeypatch.setattr(beurling, "stream", hooked_stream)
    return opened


class TestBatchKernels:
    @pytest.mark.parametrize("degree", [1, 32, 64])
    @pytest.mark.parametrize("w", BATCH_WEIGHTS, ids=lambda w: w.kind)
    def test_match_the_per_sample_loops(self, w, degree):
        assert close(check_wa_batch(w, degree, 40, 7), ref_wa_batch(Z_MINUS_1, w, degree, 40, 7))
        assert close(check_wc_batch(w, degree, 40, 7), ref_wc_batch(w, degree, 40, 7))
        for got, ref in zip(derivative_probe_batch(w, degree, 40, 7), ref_derivative_batch(w, degree, 40, 7)):
            assert close(got, ref)

    def test_draws_equal_the_per_sample_streams(self):
        """Every kind, a seed of one and of two 32-bit words, across a block boundary:
        the blocks, joined, are consecutive series of one stream (seed, TAG_SERIES, kind)."""
        length = 33
        per_block = beurling._BLOCK_COEFFS // length
        for seed in (7, 2**32 + 9):
            for kind, count in ((1, 2), (2, 1), (3, 1)):
                blocks = list(beurling._batches(stream(seed, TAG_SERIES, kind), per_block + 5, length, count))
                assert [b.shape[1] for b in blocks] == [per_block, 5]
                drawn = np.concatenate(blocks, axis=1)
                rng = stream(seed, TAG_SERIES, kind)
                for i in range(per_block + 5):
                    for series in drawn[:, i]:
                        assert np.array_equal(series, ref_series(rng, length - 1).coeffs)

    def test_first_samples_do_not_depend_on_the_batch(self, monkeypatch):
        monkeypatch.setattr(beurling, "_BLOCK_COEFFS", 6 * 9)  # 6 samples of degree 8 per block
        n = 20
        for kind, count in ((1, 2), (2, 1)):
            small, large = (np.concatenate(list(beurling._batches(stream(3, TAG_SERIES, kind), rows, 9, count)), axis=1)
                            for rows in (n, n + 7))
            assert np.array_equal(large[:, :n], small)
        w = WeightSequence.preset("bergman")
        assert close(check_wc_batch(w, 8, n, 3), ref_wc_batch(w, 8, n, 3))
        assert check_wc_batch(w, 8, n + 7, 3) <= check_wc_batch(w, 8, n, 3)

    def test_each_probe_opens_one_stream(self, monkeypatch):
        opened = record_block_draws(monkeypatch, lambda parts, first: parts)
        monkeypatch.setattr(beurling, "_BLOCK_COEFFS", 4 * 9)
        check_wa_batch(LINEAR, 8, 30, 5)
        check_wc_batch(LINEAR, 8, 30, 5)
        derivative_probe_batch(LINEAR, 8, 30, 5)
        assert opened == [(5, TAG_SERIES, 1), (5, TAG_SERIES, 2), (5, TAG_SERIES, 3)]

    def test_batch_larger_than_one_block(self, monkeypatch):
        monkeypatch.setattr(beurling, "_BLOCK_COEFFS", 50 * 9)  # 50 samples of degree 8 per block
        w = WeightSequence.preset("bergman")
        assert close(check_wa_batch(w, 8, 120, 11), ref_wa_batch(Z_MINUS_1, w, 8, 120, 11))
        assert close(check_wc_batch(w, 8, 120, 11), ref_wc_batch(w, 8, 120, 11))
        for got, ref in zip(derivative_probe_batch(w, 8, 120, 11), ref_derivative_batch(w, 8, 120, 11)):
            assert close(got, ref)

    def test_blocks_bound_the_draws(self, monkeypatch):
        sizes = []

        def recording(parts, first):
            sizes.append(len(parts))
            return parts

        record_block_draws(monkeypatch, recording)
        w = WeightSequence.preset("bergman")
        assert check_wc_batch(w, 1 << 16, 3, 4) > 0  # one sample per block at this degree
        assert sizes == [1, 1, 1]
        sizes.clear()
        monkeypatch.setattr(beurling, "_BLOCK_COEFFS", 7 * 9 + 8)
        assert close(check_wc_batch(w, 8, 30, 4), ref_wc_batch(w, 8, 30, 4))
        assert sizes == [7, 7, 7, 7, 2]

    def test_zero_samples_are_skipped(self, monkeypatch):
        kept = []

        def zero_all_but_kept(parts, first):
            parts[[first + row not in kept for row in range(len(parts))]] = 0
            return parts

        record_block_draws(monkeypatch, zero_all_but_kept)
        monkeypatch.setattr(beurling, "_BLOCK_COEFFS", 4 * 9)  # 4 samples of degree 8 per block
        assert check_wa_batch(LINEAR, 8, 6, 1) == 0.0
        assert check_wc_batch(LINEAR, 8, 6, 1) == math.inf
        assert derivative_probe_batch(LINEAR, 8, 6, 1) == (math.inf, 0.0)
        kept.append(4)
        rng = stream(1, TAG_SERIES, 2)
        f = [ref_series(rng, 8) for _ in range(5)][4]
        assert close(check_wc_batch(LINEAR, 8, 6, 1), ref_norm(ref_multiply(Z_MINUS_1, f), LINEAR)
                     / ref_norm(f, LINEAR, s=1))

    def test_empty_batch(self):
        assert check_wa_batch(LINEAR, 8, 0, 1) == 0.0
        assert check_wc_batch(LINEAR, 8, 0, 1) == math.inf
        assert derivative_probe_batch(LINEAR, 8, 0, 1) == (math.inf, 0.0)

    @pytest.mark.parametrize("check, ref, needed", [
        (lambda w, d: check_wa_batch(w, d, 5, 1), lambda w, d: ref_wa_batch(Z_MINUS_1, w, d, 5, 1),
         lambda d: 2 * d + 2),
        (lambda w, d: check_wc_batch(w, d, 5, 1), lambda w, d: ref_wc_batch(w, d, 5, 1), lambda d: d + 2),
        (lambda w, d: derivative_probe_batch(w, d, 5, 1), lambda w, d: ref_derivative_batch(w, d, 5, 1),
         lambda d: d + 1),
    ], ids=["wa", "wc", "derivative"])
    def test_explicit_table_must_cover_the_longest_series(self, check, ref, needed):
        degree = 16
        enough = polynomial_weight(3.0, needed(degree) - 1)
        assert np.all(np.isfinite(check(enough, degree)))
        short = polynomial_weight(3.0, needed(degree) - 2)
        for run in (check, ref):
            with pytest.raises(WeightDataError):
                run(short, degree)

    def test_wc_batch_emits_no_warning(self):
        # omega_2 = 1/(1+n) decreases for the linear weight, outside the hypothesis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_wc_batch(LINEAR, 16, 20, 3) > 0

    def test_single_series_checks_are_the_kernels_on_one_row(self):
        rng = stream(5, 99)
        f1, f2 = ref_series(rng, 12), ref_series(rng, 12)
        want = (ref_norm(ref_multiply(ref_multiply(Z_MINUS_1, f1), f2), QAS)
                / (ref_norm(ref_multiply(Z_MINUS_1, f1), QAS) * ref_norm(ref_multiply(Z_MINUS_1, f2), QAS)))
        num, d1, d2 = beurling._wa_parts(f1.coeffs[None], f2.coeffs[None], QAS)
        assert close(float(num[0] / (d1[0] * d2[0])), want)
        assert close(wa_ratio(Z_MINUS_1, f1, f2, QAS), want)
        assert close(wc_ratio(f1, QAS), ref_norm(ref_multiply(Z_MINUS_1, f1), QAS) / ref_norm(f1, QAS, s=1))
        assert close(norm(f1, QAS, s=1), ref_norm(f1, QAS, s=1))
        left, right = derivative_sides(f1, QAS)
        df1 = CoefficientSeries(np.arange(1, len(f1.coeffs)) * f1.coeffs[1:])
        assert close(left, ref_norm(f1, QAS))
        assert close(right, abs(complex(f1.coeffs[0])) + ref_norm(df1, QAS, s=1))

import math
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.weights import (
    WeightDataError,
    WeightSequence,
    classify,
    radius_estimates,
)

from builders import polynomial_weight

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")
QAS = WeightSequence.preset("quasianalytic_sqrt")


def omega(w, n):
    """omega(n), read from the log-omega table."""
    return math.exp(w.log_omega_array(n + 1)[n])


def alpha(w, n):
    """alpha_n, read from the alpha table."""
    return float(w.alpha_array(n + 1)[n])


def pi(w, n):
    """pi_n = alpha_0 ... alpha_{n-1}, read from the log-pi table."""
    return math.exp(w.log_pi_array(n)[n])


class TestOmegaAlpha:
    def test_omega_presets(self):
        assert omega(UNW, 7) == 1.0
        assert omega(QAS, 4) == pytest.approx(math.exp(2.0), rel=1e-15)
        assert omega(BER, 3) == pytest.approx(2.0, rel=1e-15)
        for w in (UNW, BER, QAS):
            assert omega(w, 0) == 1.0

    def test_alpha_presets(self):
        assert alpha(UNW, 12) == 1.0
        assert alpha(BER, 0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert alpha(QAS, 0) == pytest.approx(math.e, rel=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_alpha_is_omega_ratio_for_ratio_kinds(self, n):
        # holds for the kinds defined through omega; bergman is stored
        # through its shift weights instead (see below)
        for w in (UNW, QAS):
            ratio = omega(w, n + 1) / omega(w, n)
            assert abs(alpha(w, n) - ratio) <= 1e-12 * ratio

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_bergman_omega_is_reciprocal_product(self, n):
        # omega(n) = 1/pi_n keeps omega >= 1 while alpha stays the
        # decreasing sequence sqrt((n+1)/(n+2))
        assert omega(BER, n) == pytest.approx(1.0 / pi(BER, n), rel=1e-12)
        assert alpha(BER, n) == pytest.approx(math.sqrt((n + 1) / (n + 2)), rel=1e-14)

    def test_explicit_ratio(self):
        w = polynomial_weight(1.0, 64)
        for n in range(30):
            ratio = omega(w, n + 1) / omega(w, n)
            assert abs(alpha(w, n) - ratio) <= 1e-12 * ratio


class TestPiProduct:
    def test_empty_product(self):
        for w in (UNW, BER, QAS):
            assert pi(w, 0) == 1.0

    def test_telescoping_values(self):
        assert pi(BER, 8) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert pi(QAS, 9) == pytest.approx(math.exp(3.0), rel=1e-12)

    @given(st.integers(min_value=0, max_value=9_999))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, n):
        for w in (UNW, BER, QAS):
            lhs = pi(w, n + 1)
            rhs = pi(w, n) * alpha(w, n)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_recurrence_every_index_to_1e4(self):
        # exhaustive vectorized form of the sampled checks above
        for w in (UNW, BER, QAS):
            pi_table = np.exp(w.log_pi_array(10_000))
            alpha_table = w.alpha_array(10_000)
            assert np.allclose(pi_table[1:], pi_table[:-1] * alpha_table, rtol=1e-12, atol=0)
        for w in (UNW, QAS):
            log_omega = w.log_omega_array(10_002)
            ratio = np.exp(np.diff(log_omega))
            assert np.max(np.abs(w.alpha_array(10_001) - ratio) / ratio) <= 1e-12


def per_kind_log_alpha(w, count):
    """Independent per-kind formulas for log alpha_n, the reference for the table-derived ones."""
    n = np.arange(count, dtype=float)
    if w.kind == "unweighted":
        return np.zeros(count)
    if w.kind == "bergman":
        return 0.5 * (np.log(n + 1.0) - np.log(n + 2.0))
    if w.kind == "quasianalytic_sqrt":
        return np.sqrt(n + 1.0) - np.sqrt(n)
    vals = w.explicit_values
    return np.log(vals[1 : count + 1]) - np.log(vals[:count])


class TestLogOmegaTable:
    @pytest.mark.parametrize("w", [UNW, BER, QAS, polynomial_weight(1.5, 5000),
                                   WeightSequence.from_values(1.0 + np.linspace(0.0, 3.0, 300) ** 2)],
                             ids=lambda w: w.kind)
    def test_log_alpha_bitwise_equal_to_per_kind_formulas(self, w):
        for count in (0, 1, 7, min(w.max_index_hint or 10_000, 10_000) - 1):
            assert np.array_equal(w.log_alpha_array(count), per_kind_log_alpha(w, count))

    @pytest.mark.parametrize("w", [UNW, BER, QAS, polynomial_weight(2.0, 2048)], ids=lambda w: w.kind)
    def test_r_point_matches_radius_estimates(self, w):
        for N in (64, 200, 1024):
            assert w.r_point(N) == radius_estimates(w, N).r_point

    def test_explicit_accessors_close_to_the_table(self):
        # the omega and alpha tables exponentiate log tables, so on an explicit
        # table they may miss the stored values by a few ulp
        values = np.arange(1.0, 1001.0)
        w = WeightSequence.from_values(values)
        assert np.allclose(np.exp(w.log_omega_array(999)), values[:999], rtol=2e-15, atol=0)
        assert np.allclose(w.alpha_array(999), values[1:] / values[:-1], rtol=2e-15, atol=0)

    def test_log_pi_reads_the_cumulative_table(self):
        for w in (UNW, BER, QAS):
            table = w.log_pi_array(300)
            assert all(w.log_pi(n) == table[n] for n in (0, 1, 17, 300))


class TestRadiusEstimates:
    def test_unweighted_all_one(self):
        est = radius_estimates(UNW, 256)
        assert est.r_point == est.r_spec == est.r0 == 1.0

    def test_bergman_inner_radius(self):
        # independent oracle: direct geometric means over all windows
        N, L = 256, 16
        alphas = BER.alpha_array(N)
        gms = [np.prod(alphas[k : k + L]) ** (1.0 / L) for k in range(N - L + 1)]
        est = radius_estimates(BER, N)
        assert est.window_len == L
        assert est.r0 == pytest.approx(min(gms), rel=1e-10)
        assert est.r0 == pytest.approx(0.9152684058442967, rel=1e-12)
        # the sqrt(N) window length leaves a visible transient bias; the
        # estimate still sits within 0.1 of the true inner radius 1
        assert abs(est.r0 - 1.0) < 0.1
        assert abs(est.r_spec - 1.0) < 0.02

    def test_quasianalytic_point_radius(self):
        est = radius_estimates(QAS, 1024)
        assert est.r_point == pytest.approx(math.exp(1.0 / 32.0), rel=1e-12)
        assert abs(est.r_point - 1.0) < 0.05

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            radius_estimates(UNW, 32)


class TestClassify:
    def test_unweighted_converges(self):
        rep = classify(UNW, 4096)
        assert rep.divergence_verdict == "converges"
        assert all(s == 0.0 for _, s in rep.quasianalytic_partial_sums)
        assert rep.log_convex_tail
        assert not rep.shields_hypotheses_met

    def test_quasianalytic_diverges(self):
        rep = classify(QAS, 4096)
        assert rep.divergence_verdict == "diverges"
        assert rep.fit_slope >= 0.1
        assert rep.regular
        assert rep.log_convex_tail
        assert all(rep.omega_s_concave.values())
        assert rep.shields_hypotheses_met

    def test_bergman_converges(self):
        rep = classify(BER, 4096)
        assert rep.divergence_verdict == "converges"
        # increments shrink geometrically even though the 4-point slope
        # exceeds 0.1; the decay test must win
        assert all(r <= 0.9 for r in rep.increment_ratios)
        assert not rep.shields_hypotheses_met

    def test_partial_sums_nondecreasing(self):
        for w in (UNW, BER, QAS):
            sums = [s for _, s in classify(w, 4096).quasianalytic_partial_sums]
            assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_explicit_too_short(self):
        w = polynomial_weight(1.0, 100)
        with pytest.raises(WeightDataError):
            classify(w, 256)


tables = st.lists(st.floats(min_value=1.0, max_value=1e300), min_size=1, max_size=40).map(lambda t: [1.0] + t)


class TestExplicitData:
    def test_from_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("\n".join(str(float(n + 1)) for n in range(32)), encoding="utf-8")
        w = WeightSequence.from_file(path)
        assert w.kind == "explicit"
        assert omega(w, 5) == 6.0
        assert w.max_index_hint == 31

    def test_first_line_must_be_one(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.5\n2.0\n", encoding="utf-8")
        with pytest.raises(WeightDataError):
            WeightSequence.from_file(path)

    def test_non_decimal_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(WeightDataError):
            WeightSequence.from_file(path)

    def test_blank_line_before_last_value_rejected(self, tmp_path):
        # skipping it would load omega(2) = 4.0
        path = tmp_path / "w.txt"
        path.write_text("1.0\n2.0\n\n4.0\n", encoding="utf-8")
        with pytest.raises(WeightDataError, match="line 2"):
            WeightSequence.from_file(path)

    def test_trailing_newlines_allowed(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\n2.0\n4.0\n\n", encoding="utf-8")
        w = WeightSequence.from_file(path)
        assert w.max_index_hint == 2
        assert omega(w, 2) == pytest.approx(4.0, rel=1e-15)

    @given(tables, st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_line_number_is_n(self, values, trailing):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.txt"
            path.write_text("\n".join(repr(v) for v in values) + "\n" * trailing, encoding="utf-8")
            w = WeightSequence.from_file(path)
        assert w.max_index_hint == len(values) - 1
        assert np.array_equal(w.explicit_values, np.array(values))

    @given(tables, st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_blank_line_before_the_last_value_is_named(self, values, data):
        line = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        lines = [repr(v) for v in values]
        lines.insert(line, "  ")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(WeightDataError, match=f"line {line} is blank"):
                WeightSequence.from_file(path)

    def test_omega_below_one_rejected(self):
        with pytest.raises(ValueError):
            WeightSequence.from_values([1.0, 0.5, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_is_named(self, bad):
        with pytest.raises(ValueError, match=r"omega\(2\) = .* is not finite"):
            WeightSequence.from_values([1.0, 2.0, bad, 4.0])

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_line_is_named(self, tmp_path, text):
        path = tmp_path / "w.txt"
        path.write_text(f"1.0\n2.0\n{text}\n4.0\n", encoding="utf-8")
        with pytest.raises(WeightDataError, match=r"omega\(2\) = .* is not finite"):
            WeightSequence.from_file(path)

    @pytest.mark.parametrize("values", [[1.0, 2.0, math.inf, 4.0], [1.0, 0.5, 2.0], [2.0, 3.0], [1.0], []])
    def test_file_and_table_fail_one_check(self, tmp_path, values):
        # the table's check is the file's: same error, same message
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        with pytest.raises(WeightDataError, match="^weight: ") as from_values:
            WeightSequence.from_values(values)
        with pytest.raises(WeightDataError, match="^weight: ") as from_file:
            WeightSequence.from_file(path)
        assert str(from_file.value) == str(from_values.value)

    def test_table_cannot_be_reassigned(self):
        # the checks run at construction only, so a later table would skip them
        table = np.array([1.0, 2.0, 3.0])
        w = WeightSequence.from_values(table)
        with pytest.raises(FrozenInstanceError):
            w.explicit_values = np.array([0.5, 2.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            w.explicit_values[1] = 0.5
        table[1] = 0.5  # the caller's array is not the table
        assert w.explicit_values[1] == 2.0

    def test_beyond_hint(self):
        w = WeightSequence.from_values([1.0, 2.0, 3.0])
        assert alpha(w, 1) == pytest.approx(1.5)
        with pytest.raises(WeightDataError):
            alpha(w, 2)  # needs omega(3)

    def test_hint_is_read_from_the_table(self):
        w = WeightSequence.from_values([1.0, 2.0, 3.0])
        assert w.max_index_hint == 2
        assert UNW.max_index_hint is None
        with pytest.raises(AttributeError):
            w.max_index_hint = 10
        with pytest.raises(TypeError):
            WeightSequence(kind="explicit", explicit_values=np.array([1.0, 2.0, 3.0]), max_index_hint=10)
        with pytest.raises(WeightDataError):
            w.alpha_array(6)  # needs omega(6); no hint can claim more than the table

    def test_alpha_bounds_check(self):
        w = polynomial_weight(2.0, 128)
        lo, hi = w.check_alpha_bounds(100)
        assert 0 < lo <= hi < math.inf

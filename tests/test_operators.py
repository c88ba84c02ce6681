import math
import time
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.operators import (
    OperatorWindow,
    Support,
    adjoint_window_square,
    chain_continuity_probe,
    eigenvector_f1,
    jordan_chain,
    shift_window,
)
from shiftlab.stability import PerturbationPlan, perturb
from shiftlab.weights import WeightSequence

from builders import adjoint_window, dense, window_from_matrix

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")
QAS = WeightSequence.preset("quasianalytic_sqrt")
PRESETS = (UNW, BER, QAS)


class TestWindows:
    def test_shift_unweighted(self):
        M = dense(shift_window(UNW, 2))
        assert np.array_equal(M, np.array([[0, 0], [1, 0], [0, 1]], dtype=complex))

    def test_shift_weight_values(self):
        assert dense(shift_window(BER, 1))[1, 0] == pytest.approx(math.sqrt(0.5))
        assert dense(shift_window(QAS, 1))[1, 0] == pytest.approx(math.e)

    def test_adjoint_unweighted(self):
        M = dense(adjoint_window(UNW, 2))
        assert np.array_equal(M, np.array([[0, 1, 0], [0, 0, 1]], dtype=complex))

    def test_adjoint_is_conjugate_transpose(self):
        S = dense(shift_window(BER, 8))
        A = dense(adjoint_window(BER, 8))
        assert np.array_equal(A, S.conj().T)

    def test_adjoint_weight_values(self):
        assert dense(adjoint_window(BER, 1))[0, 1] == pytest.approx(math.sqrt(0.5))

    def test_square_adjoint_structure(self):
        A = adjoint_window_square(BER, 6)
        assert type(A) is np.ndarray and A.shape == (6, 6)
        assert np.array_equal(A, np.diag(BER.alpha_array(5), 1))
        assert A[0, 1] == pytest.approx(math.sqrt(0.5))

    def test_windows_compare_by_identity(self):
        win = shift_window(UNW, 4)
        assert win == win
        assert (win == shift_window(UNW, 4)) is False


JITTER = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=0)
BUILDERS = (
    lambda w, N: shift_window(w, N),
    lambda w, N: adjoint_window(w, N),
    lambda w, N: perturb(shift_window(w, N), JITTER, 1e-3),
)


class TestSupport:
    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("w", PRESETS)
    @pytest.mark.parametrize("N", [2, 7, 64])
    def test_support_holds_every_nonzero_in_scan_order(self, build, w, N):
        win = build(w, N)
        rows, cols = win.support.rows, win.support.cols
        on_support = np.zeros(dense(win).shape, dtype=bool)
        on_support[rows, cols] = True
        assert not np.any(dense(win)[~on_support])
        # the order np.nonzero gives, so perturbations draw the same jitter for each entry
        assert [r.tolist() for r in np.nonzero(dense(win))] == [rows.tolist(), cols.tolist()]

    def test_only_the_shift_covers_every_column(self):
        alpha = BER.alpha_array(9)
        assert shift_window(BER, 9).singular_value_range == (alpha.min(), alpha.max())
        # a column off the support is a zero singular value
        assert adjoint_window(BER, 9).singular_value_range == (0.0, alpha.max())

    def test_entries_read_only_and_owned(self):
        win = shift_window(UNW, 4)
        with pytest.raises(ValueError):
            win.entries[0] = 2.0
        source = np.ones(3, dtype=complex)
        win = OperatorWindow(Support((3, 3), np.arange(3), np.arange(3)), source)
        source[0] = 2.0  # the caller's array stays writable, and the window keeps its copy
        assert win.entries[0] == 1.0
        assert not win.support.rows.flags.writeable and not win.support.cols.flags.writeable

    def test_matrix_is_built_on_request(self):
        win = shift_window(BER, 6)
        M = dense(win)
        M[0, 0] = 5.0  # a fresh array each time
        assert dense(win)[0, 0] == 0.0
        assert np.array_equal(dense(win)[win.support.rows, win.support.cols], win.entries)

    def test_support_is_required(self):
        with pytest.raises(TypeError, match="support"):
            OperatorWindow(entries=np.ones(3, dtype=complex))

    def test_entries_match_the_support(self):
        with pytest.raises(ValueError, match="one value per support position"):
            OperatorWindow(Support((3, 3), [0, 1], [0, 1]), np.ones(3, dtype=complex))

    @pytest.mark.parametrize("rows, cols", [
        ([0, 0], [0, 1]),      # two positions in one row
        ([0, 1], [2, 2]),      # two positions in one column
        ([0, 3], [0, 1]),      # row out of range
        ([0, 1], [-1, 1]),     # negative column
        ([0, 1], [0]),         # unequal lengths
    ])
    def test_support_validated(self, rows, cols):
        with pytest.raises(ValueError, match="support"):
            Support((3, 3), rows, cols)

    def test_window_from_matrix_rejects_a_nonzero_off_the_support(self):
        M = np.eye(3, dtype=complex)
        assert np.array_equal(dense(window_from_matrix(M, (np.arange(3), np.arange(3)))), M)
        with pytest.raises(ValueError, match="off the support"):
            window_from_matrix(M, (np.arange(2), np.arange(2)))


class TestEigenvector:
    def test_lambda_zero_gives_e0(self):
        for w in PRESETS:
            f = eigenvector_f1(w, 0.0, 50).vectors[0]
            expected = np.zeros(50, dtype=complex)
            expected[0] = 1.0
            assert np.array_equal(f, expected)

    def test_unweighted_geometric_norm(self):
        f = eigenvector_f1(UNW, 0.6, 200).vectors[0]
        assert np.linalg.norm(f) ** 2 == pytest.approx(1.5625, abs=1e-9)

    def test_bergman_derivative_norm(self):
        f = eigenvector_f1(BER, 0.5, 200).vectors[0]
        assert np.linalg.norm(f) ** 2 == pytest.approx(16.0 / 9.0, abs=1e-9)

    def test_membership_flag_outside_radius(self):
        chain = eigenvector_f1(UNW, 1.1, 100)
        assert not chain.l2_member
        assert chain.tail_bound == math.inf

    def test_tail_bound_inside_radius(self):
        chain = eigenvector_f1(UNW, 0.5, 100)
        # exact geometric tail for unit weights
        exact = 0.25 ** 100 / (1 - 0.25)
        assert chain.l2_member
        assert chain.tail_bound == pytest.approx(exact, rel=1e-10, abs=0)


def brute_force_second_vector(w, lam, n_coords):
    """Independent oracle: solve the leading linear system for f_2.

    Unknowns x_1 .. x_{n_coords-1} (x_0 = 0 by normalization) with
    equations alpha_n x_{n+1} - lam x_n = beta_n.
    """
    alpha = w.alpha_array(n_coords)
    beta = lam ** np.arange(n_coords) / np.exp(w.log_pi_array(n_coords - 1))
    A = np.zeros((n_coords - 1, n_coords - 1), dtype=complex)
    b = np.zeros(n_coords - 1, dtype=complex)
    for n in range(n_coords - 1):  # equation index n: alpha_n x_{n+1} - lam x_n = beta_n
        A[n, n] = alpha[n]
        if n >= 1:
            A[n, n - 1] = -lam
        b[n] = beta[n]
    x = np.linalg.solve(A, b)
    return np.concatenate([[0.0], x])


class TestJordanChain:
    def test_bergman_gamma2_vs_brute_force(self):
        chain = jordan_chain(BER, 0.5, 2, 200)
        oracle = brute_force_second_vector(BER, 0.5, 4)
        assert chain.vectors[1][2] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert np.allclose(chain.vectors[1][:4], oracle, rtol=1e-12, atol=0)

    def test_unweighted_gamma_closed_form(self):
        lam = 0.37 - 0.21j
        chain = jordan_chain(UNW, lam, 2, 120)
        n = np.arange(1, 120)
        expected = n * lam ** (n - 1)
        assert np.allclose(chain.vectors[1][1:], expected, rtol=1e-12, atol=0)

    def test_lambda_zero_second_vector(self):
        for w in PRESETS:
            chain = jordan_chain(w, 0.0, 2, 30)
            f2 = chain.vectors[1]
            assert f2[0] == 0
            assert f2[1] == pytest.approx(1.0 / w.alpha_array(1)[0], rel=1e-14)
            assert np.all(f2[2:] == 0)

    def test_leading_zero_structure(self):
        chain = jordan_chain(BER, 0.3 + 0.2j, 3, 60)
        for k, vec in enumerate(chain.vectors, start=1):
            assert np.all(vec[: k - 1] == 0)
            lead = vec[k - 1]
            assert lead.imag == 0 and lead.real > 0

    def test_link_residuals_small(self):
        N = 400
        for w in PRESETS:
            r_point = w.r_point(N)
            boundary = 0.9 * r_point * np.exp(1.1j)
            for lam in (0.3, 0.5j, -0.6, boundary):
                chain = jordan_chain(w, lam, 3, N)
                for k in range(1, 3):
                    scale = np.linalg.norm(chain.vectors[k - 1])
                    assert chain.residuals[k] <= 1e-10 * scale

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            jordan_chain(UNW, 0.5, 3, 4)

    def test_norm_nondecreasing_in_radius(self):
        for w in PRESETS:
            for k in (1, 2):
                norms = []
                for r in np.linspace(0.05, 0.7, 8):
                    chain = jordan_chain(w, r * np.exp(0.4j), k, 150)
                    norms.append(np.linalg.norm(chain.vectors[-1]))
                assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_chain_coefficients_independent_of_lambda(self):
        # coordinates factor as c_{k,j} lam^(j-k+1) with positive c_{k,j}
        # determined by the weights alone
        N = 40
        lams = (0.3, 0.5j, -0.2 + 0.4j)
        for w in PRESETS:
            normalized = []
            for lam in lams:
                chain = jordan_chain(w, lam, 3, N)
                per_vector = []
                for k in range(1, 4):
                    j = np.arange(k - 1, N)
                    c = chain.vectors[k - 1][k - 1 :] / np.asarray(lam, complex) ** (j - (k - 1))
                    per_vector.append(c)
                normalized.append(per_vector)
            for k in range(3):
                base = normalized[0][k]
                assert np.all(base.real > 0)
                assert np.max(np.abs(base.imag)) <= 1e-13 * np.max(base.real)
                for other in normalized[1:]:
                    assert np.allclose(other[k], base, rtol=1e-10, atol=0)


def recurrence_chain(w, lam, m, N):
    """Reference: the chain recurrence solved coordinate by coordinate.

    f_{k, n+1} = (f_{k-1, n} + lam f_{k, n}) / alpha_n with the first k-1
    coordinates of f_k zero and f_{k, k-1} = f_{k-1, k-2} / alpha_{k-2}.
    """
    lam = complex(lam)
    alpha = w.alpha_array(N - 1)
    vectors = []
    for k in range(1, m + 1):
        f = np.zeros(N, dtype=np.complex128)
        prev = vectors[-1] if vectors else None
        if k == 1:
            f[0] = 1.0
        else:
            f[k - 1] = prev[k - 2] / alpha[k - 2]
        for n in range(k - 1, N - 1):
            drive = prev[n] if prev is not None else 0.0
            f[n + 1] = (drive + lam * f[n]) / alpha[n]
        vectors.append(f)
    return vectors


class TestClosedFormChain:
    @pytest.mark.parametrize("w", PRESETS, ids=lambda w: w.kind)
    def test_matches_recurrence(self, w):
        for lam in (0.0, 0.3, 0.5j, -0.6, 0.999):
            for m in (1, 2, 3):
                for N in (m + 2, 200, 400):
                    chain = jordan_chain(w, lam, m, N)
                    for got, ref in zip(chain.vectors, recurrence_chain(w, lam, m, N)):
                        assert np.array_equal(got == 0, ref == 0)
                        nz = ref != 0
                        assert np.all(np.abs(got[nz] - ref[nz]) <= 1e-12 * np.abs(ref[nz])), (lam, m, N)

    @pytest.mark.parametrize("w", PRESETS, ids=lambda w: w.kind)
    def test_eigenvector_on_tiny_windows(self, w):
        lam = 0.4 - 0.3j
        one = eigenvector_f1(w, lam, 1)
        assert np.array_equal(one.vectors[0], np.array([1.0 + 0j]))
        assert one.residuals == [0.0]
        two = eigenvector_f1(w, lam, 2)
        f = two.vectors[0]
        assert f[0] == 1.0
        assert f[1] == pytest.approx(lam / math.exp(w.log_pi_array(1)[1]), rel=1e-14)
        assert two.residuals[0] <= 1e-15
        assert two.r_point == w.r_point(2)


class TestTailBound:
    def test_geometric_value_for_single_vector(self):
        # unit weights: the tail sum_{n >= N} lam^(2n) is geometric
        lam, N = 0.99999, 200
        chain = jordan_chain(UNW, lam, 1, N)
        assert chain.tail_bound == pytest.approx(lam ** (2 * N) / (1 - lam ** 2), rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 0.99, 0.999])
    def test_bounds_the_exact_unweighted_tail(self, lam):
        # unit weights meet the majorization with equality, so the bound must
        # cover the exact tail sum_{n >= N} (C(n, 2) lam^(n-2))^2 and stay close to it
        N = 200
        n = np.arange(N, N + 200_000, dtype=float)
        exact = float(np.sum(np.exp(2.0 * (np.log(n * (n - 1) / 2.0) + (n - 2) * math.log(lam)))))
        bound = jordan_chain(UNW, lam, 3, N).tail_bound
        assert exact <= bound <= 1.05 * exact

    @pytest.mark.parametrize("lam", [0.99999, 1 - 1e-12])
    def test_long_head_is_bounded_quickly(self, lam):
        # millions to trillions of terms precede the geometric remainder; the
        # bound must still cover the exact tail, taken here from the closed form
        # sum_{n >= 2} C(n, 2)^2 x^(n-2) = (1 + 4x + x^2) / (1 - x)^5, x = lam^2
        N, x = 200, lam * lam
        head = sum(math.comb(n, 2) ** 2 * x ** (n - 2) for n in range(2, N))
        exact = (1 + 4 * x + x * x) / (1 - x) ** 5 - head
        start = time.perf_counter()
        bound = jordan_chain(UNW, lam, 3, N).tail_bound
        jordan_chain(UNW, lam, N - 2, N)  # the longest chain the window holds: (j+1)(2j+1) tail terms, j = N - 3
        assert time.perf_counter() - start < 2.0
        assert exact <= bound <= 1.05 * exact

    @pytest.mark.parametrize("w, q, m, N", [
        *((w, q, m, 200) for w in PRESETS for q in (0.5, 0.99, 1 - 1e-9, 1 - 1e-12) for m in (1, 2, 3)),
        # m = N - 2: the terms with 2j - i > N + a have a zero binomial C(N+a, 2j-i)
        (UNW, 0.5, 60, 62), (UNW, 0.9, 60, 62),
    ], ids=lambda v: v.kind if isinstance(v, WeightSequence) else None)
    def test_is_the_exact_majorant_rounded_up(self, w, q, m, N):
        # sum_{n >= N} C(n, j)^2 y^n in exact rationals, as the full series
        # y^j sum_i C(j, i)^2 y^i / (1 - y)^(2j+1) less its head, y = (|lam| / r)^2,
        # scaled by (|lam|^-j r^N / pi_N)^2; lam, r and pi_N are the floats the chain uses
        r = w.r_point(N)
        lam, j = q * r, m - 1
        y = (Fraction(lam) / Fraction(r)) ** 2
        full = y ** j * sum(math.comb(j, i) ** 2 * y ** i for i in range(j + 1)) / (1 - y) ** (2 * j + 1)
        head = sum(math.comb(n, j) ** 2 * y ** n for n in range(j, N))
        scale = Fraction(r) ** (2 * N) / (Fraction(lam) ** (2 * j) * Fraction(math.exp(w.log_pi(N))) ** 2)
        exact = float((full - head) * scale)
        bound = jordan_chain(w, lam, m, N).tail_bound
        assert bound >= (1 - 1e-12) * exact
        if q <= 0.99:
            assert bound <= (1 + 1e-9) * exact

    def test_an_underflowing_tail_is_not_reported_as_zero(self):
        # the tail 0.01^400 / (1 - 1e-4) lies below every positive normal float
        assert jordan_chain(UNW, 0.01, 1, 200).tail_bound == np.finfo(float).tiny

    @pytest.mark.parametrize("lam", [1 - 2.0 ** -50, 1 - 2.0 ** -52, 1 - 2.0 ** -53, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_float_limit_gives_inf_or_a_bound(self, lam, m):
        x = lam * lam
        bound = jordan_chain(UNW, lam, m, 200).tail_bound
        if lam >= 1.0:
            assert bound == math.inf
        elif bound != math.inf:
            # the tail dominates x^(N-m+1) C(N, m-1)^2 / (1 - x)
            assert bound >= math.comb(200, m - 1) ** 2 * x ** (201 - m) / (1 - x)


class TestKernelDimension:
    @pytest.mark.parametrize("w", PRESETS, ids=lambda w: w.kind)
    def test_windowed_kernel_is_one_dimensional(self, w):
        N = 120
        r_point = w.r_point(N)
        A = dense(adjoint_window(w, N))
        for lam in (0.2, -0.5j, 0.6 * r_point):
            B = A.copy()
            B[:, :N] -= lam * np.eye(N)
            s = np.linalg.svd(B, compute_uv=False)
            # (N+1)-column map with N rows: nullity = N+1 - rank
            rank = int(np.sum(s > 1e-8 * s[0]))
            assert (N + 1) - rank == 1


def loop_continuity_probe(w, k, r, steps, N):
    """Reference: one full jordan_chain per grid point, keeping its last vector."""
    grid = r * np.exp(2j * np.pi * np.arange(steps + 1) / steps)
    prev = jordan_chain(w, grid[0], k, N).vectors[-1]
    worst = 0.0
    for lam in grid[1:]:
        cur = jordan_chain(w, lam, k, N).vectors[-1]
        worst = max(worst, float(np.linalg.norm(cur - prev)))
        prev = cur
    return worst


class TestContinuityProbe:
    @pytest.mark.parametrize("w", PRESETS, ids=lambda w: w.kind)
    def test_matches_the_chain_loop(self, w):
        for k in (1, 2, 3):
            for r, steps, N in ((0.5, 64, 400), (0.3, 1, 50), (0.9, 7, k + 2)):
                if r >= w.r_point(N):
                    continue
                got, ref = chain_continuity_probe(w, k, r, steps, N), loop_continuity_probe(w, k, r, steps, N)
                assert abs(got - ref) <= 1e-12 * ref, (k, r, steps, N)

    def test_window_too_small_for_the_chain(self):
        with pytest.raises(ValueError, match="window too small"):
            chain_continuity_probe(UNW, 3, 0.5, 8, N=4)

    def test_unweighted_small_modulus(self):
        mod = chain_continuity_probe(UNW, 1, 0.5, 360, N=200)
        assert mod <= 0.02

    def test_refinement_halves_modulus(self):
        coarse = chain_continuity_probe(BER, 1, 0.4, 90, N=150)
        fine = chain_continuity_probe(BER, 1, 0.4, 180, N=150)
        assert fine <= coarse / 2 * 1.5

    def test_zero_radius(self):
        assert chain_continuity_probe(QAS, 1, 0.0, 16, N=100) == 0.0

    def test_radius_outside_estimate_rejected(self):
        with pytest.raises(ValueError):
            chain_continuity_probe(BER, 1, 1.5, 8, N=100)

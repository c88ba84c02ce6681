import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.operators import (
    OperatorWindow,
    adjoint_window_square,
    eigenvector_f1,
    jordan_chain,
    shift_window,
)
from shiftlab.report import fit_loglog_slope
from shiftlab.seeding import TAG_BASIS, complex_gaussian, stream
from shiftlab.stability import PerturbationPlan, perturb
from shiftlab.subspaces import (
    CyclicityError,
    IndexResult,
    InvarianceError,
    RankDeficiencyError,
    SubspaceBasis,
    gram_schmidt_projection,
    kernel_of_polynomial,
    krylov_span,
    orthonormalize,
    polynomial_of_window,
    projection_distance,
    reconstruct_chain_subspace,
    _invariance_defect,
    rel_index,
    vanishing_subspace,
)
from shiftlab.weights import WeightSequence

from builders import adjoint_window

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")


def unit(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def assert_projection_invariants(proj):
    """P^2 = P, P* = P and trace P = rank, each within its tolerance."""
    P = proj.matrix
    assert np.linalg.norm(P @ P - P, 2) <= 1e-10
    assert np.linalg.norm(P - P.conj().T, 2) <= 1e-12
    trace = np.trace(P)
    assert abs(trace.real - proj.rank) + abs(trace.imag) <= 1e-8


class TestGramSchmidt:
    def test_coordinate_plane(self):
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 1)])
        ortho, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]))
        assert proj.rank == 2
        assert_projection_invariants(proj)

    def test_span_invariance_under_skew(self):
        delta = 1e-3
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 0) + delta * unit(3, 1)])
        _, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert np.linalg.norm(proj.matrix @ proj.matrix - proj.matrix, 2) <= 1e-12

    def test_rank_deficiency_reports_index(self):
        basis = SubspaceBasis.from_vectors([unit(4, 0), unit(4, 1), unit(4, 0) + unit(4, 1)])
        with pytest.raises(RankDeficiencyError) as err:
            gram_schmidt_projection(basis)
        assert err.value.index == 2

    def test_perturbation_slope_is_linear(self):
        # projection distance scales linearly in the basis perturbation
        rng = stream(99, TAG_BASIS, 0)
        B = complex_gaussian(rng, (40, 5))
        _, P0 = gram_schmidt_projection(SubspaceBasis(B))
        deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        dists = []
        for j, d in enumerate(deltas):
            rng_j = stream(99, TAG_BASIS, 1, j)
            G = complex_gaussian(rng_j, (40, 5))
            G /= np.linalg.norm(G, axis=0, keepdims=True)
            _, P = gram_schmidt_projection(SubspaceBasis(B + d * G))
            dists.append(np.linalg.norm(P.matrix - P0.matrix, 2))
        slope = fit_loglog_slope(deltas, dists)
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_returned_projections_satisfy_invariants(self):
        for seed in range(3):
            rng = stream(5, TAG_BASIS, seed)
            basis = SubspaceBasis(complex_gaussian(rng, (20, 6)))
            _, proj = gram_schmidt_projection(basis)
            assert_projection_invariants(proj)


class TestIsInvariant:
    """rel_index as the invariance check, with the codomain subspace given explicitly."""

    def test_shift_tail_span_exactly_invariant(self):
        N, k = 30, 7
        T = shift_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N, j) for j in range(k, N)])
        M_out = SubspaceBasis.from_vectors([unit(N + 1, j) for j in range(k, N + 1)])
        assert rel_index(T, M_in, M_out, invariance_tol=1e-12).defect == 0.0

    def test_adjoint_eigenvector_span(self):
        N = 200
        A = adjoint_window(BER, N)
        r_point = BER.r_point(N)
        for lam in (0.2, 0.5j, -0.8 * r_point):
            f = eigenvector_f1(BER, lam, N + 1).vectors[0]
            M_in, M_out = SubspaceBasis.from_vectors([f]), SubspaceBasis.from_vectors([f[:N]])
            assert rel_index(A, M_in, M_out, invariance_tol=1e-10).defect <= 1e-10

    def test_adjoint_coordinate_pair_not_invariant(self):
        N = 30
        A = adjoint_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N + 1, 0), unit(N + 1, 5)])
        M_out = SubspaceBasis.from_vectors([unit(N, 0), unit(N, 5)])
        with pytest.raises(InvarianceError) as err:
            rel_index(A, M_in, M_out, invariance_tol=0.1)
        # adjoint sends e_5 to alpha_4 e_4, fully outside span{e_0, e_5}
        assert err.value.defect == pytest.approx(BER.alpha_array(5)[4], rel=1e-12)
        assert err.value.defect > 0.1

    def test_dimension_mismatch(self):
        T = shift_window(UNW, 8)
        basis = SubspaceBasis.from_vectors([unit(5, 0)])
        with pytest.raises(ValueError):
            rel_index(T, basis, SubspaceBasis.from_vectors([unit(9, 0)]))


class TestRelIndex:
    def test_full_window_index_one(self):
        N = 64
        T = shift_window(UNW, N)
        M_in = SubspaceBasis(np.eye(N, dtype=complex), orthonormal=True)
        M_out = SubspaceBasis(np.eye(N + 1, dtype=complex), orthonormal=True)
        res = rel_index(T, M_in, M_out)
        assert res.index == 1
        assert res.gap >= 1e3

    def test_zero_based_subspace_index_one(self):
        N = 128
        zeros = [0.5, -0.3 + 0.2j, 0.1j]
        T = shift_window(UNW, N)
        res = rel_index(T, vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1))
        assert res.index == 1
        assert res.dim_out == N + 1 - 3
        assert res.rank == N - 3

    def test_direct_sum_index_two(self):
        N = 40
        S = shift_window(UNW, N).matrix
        M = np.zeros((2 * N + 2, 2 * N), dtype=complex)
        M[: N + 1, :N] = S
        M[N + 1 :, N:] = S
        T = OperatorWindow(M)
        M_in = SubspaceBasis(np.eye(2 * N, dtype=complex), orthonormal=True)
        M_out = SubspaceBasis(np.eye(2 * N + 2, dtype=complex), orthonormal=True)
        assert rel_index(T, M_in, M_out).index == 2

    def test_invariance_violation_raises_with_defect(self):
        N = 30
        A = adjoint_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N + 1, 0), unit(N + 1, 5)])
        M_out = SubspaceBasis.from_vectors([unit(N, 0), unit(N, 5)])
        with pytest.raises(InvarianceError) as err:
            rel_index(A, M_in, M_out, tol=1e-8)
        assert err.value.defect > 0.1

    def test_vanishing_subspace_actually_vanishes(self):
        zeros = [0.4, -0.2 + 0.3j]
        basis = vanishing_subspace(zeros, 24)
        assert basis.dim == 22
        powers = {z: np.array([z ** n for n in range(24)]) for z in zeros}
        for col in basis.matrix.T:
            for z, pw in powers.items():
                assert abs(np.dot(col, pw)) < 1e-12


def banded_vanishing_basis(zeros, dim):
    """Reference: the columns q z^j, j < dim - m, for q = prod (z - z_i), as banded coefficient vectors."""
    q = np.poly(np.array(zeros, dtype=complex))[::-1]
    cols = np.zeros((dim, dim - len(zeros)), dtype=complex)
    for j in range(dim - len(zeros)):
        cols[j : j + len(q), j] = q
    return SubspaceBasis(cols)


def clustered_zero_set(rng):
    """1-5 points in |z| <= 0.8, each a step of one separation in 1e-4 .. 1e-1 from the previous."""
    size = int(rng.integers(1, 6))
    sep = 10.0 ** rng.uniform(-4, -1)
    while True:
        start = complex(*rng.uniform(-0.55, 0.55, size=2))
        steps = sep * np.exp(2j * np.pi * rng.uniform(size=size - 1))
        zeros = start + np.concatenate([[0.0], np.cumsum(steps)])
        if np.all(np.abs(zeros) <= 0.8):
            return [complex(z) for z in zeros]


class TestVanishingSubspace:
    @pytest.mark.parametrize("zeros, dim", [
        ([0.4, -0.2 + 0.3j, 0.1j], 48),
        ([0.3, 0.3], 48),
        ([0.0, 0.0, 0.0], 48),
        ([0.5, 0.5 + 1e-6, 0.5 - 1e-6j, -0.6j, -0.6j + 1e-3], 64),
        ([10.0, -0.1j], 400),  # 10^399 overflows: the columns are scaled as they are built
    ])
    def test_spans_the_banded_columns(self, zeros, dim):
        basis = vanishing_subspace(zeros, dim)
        assert basis.orthonormal and basis.dim == dim - len(zeros)
        assert np.all(np.isfinite(basis.matrix))
        assert projection_distance(basis, banded_vanishing_basis(zeros, dim)) <= 1e-13

    @pytest.mark.parametrize("zeros", [[0.3, -0.4], [0.0, 0.0, 0.0], [0.79, 0.7901, -0.5j]])
    def test_basis_and_cached_complement_are_unitary(self, zeros):
        basis = vanishing_subspace(zeros, 129)
        U = np.hstack([basis.matrix, basis._cache["complement"]])
        assert np.linalg.norm(U.conj().T @ U - np.eye(129), 2) <= 1e-14

    def test_rel_index_runs_no_qr(self, monkeypatch):
        N, zeros = 64, [0.3, -0.4]
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        calls = []
        original = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or original(*a, **k))
        assert rel_index(shift_window(UNW, N), M_in, M_out).index == 1
        assert calls == []

    def test_clustered_sets_give_index_one(self):
        N = 128
        T = shift_window(UNW, N)
        for i in range(300):
            zeros = clustered_zero_set(stream(21, TAG_BASIS, i))
            res = rel_index(T, vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1))
            assert res.index == 1 and res.defect <= 1e-13, (i, zeros, res.defect)


def residual_defect(T, M_in, M_out):
    """Reference invariance defect: norm of the residual after projecting onto M_out."""
    Q_in = orthonormalize(M_in).matrix
    Q_out = orthonormalize(M_out).matrix
    img = T.matrix @ Q_in
    resid = img - Q_out @ (Q_out.conj().T @ img)
    return float(np.linalg.norm(resid, 2)) if img.size else 0.0


class TestBasisCache:
    def test_matrix_is_an_owned_read_only_copy(self):
        source = np.eye(4, 2, dtype=complex)
        basis = SubspaceBasis(source)
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 2.0
        source[0, 0] = 2.0
        assert basis.matrix[0, 0] == 1.0

    def test_orthonormal_basis_returned_as_itself(self):
        basis = SubspaceBasis(np.eye(5, 3, dtype=complex), orthonormal=True)
        assert orthonormalize(basis) is basis

    def test_orthonormalization_cached_per_basis(self):
        basis = vanishing_subspace([0.3, -0.4], 16)
        first = orthonormalize(basis)
        assert orthonormalize(basis) is first
        assert first.orthonormal and orthonormalize(first) is first

    def test_reused_and_fresh_bases_give_identical_results(self):
        N, zeros = 64, [0.3, -0.4]
        T = shift_window(UNW, N)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=4)
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        for trial in range(4):
            S = perturb(T, plan, 1e-3, stream_tags=(trial,)).window
            reused = rel_index(S, M_in, M_out, invariance_tol=1e-2)
            fresh = rel_index(S, vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1),
                              invariance_tol=1e-2)
            assert reused == fresh
            assert reused.defect > 0.0


class TestComplementDefect:
    @pytest.mark.parametrize("rows, cols, dim_in, dim_out", [
        (12, 10, 4, 7), (20, 20, 9, 3), (9, 15, 6, 8), (30, 28, 28, 29),
        (10, 8, 3, 10),  # M_out is the whole codomain: defect 0
        (10, 8, 3, 0),   # empty M_out: defect is the norm of the image
        (10, 8, 0, 5),   # empty M_in: nothing to map
    ])
    def test_matches_residual_formula(self, rows, cols, dim_in, dim_out):
        rng = stream(33, TAG_BASIS, rows, cols, dim_in, dim_out)
        T = OperatorWindow(complex_gaussian(rng, (rows, cols)))
        M_in = SubspaceBasis(complex_gaussian(rng, (cols, dim_in)))
        M_out = SubspaceBasis(complex_gaussian(rng, (rows, dim_out)))
        expected = residual_defect(T, M_in, M_out)
        tol = 1e-14 * np.linalg.norm(T.matrix, 2)
        res = rel_index(T, M_in, M_out, invariance_tol=math.inf)
        assert abs(res.defect - expected) <= tol
        if dim_out == rows or dim_in == 0:
            assert res.defect == 0.0


def dense_rel_index(T, M_in, M_out, tol=1e-8, invariance_tol=None):
    """Reference: the dense rel_index body (product T Q_in and a rank SVD on every call).

    Returns (index, rank, dim_out, defect, gap).
    """
    if M_in.ambient_dim != T.cols or M_out.ambient_dim != T.rows:
        raise ValueError("subspace dimensions do not match the window")
    inv_tol = tol if invariance_tol is None else invariance_tol
    Q_in = orthonormalize(M_in).matrix
    out = orthonormalize(M_out)
    img = T.matrix @ Q_in
    defect = _invariance_defect(OperatorWindow(T.matrix), Q_in, out)
    if defect > inv_tol:
        raise InvarianceError(defect, inv_tol)
    dim_out = out.dim
    if Q_in.shape[1] == 0:
        return dim_out, 0, dim_out, defect, math.inf
    s = np.linalg.svd(img, compute_uv=False)
    cutoff = tol * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        gap = math.inf
    elif rank < len(s) and s[rank] > 0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = float(s[rank - 1] / cutoff) if cutoff > 0 else math.inf
    return dim_out - rank, rank, dim_out, defect, gap


def as_tuple(res):
    return res.index, res.rank, res.dim_out, res.defect, res.gap


class CountingSvd:
    """Counts np.linalg.svd calls made through the module attribute (rank SVDs, not norms)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = np.linalg.svd

        def svd(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)


@st.composite
def shift_like_windows(draw):
    """A window with one real nonzero per column (some zero or tiny), its support, and bases."""
    cols = draw(st.integers(1, 14))
    rows = cols + draw(st.integers(0, 3))
    targets = np.array(draw(st.permutations(range(rows)))[:cols])
    mags = draw(st.lists(st.sampled_from([0.0, 1e-13]) | st.floats(1e-3, 10.0),
                         min_size=cols, max_size=cols))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=cols, max_size=cols))
    M = np.zeros((rows, cols), dtype=np.complex128)
    M[targets, np.arange(cols)] = np.array(mags) * np.array(signs)
    # the support may also list zero entries, as a weight jittered by a factor 0 leaves
    nz = np.arange(cols) if draw(st.booleans()) else np.flatnonzero(M[targets, np.arange(cols)])
    T = OperatorWindow(M, support=(targets[nz], nz))
    rng = stream(draw(st.integers(0, 2**16)), TAG_BASIS)
    M_in = SubspaceBasis(complex_gaussian(rng, (cols, draw(st.integers(0, cols)))))
    M_out = SubspaceBasis(complex_gaussian(rng, (rows, draw(st.integers(0, rows)))))
    return T, M_in, M_out


class TestSupportPath:
    @settings(max_examples=150)
    @given(shift_like_windows(), st.sampled_from([1e-8, 1e-15, 1e-3, 0.5]))
    def test_matches_the_dense_reference(self, case, tol):
        T, M_in, M_out = case
        expected = dense_rel_index(OperatorWindow(T.matrix), M_in, M_out, tol=tol, invariance_tol=math.inf)
        got = as_tuple(rel_index(T, M_in, M_out, tol=tol, invariance_tol=math.inf))
        assert got == expected

    def test_complex_entries_match_within_rounding(self):
        rng = stream(5, TAG_BASIS)
        N = 30
        M = np.zeros((N + 1, N), dtype=np.complex128)
        k = np.arange(N)
        M[k + 1, k] = complex_gaussian(rng, (N,))
        T = OperatorWindow(M, support=(k + 1, k))
        M_in = SubspaceBasis(complex_gaussian(rng, (N, 12)))
        M_out = SubspaceBasis(complex_gaussian(rng, (N + 1, 20)))
        expected = dense_rel_index(OperatorWindow(M), M_in, M_out, invariance_tol=math.inf)
        got = as_tuple(rel_index(T, M_in, M_out, invariance_tol=math.inf))
        assert got[:3] == expected[:3]
        assert got[3:] == pytest.approx(expected[3:], rel=1e-12)

    def test_certified_rank_runs_no_svd_until_the_gap_is_read(self, monkeypatch):
        N, zeros = 64, [0.3, -0.4]
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=2)
        S = perturb(shift_window(UNW, N), plan, 1e-3).window
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        expected = dense_rel_index(OperatorWindow(S.matrix), M_in, M_out, invariance_tol=1e-2)
        svd = CountingSvd(monkeypatch)
        res = rel_index(S, M_in, M_out, invariance_tol=1e-2)
        assert svd.calls == 0 and "gap" not in vars(res)
        assert as_tuple(res) == expected
        assert svd.calls == 1
        res.gap
        assert svd.calls == 1

    def fallback(self, monkeypatch, T, M_in, M_out, tol=1e-8):
        expected = dense_rel_index(OperatorWindow(T.matrix), M_in, M_out, tol=tol, invariance_tol=math.inf)
        svd = CountingSvd(monkeypatch)
        res = rel_index(T, M_in, M_out, tol=tol, invariance_tol=math.inf)
        assert svd.calls == 1
        assert as_tuple(res) == expected
        return res

    def test_zero_jitter_factor_falls_back(self, monkeypatch):
        N = 40
        T = shift_window(UNW, N)
        M = T.matrix.copy()
        M[11, 10] = 0.0  # the weight alpha_10 jittered by a factor 0
        S = OperatorWindow(M, support=T.support)
        M_in = SubspaceBasis(np.eye(N, dtype=complex), orthonormal=True)
        M_out = SubspaceBasis(np.eye(N + 1, dtype=complex), orthonormal=True)
        assert self.fallback(monkeypatch, S, M_in, M_out).rank == N - 1

    def test_tiny_tol_falls_back_at_the_rounding_floor(self, monkeypatch):
        # margin 2 max(tol, n eps): with tol = 1e-15 the n eps floor decides
        N = 40
        M_in = SubspaceBasis(np.eye(N, dtype=complex), orthonormal=True)
        M_out = SubspaceBasis(np.eye(N + 1, dtype=complex), orthonormal=True)
        for small, certified in ((1e-14, False), (1e-11, True)):
            T = shift_window(UNW, N)
            M = T.matrix.copy()
            M[6, 5] = small
            S = OperatorWindow(M, support=T.support)
            if certified:
                svd = CountingSvd(monkeypatch)
                res = rel_index(S, M_in, M_out, tol=1e-15)
                assert svd.calls == 0 and res.rank == N
                assert as_tuple(res) == dense_rel_index(OperatorWindow(M), M_in, M_out, tol=1e-15)
            else:
                assert self.fallback(monkeypatch, S, M_in, M_out, tol=1e-15).rank == N

    def test_empty_column_falls_back(self, monkeypatch):
        N = 20
        A = adjoint_window_square(BER, N)
        assert A.support is not None and A.singular_value_range is None
        M_in = SubspaceBasis(complex_gaussian(stream(8, TAG_BASIS), (N, 6)))
        M_out = SubspaceBasis(np.eye(N, dtype=complex), orthonormal=True)
        assert self.fallback(monkeypatch, A, M_in, M_out).rank == 6

    def test_dense_window_falls_back(self, monkeypatch):
        N = 32
        T = OperatorWindow(shift_window(UNW, N).matrix)
        assert T.support is None
        self.fallback(monkeypatch, T, vanishing_subspace([0.5], N), vanishing_subspace([0.5], N + 1))

    def test_gap_read_checks_the_certified_rank(self):
        T = OperatorWindow(np.zeros((4, 3), dtype=complex))
        res = IndexResult(0, 3, 3, 0.0, T, np.eye(3, dtype=complex), 1e-8)
        with pytest.raises(AssertionError, match="certified rank 3"):
            res.gap


class TestPolynomialOfWindow:
    @pytest.mark.parametrize("coeffs", [[], [2.0], [0.3, -1j], [0.12, 0.1, 1.0], [1.0, 0, 0, 0.5 + 0.5j]])
    def test_matches_the_power_sum(self, coeffs):
        A = OperatorWindow(complex_gaussian(stream(3, TAG_BASIS, 9), (12, 12)))
        ref = sum((c * np.linalg.matrix_power(A.matrix, j) for j, c in enumerate(coeffs)), np.zeros((12, 12)))
        got = polynomial_of_window(A, np.array(coeffs, dtype=complex)).matrix
        assert np.allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    def test_degree_d_takes_d_products(self):
        class Counting(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counting.products += 1
                return np.asarray(self) @ np.asarray(other)

            def __rmatmul__(self, other):
                Counting.products += 1
                return np.asarray(other) @ np.asarray(self)

        A = OperatorWindow(adjoint_window_square(BER, 20).matrix)
        A.matrix = A.matrix.view(Counting)
        polynomial_of_window(A, [0.12, 0.1, 1.0])
        assert Counting.products == 2


class TestKernelOfPolynomial:
    def test_single_root_matches_eigenvector(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, [-0.5, 1.0], dim=1)  # z - 0.5
        assert ker.kernel_singular_values.max() <= 1e-12
        f = eigenvector_f1(BER, 0.5, N).vectors[0]
        assert projection_distance(ker.basis, SubspaceBasis.from_vectors([f])) <= 1e-8

    def test_two_roots_span_both_eigenvectors(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, np.convolve([-0.3, 1.0], [0.4, 1.0]), dim=2)
        assert ker.kernel_singular_values.max() <= 1e-12
        f1 = eigenvector_f1(BER, 0.3, N).vectors[0]
        f2 = eigenvector_f1(BER, -0.4, N).vectors[0]
        ref = SubspaceBasis.from_vectors([f1, f2])
        assert projection_distance(ker.basis, ref) <= 1e-7

    def test_zero_matrix_full_kernel(self):
        A = OperatorWindow(np.zeros((6, 6), dtype=complex))
        ker = kernel_of_polynomial(A, [0.0, 1.0], dim=6)  # p(z) = z
        assert np.array_equal(ker.kernel_singular_values, np.zeros(6))
        assert np.allclose(ker.basis.matrix @ ker.basis.matrix.conj().T, np.eye(6))

    @pytest.mark.parametrize("dim", [0, 5])
    def test_forced_dimension_must_fit_the_window(self, dim):
        A = OperatorWindow(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="forced kernel dimension"):
            kernel_of_polynomial(A, [-3.0, 1.0], dim=dim)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agreement_with_jordan_chain(self, m):
        N = 200
        lam = 0.45
        A = adjoint_window_square(BER, N)
        p = np.array([1.0 + 0j])
        for _ in range(m):
            p = np.convolve(p, [-lam, 1.0])
        ker = kernel_of_polynomial(A, p, dim=m)
        chain = jordan_chain(BER, lam, m, N)
        ref = SubspaceBasis.from_vectors(chain.vectors)
        assert projection_distance(ker.basis, ref) <= 1e-7


class TestKrylovSpan:
    def test_eigenvector_gives_dimension_one(self):
        N = 100
        A = adjoint_window_square(BER, N)
        f = eigenvector_f1(BER, 0.3, N).vectors[0]
        with pytest.raises(RankDeficiencyError) as exc:
            krylov_span(A, f, 3)
        assert exc.value.index == 1

    def test_two_eigenvector_mixture(self):
        N = 200
        A = adjoint_window_square(BER, N)
        f1 = eigenvector_f1(BER, 0.3, N).vectors[0]
        f2 = eigenvector_f1(BER, -0.4, N).vectors[0]
        span = krylov_span(A, f1 + f2, 2)
        assert span.dim == 2
        ref = SubspaceBasis.from_vectors([f1, f2])
        assert projection_distance(span, ref) <= 1e-8

    def test_nilpotent_jordan_block(self):
        m = 5
        J = np.zeros((m, m), dtype=complex)
        J[np.arange(m - 1), np.arange(1, m)] = 1.0
        span = krylov_span(OperatorWindow(J), unit(m, m - 1), m)
        assert span.dim == m

    def test_zero_vector_rejected(self):
        A = adjoint_window_square(BER, 10)
        with pytest.raises(ValueError):
            krylov_span(A, np.zeros(10), 2)


class TestReconstruction:
    def test_scalar_window_is_not_cyclic(self):
        A = OperatorWindow(0.3 * np.eye(20, dtype=complex))
        with pytest.raises(CyclicityError, match="reached dimension 1, needed 2") as exc:
            reconstruct_chain_subspace(UNW, [0.3, -0.4], A)
        assert (exc.value.achieved, exc.value.wanted) == (1, 2)

    def test_exact_window_reconstructs_itself(self):
        A = adjoint_window_square(BER, 200)
        rec = reconstruct_chain_subspace(BER, [0.3, -0.4], A)
        assert rec.distance <= 1e-9

    def test_small_perturbation_small_distance(self):
        N = 200
        A0 = adjoint_window_square(BER, N).matrix
        rng = stream(3, TAG_BASIS, 2)
        G = complex_gaussian(rng, (N, N))
        G /= np.linalg.norm(G, 2)
        rec = reconstruct_chain_subspace(
            BER, [0.3, -0.4], OperatorWindow(A0 + 1e-4 * G)
        )
        assert rec.distance <= 100 * 1e-4

    @pytest.mark.parametrize("roots", [[0.3, -0.4], [0.0]], ids=["two-roots", "root-at-zero"])
    def test_distance_slope_linear(self, roots):
        N = 150
        A0 = adjoint_window_square(BER, N).matrix
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        dists = []
        for j, eps in enumerate(eps_list):
            rng = stream(17, TAG_BASIS, 3, j)
            G = complex_gaussian(rng, (N, N))
            G /= np.linalg.norm(G, 2)
            rec = reconstruct_chain_subspace(
                BER, roots, OperatorWindow(A0 + eps * G)
            )
            dists.append(rec.distance)
        assert fit_loglog_slope(eps_list, dists) == pytest.approx(1.0, abs=0.1)

    def test_root_at_zero_reference_is_e0(self):
        A = adjoint_window_square(BER, 60)
        rec = reconstruct_chain_subspace(BER, [0.0], A)
        assert abs(abs(rec.reference.matrix[0, 0]) - 1.0) < 1e-12

    def test_root_outside_disc_rejected(self):
        A = adjoint_window_square(BER, 60)
        with pytest.raises(ValueError):
            reconstruct_chain_subspace(BER, [0.99], A)

    def test_multiplicity_cap(self):
        A = adjoint_window_square(BER, 60)
        with pytest.raises(ValueError):
            reconstruct_chain_subspace(BER, [0.1, 0.1, 0.1, 0.1], A)


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab._blas import one_blas_thread
from shiftlab.operators import (
    adjoint_window_square,
    eigenvector_f1,
    jordan_chain,
    shift_window,
)
from shiftlab.report import fit_loglog_slope
from shiftlab.seeding import TAG_BASIS, TAG_DENSE, TAG_STABILITY, complex_gaussian, stream
from shiftlab.stability import PerturbationPlan, norm_stability_run, perturb
from shiftlab.subspaces import (
    EXACT_INVARIANCE_TOL,
    InvarianceError,
    RankDeficiencyError,
    SubspaceBasis,
    chain_reference_basis,
    gram_schmidt_projection,
    kernel_of_polynomial,
    orthonormalize,
    polynomial_of_window,
    projection_distance,
    _adjoint_image,
    _certified_gap,
    rel_index,
    vanishing_subspace,
)
from shiftlab.weights import WeightSequence

from builders import adjoint_window, basis_with_complement, dense, direct_sum, window_from_matrix

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")


def unit(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def assert_projection_invariants(ortho, proj):
    """P^2 = P, P* = P and trace P = dim of the basis, each within its tolerance."""
    P = proj.matrix
    assert np.linalg.norm(P @ P - P, 2) <= 1e-10
    assert np.linalg.norm(P - P.conj().T, 2) <= 1e-12
    trace = np.trace(P)
    assert abs(trace.real - ortho.dim) + abs(trace.imag) <= 1e-8


class TestGramSchmidt:
    def test_coordinate_plane(self):
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 1)])
        ortho, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]))
        assert ortho.dim == 2
        assert_projection_invariants(ortho, proj)

    def test_span_invariance_under_skew(self):
        delta = 1e-3
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 0) + delta * unit(3, 1)])
        _, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert np.linalg.norm(proj.matrix @ proj.matrix - proj.matrix, 2) <= 1e-12

    def test_rank_deficiency_reports_index(self):
        basis = SubspaceBasis.from_vectors([unit(4, 0), unit(4, 1), unit(4, 0) + unit(4, 1)])
        with pytest.raises(RankDeficiencyError, match="basis vector 2 is dependent"):
            gram_schmidt_projection(basis)

    def test_more_vectors_than_the_ambient_dimension_are_dependent(self):
        basis = SubspaceBasis(complex_gaussian(stream(3, TAG_BASIS, 0), (3, 4)))
        with pytest.raises(RankDeficiencyError, match="basis vector 3 is dependent"):
            orthonormalize(basis)

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
            assert_projection_invariants(*gram_schmidt_projection(basis))


class TestIsInvariant:
    """rel_index as the invariance check, with the codomain subspace given explicitly."""

    def test_shift_tail_span_exactly_invariant(self):
        N, k = 30, 7
        T = shift_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N, j) for j in range(k, N)])
        M_out = basis_with_complement(np.eye(N + 1)[:, k:])
        assert rel_index(T, M_in, M_out, invariance_tol=1e-12).defect == 0.0

    def test_adjoint_eigenvector_span(self):
        N = 200
        A = adjoint_window(BER, N)
        r_point = BER.r_point(N)
        for lam in (0.2, 0.5j, -0.8 * r_point):
            f = eigenvector_f1(BER, lam, N + 1).vectors[0]
            M_in, M_out = SubspaceBasis.from_vectors([f]), basis_with_complement(f[:N, None])
            assert rel_index(A, M_in, M_out, invariance_tol=1e-10).defect <= 1e-10

    def test_adjoint_coordinate_pair_not_invariant(self):
        N = 30
        A = adjoint_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N + 1, 0), unit(N + 1, 5)])
        M_out = basis_with_complement(np.stack([unit(N, 0), unit(N, 5)], axis=1))
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
        M_out = basis_with_complement(np.eye(N + 1))
        res = rel_index(T, M_in, M_out)
        assert res.index == 1
        assert res.gap >= 1e3

    def test_zero_based_subspace_index_one(self):
        N = 128
        zeros = [0.5, -0.3 + 0.2j, 0.1j]
        T = shift_window(UNW, N)
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        assert (M_in.dim, M_out.dim) == (N - 3, N + 1 - 3)
        assert rel_index(T, M_in, M_out).index == M_out.dim - M_in.dim == 1

    def test_direct_sum_index_two(self):
        N = 40
        T = direct_sum(shift_window(UNW, N), shift_window(UNW, N))
        M_in = SubspaceBasis(np.eye(2 * N, dtype=complex), orthonormal=True)
        M_out = basis_with_complement(np.eye(2 * N + 2))
        assert rel_index(T, M_in, M_out).index == 2

    def test_invariance_violation_raises_with_defect(self):
        N = 30
        A = adjoint_window(BER, N)
        M_in = SubspaceBasis.from_vectors([unit(N + 1, 0), unit(N + 1, 5)])
        M_out = basis_with_complement(np.stack([unit(N, 0), unit(N, 5)], axis=1))
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
        U = np.hstack([basis.matrix, basis.complement])
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
    img = dense(T) @ Q_in
    resid = img - Q_out @ (Q_out.conj().T @ img)
    return float(np.linalg.norm(resid, 2)) if img.size else 0.0


def defect_allowance(T):
    """Rounding allowance between rel_index's complement defect and residual_defect."""
    return 1e-14 * float(np.abs(dense(T)).max(initial=0.0))


def supported_window(rng, rows, cols):
    """Complex Gaussian entries on a random support of min(rows, cols) positions."""
    k = min(rows, cols)
    support = (rng.permutation(rows)[:k], rng.permutation(cols)[:k])
    M = np.zeros((rows, cols), dtype=np.complex128)
    M[support] = complex_gaussian(rng, (k,))
    return window_from_matrix(M, support)


class TestBasisCache:
    def test_matrix_is_an_owned_read_only_copy(self):
        source = np.eye(4, 2, dtype=complex)
        basis = SubspaceBasis(source)
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 2.0
        source[0, 0] = 2.0
        assert basis.matrix[0, 0] == 1.0

    def test_complement_is_an_owned_read_only_copy(self):
        source = np.eye(4, dtype=complex)
        basis = SubspaceBasis(source[:, :3], orthonormal=True, complement=source[:, 3:])
        assert not basis.complement.flags.writeable
        source[3, 3] = 2.0
        assert basis.complement[3, 0] == 1.0
        assert SubspaceBasis(source).complement is None

    @pytest.mark.parametrize("orthonormal, columns", [(False, 1), (True, 2), (True, 0)])
    def test_complement_needs_an_orthonormal_basis_and_its_shape(self, orthonormal, columns):
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="complement"):
            SubspaceBasis(eye[:, :3], orthonormal=orthonormal, complement=eye[:, 4 - columns:])

    def test_orthonormal_basis_returned_as_itself(self):
        basis = SubspaceBasis(np.eye(5, 3, dtype=complex), orthonormal=True)
        assert orthonormalize(basis) is basis

    def test_orthonormalized_basis_is_flagged_and_returned_as_itself(self):
        basis = SubspaceBasis(complex_gaussian(stream(6, TAG_BASIS), (16, 5)))
        first = orthonormalize(basis)
        assert first is not basis and not basis.orthonormal
        assert first.orthonormal and orthonormalize(first) is first

    def test_reused_and_fresh_bases_give_identical_results(self):
        N, zeros = 64, [0.3, -0.4]
        T = shift_window(UNW, N)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=4)
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        for trial in range(4):
            S = perturb(T, plan, 1e-3, stream_tags=(trial,))
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
        T = supported_window(rng, rows, cols)
        M_in = SubspaceBasis(complex_gaussian(rng, (cols, dim_in)))
        M_out = basis_with_complement(complex_gaussian(rng, (rows, dim_out)))
        expected = residual_defect(T, M_in, M_out)
        res = rel_index(T, M_in, M_out, invariance_tol=math.inf)
        assert abs(res.defect - expected) <= defect_allowance(T)
        X = _adjoint_image(T, M_out.complement).conj().T @ orthonormalize(M_in).matrix
        if X.size:  # the defect's SVD gives np.linalg.norm(X, 2) bitwise
            assert res.defect == np.linalg.norm(X, 2)
        if dim_out == rows or dim_in == 0:
            assert res.defect == 0.0


def dense_rel_index(T, M_in, M_out, tol=1e-8, invariance_tol=EXACT_INVARIANCE_TOL):
    """Reference: rel_index from the dense matrix of T, residual_defect and a rank SVD on every call.

    Returns (index, defect, gap).
    """
    Q_in = orthonormalize(M_in).matrix
    defect = residual_defect(T, M_in, M_out)
    if defect > invariance_tol:
        raise InvarianceError(defect, invariance_tol)
    dim_out = M_out.dim
    if Q_in.shape[1] == 0:
        return dim_out, defect, math.inf
    s = np.linalg.svd(dense(T) @ Q_in, compute_uv=False)
    cutoff = tol * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        gap = math.inf
    elif rank < len(s) and s[rank] > 0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = float(s[rank - 1] / cutoff) if cutoff > 0 else math.inf
    return dim_out - rank, defect, gap


def assert_agrees_but_for_the_gap(res, expected, T):
    """The index exactly, and the defect within defect_allowance(T)."""
    assert res.index == expected[0]
    assert abs(res.defect - expected[1]) <= defect_allowance(T)


def assert_matches_the_dense_reference(T, M_in, M_out, tol=1e-8, invariance_tol=math.inf):
    """rel_index against dense_rel_index on the same window.

    The indices agree exactly, and the defects within rounding.
    On a window whose rank is certified, the dense SVD keeps the certified
    (full) rank and its gap is at least the certified one, up to the SVD's
    rounding of order n eps max|s_j|; otherwise both take the SVD of the same
    image and the gaps agree exactly.
    """
    expected = dense_rel_index(T, M_in, M_out, tol=tol, invariance_tol=invariance_tol)
    res = rel_index(T, M_in, M_out, tol=tol, invariance_tol=invariance_tol)
    assert_agrees_but_for_the_gap(res, expected, T)
    certified = _certified_gap(T, tol)
    if certified is None or M_in.dim == 0:
        assert res.gap == expected[2]
    else:
        lo, hi = T.singular_value_range
        assert res.index == M_out.dim - M_in.dim and res.gap == certified == lo / (tol * hi)
        slack = 10 * max(T.support.shape) * np.finfo(float).eps * hi / lo
        assert expected[2] >= res.gap * (1 - slack)


class CountingSvd:
    """Counts the rank SVDs: np.linalg.svd calls on the image T Q_in, which has T.support.shape[0] rows.

    The defect's SVD runs on codim(M_out) rows and is not counted.
    """

    def __init__(self, monkeypatch, T):
        self.calls = 0
        original = np.linalg.svd

        def svd(a, *args, **kwargs):
            self.calls += a.shape[0] == T.support.shape[0]
            return original(a, *args, **kwargs)

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
    T = window_from_matrix(M, (targets[nz], nz))
    rng = stream(draw(st.integers(0, 2**16)), TAG_BASIS)
    M_in = SubspaceBasis(complex_gaussian(rng, (cols, draw(st.integers(0, cols)))))
    M_out = basis_with_complement(complex_gaussian(rng, (rows, draw(st.integers(0, rows)))))
    return T, M_in, M_out


def identity_pair(N):
    """The whole domain C^N and the whole codomain C^(N+1) of an (N+1) x N window."""
    return SubspaceBasis(np.eye(N, dtype=complex), orthonormal=True), basis_with_complement(np.eye(N + 1))


class TestSupportPath:
    @settings(max_examples=150)
    @given(shift_like_windows(), st.sampled_from([1e-8, 1e-15, 1e-3, 0.5]))
    def test_matches_the_dense_reference(self, case, tol):
        T, M_in, M_out = case
        assert_matches_the_dense_reference(T, M_in, M_out, tol=tol)

    def test_complex_entries_match_within_rounding(self):
        rng = stream(5, TAG_BASIS, 3)
        N = 30
        M = np.zeros((N + 1, N), dtype=np.complex128)
        k = np.arange(N)
        M[k + 1, k] = complex_gaussian(rng, (N,))
        T = window_from_matrix(M, (k + 1, k))
        M_in = SubspaceBasis(complex_gaussian(rng, (N, 12)))
        M_out = basis_with_complement(complex_gaussian(rng, (N + 1, 20)))
        expected = dense_rel_index(T, M_in, M_out, invariance_tol=math.inf)
        res = rel_index(T, M_in, M_out, invariance_tol=math.inf)
        assert res.index == expected[0]
        assert res.defect == pytest.approx(expected[1], rel=1e-12)
        # the complex weights certify full rank: the gap is the bound, below the SVD's ratio
        lo, hi = T.singular_value_range
        assert res.gap == lo / (1e-8 * hi) < expected[2]

    def test_certified_rank_runs_no_svd(self, monkeypatch):
        N, zeros = 64, [0.3, -0.4]
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=2)
        S = perturb(shift_window(UNW, N), plan, 1e-3)
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        svd = CountingSvd(monkeypatch, S)
        res = rel_index(S, M_in, M_out, invariance_tol=1e-2)
        assert res.index == M_out.dim - M_in.dim and res.gap == _certified_gap(S, 1e-8)
        assert svd.calls == 0
        assert_matches_the_dense_reference(S, M_in, M_out, invariance_tol=1e-2)

    def fallback(self, monkeypatch, T, M_in, M_out, tol=1e-8):
        expected = dense_rel_index(T, M_in, M_out, tol=tol, invariance_tol=math.inf)
        svd = CountingSvd(monkeypatch, T)
        res = rel_index(T, M_in, M_out, tol=tol, invariance_tol=math.inf)
        assert svd.calls == 1
        assert_agrees_but_for_the_gap(res, expected, T)
        assert res.gap == expected[2]
        return res

    def test_zero_jitter_factor_falls_back(self, monkeypatch):
        N = 40
        T = shift_window(UNW, N)
        M = dense(T)
        M[11, 10] = 0.0  # the weight alpha_10 jittered by a factor 0
        S = window_from_matrix(M, (T.support.rows, T.support.cols))
        assert self.fallback(monkeypatch, S, *identity_pair(N)).index == (N + 1) - (N - 1)

    def test_tiny_tol_falls_back_at_the_rounding_floor(self, monkeypatch):
        # margin 2 max(tol, n eps): with tol = 1e-15 the n eps floor decides
        N = 40
        M_in, M_out = identity_pair(N)
        for small, certified in ((1e-14, False), (1e-11, True)):
            T = shift_window(UNW, N)
            M = dense(T)
            M[6, 5] = small
            S = window_from_matrix(M, (T.support.rows, T.support.cols))
            if certified:
                svd = CountingSvd(monkeypatch, S)
                res = rel_index(S, M_in, M_out, tol=1e-15)
                assert svd.calls == 0 and res.index == 1
                assert_matches_the_dense_reference(S, M_in, M_out, tol=1e-15, invariance_tol=EXACT_INVARIANCE_TOL)
            else:
                assert self.fallback(monkeypatch, S, M_in, M_out, tol=1e-15).index == 1

    def test_empty_column_falls_back(self, monkeypatch):
        N = 20
        A = adjoint_window(BER, N)
        assert A.singular_value_range[0] == 0.0
        M_in = SubspaceBasis(complex_gaussian(stream(8, TAG_BASIS), (N + 1, 6)))
        M_out = basis_with_complement(np.eye(N))
        assert self.fallback(monkeypatch, A, M_in, M_out).index == M_out.dim - 6

    def test_m_out_without_a_complement_is_rejected(self):
        N = 32
        M_in, M_out = identity_pair(N)
        for bare in (SubspaceBasis(M_out.matrix, orthonormal=True), SubspaceBasis(M_out.matrix)):
            with pytest.raises(ValueError, match="rel_index needs an M_out with its orthogonal complement"):
                rel_index(shift_window(UNW, N), M_in, bare)


class TestPolynomialOfWindow:
    @pytest.mark.parametrize("roots", [
        [0.0], [0.3 - 1j], [0.5, -0.4], [0.2, 0.2, -0.1j], [1.0, 0.5 + 0.5j, -2.0, 0.0],
    ])
    def test_matches_the_power_sum(self, roots):
        A = complex_gaussian(stream(3, TAG_BASIS, 9), (12, 12))
        coeffs = np.poly(roots)[::-1]  # coeffs[j] multiplies z^j
        ref = sum((c * np.linalg.matrix_power(A, j) for j, c in enumerate(coeffs)), np.zeros((12, 12)))
        got = polynomial_of_window(A, roots)
        assert np.allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    def test_m_roots_take_m_minus_1_products(self):
        class Counting(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counting.products += 1
                return np.asarray(self) @ np.asarray(other)

            def __rmatmul__(self, other):
                Counting.products += 1
                return np.asarray(other) @ np.asarray(self)

        polynomial_of_window(adjoint_window_square(BER, 20).view(Counting), [0.3, -0.4, 0.2])
        assert Counting.products == 2


class TestKernelOfPolynomial:
    def test_single_root_matches_eigenvector(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, [0.5])
        assert ker.kernel_singular_values.max() <= 1e-12
        f = eigenvector_f1(BER, 0.5, N).vectors[0]
        assert projection_distance(ker.basis, SubspaceBasis.from_vectors([f])) <= 1e-8

    def test_two_roots_span_both_eigenvectors(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, [0.3, -0.4])
        assert ker.kernel_singular_values.max() <= 1e-12
        f1 = eigenvector_f1(BER, 0.3, N).vectors[0]
        f2 = eigenvector_f1(BER, -0.4, N).vectors[0]
        ref = SubspaceBasis.from_vectors([f1, f2])
        assert projection_distance(ker.basis, ref) <= 1e-7

    def test_zero_matrix_full_kernel(self):
        ker = kernel_of_polynomial(np.zeros((6, 6), dtype=complex), [0.0] * 6)  # p(z) = z^6
        assert np.array_equal(ker.kernel_singular_values, np.zeros(6))
        assert np.allclose(ker.basis.matrix @ ker.basis.matrix.conj().T, np.eye(6))

    @pytest.mark.parametrize("dim", [0, 5])
    def test_forced_dimension_must_fit_the_window(self, dim):
        # the kernel dimension is the root count
        with pytest.raises(ValueError, match="forced kernel dimension"):
            kernel_of_polynomial(np.eye(4, dtype=complex), [3.0] * dim)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agreement_with_jordan_chain(self, m):
        N = 200
        lam = 0.45
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, [lam] * m)
        chain = jordan_chain(BER, lam, m, N)
        ref = SubspaceBasis.from_vectors(chain.vectors)
        assert projection_distance(ker.basis, ref) <= 1e-7


class TestReconstruction:
    """The stability step: the kernel of p(A) against the chain span of the same roots."""

    def test_exact_window_reconstructs_itself(self):
        A = adjoint_window_square(BER, 200)
        ref = chain_reference_basis(BER, [0.3, -0.4], 200)
        assert projection_distance(kernel_of_polynomial(A, [0.3, -0.4]).basis, ref) <= 1e-9

    def test_small_perturbation_small_distance(self):
        N = 200
        A0 = adjoint_window_square(BER, N)
        rng = stream(3, TAG_BASIS, 2)
        G = complex_gaussian(rng, (N, N))
        G /= np.linalg.norm(G, 2)
        ker = kernel_of_polynomial(A0 + 1e-4 * G, [0.3, -0.4])
        assert projection_distance(ker.basis, chain_reference_basis(BER, [0.3, -0.4], N)) <= 100 * 1e-4

    def test_distance_is_that_of_the_kernel_of_p(self):
        # every step of the driver is the distance of the kernel of p(S) to one reference
        N, roots = 120, [0.3, -0.4, 0.2]
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3), seed=4)
        rep = norm_stability_run(UNW, roots, plan, N=N)

        @one_blas_thread  # the driver's BLAS regime, so the bits agree
        def step_by_hand(j, eps):
            A0 = adjoint_window_square(UNW, N)
            G = complex_gaussian(stream(plan.seed, TAG_DENSE, TAG_STABILITY, j), (N, N))
            S = A0 + eps * (G / np.linalg.norm(G, 2))
            ker = kernel_of_polynomial(S, roots)
            distance = projection_distance(ker.basis, chain_reference_basis(UNW, roots, N))
            return distance, float(np.max(ker.kernel_singular_values))

        for j, step in enumerate(rep.per_step):
            assert (step["distance"], step["kernel_sigma"]) == step_by_hand(j, step["epsilon"])
            assert step["distance"] <= 2 * step["epsilon"]

    @pytest.mark.parametrize("roots", [[0.3, -0.4], [0.0]], ids=["two-roots", "root-at-zero"])
    def test_distance_slope_linear(self, roots):
        N = 150
        A0 = adjoint_window_square(BER, N)
        reference = chain_reference_basis(BER, roots, N)
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        dists = []
        for j, eps in enumerate(eps_list):
            rng = stream(17, TAG_BASIS, 3, j)
            G = complex_gaussian(rng, (N, N))
            G /= np.linalg.norm(G, 2)
            ker = kernel_of_polynomial(A0 + eps * G, roots)
            dists.append(projection_distance(ker.basis, reference))
        assert fit_loglog_slope(eps_list, dists) == pytest.approx(1.0, abs=0.1)

    def test_root_at_zero_reference_is_e0(self):
        ref = chain_reference_basis(BER, [0.0], 60)
        assert ref.orthonormal and ref.dim == 1
        assert abs(abs(ref.matrix[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("roots", [[0.3, -0.4], [0.3, 0.3, -0.4 + 0.2j, 0.1j]])
    def test_reference_is_orthonormal_and_spans_the_chains(self, roots):
        N = 80
        ref = chain_reference_basis(BER, roots, N)
        assert ref.orthonormal and ref.dim == len(roots)
        assert np.allclose(ref.matrix.conj().T @ ref.matrix, np.eye(len(roots)), rtol=0, atol=1e-12)
        for lam in set(roots):
            chain = SubspaceBasis.from_vectors(jordan_chain(BER, lam, roots.count(lam), N).vectors)
            residual = chain.matrix - ref.matrix @ (ref.matrix.conj().T @ chain.matrix)
            assert np.linalg.norm(residual, 2) <= 1e-10 * np.linalg.norm(chain.matrix, 2)

    def test_dependent_roots_raise_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            chain_reference_basis(UNW, [0.5, 0.5000000000001], 200)

    def test_needs_a_root(self):
        with pytest.raises(ValueError, match="p_roots must list at least one root"):
            chain_reference_basis(BER, [], 60)

    def test_root_outside_disc_rejected(self):
        with pytest.raises(ValueError, match=r"^p_roots: root \(0.99\+0j\) outside 0.9 \* r_point"):
            chain_reference_basis(BER, [0.99], 60)

    def test_multiplicity_cap(self):
        with pytest.raises(ValueError, match=r"^p_roots: multiplicity of root \(0.1\+0j\) exceeds 3"):
            chain_reference_basis(BER, [0.1, 0.1, 0.1, 0.1], 60)

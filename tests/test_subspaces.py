import math

import numpy as np
import pytest

from shiftlab.operators import (
    OperatorWindow,
    adjoint_window,
    adjoint_window_square,
    eigenvector_f1,
    jordan_chain,
    shift_window,
)
from shiftlab.report import fit_loglog_slope
from shiftlab.seeding import TAG_BASIS, complex_gaussian, stream
from shiftlab.stability import PerturbationPlan, perturb
from shiftlab.subspaces import (
    InvarianceError,
    RankDeficiencyError,
    SubspaceBasis,
    embed_basis,
    gram_schmidt_projection,
    is_invariant,
    kernel_of_polynomial,
    krylov_span,
    orthonormalize,
    principal_angles,
    projection_distance,
    reconstruct_chain_subspace,
    rel_index,
    vanishing_subspace,
)
from shiftlab.weights import WeightSequence

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")


def unit(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


class TestGramSchmidt:
    def test_coordinate_plane(self):
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 1)])
        ortho, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]))
        assert proj.rank == 2
        proj.validate()

    def test_span_invariance_under_skew(self):
        delta = 1e-3
        basis = SubspaceBasis.from_vectors([unit(3, 0), unit(3, 0) + delta * unit(3, 1)])
        _, proj = gram_schmidt_projection(basis)
        assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        idem, _, _ = proj.defects()
        assert idem <= 1e-12

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
            proj.validate()


class TestEmbedding:
    def test_widening_appends_top_coordinates(self):
        basis = SubspaceBasis.from_vectors([unit(4, 2), unit(4, 3)])
        wide = embed_basis(basis, 6)
        assert wide.ambient_dim == 6
        assert wide.dim == 4
        P = wide.matrix @ wide.matrix.conj().T
        assert np.allclose(np.diag(P), [0, 0, 1, 1, 1, 1])

    def test_narrowing_truncates(self):
        basis = SubspaceBasis.from_vectors([unit(5, 0), unit(5, 4)])
        narrow = embed_basis(basis, 4)
        assert narrow.ambient_dim == 4
        assert narrow.dim == 1  # the e_4 direction truncates to zero


class TestIsInvariant:
    def test_shift_tail_span_exactly_invariant(self):
        N, k = 30, 7
        T = shift_window(BER, N)
        basis = SubspaceBasis.from_vectors([unit(N, j) for j in range(k, N)])
        _, P = gram_schmidt_projection(basis)
        check = is_invariant(T, P, tol=1e-12)
        assert check.invariant and check.defect == 0.0

    def test_adjoint_eigenvector_span(self):
        N = 200
        A = adjoint_window(BER, N)
        r_point = math.exp(BER.log_pi(N) / N)
        for lam in (0.2, 0.5j, -0.8 * r_point):
            f = eigenvector_f1(BER, lam, N + 1).vectors[0]
            check = is_invariant(A, SubspaceBasis.from_vectors([f]), tol=1e-10)
            assert check.invariant, check.defect

    def test_adjoint_coordinate_pair_not_invariant(self):
        N = 30
        A = adjoint_window(BER, N)
        basis = SubspaceBasis.from_vectors([unit(N + 1, 0), unit(N + 1, 5)])
        check = is_invariant(A, basis, tol=0.1)
        assert not check.invariant
        # adjoint sends e_5 to alpha_4 e_4, fully outside span{e_0, e_5}
        assert check.defect == pytest.approx(BER.alpha_at(4), rel=1e-12)
        assert check.defect > 0.1

    def test_dimension_mismatch(self):
        T = shift_window(UNW, 8)
        basis = SubspaceBasis.from_vectors([unit(5, 0)])
        with pytest.raises(ValueError):
            is_invariant(T, basis)


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
        T = OperatorWindow(M, tag="custom")
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
        T = OperatorWindow(complex_gaussian(rng, (rows, cols)), tag="custom")
        M_in = SubspaceBasis(complex_gaussian(rng, (cols, dim_in)))
        M_out = SubspaceBasis(complex_gaussian(rng, (rows, dim_out)))
        expected = residual_defect(T, M_in, M_out)
        tol = 1e-14 * np.linalg.norm(T.matrix, 2)
        res = rel_index(T, M_in, M_out, invariance_tol=math.inf)
        assert abs(res.defect - expected) <= tol
        check = is_invariant(T, M_in, codomain=M_out)
        assert abs(check.defect - expected) <= tol
        if dim_out == rows or dim_in == 0:
            assert res.defect == check.defect == 0.0


class TestKernelOfPolynomial:
    def test_single_root_matches_eigenvector(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, [-0.5, 1.0])  # z - 0.5
        assert ker.basis.dim == 1
        f = eigenvector_f1(BER, 0.5, N).vectors[0]
        angle = principal_angles(ker.basis, SubspaceBasis.from_vectors([f])).max()
        assert angle <= 1e-8

    def test_two_roots_span_both_eigenvectors(self):
        N = 200
        A = adjoint_window_square(BER, N)
        ker = kernel_of_polynomial(A, np.convolve([-0.3, 1.0], [0.4, 1.0]))
        assert ker.basis.dim == 2
        f1 = eigenvector_f1(BER, 0.3, N).vectors[0]
        f2 = eigenvector_f1(BER, -0.4, N).vectors[0]
        ref = SubspaceBasis.from_vectors([f1, f2])
        assert principal_angles(ker.basis, ref).max() <= 1e-7

    def test_zero_matrix_full_kernel(self):
        A = OperatorWindow(np.zeros((6, 6), dtype=complex), tag="custom")
        ker = kernel_of_polynomial(A, [0.0, 1.0])  # p(z) = z
        assert ker.basis.dim == 6
        assert np.allclose(ker.projection.matrix, np.eye(6))

    def test_empty_kernel_is_rank_zero(self):
        A = OperatorWindow(np.eye(4, dtype=complex), tag="custom")
        ker = kernel_of_polynomial(A, [-3.0, 1.0])  # z - 3, invertible here
        assert ker.basis.dim == 0
        assert ker.projection.rank == 0

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
        assert principal_angles(ker.basis, ref).max() <= 1e-7


class TestKrylovSpan:
    def test_eigenvector_gives_dimension_one(self):
        N = 100
        A = adjoint_window_square(BER, N)
        f = eigenvector_f1(BER, 0.3, N).vectors[0]
        span = krylov_span(A, f, 3)
        assert span.dim == 1

    def test_two_eigenvector_mixture(self):
        N = 200
        A = adjoint_window_square(BER, N)
        f1 = eigenvector_f1(BER, 0.3, N).vectors[0]
        f2 = eigenvector_f1(BER, -0.4, N).vectors[0]
        span = krylov_span(A, f1 + f2, 2)
        assert span.dim == 2
        ref = SubspaceBasis.from_vectors([f1, f2])
        assert principal_angles(span, ref).max() <= 1e-8

    def test_nilpotent_jordan_block(self):
        m = 5
        J = np.zeros((m, m), dtype=complex)
        J[np.arange(m - 1), np.arange(1, m)] = 1.0
        span = krylov_span(OperatorWindow(J, tag="custom"), unit(m, m - 1), m)
        assert span.dim == m

    def test_zero_vector_rejected(self):
        A = adjoint_window_square(BER, 10)
        with pytest.raises(ValueError):
            krylov_span(A, np.zeros(10), 2)


class TestReconstruction:
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
            BER, [0.3, -0.4], OperatorWindow(A0 + 1e-4 * G, tag="perturbed")
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
                BER, roots, OperatorWindow(A0 + eps * G, tag="perturbed")
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


class TestBasisIO:
    def test_csv_roundtrip(self, tmp_path):
        rng = stream(21, TAG_BASIS, 4)
        basis = SubspaceBasis(complex_gaussian(rng, (12, 3)))
        path = tmp_path / "basis.csv"
        basis.to_csv(path)
        back = SubspaceBasis.from_csv(path)
        assert np.allclose(back.matrix, basis.matrix)
        assert projection_distance(orthonormalize(back), orthonormalize(basis)) < 1e-12

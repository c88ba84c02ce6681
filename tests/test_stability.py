import numpy as np
import pytest

from shiftlab.operators import OperatorWindow, adjoint_window_square, shift_window
from shiftlab.stability import (
    PerturbationPlan,
    beurling_index_sweep,
    norm_stability_run,
    perturb,
    random_zero_sets,
    semicontinuity_run,
)
from shiftlab.subspaces import SubspaceBasis, vanishing_subspace
from shiftlab.weights import WeightSequence

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")

EPS5 = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


class TestPlanValidation:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3, 1e-2), seed=0)

    def test_schedule_must_be_positive(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 0.0), seed=0)

    def test_zero_set_must_increase(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="compact_zeroing", epsilon_schedule=(1.0,), seed=0, zero_set=(20, 10))

    def test_zeroing_rejects_convergence_schedule(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="compact_zeroing", epsilon_schedule=(1e-1, 1e-2), seed=0, zero_set=(5, 10))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="banana", epsilon_schedule=(1e-2,), seed=0)


class TestPerturb:
    def test_dense_random_exact_norm(self):
        T = shift_window(BER, 40)
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2,), seed=4)
        pert = perturb(T, plan, 1e-2)
        assert pert.delta_norm == pytest.approx(1e-2, abs=1e-12)
        assert np.linalg.norm(pert.window.matrix - T.matrix, 2) == pytest.approx(1e-2, abs=1e-12)

    def test_weight_jitter_entrywise_bound(self):
        T = shift_window(BER, 60)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=4)
        pert = perturb(T, plan, 1e-3)
        diff = np.abs(pert.window.matrix - T.matrix)
        assert np.max(diff) <= 1e-3 + 1e-15
        assert pert.delta_norm <= 1e-3 + 1e-15
        # only the weight entries moved
        off = np.ones_like(diff, dtype=bool)
        k = np.arange(60)
        off[k + 1, k] = False
        assert np.all(diff[off] == 0)

    def test_jitter_direct_sum(self):
        S = shift_window(UNW, 10).matrix
        M = np.zeros((22, 20), dtype=complex)
        M[:11, :10] = S
        M[11:, 10:] = S
        T = OperatorWindow(M, tag="custom")
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=1)
        pert = perturb(T, plan, 1e-3)
        assert np.linalg.norm(pert.window.matrix - M, 2) <= 1e-3 + 1e-15

    def test_jitter_rejects_dense_window(self):
        T = OperatorWindow(np.ones((4, 4), dtype=complex), tag="custom")
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=1)
        with pytest.raises(ValueError):
            perturb(T, plan, 1e-3)

    def test_compact_zeroing_block_structure(self):
        N = 64
        T = shift_window(BER, N)
        zero_set = tuple(range(10, N, 10))  # kill alpha_10, alpha_20, ...
        plan = PerturbationPlan(kind="compact_zeroing", epsilon_schedule=(1.0,), seed=0, zero_set=zero_set)
        pert = perturb(T, plan, 1.0)
        M = pert.window.matrix
        k = np.arange(N)
        sub = M[k + 1, k]
        assert np.all(sub[list(zero_set)] == 0)
        # the square crop is nilpotent with index = longest surviving run + 1
        runs, cur = [], 0
        for v in sub[:N]:
            cur = cur + 1 if v != 0 else 0
            runs.append(cur)
        crop = M[:N, :N]
        power = np.linalg.matrix_power(crop, max(runs) + 1)
        assert np.all(power == 0)
        assert np.any(np.linalg.matrix_power(crop, max(runs)) != 0)
        # the perturbation is fixed-size: norm equals the largest zeroed weight
        assert pert.delta_norm == pytest.approx(BER.alpha_at(zero_set[-1]), rel=1e-14)


class TestNormStabilityRun:
    def test_bergman_pass(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=42)
        rep = norm_stability_run(BER, [0.3, -0.4], plan, N=200)
        assert rep.verdict == "pass"
        assert 0.9 <= rep.fitted_slope <= 1.1
        assert rep.metrics["failures"] == 0
        assert rep.metrics["final_distance"] <= 10 * EPS5[-1]

    def test_unweighted_single_root_pass(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=42)
        rep = norm_stability_run(UNW, [0.5], plan, N=150)
        assert rep.verdict == "pass"

    def test_degenerate_schedule_inconclusive(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3,), seed=42)
        rep = norm_stability_run(BER, [0.3, -0.4], plan, N=100)
        assert rep.verdict == "inconclusive"
        assert rep.fitted_slope is None
        assert rep.per_step[0]["distance"] is not None

    def test_zeroing_plan_rejected(self):
        plan = PerturbationPlan(kind="compact_zeroing", epsilon_schedule=(1.0,), seed=0, zero_set=(3,))
        with pytest.raises(ValueError):
            norm_stability_run(BER, [0.3], plan, N=100)

    def test_distances_monotone_within_factor(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=7)
        rep = norm_stability_run(BER, [0.3, -0.4], plan, N=150)
        dists = [s["distance"] for s in rep.per_step]
        assert all(b <= 3 * a for a, b in zip(dists, dists[1:]))

    def test_determinism_bit_identical(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3, 1e-4), seed=11)
        rep1 = norm_stability_run(BER, [0.3, -0.4], plan, N=100)
        rep2 = norm_stability_run(BER, [0.3, -0.4], plan, N=100)
        assert rep1.to_json_bytes() == rep2.to_json_bytes()
        assert rep1.per_step == rep2.per_step

    def test_seed_changes_steps(self):
        plan_a = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3), seed=1)
        plan_b = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3), seed=2)
        rep_a = norm_stability_run(BER, [0.3], plan_a, N=80)
        rep_b = norm_stability_run(BER, [0.3], plan_b, N=80)
        assert rep_a.per_step != rep_b.per_step


class TestSemicontinuity:
    def test_near_zero_perturbation_keeps_equality(self):
        N = 64
        T = shift_window(UNW, N)
        M_in = vanishing_subspace([0.3, -0.4], N)
        M_out = vanishing_subspace([0.3, -0.4], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-12,), seed=3)
        rep = semicontinuity_run(T, M_in, M_out, plan, 5)
        assert rep.verdict == "pass"
        assert rep.metrics["base_index"] == 1
        step = rep.per_step[0]
        assert step["n_asserted"] == 5
        assert step["min_index"] == step["max_index"] == 1

    def test_jitter_sweep_no_violations(self):
        N = 96
        T = shift_window(UNW, N)
        M_in = vanishing_subspace([0.3, -0.4], N)
        M_out = vanishing_subspace([0.3, -0.4], N + 1)
        plan = PerturbationPlan(
            kind="weight_jitter",
            epsilon_schedule=tuple(2.0 ** -n for n in range(1, 11)),
            seed=7,
        )
        rep = semicontinuity_run(T, M_in, M_out, plan, 40)
        assert rep.verdict == "pass"
        assert rep.metrics["violations"] == 0
        assert rep.metrics["skip_fraction"] <= 0.1
        # steps with defect above the tolerance are visibly unasserted
        asserted = [s["n_asserted"] for s in rep.per_step]
        assert asserted[0] == 0 and asserted[-1] == 40

    def test_direct_sum_keeps_index_two(self):
        N = 32
        S = shift_window(UNW, N).matrix
        M = np.zeros((2 * N + 2, 2 * N), dtype=complex)
        M[: N + 1, :N] = S
        M[N + 1 :, N:] = S
        T = OperatorWindow(M, tag="custom")
        M_in = SubspaceBasis(np.eye(2 * N, dtype=complex), orthonormal=True)
        M_out = SubspaceBasis(np.eye(2 * N + 2, dtype=complex), orthonormal=True)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-4, 1e-5), seed=5)
        rep = semicontinuity_run(T, M_in, M_out, plan, 10)
        assert rep.metrics["base_index"] == 2
        assert rep.verdict == "pass"
        assert all(s["min_index"] == 2 for s in rep.per_step if s["n_asserted"])

    def test_not_bounded_below_rejected(self):
        A = adjoint_window_square(UNW, 16)  # nilpotent: sigma_min = 0
        basis = SubspaceBasis(np.eye(16, dtype=complex), orthonormal=True)
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3,), seed=0)
        with pytest.raises(ValueError):
            semicontinuity_run(A, basis, basis, plan, 2)

    def test_zero_trials_rejected(self):
        T = shift_window(UNW, 16)
        basis_in, basis_out = vanishing_subspace([0.2], 16), vanishing_subspace([0.2], 17)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=0)
        with pytest.raises(ValueError, match="n_trials"):
            semicontinuity_run(T, basis_in, basis_out, plan, 0)

    def test_determinism(self):
        N = 48
        T = shift_window(UNW, N)
        M_in = vanishing_subspace([0.2], N)
        M_out = vanishing_subspace([0.2], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3, 1e-4), seed=9)
        rep1 = semicontinuity_run(T, M_in, M_out, plan, 8)
        rep2 = semicontinuity_run(T, M_in, M_out, plan, 8)
        assert rep1.to_json_bytes() == rep2.to_json_bytes()


class TestBeurlingIndexSweep:
    def test_zero_at_origin(self):
        rep = beurling_index_sweep([[0.0]], 64)
        assert rep.verdict == "pass"
        assert rep.per_step[0]["index"] == 1

    def test_random_sets_all_one(self):
        sets = random_zero_sets(20, seed=11)
        rep = beurling_index_sweep(sets, 128)
        assert rep.verdict == "pass"
        assert all(s["index"] == 1 for s in rep.per_step)
        assert all(s["gap"] >= 1e3 for s in rep.per_step)

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            beurling_index_sweep([[0.3, 0.3]], 64)

    def test_too_close_flagged(self):
        rep = beurling_index_sweep([[0.1, 0.1 + 5e-4]], 64)
        assert rep.per_step[0]["ill_conditioned"]

    def test_point_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            beurling_index_sweep([[0.9]], 64)

    def test_random_generator_contracts(self):
        sets = random_zero_sets(30, seed=2, max_size=5, radius=0.8, min_separation=1e-2)
        assert sets == random_zero_sets(30, seed=2, max_size=5, radius=0.8, min_separation=1e-2)
        for zs in sets:
            assert 1 <= len(zs) <= 5
            assert all(abs(z) <= 0.8 for z in zs)
            for i, a in enumerate(zs):
                for b in zs[i + 1 :]:
                    assert abs(a - b) >= 1e-2

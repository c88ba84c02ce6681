from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from shiftlab import _blas, stability, subspaces
from shiftlab.operators import shift_window
from shiftlab.seeding import TAG_JITTER, TAG_ZERO_SETS, stream
from shiftlab.stability import (
    PerturbationPlan,
    beurling_index_sweep,
    norm_stability_run,
    perturb,
    random_zero_sets,
    semicontinuity_run,
)
from shiftlab.subspaces import SubspaceBasis, rel_index, vanishing_subspace
from shiftlab.weights import WeightSequence

from builders import adjoint_window, basis_with_complement, dense, direct_sum, window_from_matrix

UNW = WeightSequence.preset("unweighted")
BER = WeightSequence.preset("bergman")

EPS5 = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The input shape of each np.linalg.svd call from here on."""
    shapes = []
    original = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **k: shapes.append(a.shape) or original(a, *args, **k))
    return shapes


class TestPlanValidation:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError, match="^eps: "):
            PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3, 1e-2), seed=0)

    def test_schedule_must_be_positive(self):
        with pytest.raises(ValueError, match="^eps: "):
            PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 0.0), seed=0)

    @pytest.mark.parametrize("schedule", [(np.nan,), (0.5, np.nan), (np.inf, 0.1)])
    def test_schedule_must_be_finite(self, schedule):
        with pytest.raises(ValueError, match="^eps: "):
            PerturbationPlan(kind="weight_jitter", epsilon_schedule=schedule, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PerturbationPlan(kind="banana", epsilon_schedule=(1e-2,), seed=0)

    def test_schedule_cannot_be_reassigned(self):
        # the checks run at construction only, so a later schedule would skip them
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3), seed=0)
        with pytest.raises(FrozenInstanceError):
            plan.epsilon_schedule = (1e-2, np.nan)


class TestPerturb:
    def test_dense_random_exact_norm(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-5), seed=4)
        rep = norm_stability_run(BER, [0.3], plan, N=40)
        for step in rep.per_step:
            assert step["delta_norm"] == pytest.approx(step["epsilon"], abs=1e-12)

    def test_weight_jitter_entrywise_bound(self):
        T = shift_window(BER, 60)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=4)
        S = perturb(T, plan, 1e-3)
        diff = np.abs(dense(S) - dense(T))
        assert np.max(diff) <= 1e-3 + 1e-15
        assert np.max(np.abs(S.entries - T.entries)) <= 1e-3 + 1e-15
        # only the weight entries moved
        off = np.ones_like(diff, dtype=bool)
        k = np.arange(60)
        off[k + 1, k] = False
        assert np.all(diff[off] == 0)

    def test_jitter_direct_sum(self):
        T = direct_sum(shift_window(UNW, 10), shift_window(UNW, 10))
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=1)
        assert np.linalg.norm(dense(perturb(T, plan, 1e-3)) - dense(T), 2) <= 1e-3 + 1e-15

    def test_dense_random_plan_is_rejected(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3,), seed=1)
        with pytest.raises(ValueError, match="perturb needs a 'weight_jitter' plan, got kind 'dense_random'"):
            perturb(shift_window(UNW, 10), plan, 1e-3)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=1)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            perturb(shift_window(UNW, 10), plan, eps)


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

    @pytest.mark.parametrize("preset", ["unweighted", "bergman", "quasianalytic_sqrt"])
    def test_every_root_set_passes(self, preset):
        # three or more distinct roots, a triple root and two close roots, at N = 200
        w = WeightSequence.preset(preset)
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=0)
        for roots in ([0.3, -0.4], [0.3, -0.4, 0.2], [0.3, -0.4, 0.2, 0.1j], [0, 0, 0], [0.5, 0.49]):
            rep = norm_stability_run(w, roots, plan, N=200)
            assert rep.verdict == "pass", (roots, rep.fitted_slope, rep.metrics)

    def test_three_roots_unweighted_seed_5_passes(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=5)
        rep = norm_stability_run(UNW, [0.3, -0.4, 0.2], plan, N=200)
        assert rep.verdict == "pass" and 0.9 <= rep.fitted_slope <= 1.1

    def test_dependent_reference_fails_every_step(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=42)
        rep = norm_stability_run(UNW, [0.5, 0.5000000000001], plan, N=200)
        assert rep.verdict == "fail" and rep.metrics["failures"] == len(EPS5)
        assert all(s["distance"] is None and "dependent" in s["error"] for s in rep.per_step)

    def test_reference_is_built_once_per_run(self, monkeypatch):
        # one chain per distinct root, not one per epsilon step
        calls = []
        original = subspaces.jordan_chain
        monkeypatch.setattr(subspaces, "jordan_chain", lambda *a: calls.append(a[1]) or original(*a))
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=EPS5, seed=42)
        rep = norm_stability_run(UNW, [0.3, -0.4], plan, N=200)
        assert rep.verdict == "pass" and len(rep.per_step) == 5
        assert calls == [0.3, -0.4]

    def test_degenerate_schedule_inconclusive(self):
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3,), seed=42)
        rep = norm_stability_run(BER, [0.3, -0.4], plan, N=100)
        assert rep.verdict == "inconclusive"
        assert rep.fitted_slope is None
        assert rep.per_step[0]["distance"] is not None

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

    def test_weight_jitter_plan_rejected_before_any_step(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a step ran before the plan's kind was checked")

        for name in ("adjoint_window_square", "chain_reference_basis", "_dense_step", "kernel_of_polynomial"):
            monkeypatch.setattr(stability, name, unreachable)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-2,), seed=0)
        with pytest.raises(ValueError, match="norm_stability_run needs a 'dense_random' plan, got kind 'weight_jitter'"):
            norm_stability_run(BER, [0.3], plan, N=40)


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

    def test_rows_reduce_every_kind_of_outcome(self, monkeypatch):
        # (defect, index) per rel_index call: the base, then trial by trial, step by step
        script = iter([
            (0.0, 1),
            (5e-4, 0), (2e-3, 1),  # trial 0: a violation, then an unasserted step
            (stability.DEFAULT_INVARIANCE_TOL, 2), (1e-4, 1),  # trial 1: a defect at the tolerance is asserted
            (0.5, 1), (3e-3, 1),  # trial 2: no asserted step, so skipped
        ])

        def scripted(S, M_in, M_out, tol, invariance_tol=subspaces.EXACT_INVARIANCE_TOL):
            defect, index = next(script)
            if defect > invariance_tol:
                raise subspaces.InvarianceError(defect, invariance_tol)
            return subspaces.IndexResult(index, defect, np.inf)

        monkeypatch.setattr(stability, "rel_index", scripted)
        N = 16
        T = shift_window(UNW, N)
        M_in, M_out = vanishing_subspace([0.3, -0.4], N), vanishing_subspace([0.3, -0.4], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-2, 1e-3), seed=0)
        rep = semicontinuity_run(T, M_in, M_out, plan, 3)
        assert next(script, None) is None
        assert rep.per_step == [
            {"epsilon": 1e-2, "n_asserted": 2, "n_violations": 1, "max_defect": 0.5, "min_index": 0, "max_index": 2},
            {"epsilon": 1e-3, "n_asserted": 1, "n_violations": 0, "max_defect": 3e-3, "min_index": 1, "max_index": 1},
        ]
        for row in rep.per_step:
            assert list(row) == ["epsilon", "n_asserted", "n_violations", "max_defect", "min_index", "max_index"]
            assert [type(v) for v in row.values()] == [float, int, int, float, int, int]
        assert rep.metrics == {"base_index": 1, "violations": 1, "skipped_trials": 1, "skip_fraction": 1 / 3}
        assert rep.verdict == "fail"

    def test_direct_sum_keeps_index_two(self):
        N = 32
        T = direct_sum(shift_window(UNW, N), shift_window(UNW, N))
        M_in = SubspaceBasis(np.eye(2 * N, dtype=complex), orthonormal=True)
        M_out = basis_with_complement(np.eye(2 * N + 2))
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-4, 1e-5), seed=5)
        rep = semicontinuity_run(T, M_in, M_out, plan, 10)
        assert rep.metrics["base_index"] == 2
        assert rep.verdict == "pass"
        assert all(s["min_index"] == 2 for s in rep.per_step if s["n_asserted"])

    def test_not_bounded_below_rejected(self, monkeypatch):
        A = adjoint_window(UNW, 16)  # column 0 is off the support: sigma_min = 0
        basis_in, basis_out = basis_with_complement(np.eye(17)), basis_with_complement(np.eye(16))
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=0)
        calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or original(*a, **k))
        with pytest.raises(ValueError, match=r"not bounded below on the window: sigma_min=0\.000e\+00 < 0\.1"):
            semicontinuity_run(A, basis_in, basis_out, plan, 2)
        assert calls == []

    def test_dense_random_plan_rejected_before_any_step(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("rel_index ran before the plan's kind was checked")

        monkeypatch.setattr(stability, "rel_index", unreachable)
        T = shift_window(UNW, 16)
        basis_in, basis_out = vanishing_subspace([0.2], 16), vanishing_subspace([0.2], 17)
        plan = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-3,), seed=0)
        with pytest.raises(ValueError, match="semicontinuity_run needs a 'weight_jitter' plan, got kind 'dense_random'"):
            semicontinuity_run(T, basis_in, basis_out, plan, 2)

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


class TestSupportPath:
    """The structured path against dense references computed here."""

    @pytest.mark.parametrize("kind, eps", [("weight_jitter", 1e-3)])
    def test_perturb_uses_the_support_and_matches_the_scan(self, kind, eps):
        T = shift_window(BER, 40)
        plan = PerturbationPlan(kind=kind, epsilon_schedule=(eps,), seed=6)
        known = perturb(T, plan, eps, stream_tags=(2, 1))
        # the jitter drawn for the nonzeros in np.nonzero's scan order
        rows, cols = np.nonzero(dense(T))
        entries = dense(T)[rows, cols]
        bound = eps / np.max(np.abs(entries))
        scanned = dense(T).copy()
        scanned[rows, cols] *= 1.0 + stream(6, TAG_JITTER, 2, 1).uniform(-bound, bound, size=len(rows))
        assert np.array_equal(known.entries, scanned[rows, cols])
        assert np.array_equal(dense(known), scanned)
        assert np.max(np.abs(known.entries - entries)) <= eps
        assert known.support is T.support

    def test_jittered_step_checks_no_support_and_builds_no_matrix(self, monkeypatch):
        N = 48
        T = shift_window(UNW, N)
        M_in, M_out = vanishing_subspace([0.3, -0.4], N), vanishing_subspace([0.3, -0.4], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=2)
        bincounts, zeros_shapes = [], []
        bincount, zeros = np.bincount, np.zeros
        monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: zeros_shapes.append(shape) or zeros(shape, *a, **k))
        S = perturb(T, plan, 1e-3, stream_tags=(0, 0))
        rel_index(S, M_in, M_out, invariance_tol=1e-2)
        assert bincounts == []
        assert (N + 1, N) not in zeros_shapes
        assert S.support is T.support

    @pytest.mark.parametrize("zeros, N", [([0.3, -0.4], 48), ([0.5j, -0.2 + 0.1j, 0.6], 40)])
    def test_semicontinuity_identical_on_both_paths(self, zeros, N, monkeypatch):
        T = shift_window(UNW, N)
        M_in, M_out = vanishing_subspace(zeros, N), vanishing_subspace(zeros, N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=tuple(2.0 ** -n for n in range(1, 11)),
                                seed=13)
        known = semicontinuity_run(T, M_in, M_out, plan, 6)
        # rel_index with dense products in place of its row gathers
        monkeypatch.setattr(subspaces, "_window_image", lambda T, Q: dense(T) @ Q)
        monkeypatch.setattr(subspaces, "_adjoint_image", lambda T, W: dense(T).conj().T @ W)
        dense_run = semicontinuity_run(T, M_in, M_out, plan, 6)
        assert known.per_step == dense_run.per_step
        assert known.metrics == dense_run.metrics
        assert known.to_json_bytes() == dense_run.to_json_bytes()
        assert sum(step["n_asserted"] for step in known.per_step) > 0

    def test_certified_run_makes_no_rank_or_sigma_min_svd(self, monkeypatch):
        N = 32
        T = shift_window(UNW, N)
        M_in, M_out = vanishing_subspace([0.2], N), vanishing_subspace([0.2], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3, 1e-4), seed=1)
        shapes = svd_shapes(monkeypatch)
        semicontinuity_run(T, M_in, M_out, plan, 3)
        # only each rel_index call's defect SVD, on codim(M_out) = 1 row
        assert shapes == [(1, N - 1)] * (1 + 3 * 2)

    def test_closed_form_sigma_min_rejects_like_the_svd(self):
        N = 24
        T = shift_window(UNW, N)
        M = dense(T)
        M[6, 5] = 0.05
        basis_in, basis_out = vanishing_subspace([0.2], N), vanishing_subspace([0.2], N + 1)
        plan = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3,), seed=0)
        assert np.linalg.svd(M, compute_uv=False)[-1] == 0.05
        with pytest.raises(ValueError, match="sigma_min=5.000e-02 < 0.1"):
            semicontinuity_run(window_from_matrix(M, (T.support.rows, T.support.cols)), basis_in, basis_out, plan, 2)


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

    def test_makes_no_rank_svd(self, monkeypatch):
        # the unweighted shift certifies full rank, and its gap is the certificate's bound
        sets = random_zero_sets(5, seed=3)
        shapes = svd_shapes(monkeypatch)
        rep = beurling_index_sweep(sets, 64)
        # only each set's defect SVD, on codim(M_out) = len(zeros) rows
        assert shapes == [(len(zeros), 64 - len(zeros)) for zeros in sets]
        assert all(s["index"] == 1 and s["gap"] == 1e8 for s in rep.per_step)

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            beurling_index_sweep([[0.3, 0.3]], 64)

    def test_too_close_flagged(self):
        rep = beurling_index_sweep([[0.1, 0.1 + 5e-4]], 64)
        assert rep.per_step[0]["ill_conditioned"]

    def test_only_flagged_sets_check_nothing_and_fail(self):
        rep = beurling_index_sweep([[0.1, 0.1 + 5e-4]], 64)
        assert rep.verdict == "fail" and rep.metrics["all_indices_one"] is False
        rep = beurling_index_sweep([[0.1, 0.1 + 5e-4], [0.3]], 64)
        assert rep.verdict == "pass" and rep.metrics["all_indices_one"] is True

    def test_empty_sweep_fails(self):
        rep = beurling_index_sweep([], 64)
        assert rep.verdict == "fail" and rep.metrics["all_indices_one"] is False
        assert rep.per_step == []

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

    def test_unreachable_separation_raises(self):
        sizes = [int(stream(4, TAG_ZERO_SETS, i).integers(1, 6)) for i in range(10)]
        first = next(i for i, size in enumerate(sizes) if size > 1)
        with pytest.raises(ValueError, match=rf"zero set {first}: .*min_separation 2\.0"):
            random_zero_sets(10, seed=4, min_separation=2.0)  # wider than the 0.8 disc

    def test_draw_budget_covers_half_separation(self, monkeypatch):
        sets = [random_zero_sets(50, seed, min_separation=0.5) for seed in range(21)]
        monkeypatch.setattr(stability, "ZERO_SET_DRAWS", 71)
        assert [random_zero_sets(50, seed, min_separation=0.5) for seed in range(21)] == sets
        monkeypatch.setattr(stability, "ZERO_SET_DRAWS", 70)
        with pytest.raises(ValueError, match="70 draws"):
            for seed in range(21):
                random_zero_sets(50, seed, min_separation=0.5)


class FakeBlas:
    """Stands in for the OpenBLAS thread-count pair."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def put(self, n):
        self.count = n


def _small_driver_calls():
    N = 24
    T = shift_window(UNW, N)
    M_in, M_out = vanishing_subspace([0.2], N), vanishing_subspace([0.2], N + 1)
    jitter = PerturbationPlan(kind="weight_jitter", epsilon_schedule=(1e-3, 1e-4), seed=3)
    dense = PerturbationPlan(kind="dense_random", epsilon_schedule=(1e-2, 1e-3), seed=3)
    return {
        "norm_stability_run": ("kernel_of_polynomial", (BER, [0.3, -0.4], dense), {"N": 40}),
        "semicontinuity_run": ("rel_index", (T, M_in, M_out, jitter, 2), {}),
        "beurling_index_sweep": ("rel_index", ([[0.3], [0.1, -0.5j]], 32), {}),
    }


class TestOneBlasThread:
    @pytest.mark.parametrize("driver", ["norm_stability_run", "semicontinuity_run", "beurling_index_sweep"])
    def test_one_thread_inside_and_restored_after(self, driver, monkeypatch):
        fake = FakeBlas(4)
        monkeypatch.setattr(_blas, "_lookup", lambda: (fake.get, fake.put))
        spied, args, kwargs = _small_driver_calls()[driver]
        seen = []
        original = getattr(stability, spied)
        monkeypatch.setattr(stability, spied, lambda *a, **k: seen.append(fake.count) or original(*a, **k))
        getattr(stability, driver)(*args, **kwargs)
        assert seen and set(seen) == {1}
        assert fake.count == 4

    def test_vanishing_subspace_runs_its_qr_on_one_thread(self, monkeypatch):
        fake = FakeBlas(4)
        monkeypatch.setattr(_blas, "_lookup", lambda: (fake.get, fake.put))
        seen = []
        original = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: seen.append(fake.count) or original(*a, **k))
        vanishing_subspace([0.3, -0.4], 32)
        assert seen == [1]
        assert fake.count == 4

    def test_restored_after_a_raise(self, monkeypatch):
        fake = FakeBlas(3)
        monkeypatch.setattr(_blas, "_lookup", lambda: (fake.get, fake.put))
        _, (T, M_in, M_out, plan, _), _ = _small_driver_calls()["semicontinuity_run"]
        with pytest.raises(ValueError, match="n_trials"):
            semicontinuity_run(T, M_in, M_out, plan, n_trials=0)
        assert fake.count == 3

    def test_without_the_symbols_the_driver_runs_unchanged(self, monkeypatch):
        monkeypatch.setattr(_blas, "_SYMBOLS", (("no_such_get_threads", "no_such_set_threads"),))
        _blas._lookup.cache_clear()
        try:
            assert _blas._lookup() is None
            _, args, kwargs = _small_driver_calls()["semicontinuity_run"]
            rep = semicontinuity_run(*args, **kwargs)
            assert rep.to_json_bytes() == semicontinuity_run.__wrapped__(*args, **kwargs).to_json_bytes()
        finally:
            _blas._lookup.cache_clear()

    def test_real_library_count_is_restored(self, monkeypatch):
        found = _blas._lookup()
        if found is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, _ = found
        before = get()
        seen = []
        original = stability.rel_index
        monkeypatch.setattr(stability, "rel_index", lambda *a, **k: seen.append(get()) or original(*a, **k))
        beurling_index_sweep(random_zero_sets(3, seed=5), 64)
        assert set(seen) == {1}
        assert get() == before

"""Perturbation generators and stability / semicontinuity experiments.

Every experiment is a pure function of its configuration: random
directions come from named Philox streams keyed by (seed, experiment tag,
trial, step), so re-running with the same plan reproduces per-step metrics
bit for bit.

Perturbation kinds: dense_random adds a normalized dense Gaussian
direction of prescribed operator norm; weight_jitter multiplies each shift
weight by (1 + delta_n) with |delta_n| small enough to keep the operator
norm change below epsilon; compact_zeroing kills a fixed subsequence of
weights, a structural (not small) perturbation used to illustrate how a
shift with weights not bounded away from zero degenerates into finite
nilpotent blocks. Zeroing is therefore rejected in convergence runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorWindow, adjoint_window_square, shift_window
from .report import (
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    ExperimentReport,
    fit_loglog_slope,
)
from .seeding import TAG_DENSE, TAG_JITTER, TAG_SEMICONT, TAG_STABILITY, TAG_ZERO_SETS, complex_gaussian, stream
from .subspaces import (
    CyclicityError,
    InvarianceError,
    RankDeficiencyError,
    SubspaceBasis,
    reconstruct_chain_subspace,
    rel_index,
    vanishing_subspace,
)
from .weights import WeightSequence

PERTURBATION_KINDS = ("dense_random", "weight_jitter", "compact_zeroing")

SLOPE_WINDOW = (0.9, 1.1)
FINAL_DISTANCE_FACTOR = 10.0
DEFAULT_INVARIANCE_TOL = 1e-3
DEFAULT_MIN_SIGMA = 0.1
MAX_SKIP_FRACTION = 0.1
INDEX_GAP_FLOOR = 1e3
ZERO_SET_MIN_SEPARATION = 1e-3


@dataclass
class PerturbationPlan:
    """What to perturb with, how strongly, and from which seed."""

    kind: str
    epsilon_schedule: tuple[float, ...]
    seed: int
    zero_set: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        self.epsilon_schedule = tuple(float(e) for e in self.epsilon_schedule)
        if any(e <= 0 for e in self.epsilon_schedule):
            raise ValueError("epsilon schedule entries must be positive")
        if any(b >= a for a, b in zip(self.epsilon_schedule, self.epsilon_schedule[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if self.kind == "compact_zeroing":
            if not self.zero_set:
                raise ValueError("compact_zeroing needs a zero_set")
            self.zero_set = tuple(int(i) for i in self.zero_set)
            if any(b <= a for a, b in zip(self.zero_set, self.zero_set[1:])):
                raise ValueError("zero_set must be strictly increasing")
            if len(self.epsilon_schedule) > 1:
                raise ValueError("compact_zeroing is a fixed perturbation; convergence schedules are rejected")


@dataclass(frozen=True)
class Perturbation:
    window: OperatorWindow
    delta_norm: float


def _structured_positions(T: OperatorWindow) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero positions of a weighted-shift-like window.

    Requires at most one nonzero entry per row and per column, which makes
    the operator norm of any entrywise change equal to the largest entry
    change. Covers shift and adjoint windows, direct sums of them, and
    their zeroed variants.
    """
    rows, cols = np.nonzero(T.matrix)
    if len(rows) and (len(np.unique(rows)) != len(rows) or len(np.unique(cols)) != len(cols)):
        raise ValueError("structured perturbations need at most one nonzero entry per row and per column")
    return rows, cols


def perturb(T: OperatorWindow, plan: PerturbationPlan, epsilon: float,
            stream_tags: tuple[int, ...] = ()) -> Perturbation:
    """Produce a window S with ||S - T|| <= epsilon, reported exactly.

    stream_tags select the random substream (trial and step indices);
    the same (plan.seed, stream_tags) always yields the same direction.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    M = T.matrix.copy()
    if plan.kind == "dense_random":
        rng = stream(plan.seed, TAG_DENSE, *stream_tags)
        G = complex_gaussian(rng, M.shape)
        G /= np.linalg.norm(G, 2)
        S = M + epsilon * G
        delta = float(np.linalg.norm(S - M, 2))
        return Perturbation(OperatorWindow(S, tag="perturbed"), delta)
    rows, cols = _structured_positions(T)
    if plan.kind == "weight_jitter":
        if len(rows) == 0:
            return Perturbation(OperatorWindow(M, tag="perturbed"), 0.0)
        rng = stream(plan.seed, TAG_JITTER, *stream_tags)
        norm_T = float(np.max(np.abs(M[rows, cols])))
        delta_n = rng.uniform(-epsilon / norm_T, epsilon / norm_T, size=len(rows))
        M[rows, cols] *= 1.0 + delta_n
        delta = float(np.max(np.abs(M[rows, cols] - T.matrix[rows, cols])))
        return Perturbation(OperatorWindow(M, tag="perturbed"), delta)
    # compact_zeroing kills weights alpha_n for n in the zero set; the weight
    # index of a shift or adjoint entry is min(row, col)
    n_index = np.minimum(rows, cols)
    if len(np.unique(n_index)) != len(n_index):
        raise ValueError("compact_zeroing needs unambiguous weight indices (single shift or adjoint window)")
    mask = np.isin(n_index, plan.zero_set)
    delta = float(np.max(np.abs(M[rows[mask], cols[mask]]))) if np.any(mask) else 0.0
    M[rows[mask], cols[mask]] = 0.0
    return Perturbation(OperatorWindow(M, tag="perturbed"), delta)


# -- norm-stability experiment ---------------------------------------------------

def norm_stability_run(w: WeightSequence, p_roots, plan: PerturbationPlan,
                       N: int = 200, rank_tol: float = 1e-8) -> ExperimentReport:
    """Reconstruction distance against perturbation size, with slope fit.

    For each epsilon in the schedule, perturbs the square adjoint window,
    rebuilds the chain subspace for p_roots, and records the projection
    distance to the unperturbed reference. Verdict: pass when the log-log
    slope lies in [0.9, 1.1] and the final distance is at most 10 times
    the smallest epsilon.
    """
    if plan.kind == "compact_zeroing":
        raise ValueError("compact_zeroing cannot drive a convergence run")
    roots = [complex(r) for r in p_roots]
    A0 = adjoint_window_square(w, N)
    per_step: list[dict] = []
    distances: list[float] = []
    failures = 0
    for j, eps in enumerate(plan.epsilon_schedule):
        pert = perturb(A0, plan, eps, stream_tags=(TAG_STABILITY, j))
        entry: dict = {"epsilon": eps, "delta_norm": pert.delta_norm}
        try:
            rec = reconstruct_chain_subspace(w, roots, pert.window, tol=rank_tol)
            entry["distance"] = rec.distance
            entry["kernel_sigma"] = float(np.max(rec.kernel_singular_values))
            distances.append(rec.distance)
        except (CyclicityError, RankDeficiencyError, InvarianceError) as exc:
            entry["distance"] = None
            entry["error"] = str(exc)
            failures += 1
        per_step.append(entry)

    slope = fit_loglog_slope(
        [s["epsilon"] for s in per_step if s.get("distance") is not None],
        [s["distance"] for s in per_step if s.get("distance") is not None],
    )
    eps_min = plan.epsilon_schedule[-1]
    if failures or not distances:
        verdict = VERDICT_FAIL
    elif slope is None:
        verdict = VERDICT_INCONCLUSIVE
    elif SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1] and distances[-1] <= FINAL_DISTANCE_FACTOR * eps_min:
        verdict = VERDICT_PASS
    else:
        verdict = VERDICT_FAIL
    return ExperimentReport(
        experiment="norm_stability",
        inputs={
            "weight": w.kind,
            "roots": roots,
            "plan_kind": plan.kind,
            "epsilon_schedule": list(plan.epsilon_schedule),
            "seed": plan.seed,
            "N": N,
            "rank_tol": rank_tol,
        },
        per_step=per_step,
        fitted_slope=slope,
        metrics={"failures": failures, "final_distance": distances[-1] if distances else None},
        verdict=verdict,
    )


# -- index semicontinuity experiment ----------------------------------------------

def semicontinuity_run(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
                       plan: PerturbationPlan, n_trials: int,
                       rank_tol: float = 1e-8,
                       invariance_tol: float = DEFAULT_INVARIANCE_TOL,
                       min_sigma: float = DEFAULT_MIN_SIGMA) -> ExperimentReport:
    """Check the lower-semicontinuity direction of the relative index.

    The candidate subspace for each perturbed operator is the original one;
    a (trial, step) pair is asserted only once its invariance defect falls
    at or below invariance_tol, which the report makes visible. Trials
    where no step reaches the assertion threshold, or where the transported
    basis degenerates, are counted as skipped.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    s_min = float(np.linalg.svd(T.matrix, compute_uv=False)[-1])
    if s_min < min_sigma:
        raise ValueError(f"operator not bounded below on the window: sigma_min={s_min:.3e} < {min_sigma}")
    base = rel_index(T, M_in, M_out, tol=rank_tol)

    steps = list(plan.epsilon_schedule)
    agg = [
        {"epsilon": eps, "n_asserted": 0, "n_violations": 0, "max_defect": 0.0,
         "min_index": None, "max_index": None}
        for eps in steps
    ]
    skipped = 0
    for t in range(n_trials):
        asserted_any = False
        try:
            for j, eps in enumerate(steps):
                pert = perturb(T, plan, eps, stream_tags=(TAG_SEMICONT, t, j))
                try:
                    res = rel_index(pert.window, M_in, M_out, tol=rank_tol, invariance_tol=invariance_tol)
                except InvarianceError as exc:
                    agg[j]["max_defect"] = max(agg[j]["max_defect"], exc.defect)
                    continue
                asserted_any = True
                a = agg[j]
                a["n_asserted"] += 1
                a["max_defect"] = max(a["max_defect"], res.defect)
                a["min_index"] = res.index if a["min_index"] is None else min(a["min_index"], res.index)
                a["max_index"] = res.index if a["max_index"] is None else max(a["max_index"], res.index)
                if base.index > res.index:
                    a["n_violations"] += 1
        except RankDeficiencyError:
            skipped += 1
            continue
        if not asserted_any:
            skipped += 1

    violations = sum(a["n_violations"] for a in agg)
    skip_fraction = skipped / n_trials
    verdict = VERDICT_PASS if violations == 0 and skip_fraction <= MAX_SKIP_FRACTION else VERDICT_FAIL
    return ExperimentReport(
        experiment="index_semicontinuity",
        inputs={
            "plan_kind": plan.kind,
            "epsilon_schedule": steps,
            "seed": plan.seed,
            "n_trials": n_trials,
            "rank_tol": rank_tol,
            "invariance_tol": invariance_tol,
            "dim_in": M_in.dim,
            "dim_out": M_out.dim,
            "window_rows": T.rows,
            "window_cols": T.cols,
        },
        per_step=agg,
        fitted_slope=None,
        metrics={
            "base_index": base.index,
            "violations": violations,
            "skipped_trials": skipped,
            "skip_fraction": skip_fraction,
        },
        verdict=verdict,
    )


# -- zero-based index sweep ---------------------------------------------------------

def random_zero_sets(n_sets: int, seed: int, max_size: int = 5, radius: float = 0.8,
                     min_separation: float = 1e-2) -> list[list[complex]]:
    """Seeded random zero sets in the given disc, with enforced separation."""
    sets = []
    for i in range(n_sets):
        rng = stream(seed, TAG_ZERO_SETS, i)
        size = int(rng.integers(1, max_size + 1))
        points: list[complex] = []
        while len(points) < size:
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if abs(z) > radius:
                continue
            if any(abs(z - q) < min_separation for q in points):
                continue
            points.append(z)
        sets.append(points)
    return sets


def beurling_index_sweep(zero_sets, N: int, rank_tol: float = 1e-8) -> ExperimentReport:
    """Relative index of the unweighted shift over zero-based subspaces.

    Every index should equal 1 with a large singular-value gap. Sets with
    nearly coincident points (pairwise distance below 1e-3) are flagged as
    ill conditioned and excluded from the verdict.
    """
    w = WeightSequence.preset("unweighted")
    T = shift_window(w, N)
    per_step = []
    ok = True
    for i, zeros in enumerate(zero_sets):
        zs = [complex(z) for z in zeros]
        if len(zs) > 5:
            raise ValueError(f"zero set {i} has more than 5 points")
        if any(abs(z) > 0.8 for z in zs):
            raise ValueError(f"zero set {i} leaves the 0.8 disc")
        if len(set(zs)) != len(zs):
            raise ValueError(f"zero set {i} has a repeated point")
        min_sep = min(
            (abs(a - b) for idx, a in enumerate(zs) for b in zs[idx + 1:]),
            default=math.inf,
        )
        flagged = min_sep < ZERO_SET_MIN_SEPARATION
        M_in = vanishing_subspace(zs, N)
        M_out = vanishing_subspace(zs, N + 1)
        res = rel_index(T, M_in, M_out, tol=rank_tol)
        per_step.append({
            "set_index": i,
            "zeros": zs,
            "index": res.index,
            "gap": res.gap,
            "defect": res.defect,
            "ill_conditioned": flagged,
        })
        if not flagged and not (res.index == 1 and res.gap >= INDEX_GAP_FLOOR):
            ok = False
    return ExperimentReport(
        experiment="beurling_index_sweep",
        inputs={"N": N, "rank_tol": rank_tol, "n_sets": len(per_step)},
        per_step=per_step,
        fitted_slope=None,
        metrics={"all_indices_one": ok},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )

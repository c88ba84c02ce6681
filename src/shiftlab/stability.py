"""Perturbation generators and stability / semicontinuity experiments.

Every experiment is a pure function of its configuration: random
directions come from named Philox streams keyed by (seed, experiment tag,
trial, step), so re-running with the same plan reproduces per-step metrics
bit for bit. The three drivers run BLAS on one thread (`_blas`), so the
bits do not depend on OPENBLAS_NUM_THREADS or the core count either.

Perturbation kinds: dense_random adds a normalized dense Gaussian
direction of prescribed operator norm; weight_jitter multiplies each shift
weight by (1 + delta_n) with |delta_n| small enough to keep the operator
norm change below epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
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

PERTURBATION_KINDS = ("dense_random", "weight_jitter")

SLOPE_WINDOW = (0.9, 1.1)
FINAL_DISTANCE_FACTOR = 10.0
DEFAULT_INVARIANCE_TOL = 1e-3
DEFAULT_MIN_SIGMA = 0.1
MAX_SKIP_FRACTION = 0.1
INDEX_GAP_FLOOR = 1e3
ZERO_SET_MIN_SEPARATION = 1e-3
ZERO_SET_MAX_SIZE = 5
ZERO_SET_RADIUS = 0.8
# Candidate points random_zero_sets draws for one set before it gives up; at
# min_separation 0.5, seeds 0-20 need at most 71 for the 50 default sets.
ZERO_SET_DRAWS = 10_000


@dataclass
class PerturbationPlan:
    """What to perturb with, how strongly, and from which seed."""

    kind: str
    epsilon_schedule: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        self.epsilon_schedule = tuple(float(e) for e in self.epsilon_schedule)
        if any(e <= 0 for e in self.epsilon_schedule):
            raise ValueError("epsilon schedule entries must be positive")
        if any(b >= a for a, b in zip(self.epsilon_schedule, self.epsilon_schedule[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")


@dataclass(frozen=True)
class Perturbation:
    window: OperatorWindow
    delta_norm: float


def _structured_positions(T: OperatorWindow) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero positions of a weighted-shift-like window.

    Requires at most one nonzero entry per row and per column, which makes
    the operator norm of any entrywise change equal to the largest entry
    change. Covers shift and adjoint windows and direct sums of them.
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
    weight_jitter takes the nonzero positions from T.support and scans
    the matrix only when T has none; the jittered S carries the support
    of T.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if plan.kind == "dense_random":
        M = T.matrix
        rng = stream(plan.seed, TAG_DENSE, *stream_tags)
        G = complex_gaussian(rng, M.shape)
        G /= np.linalg.norm(G, 2)
        S = M + epsilon * G
        delta = float(np.linalg.norm(S - M, 2))
        return Perturbation(OperatorWindow(S), delta)
    M = T.matrix.copy()
    rows, cols = T.support if T.support is not None else _structured_positions(T)
    if len(rows) == 0:
        return Perturbation(OperatorWindow(M, support=(rows, cols)), 0.0)
    rng = stream(plan.seed, TAG_JITTER, *stream_tags)
    norm_T = float(np.max(np.abs(M[rows, cols])))
    delta_n = rng.uniform(-epsilon / norm_T, epsilon / norm_T, size=len(rows))
    M[rows, cols] *= 1.0 + delta_n
    delta = float(np.max(np.abs(M[rows, cols] - T.matrix[rows, cols])))
    return Perturbation(OperatorWindow(M, support=(rows, cols)), delta)


# -- norm-stability experiment ---------------------------------------------------

@one_blas_thread
def norm_stability_run(w: WeightSequence, p_roots, plan: PerturbationPlan,
                       N: int = 200) -> ExperimentReport:
    """Reconstruction distance against perturbation size, with slope fit.

    For each epsilon in the schedule, perturbs the square adjoint window,
    rebuilds the chain subspace for p_roots, and records the projection
    distance to the unperturbed reference. Verdict: pass when the log-log
    slope lies in [0.9, 1.1] and the final distance is at most 10 times
    the smallest epsilon.
    """
    roots = [complex(r) for r in p_roots]
    A0 = adjoint_window_square(w, N)
    per_step: list[dict] = []
    distances: list[float] = []
    failures = 0
    for j, eps in enumerate(plan.epsilon_schedule):
        pert = perturb(A0, plan, eps, stream_tags=(TAG_STABILITY, j))
        entry: dict = {"epsilon": eps, "delta_norm": pert.delta_norm}
        try:
            rec = reconstruct_chain_subspace(w, roots, pert.window)
            entry["distance"] = rec.distance
            entry["kernel_sigma"] = float(np.max(rec.kernel_singular_values))
            distances.append(rec.distance)
        except (CyclicityError, RankDeficiencyError) as exc:
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
        per_step=per_step,
        fitted_slope=slope,
        metrics={"failures": failures, "final_distance": distances[-1] if distances else None},
        verdict=verdict,
    )


# -- index semicontinuity experiment ----------------------------------------------

@one_blas_thread
def semicontinuity_run(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
                       plan: PerturbationPlan, n_trials: int,
                       rank_tol: float = 1e-8,
                       invariance_tol: float = DEFAULT_INVARIANCE_TOL) -> ExperimentReport:
    """Check the lower-semicontinuity direction of the relative index.

    The candidate subspace for each perturbed operator is the original one;
    a (trial, step) pair is asserted only once its invariance defect falls
    at or below invariance_tol, which the report makes visible. Trials
    where no step reaches the assertion threshold are counted as skipped.
    sigma_min(T) is read from T.singular_value_range when T has one, and
    from a dense SVD otherwise.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    bounds = T.singular_value_range
    s_min = bounds[0] if bounds is not None else float(np.linalg.svd(T.matrix, compute_uv=False)[-1])
    if s_min < DEFAULT_MIN_SIGMA:
        raise ValueError(f"operator not bounded below on the window: sigma_min={s_min:.3e} < {DEFAULT_MIN_SIGMA}")
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
        if not asserted_any:
            skipped += 1

    violations = sum(a["n_violations"] for a in agg)
    skip_fraction = skipped / n_trials
    verdict = VERDICT_PASS if violations == 0 and skip_fraction <= MAX_SKIP_FRACTION else VERDICT_FAIL
    return ExperimentReport(
        experiment="index_semicontinuity",
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

def random_zero_sets(n_sets: int, seed: int, max_size: int = ZERO_SET_MAX_SIZE,
                     radius: float = ZERO_SET_RADIUS, min_separation: float = 1e-2) -> list[list[complex]]:
    """Seeded random zero sets in the given disc, with enforced separation.

    Raises ValueError when a set is not complete after ZERO_SET_DRAWS
    candidate points, as when min_separation cannot be met in the disc.
    """
    sets = []
    for i in range(n_sets):
        rng = stream(seed, TAG_ZERO_SETS, i)
        size = int(rng.integers(1, max_size + 1))
        points: list[complex] = []
        draws = 0
        while len(points) < size:
            if draws == ZERO_SET_DRAWS:
                raise ValueError(f"zero set {i}: {size} points at min_sep {min_separation} not found "
                                 f"in {ZERO_SET_DRAWS} draws")
            draws += 1
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if abs(z) > radius:
                continue
            if any(abs(z - q) < min_separation for q in points):
                continue
            points.append(z)
        sets.append(points)
    return sets


@one_blas_thread
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
        if len(zs) > ZERO_SET_MAX_SIZE:
            raise ValueError(f"zero set {i} has more than {ZERO_SET_MAX_SIZE} points")
        if any(abs(z) > ZERO_SET_RADIUS for z in zs):
            raise ValueError(f"zero set {i} leaves the {ZERO_SET_RADIUS} disc")
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
        per_step=per_step,
        fitted_slope=None,
        metrics={"all_indices_one": ok},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )

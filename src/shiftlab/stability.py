"""Perturbation generators and stability / semicontinuity experiments.

Every experiment is a pure function of its configuration. Random
directions come from named Philox streams keyed by (seed, experiment tag,
trial, step), so a re-run reproduces per-step metrics bit for bit; the
drivers run BLAS on one thread (`_blas`), so neither OPENBLAS_NUM_THREADS
nor the core count moves a bit. What depends only on the operator and the
roots (norm stability's chain span) is built once per run, not per step.

Perturbation kinds, one per driver: dense_random (norm_stability_run)
adds to the dense adjoint truncation a Gaussian direction of prescribed
operator norm; weight_jitter (semicontinuity_run, through perturb)
multiplies each weight on the window's support by (1 + delta_n) with
|delta_n| small enough to keep the operator norm change below epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
    DEFAULT_RANK_TOL,
    InvarianceError,
    RankDeficiencyError,
    SubspaceBasis,
    chain_reference_basis,
    kernel_of_polynomial,
    projection_distance,
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
ZERO_SET_DRAW_SEPARATION = 1e-2  # least distance between drawn points, not the ill-conditioning flag
# Candidate points random_zero_sets draws for one set before it gives up; at
# min_separation 0.5, seeds 0-20 need at most 71 for the 50 default sets.
ZERO_SET_DRAWS = 10_000


@dataclass(frozen=True)
class PerturbationPlan:
    """What to perturb with, how strongly, and from which seed."""

    kind: str
    epsilon_schedule: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "epsilon_schedule", tuple(float(e) for e in self.epsilon_schedule))
        if not all(0 < e < math.inf for e in self.epsilon_schedule):
            raise ValueError("eps: epsilon schedule entries must be positive and finite")
        if any(b >= a for a, b in zip(self.epsilon_schedule, self.epsilon_schedule[1:])):
            raise ValueError("eps: epsilon schedule must be strictly decreasing")


def _require_kind(plan: PerturbationPlan, kind: str, driver: str) -> None:
    """Reject a plan of another kind before the driver's first step."""
    if plan.kind != kind:
        raise ValueError(f"{driver} needs a {kind!r} plan, got kind {plan.kind!r}")


def perturb(T: OperatorWindow, plan: PerturbationPlan, epsilon: float,
            stream_tags: tuple[int, ...] = ()) -> OperatorWindow:
    """Jitter the weights of T: the window S, with ||S - T|| <= epsilon.

    stream_tags select the random substream (trial and step indices);
    the same (plan.seed, stream_tags) always yields the same jitter. Only
    the entries on the support move, at most one per row and column, so
    ||S - T|| is the largest entry change, at most epsilon; S shares T's
    support, unchecked.
    """
    _require_kind(plan, "weight_jitter", "perturb")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    rng = stream(plan.seed, TAG_JITTER, *stream_tags)
    norm_T = float(np.max(np.abs(T.entries)))
    delta_n = rng.uniform(-epsilon / norm_T, epsilon / norm_T, size=len(T.entries))
    return OperatorWindow(T.support, T.entries * (1.0 + delta_n))


# -- norm-stability experiment ---------------------------------------------------

def _dense_step(A0: np.ndarray, seed: int, epsilon: float, j: int) -> tuple[np.ndarray, float]:
    """S = A0 + epsilon G, G Gaussian of unit 2-norm from stream (seed, dense, stability, j), and ||S - A0||_2."""
    G = complex_gaussian(stream(seed, TAG_DENSE, TAG_STABILITY, j), A0.shape)
    G /= np.linalg.norm(G, 2)
    S = A0 + epsilon * G
    return S, float(np.linalg.norm(S - A0, 2))


@one_blas_thread
def norm_stability_run(w: WeightSequence, p_roots, plan: PerturbationPlan,
                       N: int) -> ExperimentReport:
    """Reconstruction distance against perturbation size, with slope fit.

    Builds the chain span of p_roots once (chain_reference_basis); then for
    each epsilon adds a dense Gaussian direction to the square adjoint
    truncation (plan.kind must be dense_random), takes the kernel of p(S)
    and records its projection distance to that span. Dependent chain
    vectors fail every step, each still perturbed for its delta_norm.
    Verdict: pass when no step failed, the log-log slope lies in [0.9, 1.1]
    and the final distance is at most 10 times the smallest epsilon.
    """
    _require_kind(plan, "dense_random", "norm_stability_run")
    roots = [complex(r) for r in p_roots]
    A0 = adjoint_window_square(w, N)
    try:
        reference, error = chain_reference_basis(w, roots, N), None
    except RankDeficiencyError as exc:
        reference, error = None, str(exc)
    per_step: list[dict] = []
    for j, eps in enumerate(plan.epsilon_schedule):
        S, delta_norm = _dense_step(A0, plan.seed, eps, j)
        entry: dict = {"epsilon": eps, "delta_norm": delta_norm}
        if reference is None:
            entry.update(distance=None, error=error)
        else:
            ker = kernel_of_polynomial(S, roots)
            entry["distance"] = projection_distance(ker.basis, reference)
            entry["kernel_sigma"] = float(np.max(ker.kernel_singular_values))
        per_step.append(entry)

    distances = [entry["distance"] for entry in per_step if entry["distance"] is not None]
    slope = fit_loglog_slope(plan.epsilon_schedule, distances) if distances else None
    if not distances:  # a failed step, or an empty schedule
        verdict = VERDICT_FAIL
    elif slope is None:
        verdict = VERDICT_INCONCLUSIVE
    elif (SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
          and distances[-1] <= FINAL_DISTANCE_FACTOR * plan.epsilon_schedule[-1]):
        verdict = VERDICT_PASS
    else:
        verdict = VERDICT_FAIL
    return ExperimentReport(
        experiment="norm_stability",
        per_step=per_step,
        fitted_slope=slope,
        metrics={"failures": len(per_step) - len(distances), "final_distance": distances[-1] if distances else None},
        verdict=verdict,
    )


# -- index semicontinuity experiment ----------------------------------------------

@one_blas_thread
def semicontinuity_run(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
                       plan: PerturbationPlan, n_trials: int,
                       rank_tol: float = DEFAULT_RANK_TOL) -> ExperimentReport:
    """Check the lower-semicontinuity direction of the relative index.

    The candidate subspace for each perturbed operator is the original one.
    The trial x step loop only records each step's invariance defect and
    index; the rows, counts and verdict are computed once from those arrays.
    A step is asserted when its defect is at most DEFAULT_INVARIANCE_TOL, and
    a trial with no asserted step is skipped. plan.kind must be weight_jitter
    (see perturb). sigma_min(T) is read from the support
    (T.singular_value_range): 0 when a column has no support position. M_out
    must carry its orthogonal complement (see rel_index).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    _require_kind(plan, "weight_jitter", "semicontinuity_run")
    s_min = T.singular_value_range[0]
    if s_min < DEFAULT_MIN_SIGMA:
        raise ValueError(f"operator not bounded below on the window: sigma_min={s_min:.3e} < {DEFAULT_MIN_SIGMA}")
    base = rel_index(T, M_in, M_out, tol=rank_tol)

    steps = plan.epsilon_schedule
    defect = np.zeros((n_trials, len(steps)))
    index = np.zeros((n_trials, len(steps)), dtype=int)
    for t in range(n_trials):
        for j, eps in enumerate(steps):
            S = perturb(T, plan, eps, stream_tags=(TAG_SEMICONT, t, j))
            try:
                res = rel_index(S, M_in, M_out, tol=rank_tol, invariance_tol=DEFAULT_INVARIANCE_TOL)
                defect[t, j], index[t, j] = res.defect, res.index
            except InvarianceError as exc:
                defect[t, j] = exc.defect

    asserted = defect <= DEFAULT_INVARIANCE_TOL  # rel_index raises only above the tolerance
    held = [column[ok].tolist() for column, ok in zip(index.T, asserted.T)]
    per_step = [
        {"epsilon": eps, "n_asserted": len(h), "n_violations": sum(i < base.index for i in h),
         "max_defect": float(top), "min_index": min(h, default=None), "max_index": max(h, default=None)}
        for eps, h, top in zip(steps, held, defect.max(axis=0))
    ]
    violations = sum(row["n_violations"] for row in per_step)
    skipped = int((~asserted.any(axis=1)).sum())
    skip_fraction = skipped / n_trials
    verdict = VERDICT_PASS if violations == 0 and skip_fraction <= MAX_SKIP_FRACTION else VERDICT_FAIL
    return ExperimentReport(
        experiment="index_semicontinuity",
        per_step=per_step,
        fitted_slope=None,
        metrics={"base_index": base.index, "violations": violations, "skipped_trials": skipped,
                 "skip_fraction": skip_fraction},
        verdict=verdict,
    )


# -- zero-based index sweep ---------------------------------------------------------

def random_zero_sets(n_sets: int, seed: int, max_size: int = ZERO_SET_MAX_SIZE, radius: float = ZERO_SET_RADIUS,
                     min_separation: float = ZERO_SET_DRAW_SEPARATION) -> list[list[complex]]:
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
                raise ValueError(f"zero set {i}: {size} points at min_separation {min_separation} not found "
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
def beurling_index_sweep(zero_sets, N: int, rank_tol: float = DEFAULT_RANK_TOL) -> ExperimentReport:
    """Relative index of the unweighted shift over zero-based subspaces.

    Every index should equal 1 with a large singular-value gap. Sets with
    nearly coincident points (pairwise distance below 1e-3) are flagged as
    ill conditioned. Once every row is recorded, the verdict reads the rows
    not flagged; a sweep with none left to assert fails, since it checked nothing.
    """
    w = WeightSequence.preset("unweighted")
    T = shift_window(w, N)
    per_step = []
    for i, zeros in enumerate(zero_sets):
        zs = [complex(z) for z in zeros]
        if len(zs) > ZERO_SET_MAX_SIZE:
            raise ValueError(f"zeros: zero set {i} has more than {ZERO_SET_MAX_SIZE} points")
        if any(abs(z) > ZERO_SET_RADIUS for z in zs):
            raise ValueError(f"zeros: zero set {i} leaves the {ZERO_SET_RADIUS} disc")
        if len(set(zs)) != len(zs):
            raise ValueError(f"zeros: zero set {i} has a repeated point")
        min_sep = min((abs(a - b) for a, b in combinations(zs, 2)), default=math.inf)
        M_in = vanishing_subspace(zs, N)
        M_out = vanishing_subspace(zs, N + 1)
        res = rel_index(T, M_in, M_out, tol=rank_tol)
        per_step.append({
            "set_index": i,
            "zeros": zs,
            "index": res.index,
            "gap": res.gap,
            "defect": res.defect,
            "ill_conditioned": min_sep < ZERO_SET_MIN_SEPARATION,
        })

    checked = [step for step in per_step if not step["ill_conditioned"]]
    ok = bool(checked) and all(step["index"] == 1 and step["gap"] >= INDEX_GAP_FLOOR for step in checked)
    return ExperimentReport(
        experiment="beurling_index_sweep",
        per_step=per_step,
        fitted_slope=None,
        metrics={"all_indices_one": ok},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )

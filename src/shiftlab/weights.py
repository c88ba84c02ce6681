"""Weight sequences for unilateral shifts.

A weight sequence holds two coupled objects: the space weight omega(n) >= 1
and the shift weights alpha_n that the operator actually applies. For the
ratio-defined kinds (unweighted, quasianalytic_sqrt, explicit) the relation
is alpha_n = omega(n+1)/omega(n). The bergman preset is stored through its
shift weights alpha_n = sqrt((n+1)/(n+2)) directly, and omega(n) is the
reciprocal running product 1/pi_n = sqrt(n+1), which keeps omega >= 1.

Classification checks the quasianalyticity hypothesis bundle: a regularity
check on omega(n)^(1/n), log-convexity of omega against log n, concavity of
log(omega(n) (1+n)^(-s)) on an integer tail, and a finite-sample divergence
verdict for sum log omega(n) / (n^(3/2) + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PRESET_KINDS = ("unweighted", "bergman", "quasianalytic_sqrt")
KINDS = PRESET_KINDS + ("explicit",)

MIN_RADIUS_WINDOW = 64
CLASSIFY_CHECKPOINTS = (64, 256, 1024, 4096)
CLASSIFY_S_VALUES = (1, 2, 3)
DIVERGENCE_SLOPE_THRESHOLD = 0.1
DECAY_RATIO_THRESHOLD = 0.9
FLAT_SUM_TOL = 1e-9
SECOND_DIFF_TOL = 1e-9


class WeightDataError(ValueError):
    """Raised when an explicit weight table fails a check or cannot cover a requested index."""


@dataclass(frozen=True)
class WeightSequence:
    """A weight function omega on the nonnegative integers plus shift weights.

    kind is one of "unweighted", "bergman", "quasianalytic_sqrt" or
    "explicit". Explicit sequences carry their omega table; presets are
    closed-form. All values are dimensionless and omega(n) >= 1.
    """

    kind: str
    explicit_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "explicit":
            if self.explicit_values is None:
                raise ValueError("explicit weight sequence requires explicit_values")
            vals = np.array(self.explicit_values, dtype=float)  # a read-only copy, checked once
            if vals.ndim != 1 or len(vals) < 2:
                raise WeightDataError("weight: a table needs one column of at least two values")
            if not np.all(np.isfinite(vals)):
                bad = int(np.argmin(np.isfinite(vals)))
                raise WeightDataError(f"weight: omega({bad}) = {vals[bad]} is not finite")
            if np.any(vals < 1.0 - 1e-12):
                bad = int(np.argmax(vals < 1.0 - 1e-12))
                raise WeightDataError(f"weight: omega({bad}) = {vals[bad]} violates omega >= 1")
            if abs(vals[0] - 1.0) > 1e-9:
                raise WeightDataError(f"weight: omega(0) must be 1.0, got {vals[0]}")
            vals.setflags(write=False)
            object.__setattr__(self, "explicit_values", vals)
        elif self.explicit_values is not None:
            raise ValueError("explicit_values only apply to kind='explicit'")

    @property
    def max_index_hint(self) -> int | None:
        """Largest n with omega(n) in the explicit table; None for presets."""
        return None if self.explicit_values is None else len(self.explicit_values) - 1

    # -- construction helpers -------------------------------------------------

    @classmethod
    def preset(cls, name: str) -> "WeightSequence":
        if name not in PRESET_KINDS:
            raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_KINDS}")
        return cls(kind=name)

    @classmethod
    def from_values(cls, values) -> "WeightSequence":
        return cls(kind="explicit", explicit_values=values)

    @classmethod
    def from_file(cls, path) -> "WeightSequence":
        """Load an explicit table: one omega(n) per line, line number = n.

        Blank lines after the last value are ignored; a blank line before
        it would shift every later index. It and a line that is not a plain
        decimal are the errors that name the path; __post_init__ checks values.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        vals = []
        for i, line in enumerate(lines):
            text = line.strip()
            if not text:
                raise WeightDataError(f"weight: {path}: line {i} is blank; line number n must hold omega(n)")
            try:
                value = float(text)
            except ValueError as exc:
                raise WeightDataError(f"weight: {path}: line {i} is not a plain decimal: {text!r}") from exc
            vals.append(value)
        return cls.from_values(vals)

    def log_omega_array(self, count: int) -> np.ndarray:
        """log omega(0) .. log omega(count-1); the only per-kind formula."""
        if self.kind == "explicit" and count - 1 > self.max_index_hint:
            raise WeightDataError(
                f"weight: index {count - 1} beyond explicit data (max_index_hint={self.max_index_hint})"
            )
        n = np.arange(count, dtype=float)
        if self.kind == "unweighted":
            return np.zeros(count)
        if self.kind == "bergman":
            return 0.5 * np.log(n + 1.0)
        if self.kind == "quasianalytic_sqrt":
            return np.sqrt(n)
        return np.log(self.explicit_values[:count])

    def log_alpha_array(self, count: int) -> np.ndarray:
        """log alpha_0 .. log alpha_{count-1}: increments of log omega.

        Bergman stores omega as the reciprocal running product, so its
        increments are negated.
        """
        increments = np.diff(self.log_omega_array(count + 1))
        return -increments if self.kind == "bergman" else increments

    def alpha_array(self, count: int) -> np.ndarray:
        """alpha_0 .. alpha_{count-1}."""
        return np.exp(self.log_alpha_array(count))

    def log_pi_array(self, count: int) -> np.ndarray:
        """log pi_0 .. log pi_count (length count + 1)."""
        return np.concatenate([[0.0], np.cumsum(self.log_alpha_array(count))])

    def log_pi(self, n: int) -> float:
        """log of pi_n = prod_{k<n} alpha_k, accumulated in log space."""
        return float(self.log_pi_array(n)[n])

    def r_point(self, N: int) -> float:
        """(pi_N)^(1/N), the growth rate that decides which adjoint eigenvectors are l2."""
        return math.exp(self.log_pi(N) / N)

    def check_alpha_bounds(self, count: int) -> tuple[float, float]:
        """Verify 0 < inf alpha <= sup alpha < inf over [0, count); return (min, max)."""
        a = self.alpha_array(count)
        lo, hi = float(np.min(a)), float(np.max(a))
        if not (lo > 0.0 and np.isfinite(hi)):
            raise ValueError(f"shift weights out of bounds on [0, {count}): min={lo}, max={hi}")
        return lo, hi


# -- spectral radius surrogates ----------------------------------------------

@dataclass(frozen=True)
class RadiusEstimates:
    """Finite-window estimates of the radii attached to a weighted shift.

    r_point is (pi_N)^(1/N), the growth rate that decides which adjoint
    eigenvectors are square-summable. r_spec and r0 are the max and min of
    geometric means of alpha over sliding windows of length window_len;
    they estimate the outer and inner radius of the essential spectrum.
    """

    r_point: float
    r_spec: float
    r0: float
    window_len: int


def radius_estimates(w: WeightSequence, N: int, window_len: int | None = None) -> RadiusEstimates:
    """Sliding-window radius estimates over alpha_0 .. alpha_{N-1}.

    The default window length floor(sqrt(N)) trades bias against variance;
    short windows track local weight structure, long windows converge slowly
    for weights with a long initial transient (e.g. bergman).
    """
    if N < MIN_RADIUS_WINDOW:
        raise ValueError(f"radius estimates need N >= {MIN_RADIUS_WINDOW}, got {N}")
    L = window_len if window_len is not None else int(math.isqrt(N))
    if not 1 <= L <= N:
        raise ValueError(f"window_len must lie in [1, N], got {L}")
    logpi = w.log_pi_array(N)
    means = (logpi[L:] - logpi[:-L]) / L
    return RadiusEstimates(
        r_point=w.r_point(N),
        r_spec=float(np.exp(np.max(means))),
        r0=float(np.exp(np.min(means))),
        window_len=L,
    )


# -- classification ------------------------------------------------------------

@dataclass
class ClassificationReport:
    regular: bool
    log_convex_tail: bool
    tail_start: int
    omega_s_concave: dict[int, bool]
    quasianalytic_partial_sums: list[tuple[int, float]]
    divergence_verdict: str
    shields_hypotheses_met: bool
    fit_slope: float
    increment_ratios: list[float]
    alpha_range: tuple[float, float]


def _second_differences(y: np.ndarray) -> np.ndarray:
    return y[2:] + y[:-2] - 2.0 * y[1:-1]

def _divided_second_differences(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
    right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
    return right - left


def _divergence_verdict(sums: list[float], points: list[int]) -> tuple[str, float, list[float]]:
    """Three-way finite-sample verdict for sum log omega(n)/(n^(3/2)+1).

    Divergence of an infinite series is undecidable from finitely many
    terms; this is the declared heuristic. Flat partial sums converge.
    Checkpoint increments that decay geometrically (ratio <= 0.9) indicate
    a summable tail and give "converges". Otherwise a least-squares slope
    of S_N against log N at or above 0.1 gives "diverges", and anything
    left is "inconclusive".
    """
    s = np.asarray(sums, dtype=float)
    slope = 0.0
    if len(s) >= 2:
        slope = float(np.polyfit(np.log(points), s, 1)[0])
    increments = np.diff(s)
    ratios = []
    for i in range(1, len(increments)):
        if increments[i - 1] > FLAT_SUM_TOL:
            ratios.append(float(increments[i] / increments[i - 1]))
    if len(s) < 2:
        return "inconclusive", slope, ratios
    if s[-1] - s[0] <= FLAT_SUM_TOL:
        return "converges", slope, ratios
    if ratios and all(r <= DECAY_RATIO_THRESHOLD for r in ratios):
        return "converges", slope, ratios
    if slope >= DIVERGENCE_SLOPE_THRESHOLD:
        return "diverges", slope, ratios
    return "inconclusive", slope, ratios


def classify(w: WeightSequence, N: int) -> ClassificationReport:
    """Check the quasianalyticity hypothesis bundle on the window [0, N].

    Log-convexity is the condition that log omega is convex as a function
    of log n (the continuous-extension form); it is checked through divided
    second differences against log n on the tail [N // 2, N]. The omega_s
    checks (s in CLASSIFY_S_VALUES) test concavity of log(omega(n) (1+n)^(-s))
    on the same tail, which is the form the convolution estimates actually
    consume; plain concavity of omega_s itself fails even for
    omega = exp(sqrt(n)).
    """
    if N < MIN_RADIUS_WINDOW:
        raise ValueError(f"classification needs N >= {MIN_RADIUS_WINDOW}, got {N}")

    log_omega = w.log_omega_array(N + 1)
    n = np.arange(N + 1, dtype=float)

    # regularity: alpha bounds plus omega(n)^(1/n) -> 1 trend
    alpha_range = w.check_alpha_bounds(N)
    probes = (N // 4, N // 2, N)
    dist = [abs(math.expm1(log_omega[p] / p)) for p in probes]
    regular = dist[-1] <= dist[0] + 1e-12 and dist[-1] <= 0.2

    # log-convexity against log n on the tail
    tail = np.arange(N // 2, N + 1)
    d2 = _divided_second_differences(np.log(n[tail]), log_omega[tail])
    log_convex_tail = bool(np.all(d2 >= -SECOND_DIFF_TOL))

    # concavity of log omega_s on the tail, per shifted exponent s
    omega_s_concave: dict[int, bool] = {}
    for s in CLASSIFY_S_VALUES:
        h = log_omega[tail] - s * np.log1p(n[tail])
        omega_s_concave[s] = bool(np.all(_second_differences(h) <= SECOND_DIFF_TOL))

    # quasianalytic partial sums at CLASSIFY_CHECKPOINTS
    pts = [p for p in CLASSIFY_CHECKPOINTS if p <= N]
    if not pts or pts[-1] != N:
        pts.append(N)
    summand = log_omega / (n ** 1.5 + 1.0)
    csum = np.cumsum(summand)
    sums = [float(csum[p]) for p in pts]
    verdict, slope, ratios = _divergence_verdict(sums, pts)

    bundle = regular and log_convex_tail and all(omega_s_concave.values()) and verdict == "diverges"
    return ClassificationReport(
        regular=regular,
        log_convex_tail=log_convex_tail,
        tail_start=N // 2,
        omega_s_concave=omega_s_concave,
        quasianalytic_partial_sums=list(zip(pts, sums)),
        divergence_verdict=verdict,
        shields_hypotheses_met=bundle,
        fit_slope=slope,
        increment_ratios=ratios,
        alpha_range=alpha_range,
    )


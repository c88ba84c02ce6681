"""Finite windows of weighted shifts and adjoint Jordan chains.

The shift window is rectangular by design: it maps coordinates 0..N-1
into 0..N exactly, so it carries no truncation error. Edge effects are
confined to explicitly reported tail bounds. A window is its support and
the entries on it, with no dense matrix; the adjoint is a dense square
truncation (a plain array, inexact on its last row) for polynomial
evaluation and dense perturbation experiments.

Chain vectors follow the normalization that f_{lam,k} has k-1 leading
zeros and a real positive leading coordinate, which makes the coefficients
depend on the weights alone and keeps reconstructions reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightSequence


@dataclass(frozen=True, eq=False)
class Support:
    """Positions (rows[k], cols[k]) in a window of `shape`, at most one per row and one per column.

    Checked once, here (O(N)), on read-only copies of the index arrays, so windows that share it trust it.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows, cols = (np.array(a, dtype=np.intp) for a in (self.rows, self.cols))
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("support must be two index arrays of equal length")
        for idx, size, name in ((rows, self.shape[0], "row"), (cols, self.shape[1], "column")):
            if len(idx) and (idx.min() < 0 or idx.max() >= size or np.bincount(idx).max() > 1):
                raise ValueError(f"support {name} indices must be distinct and in [0, {size})")
            idx.flags.writeable = False
        for name, value in (("shape", tuple(self.shape)), ("rows", rows), ("cols", cols)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class OperatorWindow:
    """A complex matrix of support.shape: entries[k] at (support.rows[k], support.cols[k]), zeros elsewhere.

    The window owns a read-only copy of its entries, one per support position,
    and never builds the dense array. Windows compare by identity.
    """

    support: Support
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != self.support.rows.shape:
            raise ValueError("entries must hold one value per support position")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def singular_value_range(self) -> tuple[float, float]:
        """(min, max) singular value of the window.

        T* T = diag(|s_j|^2), so the singular values are the |s_j| on the
        support, and 0 for each column off it.
        """
        mags = np.abs(self.entries)
        return (float(mags.min()) if len(mags) == self.support.shape[1] else 0.0), float(mags.max(initial=0.0))


def shift_window(w: WeightSequence, N: int) -> OperatorWindow:
    """(N+1) x N window of the shift: column n carries alpha_n at row n+1."""
    if N < 1:
        raise ValueError("shift window needs N >= 1")
    cols = np.arange(N)  # a checked weight keeps every alpha_n > 0
    return OperatorWindow(Support((N + 1, N), cols + 1, cols), w.alpha_array(N))


def adjoint_window_square(w: WeightSequence, N: int) -> np.ndarray:
    """N x N truncation of the adjoint (superdiagonal alpha_0 .. alpha_{N-2}), as a dense matrix.

    Exact on every row but the last; the matrix of the norm-stability
    step, which evaluates p as a product of factors and perturbs densely.
    """
    if N < 2:
        raise ValueError("square adjoint window needs N >= 2")
    return np.diag(w.alpha_array(N - 1).astype(np.complex128), 1)


# -- Jordan chains -------------------------------------------------------------

@dataclass
class JordanChain:
    """Vectors f_1 .. f_m with (T* - lam) f_{k+1} = f_k and (T* - lam) f_1 = 0, for jordan_chain's lam.

    residuals[k] is the window norm of the defect in link k (k = 0 checks
    the eigen equation). tail_bound bounds the squared l2 mass of the last
    vector beyond the window, under the majorization
    pi_n >= pi_N r_point^(n-N): it is the sum of the majorized series in
    closed form, rounded up by a bound on its rounding error. It is
    infinite, and l2_member False, when |lam| >= r_point.
    """

    vectors: list[np.ndarray]
    residuals: list[float]
    tail_bound: float
    l2_member: bool
    r_point: float


def _log_binom(n: np.ndarray, j: int) -> np.ndarray:
    """log C(n, j) elementwise, for float n >= j."""
    out = np.zeros(len(n))
    for i in range(1, j + 1):
        out += np.log((n - j + i) / i)
    return out


def _tail_bound(w: WeightSequence, lam: complex, k: int, N: int, r_point: float) -> float:
    """Sum over n >= N of t_n = (C(n, j) |lam|^(n-j) / (pi_N r^(n-N)))^2, j = k-1, r = r_point, rounded up.

    t_n bounds |f_{k,n}|^2 under the majorization pi_n >= pi_N r^(n-N)
    beyond the window, which is assumed, not checked. With y = (|lam|/r)^2,
    C(n, j)^2 = sum_a C(j, a)^2 C(n+a, 2j) and
    sum_{p >= M} C(p, s) y^p = y^M sum_i C(M, s-i) y^i / (1-y)^(i+1) make
    the sum the (j+1)(2j+1) positive terms, 0 <= a <= j and 0 <= i <= 2j,
    C(j, a)^2 C(N+a, 2j-i) |lam|^(2(N-j)) y^i / (pi_N^2 (1-y)^(i+1)),
    summed in log space at O(k^2) cost for every lam and N (the binomial
    is 0 when 2j - i > N + a). 1 - y = -x (2 + x), x = |lam|/r - 1, keeps
    its relative precision as y -> 1. The sum is rounded up by a bound on
    its own rounding error, at least 5e-11, which also covers float
    evaluations of the series (their error reaches 1e-12); it is at least
    the smallest normal float, and infinite when |lam| >= r or on overflow.
    """
    if lam == 0:
        return 0.0
    x = (abs(lam) - r_point) / r_point
    if x >= 0.0:
        return math.inf
    j = k - 1
    log_a, log_r, log_pi_N = math.log(abs(lam)), math.log(r_point), w.log_pi(N)
    log_1my = math.log(-x * (2.0 + x))
    # log n! for n in [N - 2j, N + j], +inf where n < 0 so a zero binomial gives a zero term, and for n in [0, 2j]
    lf_N = np.array([math.lgamma(n + 1) if n >= 0 else math.inf for n in range(N - 2 * j, N + j + 1)])
    lf_2j = np.array([math.lgamma(n + 1) for n in range(2 * j + 1)])
    i = np.arange(2 * j + 1)
    rows = 2.0 * (lf_2j[j] - lf_2j[:j + 1] - lf_2j[j::-1]) + lf_N[2 * j:]  # a = 0..j
    cols = 2.0 * ((N - j) * log_a - log_pi_N) + 2.0 * (log_a - log_r) * i - (i + 1) * log_1my - lf_2j[::-1]
    log_terms = rows[:, None] + cols - lf_N[np.add.outer(i[:j + 1], i)]
    peak = float(log_terms.max())
    log_sum = peak + math.log(float(np.sum(np.exp(log_terms - peak))))
    # a log term adds 2 entries of lf_N, 7 of lf_2j and the scalars, each off by a few eps of its
    # magnitude, so it is off by a few eps of their sum; adding the terms costs eps per term
    error = 16.0 * math.ulp(1.0) * (
        2.0 * lf_N[-1] + 7.0 * lf_2j[-1] + 2.0 * (N + 2 * j) * (abs(log_a) + abs(log_r)) + 2.0 * abs(log_pi_N)
        + (2 * j + 1) * (abs(log_1my) + 1.0) + log_terms.size)
    try:
        return max(math.exp(log_sum + max(error, 5e-11)), 2.0 ** -1022)
    except OverflowError:
        return math.inf


def _link_residual(w: WeightSequence, lam: complex, f_next: np.ndarray, f_prev: np.ndarray | None) -> float:
    """Window norm of (T* - lam) f_next - f_prev on rows 0..N-2, where (T* f)_n = alpha_n f_{n+1}."""
    y = w.alpha_array(len(f_next) - 1) * f_next[1:] - lam * f_next[:-1]
    if f_prev is not None:
        y = y - f_prev[:-1]
    return float(np.linalg.norm(y))


def _chain_rows(log_pi: np.ndarray, log_abs: float, unit: np.ndarray, k: int, N: int) -> np.ndarray:
    """f_{lam,k} for lam = exp(log_abs) unit, one row per unit phase.

    pi_n f_{k,n} = C(n, k-1) lam^(n-k+1), zero for n < k-1. |f_{k,n}| is
    formed in log space, so long windows neither overflow nor underflow
    before the final exp, and the phase unit^(n-k+1) by a running product,
    which keeps real and imaginary lam exact on their axes.
    """
    n = np.arange(k - 1, N, dtype=float)
    log_mag = _log_binom(n, k - 1) + (n - (k - 1)) * log_abs - log_pi[k - 1:]
    factors = np.ones((len(unit), N - k + 1), dtype=np.complex128)
    factors[:, 1:] = unit[:, None]
    rows = np.zeros((len(unit), N), dtype=np.complex128)
    rows[:, k - 1:] = np.exp(log_mag) * np.cumprod(factors, axis=1)
    return rows


def _chain(w: WeightSequence, lam: complex, m: int, N: int) -> JordanChain:
    """Closed-form chain from _chain_rows; lam = 0 gives f_k = e_{k-1} / pi_{k-1}.

    Raises ValueError, naming lam and N, when a vector, its norm or a link
    residual overflows to a non-finite value.
    """
    log_pi = w.log_pi_array(N - 1)
    vectors: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m + 1):
            if lam == 0:
                f = np.zeros(N, dtype=np.complex128)
                f[k - 1] = math.exp(-log_pi[k - 1])
            else:
                f = _chain_rows(log_pi, math.log(abs(lam)), np.array([lam / abs(lam)]), k, N)[0]
            vectors.append(f)

        residuals = [_link_residual(w, lam, vectors[0], None)]
        for k in range(1, m):
            residuals.append(_link_residual(w, lam, vectors[k], vectors[k - 1]))
        finite = np.isfinite([np.linalg.norm(f) for f in vectors] + residuals).all()
    if not finite:
        raise ValueError(f"the chain overflows for lam={lam} on the window N={N}: "
                         "a vector, its norm or a link residual is not finite")

    r_point = w.r_point(N)
    return JordanChain(
        vectors=vectors,
        residuals=residuals,
        tail_bound=_tail_bound(w, lam, m, N, r_point),
        l2_member=bool(abs(lam) < r_point),
        r_point=r_point,
    )


def _check_chain_size(m: int, N: int) -> None:
    if m < 1:
        raise ValueError("chain length m must be >= 1")
    if N < m + 2:
        raise ValueError(f"window too small: need N >= m + 2 = {m + 2}, got {N}")


def jordan_chain(w: WeightSequence, lam: complex, m: int, N: int) -> JordanChain:
    """Adjoint Jordan chain f_{lam,1} .. f_{lam,m} on a window of dimension N.

    f_{k,n} = C(n, k-1) lam^(n-k+1) / pi_n, so the first k-1 coordinates
    of f_k are zero and the leading one, 1 / pi_{k-1}, is real positive.
    """
    _check_chain_size(m, N)
    return _chain(w, complex(lam), m, N)


def eigenvector_f1(w: WeightSequence, lam: complex, N: int) -> JordanChain:
    """Adjoint eigenvector (1, lam/pi_1, lam^2/pi_2, ...) on a window."""
    if N < 1:
        raise ValueError("window dimension must be >= 1")
    return _chain(w, complex(lam), 1, N)


def chain_continuity_probe(w: WeightSequence, k: int, r: float, steps: int, N: int = 400) -> float:
    """Max norm gap of f_{lam,k} between adjacent points of r * unit circle.

    The discrete modulus of continuity of the chain map along the circle;
    it must shrink as the grid refines, for r below the point-spectrum
    radius estimate. All grid points share |lam| = r, so the chain vectors
    are built together as one (steps + 1) x N array.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    r_point = w.r_point(N)
    if r >= r_point:
        raise ValueError(f"radius {r} is not inside the point-spectrum estimate {r_point:.6g}")
    if r == 0.0:
        return 0.0
    _check_chain_size(k, N)
    unit = np.exp(2j * np.pi * np.arange(steps + 1) / steps)
    rows = _chain_rows(w.log_pi_array(N - 1), math.log(r), unit, k, N)
    return float(np.max(np.linalg.norm(np.diff(rows, axis=0), axis=1)))

"""Finite windows of weighted shifts and adjoint Jordan chains.

The shift window is rectangular by design: it maps coordinates 0..N-1
into 0..N exactly, so it carries no truncation error. Edge effects are
confined to explicitly reported tail bounds. The adjoint comes as a square
truncation, for polynomial evaluation and perturbation experiments, where
a square matrix is needed; its only inexact row is the last one.

Chain vectors follow the normalization that f_{lam,k} has k-1 leading
zeros and a real positive leading coordinate, which makes the coefficients
depend on the weights alone and keeps reconstructions reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightSequence

_TAIL_BLOCK = 1 << 16  # most tail terms, or runs of terms, evaluated per bound


@dataclass(eq=False)
class OperatorWindow:
    """A rows x cols complex matrix acting from C^cols to C^rows.

    `support`, when given, is a pair (rows, cols) of index arrays whose
    positions hold every nonzero entry of the matrix, at most one per row
    and one per column: the shape of a weighted shift, its adjoint, and
    their weight-jittered copies. None means unknown, and every consumer
    then treats the matrix as dense. The builders in this module and
    stability.perturb set it; a window given a support keeps a read-only
    view of its matrix, so the two cannot drift apart through the window.
    Only distinctness and range are checked (O(N)); that the support holds
    every nonzero is the caller's promise. Windows compare by identity.
    """

    matrix: np.ndarray
    support: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise ValueError("window matrix must be 2-dimensional")
        if self.support is not None:
            rows, cols = (np.asarray(a, dtype=np.intp) for a in self.support)
            if rows.ndim != 1 or rows.shape != cols.shape:
                raise ValueError("support must be two index arrays of equal length")
            for idx, size, name in ((rows, self.rows, "row"), (cols, self.cols, "column")):
                if len(idx) and (idx.min() < 0 or idx.max() >= size or np.bincount(idx).max() > 1):
                    raise ValueError(f"support {name} indices must be distinct and in [0, {size})")
            self.support = (rows, cols)
            self.matrix = self.matrix.view()
            self.matrix.flags.writeable = False

    @property
    def singular_value_range(self) -> tuple[float, float] | None:
        """(min, max) singular value when the support has one position in every column, else None.

        Such a window has T* T = diag(|s_j|^2), so its singular values are the |s_j| on the support.
        """
        if self.support is None or len(self.support[1]) != self.cols:
            return None
        mags = np.abs(self.matrix[self.support])
        return float(mags.min()), float(mags.max())

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def _diagonal_support(alpha: np.ndarray, row_offset: int, col_offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (k + row_offset, k + col_offset) of the nonzero alpha_k, in row order."""
    k = np.flatnonzero(alpha)
    return k + row_offset, k + col_offset


def shift_window(w: WeightSequence, N: int) -> OperatorWindow:
    """(N+1) x N window of the shift: column n carries alpha_n at row n+1."""
    if N < 1:
        raise ValueError("shift window needs N >= 1")
    M = np.zeros((N + 1, N), dtype=np.complex128)
    k = np.arange(N)
    alpha = w.alpha_array(N)
    M[k + 1, k] = alpha
    return OperatorWindow(M, support=_diagonal_support(alpha, 1, 0))


def adjoint_window_square(w: WeightSequence, N: int) -> OperatorWindow:
    """N x N truncation of the adjoint (superdiagonal alpha_0 .. alpha_{N-2}).

    Exact on every row but the last; suitable for Horner evaluation of
    polynomials and for dense perturbation experiments. Column 0 is empty,
    so the support never covers every column.
    """
    if N < 2:
        raise ValueError("square adjoint window needs N >= 2")
    M = np.zeros((N, N), dtype=np.complex128)
    k = np.arange(N - 1)
    alpha = w.alpha_array(N - 1)
    M[k, k + 1] = alpha
    return OperatorWindow(M, support=_diagonal_support(alpha, 0, 1))


# -- Jordan chains -------------------------------------------------------------

@dataclass
class JordanChain:
    """Vectors f_1 .. f_m with (T* - lam) f_{k+1} = f_k and (T* - lam) f_1 = 0.

    residuals[k] is the window norm of the defect in link k (k = 0 checks
    the eigen equation). tail_bound bounds the squared l2 mass of the last
    vector beyond the window, under the majorization
    pi_n >= pi_N r_point^(n-N); it is infinite, and l2_member False, when
    |lam| >= r_point.
    """

    lam: complex
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
    """Upper bound on sum_{n >= N} |f_{k,n}|^2 = sum (C(n, k-1) |lam|^(n-k+1) / pi_n)^2.

    Assumes, without checking it, the majorization pi_n >= pi_N r^(n-N)
    beyond the window (r = r_point), so each term is at most
    t_n = (C(n, k-1) |lam|^(n-k+1) / (pi_N r^(n-N)))^2. The ratio
    rho_n = t_{n+1} / t_n = ((n+1)/(n-k+2))^2 q^2, with q = |lam| / r,
    decreases towards q^2, so the series converges exactly when q < 1, and
    t_n rises while rho_n >= 1 and falls after. The geometric remainder
    t_{n_s} / (1 - rho_{n_s}) bounds the series from the first n_s >= N
    with rho_{n_s} <= q on. Below n_s, at most _TAIL_BLOCK terms are summed
    one by one; a longer head is cut into _TAIL_BLOCK runs of L terms, each
    bounded by L times its larger end term, plus L times the peak term for
    the run that holds the peak. So the work is O(_TAIL_BLOCK) for every
    lam, and a bound that overflows is inf.
    """
    q = abs(lam) / r_point
    if q == 0.0:
        return 0.0
    s = q ** -0.5  # rho_n <= q  <=>  (n+1)/(n-k+2) <= s
    if s <= 1.0:  # q >= 1, or too close to 1 to place n_s
        return math.inf
    n_s = max(N, math.ceil((1.0 + s * (k - 2)) / (s - 1.0)))
    rho = ((n_s + 1) / (n_s - k + 2)) ** 2 * q * q
    if rho >= 1.0:
        return math.inf
    log_pi_N, log_r, log_a = w.log_pi(N), math.log(r_point), math.log(abs(lam))

    def log_term(n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return 2.0 * (_log_binom(n, k - 1) + (n - k + 1) * log_a - log_pi_N - (n - N) * log_r)

    run = max(1, -(-(n_s - N) // _TAIL_BLOCK))
    starts = N + run * np.arange(-(-(n_s - N) // run), dtype=float)
    ends = np.minimum(starts + run, n_s) - 1.0
    with np.errstate(over="ignore"):
        if run == 1:
            total = float(np.sum(np.exp(log_term(starts))))
        else:
            runs = np.exp(np.maximum(log_term(starts), log_term(ends))) * (ends - starts + 1.0)
            # the peak is the first n with rho_n < 1; its neighbours absorb rounding
            n_peak = min(max(N + 1, math.floor((q + k - 2) / (1.0 - q)) + 1), n_s - 1)
            peak = float(np.exp(np.max(log_term([n_peak - 1, n_peak, n_peak + 1]))))
            total = float(np.sum(runs)) + run * peak
        return total + float(np.exp(log_term([n_s])[0])) / (1.0 - rho)


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
        lam=lam,
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

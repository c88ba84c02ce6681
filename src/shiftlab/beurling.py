"""Coefficient arithmetic for weighted power series.

Series are finitely supported coefficient vectors measured in the norms
||f||^2 = sum |f_hat(n)|^2 omega(n)^2, optionally against the shifted
weight omega_s(n) = omega(n) (1+n)^(-s). Everything here is coefficientwise
and degree-truncatable, so the function space itself is never materialized.

The empirical batch sweeps (product inequality, division lower bound,
derivative equivalence) are stability checks, not proofs: the contract is
the absence of a blow-up trend under degree doubling. Each sweep reads one
Philox stream (seed, TAG_SERIES, kind) in order: sample i is its draws
[i K, (i+1) K), K = count * 2 * (degree + 1), so a sample does not depend
on the block size and a larger batch only appends samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import TAG_SERIES, stream
from .weights import WeightSequence


@dataclass
class CoefficientSeries:
    """Finitely supported power-series coefficients f_hat(0..d)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        # trim exact trailing zeros; the zero series keeps degree -1
        last = len(c)
        while last > 0 and c[last - 1] == 0:
            last -= 1
        self.coeffs = c[:last]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls) -> "CoefficientSeries":
        return cls(np.zeros(0))

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return out


# -- coefficient-row kernels ------------------------------------------------------
# Each kernel is the only formula for its operation. It acts on the last axis,
# so it takes one coefficient vector or a (samples, length) batch of rows.
# Batch rows are not trimmed; trailing zeros add nothing to a norm.

# Most coefficients per series array in one block of samples, so memory is
# bounded for any batch size and degree.
_BLOCK_COEFFS = 1 << 16


def _cauchy_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy products of a and b row by row, looping over the shorter factor.

    The leading axes broadcast (one p against a batch); an empty factor
    gives an empty product.
    """
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    la, lb = a.shape[-1], b.shape[-1]
    rows = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(rows + (la + lb - 1 if la else 0,), dtype=np.complex128)
    for j in range(la):
        out[..., j:j + lb] += a[..., j, None] * b
    return out


def _derivative_rows(rows: np.ndarray) -> np.ndarray:
    return rows[..., 1:] * np.arange(1, rows.shape[-1])


def _weighted_norms(rows: np.ndarray, w: WeightSequence, s: int = 0) -> np.ndarray:
    """omega_s norm of every row, with one weight vector for the whole batch."""
    n = np.arange(rows.shape[-1], dtype=float)
    weights = np.exp(w.log_omega_array(rows.shape[-1]) - s * np.log1p(n))
    return np.linalg.norm(rows * weights, axis=-1)


def multiply(f: CoefficientSeries, g: CoefficientSeries) -> CoefficientSeries:
    """Cauchy product; degree adds, zero factors give the zero series."""
    return CoefficientSeries(_cauchy_rows(f.coeffs, g.coeffs))


def add(f: CoefficientSeries, g: CoefficientSeries) -> CoefficientSeries:
    n = max(len(f.coeffs), len(g.coeffs))
    return CoefficientSeries(f.padded(n) + g.padded(n))


def _batches(rng: np.random.Generator, n: int, length: int, count: int):
    """Samples 0 .. n-1 read in order from rng, as (count, rows, length)
    blocks of at most max(1, _BLOCK_COEFFS // length) rows.

    A sample draws its count series in order, real parts then imaginary
    parts, each uniform on [-1, 1]. A sample with an exactly zero series is
    dropped; a block left empty is not yielded.
    """
    rows = max(1, _BLOCK_COEFFS // length)
    for start in range(0, n, rows):
        parts = rng.uniform(-1.0, 1.0, (min(rows, n - start), count, 2, length))
        series = (parts[:, :, 0] + 1j * parts[:, :, 1]).transpose(1, 0, 2)
        keep = np.all(np.any(series != 0, axis=-1), axis=0)
        if keep.any():
            yield series[:, keep]


# -- convolution algebra constant ------------------------------------------------

@dataclass
class AlgebraConstantReport:
    """Per-degree convolution kernel sums and their running maxima.

    value is the running maximum at the last degree; kernel_values and
    running_maxima sample the sequence at _sample_grid(N) so convergence
    (or an unbounded trend) is visible.
    """

    value: float
    argmax: int
    kernel_values: list[float]
    running_maxima: list[float]
    unbounded_trend: bool


def _sample_grid(N: int) -> list[int]:
    grid = set(range(0, min(N, 8) + 1))
    p = 16
    while p <= N:
        grid.add(p)
        p *= 2
    grid.add(N)
    return sorted(grid)


def algebra_constant(w: WeightSequence | None, N: int) -> AlgebraConstantReport:
    """Max over n <= N of the Cauchy-Schwarz convolution kernel sum.

    For a weight sequence the summand is (omega(n)/(omega(k) omega(n-k)))^2;
    with w=None the specialized kernel (n+1)^2/((k+1)^2 (n-k+1)^2) is used.
    The square root of the reported value multiplies norms in the product
    inequality; the value itself is a valid (weaker) constant since it
    is >= 1 whenever omega(0) = 1. unbounded_trend marks sums still growing
    at N; the value is then a lower bound only.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    n = np.arange(N + 1, dtype=float)
    if w is None:
        inv_sq = 1.0 / (n + 1.0) ** 2
        scale_sq = (n + 1.0) ** 2
    else:
        log_omega = w.log_omega_array(N + 1)
        inv_sq = np.exp(-2.0 * log_omega)
        scale_sq = np.exp(2.0 * log_omega)
    # sum_k inv_sq[k] inv_sq[n-k] is the self-convolution of inv_sq
    conv = np.convolve(inv_sq, inv_sq)[: N + 1]
    values = scale_sq * conv
    running = np.maximum.accumulate(values)
    argmax = int(np.argmax(values))
    grid = _sample_grid(N)
    half = values[N // 2]
    unbounded = argmax == N and N >= 4 and values[N] >= 1.2 * half
    return AlgebraConstantReport(
        value=float(running[-1]),
        argmax=argmax,
        kernel_values=[float(values[i]) for i in grid],
        running_maxima=[float(running[i]) for i in grid],
        unbounded_trend=bool(unbounded),
    )


# -- product inequality ------------------------------------------------------------

_Z_MINUS_1 = np.array([-1.0 + 0j, 1.0 + 0j])


def _wa_parts(F1: np.ndarray, F2: np.ndarray, w: WeightSequence):
    """Per row, p = z - 1: ||p f1 f2||, ||p f1|| and ||p f2|| in the omega norm."""
    PF1 = _cauchy_rows(_Z_MINUS_1, F1)
    PF2 = _cauchy_rows(_Z_MINUS_1, F2)
    return _weighted_norms(_cauchy_rows(PF1, F2), w), _weighted_norms(PF1, w), _weighted_norms(PF2, w)


def check_wa_batch(w: WeightSequence, degree: int, n_pairs: int, seed: int) -> float:
    """Empirical max of ||p f1 f2|| / (||p f1|| ||p f2||), p = z - 1, over seeded random pairs.

    Pairs with p f1 = 0 or p f2 = 0 are skipped; with none left the max is 0.0.
    """
    worst = 0.0
    for F1, F2 in _batches(stream(seed, TAG_SERIES, 1), n_pairs, degree + 1, 2):
        num, d1, d2 = _wa_parts(F1, F2, w)
        worst = max(worst, float(np.max(num / (d1 * d2))))
    return worst


# -- division by z - 1 --------------------------------------------------------------

def divide_by_z_minus_1(g: CoefficientSeries) -> CoefficientSeries:
    """Coefficients of (g(z) - g(1)) / (z - 1): f_hat(k) = sum_{n > k} g_hat(n).

    A single backward pass; no vanishing condition on g is required since
    g(1) is subtracted internally.
    """
    if g.degree < 1:
        return CoefficientSeries.zero()
    tails = np.cumsum(g.coeffs[::-1])[::-1]
    return CoefficientSeries(tails[1:])


def _wc_ratios(F: np.ndarray, w: WeightSequence) -> np.ndarray:
    """Per row: ||(z-1) f||_omega / ||f||_omega_1."""
    return _weighted_norms(_cauchy_rows(_Z_MINUS_1, F), w) / _weighted_norms(F, w, s=1)


def check_wc_batch(w: WeightSequence, degree: int, n_samples: int, seed: int) -> float:
    """Empirical min of ||(z-1) f||_omega / ||f||_omega_1 over seeded random series.

    Zero series are skipped; with none left the min is inf. The lower bound
    this probes holds when omega_2 increases for large n; that is not
    checked, and the ratio is reported either way.
    """
    best = math.inf
    for (F,) in _batches(stream(seed, TAG_SERIES, 2), n_samples, degree + 1, 1):
        best = min(best, float(np.min(_wc_ratios(F, w))))
    return best


# -- derivative norm equivalence -----------------------------------------------------

def _derivative_sides(F: np.ndarray, w: WeightSequence) -> tuple[np.ndarray, np.ndarray]:
    """Per row: ||f||_omega and |f(0)| + ||f'||_omega_1."""
    return _weighted_norms(F, w), np.abs(F[..., 0]) + _weighted_norms(_derivative_rows(F), w, s=1)


def derivative_probe_batch(w: WeightSequence, degree: int, n_samples: int, seed: int) -> tuple[float, float]:
    """Empirical (min, max) of ||f||_omega / (|f(0)| + ||f'||_omega_1) over
    seeded random series.

    The derivative term is unsquared, the form consistent with scaling
    f -> t f. Zero series are skipped; with none left the result is (inf, 0.0).
    """
    lo, hi = math.inf, 0.0
    for (F,) in _batches(stream(seed, TAG_SERIES, 3), n_samples, degree + 1, 1):
        left, right = _derivative_sides(F, w)
        ratio = left / right
        lo, hi = min(lo, float(np.min(ratio))), max(hi, float(np.max(ratio)))
    return lo, hi

"""Builders that only the tests use: a rectangular adjoint window and a polynomial weight."""

import numpy as np

from shiftlab.operators import OperatorWindow, shift_window
from shiftlab.weights import WeightSequence


def adjoint_window(w: WeightSequence, N: int) -> OperatorWindow:
    """N x (N+1) window of the adjoint: the transpose of shift_window (real weights)."""
    T = shift_window(w, N)
    rows, cols = T.support
    return OperatorWindow(T.matrix.T.copy(), support=(cols, rows))


def polynomial_weight(exponent: float, n_max: int) -> WeightSequence:
    """Explicit sequence omega(n) = (n+1)^exponent, tabulated up to n_max."""
    n = np.arange(n_max + 1, dtype=float)
    return WeightSequence.from_values((n + 1.0) ** exponent)

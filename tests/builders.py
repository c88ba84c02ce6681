"""Builders that only the tests use: windows, a polynomial weight and bases with their complement."""

import numpy as np

from shiftlab.operators import OperatorWindow, shift_window
from shiftlab.subspaces import SubspaceBasis
from shiftlab.weights import WeightSequence


def adjoint_window(w: WeightSequence, N: int) -> OperatorWindow:
    """N x (N+1) window of the adjoint: the transpose of shift_window (real weights)."""
    T = shift_window(w, N)
    rows, cols = T.support
    return OperatorWindow(T.matrix.T.copy(), support=(cols, rows))


def direct_sum(A: OperatorWindow, B: OperatorWindow) -> OperatorWindow:
    """Block-diagonal window A + B, whose support joins the two supports."""
    M = np.zeros((A.rows + B.rows, A.cols + B.cols), dtype=np.complex128)
    M[: A.rows, : A.cols] = A.matrix
    M[A.rows :, A.cols :] = B.matrix
    rows = np.concatenate([A.support[0], B.support[0] + A.rows])
    cols = np.concatenate([A.support[1], B.support[1] + A.cols])
    return OperatorWindow(M, support=(rows, cols))


def basis_with_complement(matrix) -> SubspaceBasis:
    """Orthonormal basis of the span of the columns (full rank), with its complement, from one complete QR."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    Q = np.linalg.qr(matrix, mode="complete")[0]
    k = matrix.shape[1]
    return SubspaceBasis(Q[:, :k], orthonormal=True, complement=Q[:, k:])


def polynomial_weight(exponent: float, n_max: int) -> WeightSequence:
    """Explicit sequence omega(n) = (n+1)^exponent, tabulated up to n_max."""
    n = np.arange(n_max + 1, dtype=float)
    return WeightSequence.from_values((n + 1.0) ** exponent)

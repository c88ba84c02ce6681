"""Builders that only the tests use: windows and their dense matrices, a polynomial weight and bases with their complement."""

import numpy as np

from shiftlab.operators import OperatorWindow, Support, shift_window
from shiftlab.subspaces import SubspaceBasis
from shiftlab.weights import WeightSequence


def dense(T: OperatorWindow) -> np.ndarray:
    """The matrix of a window, a fresh array each call: its entries on its support, zeros elsewhere."""
    M = np.zeros(T.support.shape, dtype=np.complex128)
    M[T.support.rows, T.support.cols] = T.entries
    return M


def window_from_matrix(M, support) -> OperatorWindow:
    """The window of a dense matrix on support (rows, cols); raises ValueError on a nonzero off the support."""
    M = np.asarray(M, dtype=np.complex128)
    supp = Support(M.shape, *support)
    off = M.copy()
    off[supp.rows, supp.cols] = 0.0
    if np.any(off):
        raise ValueError("the matrix has a nonzero off the support")
    return OperatorWindow(supp, M[supp.rows, supp.cols])


def adjoint_window(w: WeightSequence, N: int) -> OperatorWindow:
    """N x (N+1) window of the adjoint: the transpose of shift_window (real weights)."""
    T = shift_window(w, N)
    return window_from_matrix(dense(T).T, (T.support.cols, T.support.rows))


def direct_sum(A: OperatorWindow, B: OperatorWindow) -> OperatorWindow:
    """Block-diagonal window A + B, whose support joins the two supports."""
    (ra, ca), (rb, cb) = A.support.shape, B.support.shape
    M = np.zeros((ra + rb, ca + cb), dtype=np.complex128)
    M[:ra, :ca] = dense(A)
    M[ra:, ca:] = dense(B)
    rows = np.concatenate([A.support.rows, B.support.rows + ra])
    cols = np.concatenate([A.support.cols, B.support.cols + ca])
    return window_from_matrix(M, (rows, cols))


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

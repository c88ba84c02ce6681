"""Subspace bases, projections, the invariance defect and the relative index.

All rank decisions are relative: a singular value counts as nonzero when
it exceeds tol times the largest one, and every index result carries the
gap between the last kept and first dropped singular value so callers can
assert the decision was well conditioned. A window with a weighted-shift
support can certify full rank without an SVD (see rel_index); its gap is
then computed only when read.

rel_index is the invariance check: it takes the codomain subspace
explicitly and reports the defect of T M_in against it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._blas import one_blas_thread
from .beurling import CoefficientSeries
from .operators import OperatorWindow, jordan_chain
from .weights import WeightSequence

DEFAULT_RANK_TOL = 1e-8
DEPENDENCE_TOL = 1e-10


class RankDeficiencyError(ValueError):
    def __init__(self, index: int, residual: float):
        super().__init__(f"basis vector {index} is dependent (residual {residual:.3e})")
        self.index = index
        self.residual = residual


class InvarianceError(ValueError):
    def __init__(self, defect: float, tol: float):
        super().__init__(f"image leaves the target subspace: defect {defect:.3e} > tol {tol:.3e}")
        self.defect = defect
        self.tol = tol


class CyclicityError(ValueError):
    def __init__(self, achieved: int, wanted: int):
        super().__init__(f"Krylov span reached dimension {achieved}, needed {wanted}")
        self.achieved = achieved
        self.wanted = wanted


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Columns of `matrix` span a subspace of C^ambient_dim.

    The basis owns a read-only complex128 copy of the matrix it is given,
    and its fields cannot be reassigned. Results derived from the matrix
    (its orthonormalization, and the orthogonal complement of an orthonormal
    basis) are cached on the instance and can therefore never go stale.
    """

    matrix: np.ndarray
    orthonormal: bool = False
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("basis matrix must be 2-dimensional (ambient x count)")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_vectors(cls, vectors) -> "SubspaceBasis":
        return cls(np.stack([np.asarray(v, dtype=np.complex128) for v in vectors], axis=1))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class Projection:
    """Orthogonal projection matrix with its rank."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)


def projection_from_orthonormal(Q: np.ndarray) -> Projection:
    return Projection(matrix=Q @ Q.conj().T, rank=Q.shape[1])


def gram_schmidt_projection(basis: SubspaceBasis) -> tuple[SubspaceBasis, Projection]:
    """Orthonormal basis of the span and its orthogonal projection.

    Rejects rank-deficient input as orthonormalize does; like it, it
    trusts a basis flagged orthonormal and returns it as is, unchecked.
    """
    ortho = orthonormalize(basis)
    return ortho, projection_from_orthonormal(ortho.matrix)


def orthonormalize(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of the same span, via Householder QR.

    Rejects the first column j whose |R_jj|, the norm of its residual
    after projecting out columns 0 .. j-1, falls below DEPENDENCE_TOL
    times its original norm; the error's index j is the dimension that
    columns 0 .. j-1 span. An orthonormal basis is returned as itself.
    Otherwise the result is cached on `basis`, so repeated calls with the
    same basis cost one QR in total.
    """
    if basis.orthonormal:
        return basis
    cached = basis._cache.get("orthonormalize")
    if cached is not None:
        return cached
    Q, R = np.linalg.qr(basis.matrix)
    diag = np.abs(np.diag(R))
    norms = np.linalg.norm(basis.matrix, axis=0)
    for j in range(basis.dim):
        if diag[j] < DEPENDENCE_TOL * max(norms[j], 1e-300):
            raise RankDeficiencyError(j, float(diag[j] / max(norms[j], 1e-300)))
    result = basis._cache["orthonormalize"] = SubspaceBasis(Q, orthonormal=True)
    return result


def projection_distance(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Operator-norm distance between the orthogonal projections onto the spans.

    For spans of equal dimension this is the sine of the largest principal
    angle between them (Golub & Van Loan, Matrix Computations, 4th ed.,
    2.5.3 and 6.4.3).
    """
    Pa = projection_from_orthonormal(orthonormalize(a).matrix).matrix
    Pb = projection_from_orthonormal(orthonormalize(b).matrix).matrix
    return float(np.linalg.norm(Pa - Pb, 2))


def _invariance_defect(T: OperatorWindow, Q_in: np.ndarray, out: SubspaceBasis) -> float:
    """Operator norm of (1 - Q Q*) T Q_in, for the orthonormal basis Q of `out`.

    Computed as the norm of (T* W)* Q_in, where [Q W] is unitary (Golub &
    Van Loan, Matrix Computations, 2.5), so the product and the SVD run on
    codim(out) rows and the rows x dim_in image T Q_in is never formed.
    W is cached on `out`; a basis that did not come with it (as
    vanishing_subspace's do) gets it from one complete QR of Q.
    """
    W = out._cache.get("complement")
    if W is None:
        W = out._cache["complement"] = np.linalg.qr(out.matrix, mode="complete")[0][:, out.dim:]
    X = _adjoint_image(T, W).conj().T @ Q_in
    return float(np.linalg.norm(X, 2)) if X.size else 0.0


# -- relative index --------------------------------------------------------------

@dataclass(frozen=True)
class IndexResult:
    """dim(M_out) minus the numerical rank of T applied to a basis of M_in.

    gap is the ratio between the smallest kept singular value and the
    largest dropped one (or the decision threshold when nothing was
    dropped); a clean decision has a large gap. It is computed when first
    read, from the singular values of the image T Q_in, which the result
    forms from the T and Q_in it keeps.
    When rel_index certified the rank without an SVD, that read runs the
    SVD and raises AssertionError unless it keeps the certified rank.
    Equality compares index, rank, dim_out and defect.
    """

    index: int
    rank: int
    dim_out: int
    defect: float
    _window: OperatorWindow = field(repr=False, compare=False)
    _basis: np.ndarray = field(repr=False, compare=False)
    _tol: float = field(repr=False, compare=False)
    _sigma: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def gap(self) -> float:
        if self.rank == 0:
            return math.inf
        s = self._sigma
        if s is None:
            s = np.linalg.svd(_window_image(self._window, self._basis), compute_uv=False)
        rank, cutoff = _numerical_rank(s, self._tol)
        if rank != self.rank:
            raise AssertionError(f"certified rank {self.rank}, but the SVD keeps {rank}")
        if rank < len(s) and s[rank] > 0:
            return float(s[rank - 1] / s[rank])
        return float(s[rank - 1] / cutoff) if cutoff > 0 else math.inf


def _numerical_rank(s: np.ndarray, tol: float) -> tuple[int, float]:
    """Number of singular values above tol * s[0], and that cutoff."""
    cutoff = tol * s[0] if s[0] > 0 else 0.0
    return int(np.sum(s > cutoff)), cutoff


def _window_image(T: OperatorWindow, Q: np.ndarray) -> np.ndarray:
    """T Q, as a row gather when T has a support.

    For real entries (every shift, adjoint and jittered window) the gather
    is bitwise equal to the BLAS product up to the signs of zeros; complex
    entries can differ from it in the last bit.
    """
    if T.support is None:
        return T.matrix @ Q
    rows, cols = T.support
    img = np.zeros((T.rows, Q.shape[1]), dtype=np.complex128)
    img[rows] = T.matrix[rows, cols][:, None] * Q[cols]
    return img


def _adjoint_image(T: OperatorWindow, W: np.ndarray) -> np.ndarray:
    """T* W, as a row gather when T has a support (see _window_image)."""
    if T.support is None:
        return T.matrix.conj().T @ W
    rows, cols = T.support
    img = np.zeros((T.cols, W.shape[1]), dtype=np.complex128)
    img[cols] = T.matrix[rows, cols].conj()[:, None] * W[rows]
    return img


def _certified_full_rank(T: OperatorWindow, tol: float) -> bool:
    """Whether every singular value of T Q, Q orthonormal, passes the rank rule.

    With a support covering every column, T* T = diag(|s_j|^2), so each
    sigma_i(T Q) lies in [min |s_j|, max |s_j|] (Courant-Fischer; Golub &
    Van Loan, Matrix Computations, 2.4 and 8.6). Requiring
    min |s_j| > 2 max(tol, n eps) max |s_j|, n = max(rows, cols), keeps the
    rule s_i > tol s_0 true for the computed singular values too, whose
    rounding error is of order n eps max |s_j|.
    """
    bounds = T.singular_value_range
    margin = 2.0 * max(tol, max(T.rows, T.cols) * np.finfo(float).eps)
    return bounds is not None and bounds[0] > margin * bounds[1]


def rel_index(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
              tol: float = DEFAULT_RANK_TOL, invariance_tol: float | None = None) -> IndexResult:
    """Finite-window surrogate of the index of T relative to a subspace.

    Checks T M_in lies inside M_out within invariance_tol (default: tol),
    then counts dim(M_out) - rank(T B_in) with the relative singular value
    threshold tol * sigma_max. The invariance defect is the norm of
    (T* W)* Q_in for the orthogonal complement W of M_out, a codim x dim_in
    matrix. The orthonormal bases and the complement are cached on M_in
    and M_out, so calls that reuse the same basis objects (as perturbation
    sweeps do) pay for their QRs once; vanishing_subspace's bases come
    orthonormal with their complement, so they cost no QR here at all.

    When T carries a support, T* W and T Q_in are row gathers rather than
    dense products. When that support covers every column and its entries
    pass min |s_j| > 2 max(tol, n eps) max |s_j| (see _certified_full_rank),
    the rank is dim_in without an SVD, and the image T Q_in is formed, for
    its SVD, only if the result's gap is read. Any other window takes the
    SVD here: a zero or tiny weight (below a tiny tol, the n eps floor of
    the margin decides), an empty column, or no support.
    """
    if M_in.ambient_dim != T.cols or M_out.ambient_dim != T.rows:
        raise ValueError("subspace dimensions do not match the window")
    inv_tol = tol if invariance_tol is None else invariance_tol
    Q_in = orthonormalize(M_in).matrix
    out = orthonormalize(M_out)
    defect = _invariance_defect(T, Q_in, out)
    if defect > inv_tol:
        raise InvarianceError(defect, inv_tol)
    dim_out = out.dim
    if Q_in.shape[1] == 0:
        return IndexResult(dim_out, 0, dim_out, defect, T, Q_in, tol)
    if _certified_full_rank(T, tol):
        rank = Q_in.shape[1]
        return IndexResult(dim_out - rank, rank, dim_out, defect, T, Q_in, tol)
    s = np.linalg.svd(_window_image(T, Q_in), compute_uv=False)
    rank = _numerical_rank(s, tol)[0]
    return IndexResult(dim_out - rank, rank, dim_out, defect, T, Q_in, tol, s)


def _divided_powers(zeros: list[complex], dim: int) -> np.ndarray:
    """dim x m block whose column k is the divided difference of n -> z^n over z_0 .. z_k.

    Column 0 holds the powers z_0^n; column k solves
    G[n, k] = G[n-1, k-1] + z_k G[n-1, k] from G[n, k] = 0 for n < k, which
    is the convolution of column k-1, shifted down one row, with the powers
    of z_k. Coincident zeros give derivatives, so G has full rank m. Zeros
    enter by increasing modulus, so each new column adds the fastest
    growing powers. The loop carries G[n, k] / r_k^n with
    r_k = max(1, |z_0|, ..., |z_k|), and column k comes out divided by
    r_k^(dim-1): a column scale keeps the span, and no power overflows for
    zeros outside the unit disc.
    """
    zeros = sorted(zeros, key=abs)
    n = np.arange(dim)
    radii = np.maximum.accumulate([1.0] + [abs(z) for z in zeros])
    G = np.zeros((dim, len(zeros)), dtype=np.complex128)
    for k, z in enumerate(zeros):
        r = radii[k + 1]
        powers = np.full(dim, z / r, dtype=np.complex128)
        powers[0] = 1.0
        np.cumprod(powers, out=powers)
        if k == 0:
            G[:, 0] = powers
        else:
            G[1:, k] = np.convolve(G[:, k - 1] * (radii[k] / r) ** n, powers)[: dim - 1] / r
    return G * radii[1:] ** (n[:, None] - (dim - 1))


@one_blas_thread
def vanishing_subspace(zeros, dim: int) -> SubspaceBasis:
    """Orthonormal basis of the polynomials of degree < dim vanishing on `zeros`.

    p = sum c_n z^n vanishes on the zeros, with multiplicity, exactly when c
    is orthogonal to the conjugated columns of _divided_powers. One complete
    QR of that dim x m block (Golub & Van Loan, Matrix Computations, 5.2)
    gives [Q_1 Q_2]: Q_2 is the returned basis and Q_1, its orthogonal
    complement, is cached on it for rel_index. The QR runs on one BLAS
    thread, as the drivers do.
    """
    zs = [complex(z) for z in zeros]
    m = len(zs)
    if dim <= m:
        raise ValueError(f"need dim > number of zeros, got dim={dim}, zeros={m}")
    Q = np.linalg.qr(_divided_powers(zs, dim).conj(), mode="complete")[0]
    basis = SubspaceBasis(Q[:, m:], orthonormal=True)
    basis._cache["complement"] = Q[:, :m].copy()
    return basis


# -- polynomial kernels and Krylov spans -----------------------------------------

def polynomial_of_window(A: OperatorWindow, coeffs) -> OperatorWindow:
    """Evaluate p(A) by Horner's rule on a square window; coeffs[k] multiplies z^k."""
    if not A.is_square:
        raise ValueError("polynomial evaluation needs a square window")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) == 0:
        return OperatorWindow(np.zeros_like(A.matrix))
    eye = np.eye(A.rows, dtype=np.complex128)
    P = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        P = P @ A.matrix + c * eye
    return OperatorWindow(P)


@dataclass
class KernelSpan:
    basis: SubspaceBasis
    kernel_singular_values: np.ndarray


def kernel_of_polynomial(A: OperatorWindow, coeffs, dim: int) -> KernelSpan:
    """Numerical kernel of p(A), p given by its coefficients: the dim smallest right singular vectors.

    The kernel dimension is forced, for settings where it is known a
    priori and survives perturbations that would defeat a fixed threshold.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) < 2:
        raise ValueError("polynomial degree must be >= 1")
    P = polynomial_of_window(A, coeffs)
    U, s, Vh = np.linalg.svd(P.matrix)
    if not 1 <= dim <= len(s):
        raise ValueError(f"forced kernel dimension {dim} out of range")
    K = Vh.conj().T[:, len(s) - dim:]
    return KernelSpan(SubspaceBasis(K, orthonormal=True), s[len(s) - dim:])


def krylov_span(A: OperatorWindow, v: np.ndarray, m: int) -> SubspaceBasis:
    """Orthonormal basis of span{v, Av, ..., A^(m-1) v}, by orthonormalize.

    The columns v / |v|, A v / |v|, ..., A^(m-1) v / |v| go through the
    one orthonormalizer, so a power that falls into the span of the
    previous ones raises RankDeficiencyError, whose index is the
    dimension the span reached.
    """
    if not A.is_square:
        raise ValueError("Krylov span needs a square window")
    if m < 1:
        raise ValueError("Krylov length must be >= 1")
    v = np.asarray(v, dtype=np.complex128)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("Krylov seed vector is zero")
    K = np.empty((len(v), m), dtype=np.complex128)
    K[:, 0] = v / nv
    for j in range(1, m):
        K[:, j] = A.matrix @ K[:, j - 1]
    return orthonormalize(SubspaceBasis(K))


# -- chain-subspace reconstruction ------------------------------------------------

@dataclass
class ReconstructionResult:
    reference: SubspaceBasis
    distance: float
    kernel_singular_values: np.ndarray


def chain_reference_basis(w: WeightSequence, roots, N: int) -> SubspaceBasis:
    """Span of the adjoint Jordan chains over the given roots (with repeats)."""
    vectors = []
    for lam, m in Counter(complex(r) for r in roots).items():
        vectors.extend(jordan_chain(w, lam, m, N).vectors)
    return SubspaceBasis.from_vectors(vectors)


def default_cyclic_vector(reference: SubspaceBasis) -> np.ndarray:
    """Normalized sum of the unit-normalized chain vectors."""
    M = reference.matrix
    e = np.sum(M / np.linalg.norm(M, axis=0, keepdims=True), axis=1)
    return e / np.linalg.norm(e)


def reconstruct_chain_subspace(w: WeightSequence, roots, A: OperatorWindow) -> ReconstructionResult:
    """Rebuild the chain-spanned invariant subspace from a window of A.

    The reference is the span of the adjoint Jordan chains for `roots`.
    The reconstruction takes the kernel of p(A) for p with those roots
    (dimension forced to deg p), seeds a Krylov span with the cyclic
    vector projected onto that kernel, K (K* e) for its orthonormal basis
    K, and reports the projection-norm distance to the reference. A is
    typically a perturbed square adjoint window. A seed below
    DEPENDENCE_TOL or a Krylov span short of deg p raises CyclicityError.
    """
    roots = [complex(r) for r in roots]
    m = len(roots)
    if m == 0:
        raise ValueError("need at least one root")
    if not A.is_square:
        raise ValueError("reconstruction needs a square window")
    N = A.rows
    r_point = w.r_point(N)
    for r in roots:
        if abs(r) > 0.9 * r_point:
            raise ValueError(f"root {r} outside 0.9 * r_point = {0.9 * r_point:.6g}")
    r, count = Counter(roots).most_common(1)[0]
    if count > 3:
        raise ValueError(f"multiplicity of root {r} exceeds 3")

    reference = chain_reference_basis(w, roots, N)
    ref_ortho = orthonormalize(reference)
    e = default_cyclic_vector(reference)

    ker = kernel_of_polynomial(A, CoefficientSeries.from_roots(roots).coeffs, dim=m)
    K = ker.basis.matrix
    seed = K @ (K.conj().T @ e)
    if np.linalg.norm(seed) < DEPENDENCE_TOL:
        raise CyclicityError(0, m)
    try:
        span = krylov_span(A, seed, m)
    except RankDeficiencyError as exc:
        raise CyclicityError(exc.index, m) from exc
    dist = projection_distance(span, ref_ortho)
    return ReconstructionResult(
        reference=ref_ortho,
        distance=dist,
        kernel_singular_values=ker.kernel_singular_values,
    )

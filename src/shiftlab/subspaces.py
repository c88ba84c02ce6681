"""Subspace bases, projections, the invariance defect and the relative index.

All rank decisions are relative: a singular value counts as nonzero when
it exceeds tol times the largest one, and every index result carries the
gap between the last kept and first dropped singular value so callers can
assert the decision was well conditioned. A window's weighted-shift
support can certify full rank without an SVD (see rel_index); its gap is
then the certificate's lower bound on that ratio.

rel_index is the invariance check: it takes the codomain subspace
explicitly and reports the defect of T M_in against it.

The stability experiment takes both its subspaces from the roots of p:
chain_reference_basis spans the adjoint Jordan chains, kernel_of_polynomial
the kernel of p(A), formed as the product of the factors (A - r_i) of
a plain square matrix A.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .operators import OperatorWindow, jordan_chain
from .weights import WeightSequence

DEFAULT_RANK_TOL = 1e-8
# Invariance tolerance of a subspace that is invariant up to rounding; tol only decides rank.
EXACT_INVARIANCE_TOL = 1e-8
DEPENDENCE_TOL = 1e-10


class RankDeficiencyError(ValueError):
    def __init__(self, index: int, residual: float):
        super().__init__(f"basis vector {index} is dependent (residual {residual:.3e})")


class InvarianceError(ValueError):
    def __init__(self, defect: float, tol: float):
        super().__init__(f"image leaves the target subspace: defect {defect:.3e} > tol {tol:.3e}")
        self.defect = defect


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Columns of `matrix` span a subspace of C^ambient_dim.

    `complement`, when given, is an orthonormal basis of the orthogonal
    complement of an orthonormal basis, so that [matrix complement] is
    unitary; rel_index needs it on its codomain. The basis owns read-only
    complex128 copies of both arrays, and its fields cannot be reassigned.
    Only the shapes are checked; unitarity is the caller's promise.
    """

    matrix: np.ndarray
    orthonormal: bool = False
    complement: np.ndarray | None = None

    def __post_init__(self):
        for name in ("matrix", "complement"):
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=np.complex128)
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        if self.matrix.ndim != 2:
            raise ValueError("basis matrix must be 2-dimensional (ambient x count)")
        if self.complement is not None and not (
                self.orthonormal and self.complement.shape == (self.ambient_dim, self.ambient_dim - self.dim)):
            raise ValueError("a complement needs an orthonormal basis and ambient_dim - dim columns of its length")

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
    """Orthogonal projection matrix (see gram_schmidt_projection)."""

    matrix: np.ndarray


def gram_schmidt_projection(basis: SubspaceBasis) -> tuple[SubspaceBasis, Projection]:
    """Orthonormal basis Q of the span and the orthogonal projection Q Q*, whose rank is Q's dim.

    Q is orthonormalize's, from a Householder QR despite the name: it rejects rank-deficient
    input and returns a basis flagged orthonormal as is, unchecked.
    """
    ortho = orthonormalize(basis)
    Q = ortho.matrix
    return ortho, Projection(Q @ Q.conj().T)


def orthonormalize(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of the same span, via Householder QR.

    Rejects the first column j whose |R_jj|, the norm of its residual
    after projecting out columns 0 .. j-1, falls below DEPENDENCE_TOL
    times its original norm; the error's index j is the dimension that
    columns 0 .. j-1 span, so with more columns than rows j is at most
    ambient_dim. An orthonormal basis is returned as itself; any other
    costs one QR per call.
    """
    if basis.orthonormal:
        return basis
    Q, R = np.linalg.qr(basis.matrix)
    diag = np.abs(np.diag(R))
    norms = np.linalg.norm(basis.matrix, axis=0)
    for j in range(len(diag)):
        if diag[j] < DEPENDENCE_TOL * max(norms[j], 1e-300):
            raise RankDeficiencyError(j, float(diag[j] / max(norms[j], 1e-300)))
    if basis.dim > basis.ambient_dim:
        raise RankDeficiencyError(basis.ambient_dim, 0.0)
    return SubspaceBasis(Q, orthonormal=True)


def projection_distance(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Operator-norm distance between the orthogonal projections onto the spans.

    For spans of equal dimension this is the sine of the largest principal
    angle between them (Golub & Van Loan, Matrix Computations, 4th ed.,
    2.5.3 and 6.4.3).
    """
    Qa, Qb = orthonormalize(a).matrix, orthonormalize(b).matrix
    return float(np.linalg.norm(Qa @ Qa.conj().T - Qb @ Qb.conj().T, 2))


def _invariance_defect(T: OperatorWindow, Q_in: np.ndarray, out: SubspaceBasis) -> float:
    """Operator norm of (1 - Q Q*) T Q_in, for the orthonormal basis Q of `out`.

    Computed as the largest singular value of (T* W)* Q_in, bitwise its
    np.linalg.norm(., 2), where W is out.complement and [Q W] is unitary
    (Golub & Van Loan, Matrix Computations, 2.5), so the product and the SVD
    run on codim(out) rows and the rows x dim_in image T Q_in is never formed.
    """
    X = _adjoint_image(T, out.complement).conj().T @ Q_in
    return float(np.linalg.svd(X, compute_uv=False)[0]) if X.size else 0.0


# -- relative index --------------------------------------------------------------

@dataclass(frozen=True)
class IndexResult:
    """The index dim(M_out) minus the numerical rank of T applied to a basis of M_in.

    defect is the invariance defect of T M_in against M_out. gap is the
    ratio between the smallest kept singular value and the largest dropped
    one (or the decision threshold when nothing was dropped); a clean
    decision has a large gap. After an SVD it is that ratio; on a window
    whose full rank rel_index certified, it is the certificate's lower
    bound on it (see _certified_gap).
    """

    index: int
    defect: float
    gap: float


def _rank_and_gap(s: np.ndarray, tol: float) -> tuple[int, float]:
    """Number of the descending singular values s above tol * s[0], and the gap.

    The gap is inf when nothing is kept or the cutoff is 0.
    """
    cutoff = tol * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        return 0, math.inf
    below = s[rank] if rank < len(s) and s[rank] > 0 else cutoff
    return rank, float(s[rank - 1] / below) if below > 0 else math.inf


def _window_image(T: OperatorWindow, Q: np.ndarray) -> np.ndarray:
    """T Q as a row gather over the support of T.

    For real entries (every shift, adjoint and jittered window) the gather
    is bitwise equal to the dense product T Q up to the signs of zeros; complex
    entries can differ from it in the last bit.
    """
    img = np.zeros((T.support.shape[0], Q.shape[1]), dtype=np.complex128)
    img[T.support.rows] = T.entries[:, None] * Q[T.support.cols]
    return img


def _adjoint_image(T: OperatorWindow, W: np.ndarray) -> np.ndarray:
    """T* W as a row gather over the support of T (see _window_image)."""
    img = np.zeros((T.support.shape[1], W.shape[1]), dtype=np.complex128)
    img[T.support.cols] = T.entries.conj()[:, None] * W[T.support.rows]
    return img


def _certified_gap(T: OperatorWindow, tol: float) -> float | None:
    """Lower bound on the full-rank gap of T Q, Q orthonormal, or None if full rank is not certified.

    Each sigma_i(T Q) lies in T.singular_value_range = [min |s_j|, max |s_j|]
    (Courant-Fischer; Golub & Van Loan, Matrix Computations, 2.4 and 8.6).
    Requiring min |s_j| > 2 max(tol, n eps) max |s_j|, n = max(rows, cols),
    keeps the rule s_i > tol s_0 true for the computed singular values too,
    whose rounding error is of order n eps max |s_j|. Every singular value
    is then kept, and the gap sigma_min / (tol sigma_max) is at least
    min |s_j| / (tol max |s_j|).
    """
    lo, hi = T.singular_value_range
    if not lo > 2.0 * max(tol, max(T.support.shape) * np.finfo(float).eps) * hi:
        return None
    return lo / (tol * hi)


def rel_index(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
              tol: float = DEFAULT_RANK_TOL, invariance_tol: float = EXACT_INVARIANCE_TOL) -> IndexResult:
    """Finite-window surrogate of the index of T relative to a subspace.

    Checks T M_in lies inside M_out within invariance_tol (tol decides only
    the rank), then counts dim(M_out) - rank(T B_in) with the relative
    singular value threshold tol * sigma_max. M_out must carry its
    orthogonal complement W (vanishing_subspace's bases do); an
    M_in not flagged orthonormal is orthonormalized on every call. The
    defect is the norm of (T* W)* Q_in, with T* W a row gather.

    When the support covers every column and its entries pass
    min |s_j| > 2 max(tol, n eps) max |s_j| (see _certified_gap), the rank
    is dim_in and the gap is the certificate's bound
    min |s_j| / (tol max |s_j|), with no SVD and no image T Q_in. Any other
    window gathers the image and takes the SVD, which gives both the rank
    and the gap: a zero or tiny weight (below a tiny tol, the n eps floor of
    the margin decides) or an empty column.
    """
    if (M_out.ambient_dim, M_in.ambient_dim) != T.support.shape:
        raise ValueError("subspace dimensions do not match the window")
    if M_out.complement is None:
        raise ValueError("rel_index needs an M_out with its orthogonal complement")
    Q_in = orthonormalize(M_in).matrix
    out = orthonormalize(M_out)
    defect = _invariance_defect(T, Q_in, out)
    if defect > invariance_tol:
        raise InvarianceError(defect, invariance_tol)
    rank = Q_in.shape[1]
    gap = _certified_gap(T, tol) if rank else math.inf
    if gap is None:
        rank, gap = _rank_and_gap(np.linalg.svd(_window_image(T, Q_in), compute_uv=False), tol)
    return IndexResult(out.dim - rank, defect, gap)


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
    gives [Q_1 Q_2]: Q_2 is the returned basis and Q_1 its complement,
    which rel_index reads. The QR runs on one BLAS thread, as the drivers
    do.
    """
    zs = [complex(z) for z in zeros]
    m = len(zs)
    if dim <= m:
        raise ValueError(f"need dim > number of zeros, got dim={dim}, zeros={m}")
    Q = np.linalg.qr(_divided_powers(zs, dim).conj(), mode="complete")[0]
    return SubspaceBasis(Q[:, m:], orthonormal=True, complement=Q[:, :m])


# -- polynomial kernels ------------------------------------------------------------

def polynomial_of_window(A: np.ndarray, roots) -> np.ndarray:
    """p(A) = (A - r_1) ... (A - r_m) on a square matrix, m >= 1, in m - 1 matrix products."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("polynomial evaluation needs a square matrix")
    eye = np.eye(len(A), dtype=np.complex128)
    P = A - roots[0] * eye
    for r in roots[1:]:
        P = P @ (A - r * eye)
    return P


@dataclass
class KernelSpan:
    basis: SubspaceBasis
    kernel_singular_values: np.ndarray


def kernel_of_polynomial(A: np.ndarray, roots) -> KernelSpan:
    """Numerical kernel of p(A), p given by its roots: the m = len(roots) smallest right singular vectors.

    The dimension is forced to m, the dimension of the chain span p
    annihilates, so no perturbation can move it as it moves a rank threshold.
    """
    m = len(roots)
    if not 1 <= m <= len(A):
        raise ValueError(f"forced kernel dimension {m} out of range 1 .. {len(A)}")
    U, s, Vh = np.linalg.svd(polynomial_of_window(A, roots))
    K = Vh.conj().T[:, len(s) - m:]
    return KernelSpan(SubspaceBasis(K, orthonormal=True), s[len(s) - m:])


# -- chain-subspace reference ----------------------------------------------------

def chain_reference_basis(w: WeightSequence, roots, N: int) -> SubspaceBasis:
    """Orthonormal basis of the span of the adjoint Jordan chains over `roots` (with repeats).

    This is ker p(T*), p(z) = prod (z - r_i), cut to its first N coordinates.
    Each root must satisfy |r| <= 0.9 r_point and repeat at most 3 times,
    and a root of multiplicity m needs N >= m + 2.
    Chain vectors that are numerically dependent (two roots closer than the
    window resolves) raise RankDeficiencyError.
    """
    counts = Counter(complex(r) for r in roots)
    if not counts:
        raise ValueError("p_roots must list at least one root")
    cap = 0.9 * w.r_point(N)
    for r in counts:
        if abs(r) > cap:
            raise ValueError(f"p_roots: root {r} outside 0.9 * r_point = {cap:.6g}")
    r, count = counts.most_common(1)[0]
    if count > 3:
        raise ValueError(f"p_roots: multiplicity of root {r} exceeds 3")
    if N < count + 2:
        raise ValueError(f"p_roots: root {r} of multiplicity {count} needs N >= {count + 2}, got N={N}")
    vectors = []
    for lam, m in counts.items():
        vectors.extend(jordan_chain(w, lam, m, N).vectors)
    return orthonormalize(SubspaceBasis.from_vectors(vectors))

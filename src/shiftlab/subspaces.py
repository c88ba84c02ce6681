"""Subspace bases, projections, invariance tests and the relative index.

All rank decisions are relative: a singular value counts as nonzero when
it exceeds tol times the largest one, and every index result carries the
gap between the last kept and first dropped singular value so callers can
assert the decision was well conditioned.

Widening a subspace from a window of dimension N to one of dimension N + k
appends the k new top coordinates to the padded span; narrowing truncates
the basis vectors and reorthonormalizes. This keeps coordinate tail spans
exactly invariant under shift windows, while finite-codimension spaces
(whose widened representation is not of that form) must be supplied
explicitly, as rel_index requires.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorWindow, jordan_chain
from .weights import WeightSequence

DEFAULT_RANK_TOL = 1e-8
GS_DEPENDENCE_TOL = 1e-10


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
    def from_vectors(cls, vectors, orthonormal: bool = False) -> "SubspaceBasis":
        return cls(np.stack([np.asarray(v, dtype=np.complex128) for v in vectors], axis=1),
                   orthonormal=orthonormal)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def smallest_normalized_singular_value(self) -> float:
        norms = np.linalg.norm(self.matrix, axis=0)
        if np.any(norms == 0):
            return 0.0
        s = np.linalg.svd(self.matrix / norms, compute_uv=False)
        return float(s[-1]) if len(s) else 0.0

    def to_csv(self, path) -> None:
        """Column vectors as CSV rows of quoted "re,im" cells."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            for col in self.matrix.T:
                writer.writerow([f"{float(z.real)!r},{float(z.imag)!r}" for z in col])

    @classmethod
    def from_csv(cls, path) -> "SubspaceBasis":
        cols = []
        with open(path, newline="", encoding="utf-8") as fh:
            for record in csv.reader(fh):
                cols.append([complex(*map(float, cell.split(","))) for cell in record])
        return cls(np.array(cols, dtype=np.complex128).T)


@dataclass
class Projection:
    """Orthogonal projection matrix with its rank."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def defects(self) -> tuple[float, float, float]:
        """(idempotency, hermitianity, trace-rank) defects."""
        P = self.matrix
        return (
            float(np.linalg.norm(P @ P - P, 2)),
            float(np.linalg.norm(P - P.conj().T, 2)),
            float(abs(np.trace(P).real - self.rank) + abs(np.trace(P).imag)),
        )

    def validate(self, idem_tol: float = 1e-10, herm_tol: float = 1e-12, trace_tol: float = 1e-8) -> "Projection":
        idem, herm, tr = self.defects()
        if idem > idem_tol or herm > herm_tol or tr > trace_tol:
            raise ValueError(f"projection invariants violated: P^2-P={idem:.2e}, P-P*={herm:.2e}, trace-rank={tr:.2e}")
        return self

    def range_basis(self) -> SubspaceBasis:
        if self.rank == 0:
            return SubspaceBasis(np.zeros((self.dim, 0)), orthonormal=True)
        vals, vecs = np.linalg.eigh(self.matrix)
        keep = vals > 0.5
        return SubspaceBasis(vecs[:, keep], orthonormal=True)


def projection_from_orthonormal(Q: np.ndarray) -> Projection:
    return Projection(matrix=Q @ Q.conj().T, rank=Q.shape[1])


def gram_schmidt_projection(basis: SubspaceBasis, dependence_tol: float = GS_DEPENDENCE_TOL) -> tuple[SubspaceBasis, Projection]:
    """Modified Gram-Schmidt with one full reorthogonalization pass.

    Rejects the first vector whose orthogonalized residual falls below
    dependence_tol times its original norm.
    """
    B = basis.matrix
    n, k = B.shape
    Q = np.zeros((n, k), dtype=np.complex128)
    for j in range(k):
        v = B[:, j].copy()
        original = np.linalg.norm(v)
        if original == 0.0:
            raise RankDeficiencyError(j, 0.0)
        for _ in range(2):  # MGS plus one reorthogonalization pass
            for i in range(j):
                v -= (Q[:, i].conj() @ v) * Q[:, i]
        resid = np.linalg.norm(v)
        if resid < dependence_tol * original:
            raise RankDeficiencyError(j, float(resid / original))
        Q[:, j] = v / resid
    ortho = SubspaceBasis(Q, orthonormal=True)
    return ortho, projection_from_orthonormal(Q)


def orthonormalize(basis: SubspaceBasis, dependence_tol: float = GS_DEPENDENCE_TOL) -> SubspaceBasis:
    """Orthonormal basis of the same span, via Householder QR.

    Faster than Gram-Schmidt for the wide bases used by index sweeps;
    rejects rank-deficient input like gram_schmidt_projection does.
    An orthonormal basis is returned as itself. Otherwise the result is
    cached on `basis` per dependence_tol, so repeated calls with the same
    basis cost one QR in total.
    """
    if basis.orthonormal:
        return basis
    key = ("orthonormalize", dependence_tol)
    cached = basis._cache.get(key)
    if cached is not None:
        return cached
    Q, R = np.linalg.qr(basis.matrix)
    diag = np.abs(np.diag(R))
    norms = np.linalg.norm(basis.matrix, axis=0)
    for j in range(basis.dim):
        if diag[j] < dependence_tol * max(norms[j], 1e-300):
            raise RankDeficiencyError(j, float(diag[j] / max(norms[j], 1e-300)))
    result = basis._cache[key] = SubspaceBasis(Q, orthonormal=True)
    return result


def principal_angles(a: SubspaceBasis, b: SubspaceBasis) -> np.ndarray:
    """Principal angles (radians, increasing) between two subspaces.

    Small angles come from the sine route (SVD of the residual after
    projecting one basis onto the other), which stays accurate where
    arccos of a near-unit cosine loses half the digits.
    """
    Qa = orthonormalize(a).matrix
    Qb = orthonormalize(b).matrix
    cosines = np.sort(np.clip(np.linalg.svd(Qa.conj().T @ Qb, compute_uv=False), 0.0, 1.0))[::-1]
    resid = Qb - Qa @ (Qa.conj().T @ Qb)
    sines = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))
    k = min(len(cosines), len(sines))
    angles = np.empty(k)
    for i in range(k):
        if cosines[i] ** 2 > 0.5:
            angles[i] = math.asin(sines[i])
        else:
            angles[i] = math.acos(cosines[i])
    return angles


def projection_distance(a: SubspaceBasis | Projection, b: SubspaceBasis | Projection) -> float:
    """Operator-norm distance between the orthogonal projections."""
    Pa = a.matrix if isinstance(a, Projection) else projection_from_orthonormal(orthonormalize(a).matrix).matrix
    Pb = b.matrix if isinstance(b, Projection) else projection_from_orthonormal(orthonormalize(b).matrix).matrix
    return float(np.linalg.norm(Pa - Pb, 2))


# -- codomain transport --------------------------------------------------------

def embed_basis(basis: SubspaceBasis, out_dim: int) -> SubspaceBasis:
    """Default representation of a subspace in a window of another size.

    Widening pads the vectors with zeros and appends the new top
    coordinates; narrowing truncates and reorthonormalizes (the dimension
    may drop).
    """
    Q = orthonormalize(basis).matrix
    n, k = Q.shape
    if out_dim == n:
        return SubspaceBasis(Q, orthonormal=True)
    if out_dim > n:
        extra = out_dim - n
        M = np.zeros((out_dim, k + extra), dtype=np.complex128)
        M[:n, :k] = Q
        M[n:, k:] = np.eye(extra)
        return SubspaceBasis(M, orthonormal=True)
    cut = Q[:out_dim, :]
    norms = np.linalg.norm(cut, axis=0)
    cut = cut[:, norms > GS_DEPENDENCE_TOL]
    if cut.shape[1] == 0:
        return SubspaceBasis(np.zeros((out_dim, 0)), orthonormal=True)
    return orthonormalize(SubspaceBasis(cut))


@dataclass(frozen=True)
class InvarianceCheck:
    invariant: bool
    defect: float
    tol: float


def is_invariant(T: OperatorWindow, P: Projection | SubspaceBasis, tol: float = 1e-10,
                 codomain: Projection | SubspaceBasis | None = None) -> InvarianceCheck:
    """Check the lattice condition: image of the subspace stays inside it.

    The defect is the operator norm of (1 - P_out) T P restricted to the
    subspace. For rectangular T the codomain projection defaults to the
    embedding rules of embed_basis.
    """
    basis = P.range_basis() if isinstance(P, Projection) else P
    if basis.ambient_dim != T.cols:
        raise ValueError(f"subspace lives in C^{basis.ambient_dim}, window expects C^{T.cols}")
    Q = orthonormalize(basis).matrix
    if codomain is None:
        out = embed_basis(basis, T.rows)
    else:
        out = codomain.range_basis() if isinstance(codomain, Projection) else orthonormalize(codomain)
    if out.ambient_dim != T.rows:
        raise ValueError(f"codomain subspace lives in C^{out.ambient_dim}, window maps to C^{T.rows}")
    defect = _invariance_defect(T.matrix @ Q, out)
    return InvarianceCheck(invariant=defect <= tol, defect=defect, tol=tol)


def _invariance_defect(img: np.ndarray, out: SubspaceBasis) -> float:
    """Operator norm of (1 - Q Q*) img, for the orthonormal basis Q of `out`.

    Computed as the norm of W* img, where [Q W] is unitary (Golub & Van
    Loan, Matrix Computations, 2.5), so the SVD runs on codim(out) rows.
    W is the tail of a complete QR of Q, computed once and cached on `out`.
    """
    W = out._cache.get("complement")
    if W is None:
        W = out._cache["complement"] = np.linalg.qr(out.matrix, mode="complete")[0][:, out.dim:]
    X = W.conj().T @ img
    return float(np.linalg.norm(X, 2)) if X.size else 0.0


# -- relative index --------------------------------------------------------------

@dataclass(frozen=True)
class IndexResult:
    """dim(M_out) minus the numerical rank of T applied to a basis of M_in.

    gap is the ratio between the smallest kept singular value and the
    largest dropped one (or the decision threshold when nothing was
    dropped); a clean decision has a large gap.
    """

    index: int
    rank: int
    dim_out: int
    defect: float
    gap: float


def rel_index(T: OperatorWindow, M_in: SubspaceBasis, M_out: SubspaceBasis,
              tol: float = DEFAULT_RANK_TOL, invariance_tol: float | None = None) -> IndexResult:
    """Finite-window surrogate of the index of T relative to a subspace.

    Checks T M_in lies inside M_out within invariance_tol (default: tol),
    then counts dim(M_out) - rank(T B_in) with the relative singular value
    threshold tol * sigma_max. The invariance defect is the norm of
    W* T Q_in for the orthogonal complement W of M_out, a codim x dim_in
    matrix. The orthonormal bases and the complement are cached on M_in
    and M_out, so calls that reuse the same basis objects (as perturbation
    sweeps do) pay for their QRs once.
    """
    if M_in.ambient_dim != T.cols or M_out.ambient_dim != T.rows:
        raise ValueError("subspace dimensions do not match the window")
    inv_tol = tol if invariance_tol is None else invariance_tol
    Q_in = orthonormalize(M_in).matrix
    out = orthonormalize(M_out)
    img = T.matrix @ Q_in
    defect = _invariance_defect(img, out)
    if defect > inv_tol:
        raise InvarianceError(defect, inv_tol)
    dim_out = out.dim
    if Q_in.shape[1] == 0:
        return IndexResult(index=dim_out, rank=0, dim_out=dim_out, defect=defect, gap=math.inf)
    s = np.linalg.svd(img, compute_uv=False)
    cutoff = tol * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        gap = math.inf
    elif rank < len(s) and s[rank] > 0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = float(s[rank - 1] / cutoff) if cutoff > 0 else math.inf
    return IndexResult(index=dim_out - rank, rank=rank, dim_out=dim_out, defect=defect, gap=gap)


def vanishing_subspace(zeros, dim: int) -> SubspaceBasis:
    """Coefficient space of polynomials of degree < dim vanishing on `zeros`.

    Columns are the shifted coefficient vectors of q(z) = prod (z - z_i),
    spanning q times polynomials of degree < dim - len(zeros).
    """
    zs = [complex(z) for z in zeros]
    m = len(zs)
    if dim <= m:
        raise ValueError(f"need dim > number of zeros, got dim={dim}, zeros={m}")
    q = np.array([1.0 + 0j])
    for z in zs:
        q = np.convolve(q, np.array([-z, 1.0 + 0j]))
    cols = np.zeros((dim, dim - m), dtype=np.complex128)
    for j in range(dim - m):
        cols[j : j + m + 1, j] = q
    return SubspaceBasis(cols)


# -- polynomial kernels and Krylov spans -----------------------------------------

def _poly_coeffs(p) -> np.ndarray:
    coeffs = getattr(p, "coeffs", p)
    return np.asarray(coeffs, dtype=np.complex128)


def polynomial_of_window(A: OperatorWindow, p) -> OperatorWindow:
    """Evaluate p(A) by Horner's rule on a square window."""
    if not A.is_square:
        raise ValueError("polynomial evaluation needs a square window")
    coeffs = _poly_coeffs(p)
    if len(coeffs) == 0:
        return OperatorWindow(np.zeros_like(A.matrix), tag="polynomial_in_adjoint")
    N = A.rows
    P = np.zeros_like(A.matrix)
    eye = np.eye(N, dtype=np.complex128)
    for c in coeffs[::-1]:
        P = P @ A.matrix + c * eye
    return OperatorWindow(P, tag="polynomial_in_adjoint")


@dataclass
class KernelSpan:
    basis: SubspaceBasis
    projection: Projection
    kernel_singular_values: np.ndarray
    sigma_max: float


def kernel_of_polynomial(A: OperatorWindow, p, tol: float = DEFAULT_RANK_TOL,
                         dim: int | None = None) -> KernelSpan:
    """Numerical kernel of p(A) from the small right singular vectors.

    With dim=None the kernel collects singular values at or below
    tol * sigma_max (possibly none). Passing dim forces that many smallest
    directions, for settings where the kernel dimension is known a priori
    and survives perturbations that would defeat a fixed threshold.
    """
    coeffs = _poly_coeffs(p)
    if len(coeffs) < 2:
        raise ValueError("polynomial degree must be >= 1")
    P = polynomial_of_window(A, coeffs)
    U, s, Vh = np.linalg.svd(P.matrix)
    sigma_max = float(s[0]) if len(s) else 0.0
    if dim is None:
        keep = s <= tol * sigma_max if sigma_max > 0 else np.ones_like(s, dtype=bool)
        count = int(np.sum(keep))
    else:
        if not 1 <= dim <= len(s):
            raise ValueError(f"forced kernel dimension {dim} out of range")
        count = dim
    if count == 0:
        basis = SubspaceBasis(np.zeros((A.rows, 0)), orthonormal=True)
        proj = Projection(np.zeros_like(A.matrix), rank=0)
        return KernelSpan(basis, proj, s[len(s):], sigma_max)
    K = Vh.conj().T[:, -count:]
    basis = SubspaceBasis(K, orthonormal=True)
    return KernelSpan(basis, projection_from_orthonormal(K), s[-count:], sigma_max)


def krylov_span(A: OperatorWindow, v: np.ndarray, m: int,
                dependence_tol: float = GS_DEPENDENCE_TOL) -> SubspaceBasis:
    """Orthonormal basis of span{v, Av, ..., A^(m-1) v}.

    Stops early (smaller dimension) when a new power falls into the span
    of the previous ones; callers detect the drop from basis.dim.
    """
    if not A.is_square:
        raise ValueError("Krylov span needs a square window")
    if m < 1:
        raise ValueError("Krylov length must be >= 1")
    v = np.asarray(v, dtype=np.complex128)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("Krylov seed vector is zero")
    cols = [v / nv]
    cur = v / nv
    for _ in range(m - 1):
        cur = A.matrix @ cur
        original = np.linalg.norm(cur)
        if original == 0.0:
            break
        u = cur.copy()
        for _ in range(2):
            for q in cols:
                u -= (q.conj() @ u) * q
        resid = np.linalg.norm(u)
        if resid < dependence_tol * original:
            break
        cols.append(u / resid)
        cur = u / resid
    return SubspaceBasis.from_vectors(cols, orthonormal=True)


# -- chain-subspace reconstruction ------------------------------------------------

@dataclass
class ReconstructionResult:
    subspace: SubspaceBasis
    reference: SubspaceBasis
    distance: float
    kernel_singular_values: np.ndarray


def chain_reference_basis(w: WeightSequence, roots, N: int) -> SubspaceBasis:
    """Span of the adjoint Jordan chains over the given roots (with repeats)."""
    mults: dict[complex, int] = {}
    for r in roots:
        mults[complex(r)] = mults.get(complex(r), 0) + 1
    vectors = []
    for lam, m in mults.items():
        vectors.extend(jordan_chain(w, lam, m, N).vectors)
    return SubspaceBasis.from_vectors(vectors)


def default_cyclic_vector(reference: SubspaceBasis) -> np.ndarray:
    """Normalized sum of the unit-normalized chain vectors."""
    M = reference.matrix
    e = np.sum(M / np.linalg.norm(M, axis=0, keepdims=True), axis=1)
    return e / np.linalg.norm(e)


def reconstruct_chain_subspace(w: WeightSequence, roots, A: OperatorWindow,
                               tol: float = DEFAULT_RANK_TOL,
                               e: np.ndarray | None = None) -> ReconstructionResult:
    """Rebuild the chain-spanned invariant subspace from a window of A.

    The reference is the span of the adjoint Jordan chains for `roots`.
    The reconstruction takes the kernel of p(A) for p with those roots
    (dimension forced to deg p), seeds a Krylov span with the projected
    cyclic vector, and reports the projection-norm distance to the
    reference. A is typically a perturbed square adjoint window.
    """
    roots = [complex(r) for r in roots]
    m = len(roots)
    if m == 0:
        raise ValueError("need at least one root")
    if not A.is_square:
        raise ValueError("reconstruction needs a square window")
    N = A.rows
    r_point = math.exp(w.log_pi(N) / N)
    for r in roots:
        if abs(r) > 0.9 * r_point:
            raise ValueError(f"root {r} outside 0.9 * r_point = {0.9 * r_point:.6g}")
    mult: dict[complex, int] = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
        if mult[r] > 3:
            raise ValueError(f"multiplicity of root {r} exceeds 3")

    reference = chain_reference_basis(w, roots, N)
    ref_ortho = orthonormalize(reference)
    if e is None:
        e = default_cyclic_vector(reference)

    p = np.array([1.0 + 0j])
    for r in roots:
        p = np.convolve(p, np.array([-r, 1.0 + 0j]))
    ker = kernel_of_polynomial(A, p, tol=tol, dim=m)
    seed = ker.projection.matrix @ np.asarray(e, dtype=np.complex128)
    if np.linalg.norm(seed) < GS_DEPENDENCE_TOL:
        raise CyclicityError(0, m)
    span = krylov_span(A, seed, m)
    if span.dim < m:
        raise CyclicityError(span.dim, m)
    dist = projection_distance(span, ref_ortho)
    return ReconstructionResult(
        subspace=span,
        reference=ref_ortho,
        distance=dist,
        kernel_singular_values=ker.kernel_singular_values,
    )

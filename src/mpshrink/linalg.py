"""Dense symmetric linear algebra: spectral decomposition, Moore-Penrose
pseudoinversion with an explicit rank cutoff, range/null projectors,
quadratic forms, and the batched pseudoinverse of S = Y'Y that the
Monte-Carlo engines use: linear solves in G = YY' when every G in a stack
has full rank n < p, an eigendecomposition of S otherwise.

Everything works on plain float64 arrays. Matrices are symmetrized on entry
because products accumulated in floating point drift off symmetry, and the
downstream formulas all assume an exactly symmetric operand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense-only implementation; the simulation scale of interest is p <= 50.
MAX_DIM = 512

# A symmetric PSD input may carry eigenvalues this far below zero from
# floating-point noise before it is rejected.
PSD_SLACK = 1e-8


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NotPositiveSemidefiniteError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Matrix is not strictly positive definite."""


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver failed to converge."""

    def __init__(self, dim: int):
        super().__init__(f"symmetric eigendecomposition failed to converge (dim={dim})")
        self.dim = dim


def default_rel_tol(p: int) -> float:
    """The relative eigenvalue cutoff that decides numerical rank for a
    p x p S, in every pseudoinverse of the package; no call overrides it.

    Wishart draws from a positive definite covariance have generic rank
    min(n, p), so the cutoff only has to absorb floating-point noise; it is
    deliberately far below any plausible signal eigenvalue.
    """
    return 1e-12 * p


def symmetrize(m) -> np.ndarray:
    """Return (M + M') / 2 as float64, validating squareness, size and finiteness."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    if a.shape[0] > MAX_DIM:
        raise DimensionMismatchError(
            f"dimension {a.shape[0]} exceeds the dense cap {MAX_DIM}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return (a + a.T) / 2.0


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order and the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        """Reassemble V diag(w) V'."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def sym_eigen(m) -> SpectralDecomposition:
    """Spectral decomposition of a symmetric matrix, eigenvalues descending."""
    a = symmetrize(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(a.shape[0]) from exc
    # eigh returns ascending order
    return SpectralDecomposition(
        eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy()
    )


@dataclass(frozen=True, eq=False)
class PseudoinverseResult:
    """Moore-Penrose inverse of a symmetric PSD matrix plus its range geometry.

    projector is the orthogonal projector onto the column space (S S+),
    complement is I minus that, rank counts the eigenvalues kept and cutoff
    is the absolute threshold they had to clear.
    """

    pinv: np.ndarray
    projector: np.ndarray
    complement: np.ndarray
    rank: int
    cutoff: float


def pseudo_inverse(m) -> PseudoinverseResult:
    """Moore-Penrose inverse of a symmetric PSD matrix via its spectrum.

    Eigenvalues at or below default_rel_tol(p) * max(eigenvalue) are treated
    as exact zeros. Raises NotPositiveSemidefiniteError when an eigenvalue
    sits below the PSD slack.
    """
    return pseudo_inverse_from_eigen(sym_eigen(m))


def pseudo_inverse_from_eigen(
    dec: SpectralDecomposition, rank: int | None = None
) -> PseudoinverseResult:
    """pseudo_inverse for a matrix whose decomposition is already at hand.

    rank, when given, inverts exactly that many of the largest eigenvalues
    instead of those above the cutoff. Finite-difference oracles lock the
    rank this way so that perturbed evaluations cannot flip it.
    """
    w = dec.eigenvalues
    v = dec.eigenvectors
    p = w.size
    lam_max = w[0]
    if w[-1] < -PSD_SLACK * lam_max:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {w[-1]:.6e} below -{PSD_SLACK:g} * {lam_max:.6e}"
        )
    cutoff = default_rel_tol(p) * max(lam_max, 0.0)
    # Descending order makes the retained set a prefix.
    if rank is None:
        rank = int(np.count_nonzero(w > cutoff))
    elif not 0 <= rank <= p:
        raise ValueError(f"rank must lie in [0, {p}], got {rank}")
    inv_w = np.zeros(p)
    inv_w[:rank] = 1.0 / w[:rank]
    pinv = (v * inv_w) @ v.T
    pinv = (pinv + pinv.T) / 2.0
    if rank == p:
        projector = np.eye(p)
        complement = np.zeros((p, p))
    elif rank == 0:
        projector = np.zeros((p, p))
        complement = np.eye(p)
    else:
        vk = v[:, :rank]
        projector = vk @ vk.T
        projector = (projector + projector.T) / 2.0
        complement = np.eye(p) - projector
    return PseudoinverseResult(
        pinv=pinv,
        projector=projector,
        complement=complement,
        rank=rank,
        cutoff=float(cutoff),
    )


def quad_form(x, m) -> float:
    """x' M x for a vector x and square matrix M of matching dimension."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {xv.shape}")
    a = np.asarray(m, dtype=float)
    if a.shape != (xv.size, xv.size):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} does not match vector length {xv.size}"
        )
    return float(xv @ a @ xv)


def projectors(m) -> tuple[np.ndarray, np.ndarray]:
    """(P, I - P) with P the orthogonal projector onto the column space of M."""
    pr = pseudo_inverse(m)
    return pr.projector, pr.complement


def sym_sqrt_pd(m) -> np.ndarray:
    """Symmetric positive definite square root, A = V diag(sqrt(w)) V'.

    This is the square-root convention the estimators are written against;
    a Cholesky factor would sample the same law but different draws.
    """
    dec = sym_eigen(m)
    if dec.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: min eigenvalue {dec.eigenvalues[-1]:.6e}"
        )
    a = (dec.eigenvectors * np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T
    return (a + a.T) / 2.0


def inv_pd(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its spectrum."""
    dec = sym_eigen(m)
    if dec.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: min eigenvalue {dec.eigenvalues[-1]:.6e}"
        )
    a = (dec.eigenvectors / dec.eigenvalues) @ dec.eigenvectors.T
    return (a + a.T) / 2.0


@dataclass(eq=False)
class BatchPinvApply:
    """Pseudoinverse-applied quantities for a stack of (S_i, x_i) pairs.

    Holds F_i = x_i' S_i+ x_i, the numerical ranks, P_S x_i and S_i+ x_i,
    and the largest eigenvalue of each S_i+ (1 / smallest retained
    eigenvalue). The pseudoinverses themselves are never formed.
    """

    f: np.ndarray
    rank: np.ndarray
    psx: np.ndarray
    spx: np.ndarray
    lam_max_pinv: np.ndarray


@dataclass(eq=False)
class PinvFactor:
    """The x-independent half of the batched pseudoinverse for a stack of
    S_i = Y_i'Y_i. rank and lam_max_pinv are the cutoff rule's outputs.

    On the solve side (n < p, every entry of rank n) gram holds G_i = Y_i Y_i',
    y the Y_i and scale the power of two t_i that apply_factor carries
    G^-1 (t d) by. On the p x p side vectors are S_i's eigenvectors
    (ascending order), keep the kept-eigenvalue mask and inv_w 1/w on the
    kept eigenvalues (0 elsewhere).
    """

    rank: np.ndarray
    lam_max_pinv: np.ndarray
    vectors: np.ndarray | None = None
    keep: np.ndarray | None = None
    inv_w: np.ndarray | None = None
    gram: np.ndarray | None = None
    y: np.ndarray | None = None
    scale: np.ndarray | None = None


def check_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first stack entry of a with a non-finite value."""
    finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"stack entry {i}: {what} has non-finite entries")


def _sym_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack a @ b symmetrised as (M + M')/2, in place and 256 entries
    at a time, so that no second stack of its size is ever held."""
    m = a @ b
    for i in range(0, len(m), 256):
        slab = m[i : i + 256]
        slab[...] = (slab + slab.transpose(0, 2, 1)) / 2.0
    return m


def _batch_spectrum(a: np.ndarray, rel_tol: float, vectors: bool = True):
    """eigh (eigvalsh without vectors) of a symmetric PSD stack plus the
    pseudo_inverse cutoff rule at rel_tol, default_rel_tol of S's dimension
    (on the solve side not G's): the eigenvalues and eigenvectors (ascending;
    None without vectors), the kept-eigenvalue mask, the ranks and lambda_max
    of each pseudoinverse. Raises on a non-converged solve or an eigenvalue
    below the PSD slack, naming the stack entry."""
    try:
        w, v = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(a.shape[1]) from exc
    wmax = w[:, -1]
    bad = w[:, 0] < -PSD_SLACK * wmax
    if bad.any():
        i = int(np.argmax(bad))
        raise NotPositiveSemidefiniteError(
            f"stack entry {i}: eigenvalue {w[i, 0]:.6e} below -{PSD_SLACK:g} * {wmax[i]:.6e}"
        )
    cutoff = rel_tol * np.clip(wmax, 0.0, None)
    keep = w > cutoff[:, None]
    rank = keep.sum(axis=1)
    wmin_kept = np.where(keep, w, np.inf).min(axis=1)
    lam_max_pinv = np.where(rank > 0, 1.0 / wmin_kept, 0.0)
    return w, v, keep, rank, lam_max_pinv


def _square_factor(s: np.ndarray) -> PinvFactor:
    check_finite(s, "S")
    w, v, keep, rank, lam_max_pinv = _batch_spectrum(s, default_rel_tol(s.shape[1]))
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return PinvFactor(rank, lam_max_pinv, vectors=v, keep=keep, inv_w=inv_w)


def factor_stack(y_stack) -> PinvFactor:
    """Factor S_i = Y_i'Y_i for repeated apply_factor calls.

    y_stack has shape (R, n, p). For n < p the nonzero spectrum of S is
    that of G = YY' (n x n, symmetrised), whose eigenvalues alone fix the
    ranks and lambda_max(S+) under the p x p cutoff rule
    (default_rel_tol(p) * lambda_max). When every entry
    has rank n, S+ = Y'G^-2 Y and the factor keeps G for linear solves.
    Otherwise, and always for n >= p, the whole stack takes the p x p side:
    S = Y'Y symmetrised and eigendecomposed. A non-finite Gram matrix is
    rejected, naming the stack entry.
    """
    y = np.asarray(y_stack, dtype=float)
    if y.ndim != 3:
        raise DimensionMismatchError(f"expected a (R, n, p) stack, got shape {y.shape}")
    _, n, p = y.shape
    yt = y.transpose(0, 2, 1)
    if n < p:
        g = _sym_product(y, yt)
        # Non-finite Y, or a Y so large that YY' overflows, shows up in G.
        check_finite(g, "YY'")
        _, _, _, rank, lam_max_pinv = _batch_spectrum(g, default_rel_tol(p), vectors=False)
        if np.all(rank == n):
            # G^-2 b ~ |Y|^-3 over- or underflows for extreme |Y| where
            # S+x ~ |Y|^-2 does not. Carrying it scaled by a power of two
            # t ~ |Y|_F = sqrt(tr G) is exact.
            t = np.ldexp(1.0, np.frexp(np.einsum("rii->r", g))[1] // 2)
            return PinvFactor(rank, lam_max_pinv, gram=g, y=y, scale=t)
    return _square_factor(_sym_product(yt, y))


def factor_coords(factor: PinvFactor, x_stack) -> tuple[np.ndarray, np.ndarray]:
    """The part of apply_factor that is linear in x, for k vectors per stack
    entry: x_stack (R, k, p) gives the coordinates c (R, k, .) and P_S x
    (R, k, p).

    On the solve side c = G^-1 Y x, from one solve with all k right-hand
    sides, and P_S x = Y'c; on the p x p side c = keep (V'x) and
    P_S x = V c. Both are linear in x, so the coordinates of x + t u are
    c(x) + t c(u). A non-finite x is rejected, naming the stack entry.
    """
    v, y = factor.vectors, factor.y
    x = np.asarray(x_stack, dtype=float)
    r, p = len(factor.rank), (v if y is None else y).shape[2]
    if x.ndim != 3 or x.shape[0] != r or x.shape[2] != p:
        raise DimensionMismatchError(
            f"vector stack shape {x.shape} does not match the factor's (R, k, p) = ({r}, k, {p})"
        )
    check_finite(x, "x")
    if y is None:
        c = np.where(factor.keep[:, None], np.einsum("rjk,rmj->rmk", v, x), 0.0)
        return c, np.einsum("rjk,rmk->rmj", v, c)
    # Explicit (R, n, k) right-hand sides: solve reads them the same way
    # under every numpy version.
    d = np.linalg.solve(factor.gram, np.einsum("rnp,rkp->rnk", y, x))
    return d.transpose(0, 2, 1), np.einsum("rnp,rnk->rkp", y, d)


def f_from_coords(factor: PinvFactor, c) -> np.ndarray:
    """F = x'S+x from one (R, .) slice of factor_coords' c: sum c^2 on the
    solve side, sum c^2 w+ on the p x p side."""
    return np.einsum("rk,rk->r", c * factor.inv_w if factor.y is None else c, c)


def apply_factor(factor: PinvFactor, x_stack) -> BatchPinvApply:
    """F, P_S x, S+ x and lambda_max(S+) for one (R, p) stack of x.

    On the solve side, with d = G^-1 Y x,

        F = |d|^2,  P_S x = Y'd,  S+ x = Y'G^-1 (t d) / t,

    with t the factor's power-of-two scale, and lambda_max(S+) =
    1 / lambda_min(G). A non-finite x is rejected, naming the stack entry.
    """
    x = np.asarray(x_stack, dtype=float)
    c, psx = (a[:, 0] for a in factor_coords(factor, x[..., None, :]))
    if factor.y is None:
        spx = np.einsum("rjk,rk->rj", factor.vectors, c * factor.inv_w)
    else:
        t = factor.scale
        e = np.linalg.solve(factor.gram, (c * t[:, None])[:, :, None])
        spx = np.einsum("rnp,rn->rp", factor.y, e[:, :, 0]) / t[:, None]
    return BatchPinvApply(f_from_coords(factor, c), factor.rank, psx, spx, factor.lam_max_pinv)


def batch_pinv_apply(s_stack, x_stack) -> BatchPinvApply:
    """Vectorized x' S+ x, P_S x and S+ x over stacked symmetric PSD matrices.

    s_stack has shape (R, p, p) and must already be symmetric; x_stack has
    shape (R, p). Uses the same eigenvalue cutoff rule as pseudo_inverse, so
    scalar and batched paths agree replicate by replicate. Non-finite
    entries are rejected, naming the first bad stack entry.
    """
    s = np.asarray(s_stack, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatchError(f"expected a (R, p, p) stack, got shape {s.shape}")
    return apply_factor(_square_factor(s), x_stack)


def batch_pinv_factor(y_stack, x_stack) -> BatchPinvApply:
    """batch_pinv_apply for S_i = Y_i'Y_i without forming S when n < p:
    factor_stack(y_stack), then apply_factor with x_stack (R, p)."""
    return apply_factor(factor_stack(y_stack), x_stack)

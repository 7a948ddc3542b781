"""Dense symmetric linear algebra: spectral decomposition, Moore-Penrose
pseudoinversion with an explicit rank cutoff, range/null projectors and
quadratic forms.

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

# factor_stack solves in the n x n Gram YY' when n <= THIN_SIDE_RATIO * p.
# On 2048-replicate stacks the thin side is 3-15x faster at n = p/2 and no
# faster from about n = 0.85 p on. Near n = p the smallest eigenvalue of S
# sits at the edge of the Marchenko-Pastur law, where any two solvers agree
# only to about 1e-9, so outputs there would move with nothing gained.
THIN_SIDE_RATIO = 0.75


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
    """Relative eigenvalue cutoff used to decide numerical rank.

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


def pseudo_inverse(m, rel_tol: float | None = None) -> PseudoinverseResult:
    """Moore-Penrose inverse of a symmetric PSD matrix via its spectrum.

    Eigenvalues at or below rel_tol * max(eigenvalue) are treated as exact
    zeros. rel_tol defaults to default_rel_tol(p). Raises
    NotPositiveSemidefiniteError when an eigenvalue sits below the PSD slack.
    """
    return pseudo_inverse_from_eigen(sym_eigen(m), rel_tol)


def pseudo_inverse_from_eigen(
    dec: SpectralDecomposition, rel_tol: float | None = None, rank: int | None = None
) -> PseudoinverseResult:
    """pseudo_inverse for a matrix whose decomposition is already at hand.

    rank, when given, inverts exactly that many of the largest eigenvalues
    instead of those above the cutoff. Finite-difference oracles lock the
    rank this way so that perturbed evaluations cannot flip it.
    """
    w = dec.eigenvalues
    v = dec.eigenvectors
    p = w.size
    if rel_tol is None:
        rel_tol = default_rel_tol(p)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    lam_max = w[0]
    if w[-1] < -PSD_SLACK * lam_max:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {w[-1]:.6e} below -{PSD_SLACK:g} * {lam_max:.6e}"
        )
    cutoff = rel_tol * max(lam_max, 0.0)
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


def projectors(m, rel_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(P, I - P) with P the orthogonal projector onto the column space of M."""
    pr = pseudo_inverse(m, rel_tol)
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
    """The x-independent half of the batched pseudoinverse for a stack of S_i.

    vectors are the eigenvectors (ascending order) of S_i, or of the Gram
    matrix G_i = Y_i Y_i' on the thin side, where y holds the Y_i and scale
    the power of two t_i that apply_factor carries G+^2 b by. keep, rank,
    inv_w and lam_max_pinv are the cutoff rule's outputs (_batch_spectrum).
    """

    vectors: np.ndarray
    keep: np.ndarray
    rank: np.ndarray
    inv_w: np.ndarray
    lam_max_pinv: np.ndarray
    y: np.ndarray | None = None
    scale: np.ndarray | None = None


def check_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first stack entry of a with a non-finite value."""
    finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"stack entry {i}: {what} has non-finite entries")


def _batch_spectrum(a: np.ndarray, rel_tol: float):
    """eigh of a symmetric PSD stack plus the pseudo_inverse cutoff rule.

    Returns the eigenvectors (ascending order), the kept-eigenvalue mask,
    the ranks, 1/w on the kept eigenvalues (0 elsewhere) and lambda_max of
    each pseudoinverse. Raises on a non-converged solve or an eigenvalue
    below the PSD slack, naming the stack entry.
    """
    try:
        w, v = np.linalg.eigh(a)  # ascending per slice
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
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    wmin_kept = np.where(keep, w, np.inf).min(axis=1)
    lam_max_pinv = np.where(rank > 0, 1.0 / wmin_kept, 0.0)
    return v, keep, rank, inv_w, lam_max_pinv


def _square_factor(s: np.ndarray, rel_tol: float | None) -> PinvFactor:
    check_finite(s, "S")
    if rel_tol is None:
        rel_tol = default_rel_tol(s.shape[1])
    return PinvFactor(*_batch_spectrum(s, rel_tol))


def factor_stack(y_stack, rel_tol: float | None = None) -> PinvFactor:
    """Factor S_i = Y_i'Y_i for repeated apply_factor calls, in the smaller
    Gram matrix.

    y_stack has shape (R, n, p). For n <= THIN_SIDE_RATIO * p the nonzero
    spectrum of S is that of G = YY' (n x n), which is decomposed;
    otherwise S = Y'Y is formed and symmetrised. The cutoff rule is the
    p x p one (rel_tol * lambda_max, rel_tol defaulting to
    default_rel_tol(p)), and G's nonzero eigenvalues are S's, so ranks
    agree. A non-finite Gram matrix is rejected, naming the stack entry.
    """
    y = np.asarray(y_stack, dtype=float)
    if y.ndim != 3:
        raise DimensionMismatchError(f"expected a (R, n, p) stack, got shape {y.shape}")
    _, n, p = y.shape
    yt = y.transpose(0, 2, 1)
    if n > THIN_SIDE_RATIO * p:
        s = yt @ y
        s = (s + s.transpose(0, 2, 1)) / 2.0
        return _square_factor(s, rel_tol)
    g = y @ yt
    g = (g + g.transpose(0, 2, 1)) / 2.0
    # Non-finite Y, or a Y so large that YY' overflows, shows up in G.
    check_finite(g, "YY'")
    if rel_tol is None:
        rel_tol = default_rel_tol(p)
    # G+^2 b ~ |Y|^-3 over- or underflows for extreme |Y| where S+x ~ |Y|^-2
    # does not. Carrying it scaled by a power of two t ~ |Y|_F = sqrt(tr G)
    # is exact, so the bits are those of Y'(G+^2 b) whenever that was finite.
    t = np.ldexp(1.0, np.frexp(np.einsum("rii->r", g))[1] // 2)
    return PinvFactor(*_batch_spectrum(g, rel_tol), y=y, scale=t)


def factor_coords(factor: PinvFactor, x_stack) -> tuple[np.ndarray, np.ndarray]:
    """The part of apply_factor that is linear in x: the coordinates c of x
    in the factor's kept eigenbasis, and P_S x.

    On the thin side, with G = U diag(w) U' and b = Yx, c = (U'b) w+ and
    P_S x = Y'U c; on the square side c = keep (V'x) and P_S x = V c. Both
    are linear in x, so the coordinates of x + t u are c(x) + t c(u). A
    non-finite x is rejected, naming the stack entry.
    """
    v, y = factor.vectors, factor.y
    x = np.asarray(x_stack, dtype=float)
    shape = (v.shape[0], v.shape[1] if y is None else y.shape[2])
    if x.shape != shape:
        raise DimensionMismatchError(
            f"vector stack shape {x.shape} does not match the factor's {shape}"
        )
    check_finite(x, "x")
    if y is None:
        c = np.where(factor.keep, np.einsum("rjk,rj->rk", v, x), 0.0)
        return c, np.einsum("rjk,rk->rj", v, c)
    b = np.einsum("rnp,rp->rn", y, x)
    c = np.einsum("rjk,rj->rk", v, b) * factor.inv_w  # U'G+b; zero past the rank
    return c, np.einsum("rnp,rn->rp", y, np.einsum("rjk,rk->rj", v, c))


def f_from_coords(factor: PinvFactor, c) -> np.ndarray:
    """F = x'S+x from factor_coords' c: sum c^2 on the thin side, where c
    already carries w+, and sum c^2 w+ on the square side."""
    if factor.y is None:
        return np.einsum("rk,rk->r", c * factor.inv_w, c)
    return np.einsum("rk,rk->r", c, c)


def apply_factor(factor: PinvFactor, x_stack) -> BatchPinvApply:
    """F, P_S x, S+ x and lambda_max(S+) for one (R, p) stack of x.

    On the thin side, with G = U diag(w) U' and b = Yx,

        F = sum_k (u_k'b / w_k)^2,  P_S x = Y'G+ b,  S+ x = Y'G+^2 b,

    and lambda_max(S+) = 1 / the smallest kept w. A non-finite x is
    rejected, naming the stack entry.
    """
    v, inv_w, y = factor.vectors, factor.inv_w, factor.y
    c, psx = factor_coords(factor, x_stack)
    if y is None:
        spx = np.einsum("rjk,rk->rj", v, c * inv_w)
    else:
        t = factor.scale
        d = np.einsum("rjk,rk->rj", v, c * (inv_w * t[:, None]))
        spx = np.einsum("rnp,rn->rp", y, d) / t[:, None]
    return BatchPinvApply(
        f=f_from_coords(factor, c),
        rank=factor.rank,
        psx=psx,
        spx=spx,
        lam_max_pinv=factor.lam_max_pinv,
    )


def batch_pinv_apply(s_stack, x_stack, rel_tol: float | None = None) -> BatchPinvApply:
    """Vectorized x' S+ x, P_S x and S+ x over stacked symmetric PSD matrices.

    s_stack has shape (R, p, p) and must already be symmetric; x_stack has
    shape (R, p). Uses the same eigenvalue cutoff rule as pseudo_inverse, so
    scalar and batched paths agree replicate by replicate. Non-finite
    entries are rejected, naming the first bad stack entry.
    """
    s = np.asarray(s_stack, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatchError(f"expected a (R, p, p) stack, got shape {s.shape}")
    return apply_factor(_square_factor(s, rel_tol), x_stack)


def batch_pinv_factor(y_stack, x_stack, rel_tol: float | None = None) -> BatchPinvApply:
    """batch_pinv_apply for S_i = Y_i'Y_i, solved in the smaller Gram matrix:
    factor_stack(y_stack, rel_tol), then apply_factor with x_stack (R, p)."""
    return apply_factor(factor_stack(y_stack, rel_tol), x_stack)

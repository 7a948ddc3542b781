"""Dense symmetric linear algebra: spectral decomposition, Moore-Penrose
pseudoinversion with an explicit rank cutoff, range/null projectors,
quadratic forms, and the batched pseudoinverse of S = Y'Y that the
Monte-Carlo engines use: linear solves in G = YY' when every G in a stack
has full rank n < p (certified by one shifted Cholesky, or failing that
by eigvalsh), an eigendecomposition of S otherwise.

Everything works on plain float64 arrays. Matrices are symmetrized on entry
because products accumulated in floating point drift off symmetry, and the
downstream formulas all assume an exactly symmetric operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dense-only implementation; the simulation scale of interest is p <= 50.
MAX_DIM = 512

# A symmetric PSD input may carry eigenvalues this far below zero from
# floating-point noise before it is rejected.
PSD_SLACK = 1e-8

# Stack-sized temporaries are built about this many bytes at a time.
SLAB_BYTES = 1 << 18


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
    and the factor they came from, whose lam_max_pinv is the largest
    eigenvalue of each S_i+ (1 / smallest retained eigenvalue). The
    pseudoinverses themselves are never formed.
    """

    f: np.ndarray
    rank: np.ndarray
    psx: np.ndarray
    spx: np.ndarray
    factor: PinvFactor

    @property
    def lam_max_pinv(self) -> np.ndarray:
        return self.factor.lam_max_pinv


@dataclass(eq=False)
class PinvFactor:
    """The x-independent half of the batched pseudoinverse for a stack of
    S_i = Y_i'Y_i. rank is the cutoff rule's output and lam_bound an upper
    bound on each lambda_max(S_i+).

    On the solve side (n < p, every entry of rank n) gram holds G_i = Y_i Y_i',
    y the Y_i and scale the power of two t_i that apply_factor carries
    G^-1 (t d) by. certified marks a solve-side factor whose full rank the
    shifted Cholesky of factor_stack proved: there lam_bound is that
    certificate's bound, and the exact lambda_max(S+) = 1/lambda_min(G)
    comes from eigvalsh(G) on first read of lam_max_pinv. Everywhere else
    lam_bound is the exact value. On the p x p side vectors are S_i's
    eigenvectors (ascending order), keep the kept-eigenvalue mask and inv_w
    1/w on the kept eigenvalues (0 elsewhere).
    """

    rank: np.ndarray
    lam_bound: np.ndarray
    vectors: np.ndarray | None = None
    keep: np.ndarray | None = None
    inv_w: np.ndarray | None = None
    gram: np.ndarray | None = None
    y: np.ndarray | None = None
    scale: np.ndarray | None = None
    certified: bool = False
    _exact: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def lam_max_pinv(self) -> np.ndarray:
        """The exact lambda_max(S_i+), computed once on a certified factor."""
        if not self.certified:
            return self.lam_bound
        if self._exact is None:
            p = self.y.shape[2]
            self._exact = _batch_spectrum(self.gram, default_rel_tol(p), vectors=False)[4]
        return self._exact


def check_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first stack entry of a with a non-finite value."""
    finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"stack entry {i}: {what} has non-finite entries")


def _sym_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack a @ b symmetrised as (M + M')/2, in place and one slab of
    about SLAB_BYTES at a time, so that no second stack of its size is ever
    held. A slab that came out exactly symmetric is left as it is: there
    (M + M')/2 is M bit for bit, save entries above DBL_MAX/2, which it
    would overflow."""
    m = a @ b
    step = max(1, SLAB_BYTES // m[0].nbytes)
    for i in range(0, len(m), step):
        slab = m[i : i + step]
        mt = slab.transpose(0, 2, 1)
        if not np.array_equal(slab, mt):
            slab[...] = (slab + mt) / 2.0
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


def _nonempty_stack(a, kind: str) -> np.ndarray:
    """a as a float64 stack of the given (R, ., .) kind; raises
    DimensionMismatchError naming the shape when a is not 3-d or has an
    empty axis."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or 0 in a.shape:
        raise DimensionMismatchError(f"expected a nonempty {kind} stack, got shape {a.shape}")
    return a


def _reject_underflow(y: np.ndarray, top: np.ndarray) -> None:
    """Reject, naming it, the first nonzero Y_i whose largest squared row
    norm top_i = max_j (Y_i Y_i')_jj is below 2^-1022: G and S have gone
    subnormal or zero, so rank and F would be wrong. A zero Y_i is kept."""
    for i in np.flatnonzero(top < np.finfo(float).tiny):
        if y[i].any():
            raise ValueError(f"stack entry {i}: Y's largest row norm^2 underflows to {top[i]:.3e}")


def _certify_full_rank(g: np.ndarray, t: np.ndarray, p: int):
    """A certified upper bound on lambda_max(S+) = 1/lambda_min(G) for each
    entry of the Gram stack g, or None when some entry fails the certificate:
    the Cholesky of H = G/t^2 - c I, c = 2 rel_tol phi, rel_tol =
    default_rel_tol(p), phi = |G/t^2|_F >= lambda_max(G/t^2).

    Its computed factor R has R'R = H + dH, |dH|_2 <= n gamma_{n+1} |H|_2
    (1 + O(n u)) (Higham 2002, Thm 10.3), and |H|_2 <= phi, so
    lambda_min(G/t^2) >= c - n gamma_{n+1} phi >= 0.97 c, as for n < p <=
    512 that error is below 3e-11 phi, at most n u / 2e-12 < 3 % of c. So
    lambda_min(G) >= 1.94 rel_tol |G|_F, about twice the cutoff rel_tol
    lambda_max(G): eigvalsh, with its O(n u |G|) error, also finds rank n.
    And 1/lambda_min(G) <= 2 / (c t^2) = 1 / (rel_tol |G|_F), the bound
    returned, whose 2x margin covers both backward errors and the roundings
    of phi and the bound: it is >= the float 1/lambda_min of eigvalsh.
    Near the Marchenko-Pastur edge |G|_F is about 4x below tr G, the other
    cheap bound on lambda_max, so it misses far fewer full-rank draws. The
    exact 1/t^2 keeps H and phi's squares of order 1 for any |Y|. H is
    built and factored one slab at a time, the shift subtracted on its
    diagonal view, so no second stack of g's size is held. For a Y near
    the bottom of the normal range the bound exceeds the largest float and
    is returned as inf, without a warning: an infinite bound sends the
    degeneracy rule to the exact lambda_max(S+).
    """
    rel_tol = default_rel_tol(p)
    inv_t2 = (1.0 / t) ** 2
    phi = np.empty(len(g))
    step = max(1, SLAB_BYTES // g[0].nbytes)
    for i in range(0, len(g), step):
        h = g[i : i + step] * inv_t2[i : i + step, None, None]
        phi[i : i + step] = np.sqrt(np.einsum("rij,rij->r", h, h))
        np.einsum("rii->ri", h)[...] -= 2.0 * rel_tol * phi[i : i + step, None]
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return None
    with np.errstate(over="ignore"):
        return inv_t2 / (rel_tol * phi)


def factor_stack(y_stack) -> PinvFactor:
    """Factor S_i = Y_i'Y_i for repeated apply_factor calls.

    y_stack has shape (R, n, p), none of them 0. For n < p the nonzero
    spectrum of S is that of G = YY' (n x n, symmetrised). When one
    shifted Cholesky per entry certifies that every G has rank n under the
    p x p cutoff rule (default_rel_tol(p) * lambda_max; _certify_full_rank
    gives the margins), S+ = Y'G^-2 Y and the factor keeps G for linear
    solves, with the certificate's bound on lambda_max(S+); the exact value
    is computed only if read. When the certificate fails, eigvalsh(G) and
    the cutoff rule decide: rank n everywhere keeps the solve side, with
    exact ranks and lambda_max(S+) = 1/lambda_min(G). Otherwise, and always
    for n >= p, the whole stack takes the p x p side: S = Y'Y symmetrised
    and eigendecomposed. No other code picks a side; run_study calls this
    per slab. A non-finite Gram matrix, and a nonzero Y_i whose squares
    underflow, are rejected, naming the stack entry.
    """
    y = _nonempty_stack(y_stack, "(R, n, p)")
    _, n, p = y.shape
    if n < p:
        g = _sym_product(y, y.transpose(0, 2, 1))
        # Non-finite Y, or a Y so large that YY' overflows, shows up in G.
        check_finite(g, "YY'")
        top = g.diagonal(axis1=1, axis2=2).max(axis=1)
        _reject_underflow(y, top)
        # G^-2 b ~ |Y|^-3 over- or underflows for extreme |Y| where
        # S+x ~ |Y|^-2 does not. Carrying it scaled by a power of two
        # t ~ sqrt(max_i G_ii) is exact; tr G could overflow where G does not.
        t = np.ldexp(1.0, np.frexp(top)[1] // 2)
        bound = _certify_full_rank(g, t, p)
        if bound is not None:
            return PinvFactor(np.full(len(g), n), bound, gram=g, y=y, scale=t, certified=True)
        _, _, _, rank, lam_max_pinv = _batch_spectrum(g, default_rel_tol(p), vectors=False)
        if np.all(rank == n):
            return PinvFactor(rank, lam_max_pinv, gram=g, y=y, scale=t)
    else:
        _reject_underflow(y, np.einsum("rnp,rnp->rn", y, y).max(axis=1))
    return _square_factor(_sym_product(y.transpose(0, 2, 1), y))


def _factor_shape(factor: PinvFactor) -> tuple[int, int]:
    """(R, p) of the stack a factor was made from."""
    return len(factor.rank), (factor.vectors if factor.y is None else factor.y).shape[2]


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
    r, p = _factor_shape(factor)
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
    """F = x'S+x from coordinates c of shape (..., R, .), such as one (R, .)
    slice of factor_coords' c: sum c^2 on the solve side, sum c^2 w+ on the
    p x p side."""
    return np.einsum("...k,...k->...", c * factor.inv_w if factor.y is None else c, c)


def apply_factor(factor: PinvFactor, x_stack) -> BatchPinvApply:
    """F, P_S x and S+ x for one (R, p) stack of x; lambda_max(S+) is read
    from the factor only when the result's lam_max_pinv is.

    On the solve side, with d = G^-1 Y x,

        F = |d|^2,  P_S x = Y'd,  S+ x = Y'G^-1 (t d) / t,

    with t the factor's power-of-two scale. An x of another shape is
    rejected, naming it, and a non-finite x naming the stack entry.
    """
    x = np.asarray(x_stack, dtype=float)
    r, p = _factor_shape(factor)
    if x.shape != (r, p):
        raise DimensionMismatchError(
            f"x stack shape {x.shape} does not match the factor's (R, p) = ({r}, {p})"
        )
    c, psx = (a[:, 0] for a in factor_coords(factor, x[..., None, :]))
    if factor.y is None:
        spx = np.einsum("rjk,rk->rj", factor.vectors, c * factor.inv_w)
    else:
        t = factor.scale
        e = np.linalg.solve(factor.gram, (c * t[:, None])[:, :, None])
        spx = np.einsum("rnp,rn->rp", factor.y, e[:, :, 0]) / t[:, None]
    return BatchPinvApply(f_from_coords(factor, c), factor.rank, psx, spx, factor)


def batch_pinv_apply(s_stack, x_stack) -> BatchPinvApply:
    """Vectorized x' S+ x, P_S x and S+ x over stacked symmetric PSD matrices.

    s_stack has shape (R, p, p) and must already be symmetric; x_stack has
    shape (R, p). Uses the same eigenvalue cutoff rule as pseudo_inverse, so
    scalar and batched paths agree replicate by replicate. Non-finite
    entries are rejected, naming the first bad stack entry.
    """
    s = _nonempty_stack(s_stack, "(R, p, p)")
    if s.shape[1] != s.shape[2]:
        raise DimensionMismatchError(f"expected a (R, p, p) stack, got shape {s.shape}")
    return apply_factor(_square_factor(s), x_stack)


def batch_pinv_factor(y_stack, x_stack) -> BatchPinvApply:
    """batch_pinv_apply for S_i = Y_i'Y_i without forming S when n < p:
    factor_stack(y_stack), then apply_factor with x_stack (R, p)."""
    return apply_factor(factor_stack(y_stack), x_stack)

"""Analytic matrix derivatives through a Wishart factor Y (S = Y'Y) and the
Stein-type integration-by-parts identities built from them, each paired with
an independent finite-difference or Monte-Carlo oracle.

All analytic formulas hold at locally constant rank min(n, p), which is the
generic situation; the finite-difference oracles therefore lock the rank of
the perturbed pseudoinverses instead of re-deciding it from a cutoff, and
configurations too close to a rank change are rejected before checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, randgen
from .estimators import (
    Baranchik,
    Estimator,
    ShrinkageFunction,
    constant_shrinkage,
    f_degenerate,
    pinv_geometry,
)

CHUNK = 2048

# Central-difference step: h = FD_STEP_SCALE * max(1, |coordinate|).
FD_STEP_SCALE = 1e-5

# MC identity checks pass at 3 combined standard errors, but never demand
# agreement finer than this absolute floor.
MC_ABS_FLOOR = 1e-3


class RankDegenerateError(ValueError):
    """Y is too close to a rank change for constant-rank derivatives."""


@dataclass(frozen=True)
class IdentityReport:
    """One identity comparison. For matrix-valued identities the analytic
    and oracle fields carry Frobenius norms; errors are norm-based either
    way, with rel_err = abs_err / max(1, |oracle|)."""

    name: str
    analytic: float
    oracle: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool


def _report(name: str, analytic, oracle, tolerance: float) -> IdentityReport:
    a = np.asarray(analytic, dtype=float)
    o = np.asarray(oracle, dtype=float)
    abs_err = float(np.linalg.norm(a - o))
    rel_err = abs_err / max(1.0, float(np.linalg.norm(o)))
    return IdentityReport(
        name=name,
        analytic=float(np.linalg.norm(a)) if a.ndim else float(a),
        oracle=float(np.linalg.norm(o)) if o.ndim else float(o),
        abs_err=abs_err,
        rel_err=rel_err,
        tolerance=tolerance,
        passed=rel_err <= tolerance,
    )


def _checked_xy(x, y):
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 2:
        raise linalg.DimensionMismatchError(f"Y must be a matrix, got shape {yv.shape}")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (yv.shape[1],):
        raise linalg.DimensionMismatchError(
            f"x has shape {xv.shape}, expected ({yv.shape[1]},)"
        )
    return xv, yv


def _checked_index(y: np.ndarray, alpha: int, beta: int) -> None:
    n, p = y.shape
    if not (0 <= alpha < n and 0 <= beta < p):
        raise IndexError(f"(alpha, beta) = ({alpha}, {beta}) outside a {n} x {p} factor")


def _pinv_locked(y: np.ndarray, rank: int) -> linalg.PseudoinverseResult:
    # Finite differences perturb Y while the analytic formulas assume
    # locally constant rank; locking it keeps the eigenvalue cutoff from
    # flipping between the two perturbed evaluations.
    s = y.T @ y
    return linalg.pseudo_inverse_from_eigen(linalg.sym_eigen((s + s.T) / 2.0), rank=rank)


def _locked_geometry(x: np.ndarray, y: np.ndarray) -> tuple[linalg.PseudoinverseResult, int]:
    """Fixed-rank pseudoinverse pieces for S = Y'Y at rank min(n, p).

    Flags Y as rank-degenerate when the smallest retained eigenvalue is
    indistinguishable from the discarded ones.
    """
    n, p = y.shape
    k = min(n, p)
    s = y.T @ y
    s = (s + s.T) / 2.0
    dec = linalg.sym_eigen(s)
    lam_max = max(dec.eigenvalues[0], 0.0)
    if dec.eigenvalues[k - 1] <= 1e-10 * max(lam_max, 1.0):
        raise RankDegenerateError(
            f"eigenvalue {k - 1} of S is {dec.eigenvalues[k - 1]:.3e}; "
            "Y is numerically rank-degenerate"
        )
    return linalg.pseudo_inverse_from_eigen(dec, rank=k), k


# ---------------------------------------------------------------------------
# analytic derivative formulas


def ds_dy(y, alpha: int, beta: int) -> np.ndarray:
    """d(Y'Y)/dY_ab entrywise: (k, l) -> delta_bk Y_al + delta_bl Y_ak."""
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 2:
        raise linalg.DimensionMismatchError(f"Y must be a matrix, got shape {yv.shape}")
    _checked_index(yv, alpha, beta)
    p = yv.shape[1]
    out = np.zeros((p, p))
    out[beta, :] += yv[alpha, :]
    out[:, beta] += yv[alpha, :]
    return out


def df_dy(x, y, alpha: int, beta: int) -> float:
    """dF/dY_ab for F = x' S+ x at locked rank min(n, p).

        -2 (x'S+Y')_a (S+x)_b + 2 (x'S+S+Y')_a ((I - SS+)x)_b

    The second term carries the out-of-range component of x and is exactly
    zero when n >= p.
    """
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    geo, _ = _locked_geometry(xv, yv)
    u = geo.pinv @ xv
    cx = geo.complement @ xv
    return float(
        -2.0 * (yv @ u)[alpha] * u[beta] + 2.0 * (yv @ (geo.pinv @ u))[alpha] * cx[beta]
    )


def df_dy_matrix(x, y) -> np.ndarray:
    """All of dF/dY at once: -2 (Y S+ x)(S+ x)' + 2 (Y S+ S+ x)((I - SS+)x)'."""
    xv, yv = _checked_xy(x, y)
    geo, _ = _locked_geometry(xv, yv)
    u = geo.pinv @ xv
    cx = geo.complement @ xv
    return -2.0 * np.outer(yv @ u, u) + 2.0 * np.outer(yv @ (geo.pinv @ u), cx)


def dm_dy(x, y, alpha: int, beta: int) -> np.ndarray:
    """d(S+ x x' S S+)/dY_ab at locked rank: the nine-term expansion.

    Written exactly as derived, term by term; several terms cancel against
    each other analytically (YSS+ = Y), but they are kept separate so the
    formula under test is the stated one.
    """
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    geo, _ = _locked_geometry(xv, yv)
    pv = geo.pinv
    c = geo.complement
    u = pv @ xv  # S+ x
    qx = geo.projector @ xv  # SS+ x
    cx = c @ xv  # (I - SS+) x
    ya = yv[alpha]
    y_pinv_a = ya @ pv  # (Y S+)_{alpha, :}
    yu_a = float(yv[alpha] @ u)  # (Y S+ x)_alpha
    ypu_a = float(yv[alpha] @ (pv @ u))  # (Y S+ S+ x)_alpha
    yx_a = float(yv[alpha] @ xv)  # (Y x)_alpha
    yqx_a = float(yv[alpha] @ qx)  # (Y SS+ x)_alpha
    out = cx[beta] * np.outer(pv @ (pv @ ya), qx)
    out -= yu_a * np.outer(pv[:, beta], qx)
    out -= u[beta] * np.outer(pv @ ya, qx)
    out += ypu_a * np.outer(c[:, beta], qx)
    out += xv[beta] * np.outer(u, y_pinv_a)
    out += yx_a * np.outer(u, pv[beta, :])
    out += yu_a * np.outer(u, c[beta, :])
    out -= qx[beta] * np.outer(u, y_pinv_a)
    out -= yqx_a * np.outer(u, pv[beta, :])
    return out


# ---------------------------------------------------------------------------
# finite-difference oracles


def _fd_step(coord: float) -> float:
    return FD_STEP_SCALE * max(1.0, abs(coord))


def _f_locked(x: np.ndarray, y: np.ndarray, rank: int) -> float:
    return float(x @ (_pinv_locked(y, rank).pinv @ x))


def _m_locked(x: np.ndarray, y: np.ndarray, rank: int) -> np.ndarray:
    geo = _pinv_locked(y, rank)
    u = geo.pinv @ x
    return np.outer(u, geo.projector @ x)  # S+ x x' S S+


def _central_diff_y(fn: Callable[[np.ndarray], object], y: np.ndarray, alpha: int, beta: int):
    h = _fd_step(y[alpha, beta])
    yp = y.copy()
    yp[alpha, beta] += h
    ym = y.copy()
    ym[alpha, beta] -= h
    fp = np.asarray(fn(yp), dtype=float)
    fm = np.asarray(fn(ym), dtype=float)
    return (fp - fm) / (2.0 * h)


def fd_ds_dy(y, alpha: int, beta: int) -> np.ndarray:
    """Central difference of S = Y'Y in the (alpha, beta) entry of Y."""
    yv = np.asarray(y, dtype=float)
    _checked_index(yv, alpha, beta)
    return _central_diff_y(lambda m: (m.T @ m + (m.T @ m).T) / 2.0, yv, alpha, beta)


def fd_df_dy(x, y, alpha: int, beta: int) -> float:
    """Central difference of F = x' S+ x, pseudoinverse at locked rank."""
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    k = min(yv.shape)
    return float(_central_diff_y(lambda m: _f_locked(xv, m, k), yv, alpha, beta))


def fd_dm_dy(x, y, alpha: int, beta: int) -> np.ndarray:
    """Central difference of S+ x x' S S+, pseudoinverse at locked rank."""
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    k = min(yv.shape)
    return _central_diff_y(lambda m: _m_locked(xv, m, k), yv, alpha, beta)


# ---------------------------------------------------------------------------
# the two scalar building-block identities


def trace_grad_identity(
    x, y, r: ShrinkageFunction, tolerance: float = 1e-5
) -> IdentityReport:
    """tr(Y' grad_Y [r(F)^2 SS+ x x' S+ / F^2]) against its closed form.

        analytic = -4 r(F) r'(F) + r(F)^2 (p - 2m + 3) / F,  m = min(n, p)

    The oracle assembles the trace from central differences over every
    entry of Y.
    """
    xv, yv = _checked_xy(x, y)
    n, p = yv.shape
    geo, k = _locked_geometry(xv, yv)
    u = geo.pinv @ xv
    f = float(xv @ u)
    rf = r(f)
    rdf = r.deriv(f)
    analytic = -4.0 * rf * rdf + rf * rf * (p - 2.0 * k + 3.0) / f

    def field(m: np.ndarray) -> np.ndarray:
        g = _pinv_locked(m, k)
        ux = g.pinv @ xv
        fx = float(xv @ ux)
        rfx = r(fx)
        return (rfx * rfx / (fx * fx)) * np.outer(g.projector @ xv, ux)

    oracle = 0.0
    for alpha in range(n):
        for beta in range(p):
            d = _central_diff_y(field, yv, alpha, beta)
            oracle += float(yv[alpha] @ d[beta])
    return _report("trace_grad", analytic, oracle, tolerance)


def div_x_identity(x, s, r: ShrinkageFunction, tolerance: float = 1e-5) -> IdentityReport:
    """div_x [r(F) SS+ x / F] against 2 r'(F) + r(F) (m - 2) / F.

    S stays fixed; the oracle sums central differences of each component of
    the vector field over its own coordinate of x.
    """
    geo = pinv_geometry(x, s)
    if geo.degenerate:
        raise RankDegenerateError(f"F = {geo.f:.6e} is degenerate; divergence undefined")
    xv, pr, f = geo.x, geo.pr, geo.f
    rf = r(f)
    analytic = 2.0 * r.deriv(f) + rf * (pr.rank - 2.0) / f

    def field(v: np.ndarray) -> np.ndarray:
        fv = float(v @ (pr.pinv @ v))
        return (r(fv) / fv) * (pr.projector @ v)

    oracle = 0.0
    for i in range(xv.size):
        h = _fd_step(xv[i])
        vp = xv.copy()
        vp[i] += h
        vm = xv.copy()
        vm[i] -= h
        oracle += float((field(vp)[i] - field(vm)[i]) / (2.0 * h))
    return _report("div_x", analytic, oracle, tolerance)


# ---------------------------------------------------------------------------
# Monte-Carlo identities


def _mc_report(name: str, lhs: np.ndarray, rhs: np.ndarray) -> IdentityReport:
    """Compare MC means at 3 combined standard errors (absolute floor applies).

    rhs is the analytic side, lhs the direct statistical side (the oracle).
    """
    reps = lhs.size
    mean_l = float(lhs.mean())
    mean_r = float(rhs.mean())
    se_l = float(lhs.std(ddof=1)) / math.sqrt(reps)
    se_r = float(rhs.std(ddof=1)) / math.sqrt(reps)
    tol_abs = max(3.0 * math.hypot(se_l, se_r), MC_ABS_FLOOR)
    abs_err = abs(mean_r - mean_l)
    scale = max(1.0, abs(mean_l))
    return IdentityReport(
        name=name,
        analytic=mean_r,
        oracle=mean_l,
        abs_err=abs_err,
        rel_err=abs_err / scale,
        tolerance=tol_abs / scale,
        passed=abs_err <= tol_abs,
    )


def stein_identity_mc(
    theta,
    sigma,
    n: int,
    spec: Estimator,
    replicates: int = 100_000,
    seed: int = 0,
) -> IdentityReport:
    """E[2 g'Sigma^{-1}(X - theta)] against E[2 div_x g] for g = delta - X.

    X ~ N(theta, sigma) and S ~ Wishart(n, sigma) are drawn fresh per
    replicate (stream i = replicate i, X variates then Y variates). The
    divergence side uses the closed form; both sides are averaged and
    compared at 3 combined standard errors.
    """
    if replicates < 1000:
        raise ValueError(f"at least 1000 replicates required, got {replicates}")
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    t = np.asarray(theta, dtype=float)
    sig = linalg.symmetrize(sigma)
    if t.shape != (sig.shape[0],):
        raise linalg.DimensionMismatchError(
            f"theta shape {t.shape} does not match covariance {sig.shape}"
        )
    p = t.size
    sqrt_sigma = linalg.sym_sqrt_pd(sig)
    sigma_inv = linalg.inv_pd(sig)
    r = spec.r
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)
    for start in range(0, replicates, CHUNK):
        count = min(CHUNK, replicates - start)
        x, y = randgen.batch_normal_wishart(p, n, t, sqrt_sigma, seed, start, count)
        ba = linalg.batch_pinv_factor(y, x)
        x_sq = np.einsum("ri,ri->r", x, x)
        psx_norm = np.linalg.norm(ba.psx, axis=1)
        degen = f_degenerate(ba.f, x_sq, ba.rank, psx_norm, ba.lam_max_pinv)
        if degen.any():
            i = start + int(np.argmax(degen))
            raise RankDegenerateError(f"degenerate F at replicate {i}")
        rf = r.value(ba.f)
        rdf = r.deriv(ba.f)
        m = ba.rank.astype(float)
        g = -(rf / ba.f)[:, None] * ba.psx
        resid = np.einsum("ij,rj->ri", sigma_inv, x - t)
        lhs[start : start + count] = 2.0 * np.einsum("ri,ri->r", g, resid)
        rhs[start : start + count] = -2.0 * (2.0 * rdf + rf * (m - 2.0) / ba.f)
    return _mc_report("stein", lhs, rhs)


GBuilder = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def eye_g_builder(p: int) -> GBuilder:
    """G(S) = I, whose Y-gradient trace is zero. E[tr(Sigma^{-1} S)] = n p."""
    eye = np.eye(p)

    def build(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = y.shape[0]
        return np.broadcast_to(eye, (count, p, p)), np.zeros(count)

    return build


def shrinkage_g_builder(x, r: ShrinkageFunction) -> GBuilder:
    """G(S) = r(F)^2 S+ x x' S+ S / F^2 for a fixed vector x.

    The trace of its Y-gradient is supplied analytically from the closed
    form -4 r r' + r^2 (p - 2m + 3)/F, the same expression checked by
    trace_grad_identity. One batch_pinv_factor call serves the whole stack.
    """
    xv = np.asarray(x, dtype=float)

    def build(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ba = linalg.batch_pinv_factor(y, np.broadcast_to(xv, (y.shape[0], xv.size)))
        psx_norm = np.linalg.norm(ba.psx, axis=1)
        degen = f_degenerate(ba.f, float(xv @ xv), ba.rank, psx_norm, ba.lam_max_pinv)
        if degen.any():
            i = int(np.argmax(degen))
            raise RankDegenerateError(
                f"degenerate F = {ba.f[i]:.6e} at stack entry {i} in G builder"
            )
        rf = r.value(ba.f)
        rdf = r.deriv(ba.f)
        g = (rf * rf / (ba.f * ba.f))[:, None, None] * ba.spx[:, :, None] * ba.psx[:, None, :]
        trace_grad = -4.0 * rf * rdf + rf * rf * (xv.size - 2.0 * ba.rank + 3.0) / ba.f
        return g, trace_grad

    return build


def stein_haff_mc(
    n: int,
    sigma,
    g_builder: GBuilder,
    replicates: int = 100_000,
    seed: int = 0,
) -> IdentityReport:
    """E[tr(Sigma^{-1} S G)] against E[n tr(G) + tr(Y' grad_Y G')].

    S = Y'Y is drawn fresh per replicate (stream i yields the n*p variates
    of Y, row-major). g_builder maps a chunk's (R, n, p) stack of Y to the
    (R, p, p) stack of G and the (R,) analytic gradient traces.
    """
    if replicates < 1000:
        raise ValueError(f"at least 1000 replicates required, got {replicates}")
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    sig = linalg.symmetrize(sigma)
    p = sig.shape[0]
    sqrt_sigma = linalg.sym_sqrt_pd(sig)
    sigma_inv = linalg.inv_pd(sig)
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)
    for start in range(0, replicates, CHUNK):
        count = min(CHUNK, replicates - start)
        z = np.empty((count, n * p))
        for j in range(count):
            z[j] = randgen.RngStream(seed, start + j).generator().standard_normal(n * p)
        y = z.reshape(count, n, p) @ sqrt_sigma
        g, trace_grad = g_builder(y)
        g = np.asarray(g, dtype=float)
        trace_grad = np.asarray(trace_grad, dtype=float)
        if g.shape != (count, p, p) or trace_grad.shape != (count,):
            raise linalg.DimensionMismatchError(
                f"G builder returned shapes {g.shape} and {trace_grad.shape}, "
                f"expected ({count}, {p}, {p}) and ({count},)"
            )
        s = y.transpose(0, 2, 1) @ y
        lhs[start : start + count] = np.einsum("rij,rji->r", sigma_inv @ s, g)
        rhs[start : start + count] = n * np.einsum("rii->r", g) + trace_grad
    return _mc_report("stein_haff", lhs, rhs)


# ---------------------------------------------------------------------------
# finiteness probe


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    maximum: float
    q50: float
    q90: float
    q99: float

    @classmethod
    def of(cls, samples: np.ndarray) -> "SummaryStats":
        q50, q90, q99 = np.quantile(samples, [0.5, 0.9, 0.99])
        return cls(
            mean=float(samples.mean()),
            maximum=float(samples.max()),
            q50=float(q50),
            q90=float(q90),
            q99=float(q99),
        )


@dataclass(frozen=True)
class FinitenessSummary:
    """Empirical tail summary of 1/F (and of the divergence integrand when a
    shrinkage curve is supplied). Checks finiteness of the samples, nothing
    stronger; the distribution of 1/F is heavy-tailed for small min(n, p)."""

    inv_f: SummaryStats
    divergence: SummaryStats | None
    replicates: int
    all_finite: bool


def finiteness_probe(
    p: int,
    n: int,
    sigma,
    r: ShrinkageFunction | None = None,
    replicates: int = 10_000,
    seed: int = 0,
    theta=None,
    x_scale: float = 1.0,
) -> FinitenessSummary:
    """Sample 1/F = 1/(X'S+X) and summarize its tail.

    When r is given, also summarizes |(n + p - m + 3) r(F)^2/F - 4 r r'|,
    the divergence-size integrand whose expectation the moment conditions
    keep finite. x_scale rescales X only (1/F then scales by 1/x_scale^2
    replicate for replicate, a useful coupling check).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    sig = linalg.symmetrize(sigma)
    if sig.shape[0] != p:
        raise linalg.DimensionMismatchError(
            f"covariance is {sig.shape[0]} x {sig.shape[0]}, expected p={p}"
        )
    t = np.zeros(p) if theta is None else np.asarray(theta, dtype=float)
    if t.shape != (p,):
        raise linalg.DimensionMismatchError(f"theta must have length {p}")
    sqrt_sigma = linalg.sym_sqrt_pd(sig)
    inv_f = np.empty(replicates)
    div = np.empty(replicates) if r is not None else None
    for start in range(0, replicates, CHUNK):
        count = min(CHUNK, replicates - start)
        x, y = randgen.batch_normal_wishart(
            p, n, t, sqrt_sigma, seed, start, count, x_scale=x_scale
        )
        ba = linalg.batch_pinv_factor(y, x)
        with np.errstate(divide="ignore"):
            inv_f[start : start + count] = np.where(ba.f > 0.0, 1.0 / ba.f, np.inf)
        if r is not None:
            rf = r.value(ba.f)
            rdf = r.deriv(ba.f)
            m = ba.rank.astype(float)
            div[start : start + count] = np.abs(
                (n + p - m + 3.0) * rf * rf / ba.f - 4.0 * rf * rdf
            )
    all_finite = bool(np.isfinite(inv_f).all())
    div_stats = None
    if div is not None:
        all_finite = all_finite and bool(np.isfinite(div).all())
        div_stats = SummaryStats.of(div)
    return FinitenessSummary(
        inv_f=SummaryStats.of(inv_f),
        divergence=div_stats,
        replicates=replicates,
        all_finite=all_finite,
    )


# ---------------------------------------------------------------------------
# default verification suite


FD_GRID = ((5, 3), (6, 4), (4, 6), (5, 5))
MC_GRID = ((5, 3), (3, 5))

SUITE_NAMES = (
    "ds_dy",
    "df_dy",
    "dm_dy",
    "trace_grad",
    "div_x",
    "sure_assembly",
    "stein",
    "stein_haff",
    "finiteness",
)


def sample_identity_config(
    p: int,
    n: int,
    rng,
    min_f: float = 1e-6,
    min_gap: float = 1e-6,
    max_tries: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, Y) pair kept comfortably away from rank degeneracy.

    Draws standard-normal entries and rejects configurations whose F falls
    below min_f or whose spectral gap at the rank cutoff falls below
    min_gap * max(lambda_max, 1), where the constant-rank derivative
    formulas stop being testable by finite differences. The gap threshold
    is relative because square factors routinely draw a smallest retained
    eigenvalue orders of magnitude under the leading one, and a central
    difference with h = 1e-5 cannot resolve derivatives across a gap that
    is small on the scale of the spectrum.
    """
    g = randgen._as_generator(rng)
    k = min(n, p)
    for _ in range(max_tries):
        x = g.standard_normal(p)
        y = g.standard_normal((n, p))
        s = y.T @ y
        w = np.linalg.eigvalsh((s + s.T) / 2.0)[::-1]
        gap = w[k - 1] - (w[k] if k < p else 0.0)
        if gap < min_gap * max(w[0], 1.0):
            continue
        if float(x @ (_pinv_locked(y, k).pinv @ x)) < min_f:
            continue
        return x, y
    raise RuntimeError(f"no acceptable (x, Y) configuration in {max_tries} draws")


def _smooth_suite_r() -> ShrinkageFunction:
    # Bounded, increasing, with a genuinely nonzero derivative so the
    # -4 r r' terms are exercised.
    return ShrinkageFunction(
        value=lambda t: 0.5 * t / (1.0 + t),
        deriv=lambda t: 0.5 / ((1.0 + t) * (1.0 + t)),
        value_bound=0.5,
        deriv_bound=0.5,
    )


def _worst(reports: list[IdentityReport], name: str) -> IdentityReport:
    top = max(reports, key=lambda rep: rep.rel_err / rep.tolerance)
    return IdentityReport(
        name=name,
        analytic=top.analytic,
        oracle=top.oracle,
        abs_err=top.abs_err,
        rel_err=top.rel_err,
        tolerance=top.tolerance,
        passed=all(rep.passed for rep in reports),
    )


def _fd_sweep(name: str, seed: int, configs: int) -> IdentityReport:
    r = _smooth_suite_r()
    reports: list[IdentityReport] = []
    for p, n in FD_GRID:
        g = randgen.RngStream(seed, p * 1000 + n).generator()
        for _ in range(configs):
            x, y = sample_identity_config(p, n, g)
            if name == "ds_dy":
                pairs = [
                    (ds_dy(y, a, b), fd_ds_dy(y, a, b))
                    for a in range(n)
                    for b in range(p)
                ]
                for analytic, oracle in pairs:
                    reports.append(_report(name, analytic, oracle, 1e-5))
            elif name == "df_dy":
                fd = np.array(
                    [[fd_df_dy(x, y, a, b) for b in range(p)] for a in range(n)]
                )
                reports.append(_report(name, df_dy_matrix(x, y), fd, 1e-5))
            elif name == "dm_dy":
                for a in range(n):
                    for b in range(p):
                        reports.append(
                            _report(name, dm_dy(x, y, a, b), fd_dm_dy(x, y, a, b), 1e-5)
                        )
            elif name == "trace_grad":
                reports.append(trace_grad_identity(x, y, r))
            elif name == "div_x":
                s = y.T @ y
                reports.append(div_x_identity(x, (s + s.T) / 2.0, r))
            else:
                raise ValueError(f"unknown finite-difference sweep {name!r}")
    return _worst(reports, name)


def _sure_assembly_report(seed: int, configs: int) -> IdentityReport:
    """Exact cross-check: n tr(G) plus the gradient-trace closed form must
    reassemble the quadratic coefficient of the risk-difference integrand,
    r^2 (n + p - 2m + 3)/F - 4 r r'. No randomness beyond the configs."""
    r = _smooth_suite_r()
    reports = []
    for p, n in FD_GRID:
        g = randgen.RngStream(seed, 7000 + p * 10 + n).generator()
        m = min(n, p)
        for _ in range(configs):
            x, y = sample_identity_config(p, n, g)
            geo = _pinv_locked(y, m)
            u = geo.pinv @ x
            f = float(x @ u)
            rf = r(f)
            rdf = r.deriv(f)
            gmat = (rf * rf / (f * f)) * np.outer(u, geo.projector @ x)
            assembled = n * float(np.trace(gmat)) + (
                -4.0 * rf * rdf + rf * rf * (p - 2.0 * m + 3.0) / f
            )
            target = rf * rf * (n + p - 2.0 * m + 3.0) / f - 4.0 * rf * rdf
            reports.append(_report("sure_assembly", assembled, target, 1e-12))
    return _worst(reports, "sure_assembly")


def _finiteness_report(seed: int) -> IdentityReport:
    summaries = [
        finiteness_probe(5, 3, np.eye(5), r=_smooth_suite_r(), replicates=10_000, seed=seed),
        finiteness_probe(3, 3, np.eye(3), r=_smooth_suite_r(), replicates=10_000, seed=seed + 1),
    ]
    finite = all(s.all_finite for s in summaries)
    worst = max(summaries, key=lambda s: s.inv_f.maximum)
    return IdentityReport(
        name="finiteness",
        analytic=worst.inv_f.mean,
        oracle=worst.inv_f.maximum,
        abs_err=0.0 if finite else math.inf,
        rel_err=0.0 if finite else math.inf,
        tolerance=0.0,
        passed=finite,
    )


def run_default_suite(
    seed: int = 13,
    only: str | None = None,
    fd_configs: int = 100,
    mc_replicates: int = 100_000,
) -> list[IdentityReport]:
    """The full identity suite at its standard settings, one report per name.

    Finite-difference identities sweep fd_configs random configurations per
    (p, n) in FD_GRID and report the worst case; the stein and stein_haff
    Monte-Carlo identities run on MC_GRID at mc_replicates. The finiteness
    probe has a fixed size, 10 000 replicates at each of two shapes, whatever
    mc_replicates is. `only` restricts to a single name.
    """
    if only is not None and only not in SUITE_NAMES:
        raise ValueError(f"unknown identity {only!r}; choose from {', '.join(SUITE_NAMES)}")
    wanted = [only] if only else list(SUITE_NAMES)
    reports = []
    for name in wanted:
        if name in ("ds_dy", "df_dy", "dm_dy", "trace_grad", "div_x"):
            reports.append(_fd_sweep(name, seed, fd_configs))
        elif name == "sure_assembly":
            reports.append(_sure_assembly_report(seed, fd_configs))
        elif name == "stein":
            subs = [
                stein_identity_mc(
                    np.zeros(p),
                    np.eye(p),
                    n,
                    Baranchik(constant_shrinkage(0.3)),
                    replicates=mc_replicates,
                    seed=seed + 100 + i,
                )
                for i, (p, n) in enumerate(MC_GRID)
            ]
            reports.append(_worst(subs, "stein"))
        elif name == "stein_haff":
            subs = []
            for i, (p, n) in enumerate(MC_GRID):
                subs.append(
                    stein_haff_mc(
                        n, np.eye(p), eye_g_builder(p), replicates=mc_replicates, seed=seed + 200 + i
                    )
                )
                subs.append(
                    stein_haff_mc(
                        n,
                        np.eye(p),
                        shrinkage_g_builder(np.ones(p), constant_shrinkage(0.3)),
                        replicates=mc_replicates,
                        seed=seed + 300 + i,
                    )
                )
            reports.append(_worst(subs, "stein_haff"))
        elif name == "finiteness":
            reports.append(_finiteness_report(seed + 400))
    return reports

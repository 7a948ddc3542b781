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

from . import linalg, randgen, risk
from .estimators import (
    Baranchik,
    Estimator,
    ShrinkageFunction,
    constant_shrinkage,
    f_degenerate,  # noqa: F401 - not called here; perfbench/spans.py wraps it by name
    geometry,
    pinv_geometry,
)

# Central-difference step: h = FD_STEP_SCALE * max(1, |coordinate|).
FD_STEP_SCALE = 1e-5

# Relative error at which a finite-difference identity check passes.
FD_TOLERANCE = 1e-5

# MC identity checks pass at 3 combined standard errors, but never demand
# agreement finer than this absolute floor.
MC_ABS_FLOOR = 1e-3

# Fewest replicates a Monte-Carlo identity (stein, stein_haff) runs on.
MC_MIN_REPLICATES = 1000


class RankDegenerateError(ValueError):
    """Y is too close to a rank change for constant-rank derivatives. A G
    builder sets entry to the index of the offending Y in its stack."""

    def __init__(self, message: str, entry: int | None = None):
        super().__init__(message)
        self.entry = entry


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


def _gram(y: np.ndarray) -> np.ndarray:
    """S = Y'Y symmetrised, for one factor or a stack of them."""
    s = y.swapaxes(-1, -2) @ y
    return (s + s.swapaxes(-1, -2)) / 2.0


def _pinv_locked(y: np.ndarray) -> linalg.PseudoinverseResult:
    """S+, SS+ and I - SS+ of S = Y'Y at the rank locked to min(n, p), for
    one factor (n, p) or a stack (count, n, p), each factor's bits alike.

    Finite differences perturb Y while the analytic formulas assume locally
    constant rank; locking it keeps the eigenvalue cutoff from flipping
    between the two perturbed evaluations. Raises ValueError for a
    non-finite S or over linalg.MAX_DIM columns, and RankDegenerateError
    (its bound is returned as cutoff) when the last retained eigenvalue
    cannot be told apart from the discarded ones.
    """
    *_, n, p = y.shape
    if min(n, p) < 1 or p > linalg.MAX_DIM:
        raise linalg.DimensionMismatchError(
            f"Y has shape {y.shape}: it needs a row and 1 to {linalg.MAX_DIM} columns"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        s = _gram(y)  # an overflow is rejected just below
    if not np.isfinite(s).all():
        raise ValueError("matrix entries must be finite")
    k = min(n, p)
    w, v = np.linalg.eigh(s)
    w = w[..., ::-1]
    # A contiguous copy keeps every matmul of the construction on one BLAS path.
    v = np.ascontiguousarray(v[..., ::-1])
    cutoff = 1e-10 * np.maximum(w[..., 0], 1.0)
    low = w[..., k - 1]
    if (low <= cutoff).any():
        raise RankDegenerateError(
            f"eigenvalue {k - 1} of S is {low[low <= cutoff][0]:.3e}; "
            "Y is numerically rank-degenerate"
        )
    return linalg._pinv_at_rank(w, v, k, cutoff)


# ---------------------------------------------------------------------------
# analytic derivative formulas; each returns every entry (alpha, beta) of Y


def ds_dy(y) -> np.ndarray:
    """d(Y'Y)/dY as an (n, p, p, p) array: entry [a, b] is the p x p matrix
    (k, l) -> delta_bk Y_al + delta_bl Y_ak."""
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 2:
        raise linalg.DimensionMismatchError(f"Y must be a matrix, got shape {yv.shape}")
    n, p = yv.shape
    out = np.zeros((n, p, p, p))
    for beta in range(p):
        out[:, beta, beta, :] += yv
        out[:, beta, :, beta] += yv
    return out


def df_dy(x, y) -> np.ndarray:
    """dF/dY as an (n, p) array for F = x' S+ x at locked rank min(n, p):

        -2 (Y S+ x)(S+ x)' + 2 (Y S+ S+ x)((I - SS+) x)'

    The second term carries the out-of-range component of x and is exactly
    zero when n >= p.
    """
    xv, yv = _checked_xy(x, y)
    g = geometry(xv, _pinv_locked(yv))
    return -2.0 * np.outer(yv @ g.spx, g.spx) + 2.0 * np.outer(yv @ (g.pr.pinv @ g.spx), g.cx)


def dm_dy(x, y) -> np.ndarray:
    """d(S+ x x' S S+)/dY as an (n, p, p, p) array at locked rank: entry
    [a, b] is the nine-term expansion at (a, b).

    Written exactly as derived, term by term, each term over every (a, b)
    at once; several cancel against each other analytically (YSS+ = Y), but
    they are kept separate so the formula under test is the stated one.
    """
    xv, yv = _checked_xy(x, y)
    g = geometry(xv, _pinv_locked(yv))
    pv, c, u, qx, cx = g.pr.pinv, g.pr.complement, g.spx, g.psx, g.cx
    # The bits of the loop in tests/fd_oracles.py: a row of Y meets S+ one
    # row at a time, and each scalar multiplies a finished outer product.
    y_pinv = np.array([ya @ pv for ya in yv])  # (Y S+)_{alpha, :}
    pinv_y = np.array([pv @ ya for ya in yv])
    pinv2_y = np.array([pv @ v for v in pinv_y])
    yu, ypu, yx, yqx = (np.array([ya @ v for ya in yv]) for v in (u, pv @ u, xv, qx))

    def outer(a, b) -> np.ndarray:
        return a[..., :, None] * b[..., None, :]

    a_, b_ = np.s_[:, None, None, None], np.s_[None, :, None, None]  # by alpha, by beta
    return (
        cx[b_] * outer(pinv2_y, qx)[:, None]
        - yu[a_] * outer(pv.T, qx)
        - u[b_] * outer(pinv_y, qx)[:, None]
        + ypu[a_] * outer(c.T, qx)
        + xv[b_] * outer(u, y_pinv)[:, None]
        + yx[a_] * outer(u, pv)
        + yu[a_] * outer(u, c)
        - qx[b_] * outer(u, y_pinv)[:, None]
        - yqx[a_] * outer(u, pv)
    )


# ---------------------------------------------------------------------------
# finite-difference oracles


def _fd_step(coord):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(coord))


# The suite's sweeps evaluate every perturbation of Y, or of x, in one
# stacked call. Each stacked step repeats the per-slice arithmetic of the
# per-entry central differences in tests/fd_oracles.py (_central_diff_y,
# fd_ds_dy, fd_df_dy, fd_dm_dy, fd_div_x), which the tests hold them to bit
# for bit.


def _central_diff_stack(fn: Callable[[np.ndarray], object], v: np.ndarray) -> np.ndarray:
    """The per-entry central difference at every entry of v from a single
    call of fn.

    fn maps a (2 v.size,) + v.shape stack, v + h_i e_i for each entry i in
    row-major order followed by v - h_i e_i, to one value per slice.
    Returns the v.shape + value-shape array of central differences.
    """
    cells = v.size
    h = _fd_step(v.ravel())
    stack = np.repeat(v[None], 2 * cells, axis=0)
    diag = np.arange(cells)
    flat = stack.reshape(2, cells, cells)
    flat[0, diag, diag] += h
    flat[1, diag, diag] -= h
    values = np.asarray(fn(stack), dtype=float)
    step = (2.0 * h).reshape((cells,) + (1,) * (values.ndim - 1))
    return ((values[:cells] - values[cells:]) / step).reshape(v.shape + values.shape[1:])


def _stacked_fd_df_dy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fd_df_dy at every (alpha, beta), as an (n, p) array."""
    return _central_diff_stack(lambda ys: geometry(x, _pinv_locked(ys)).f, y)


def _stacked_fd_dm_dy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fd_dm_dy at every (alpha, beta), as an (n, p, p, p) array."""
    def m(ys: np.ndarray) -> np.ndarray:
        g = geometry(x, _pinv_locked(ys))
        return g.spx[:, :, None] * g.psx[:, None, :]

    return _central_diff_stack(m, y)


# ---------------------------------------------------------------------------
# the two scalar building-block identities; their closed forms live in risk,
# where they also build the risk-difference integrand


def trace_grad_identity(x, y, r: ShrinkageFunction) -> IdentityReport:
    """tr(Y' grad_Y [r(F)^2 SS+ x x' S+ / F^2]) against its closed form.

        analytic = -4 r(F) r'(F) + r(F)^2 (p - 2m + 3) / F,  m = min(n, p)

    The oracle assembles the trace from central differences over every
    entry of Y, all perturbations evaluated in one stacked call. Raises
    RankDegenerateError at F <= 0.
    """
    xv, yv = _checked_xy(x, y)
    n, p = yv.shape
    f = geometry(xv, _pinv_locked(yv)).f
    if f <= 0.0:
        raise RankDegenerateError(f"F = {f:.6e} is degenerate; r(F)/F undefined")
    analytic = risk._trace_grad_form(r(f), r.deriv(f), f, min(n, p), p)

    def field(ys: np.ndarray) -> np.ndarray:
        g = geometry(xv, _pinv_locked(ys))
        rfx = r(g.f)
        return (rfx * rfx / (g.f * g.f))[:, None, None] * (g.psx[:, :, None] * g.spx[:, None, :])

    d = _central_diff_stack(field, yv)
    oracle = 0.0
    for alpha, beta in np.ndindex(n, p):
        oracle += float(yv[alpha] @ d[alpha, beta, beta])
    return _report("trace_grad", analytic, oracle, FD_TOLERANCE)


def div_x_identity(x, s, r: ShrinkageFunction) -> IdentityReport:
    """div_x [r(F) SS+ x / F] against 2 r'(F) + r(F) (m - 2) / F.

    S stays fixed; the oracle is the trace of the field's central-difference
    Jacobian over x, all perturbations evaluated in one stacked call.
    """
    geo = pinv_geometry(x, s)
    if geo.degenerate:
        raise RankDegenerateError(f"F = {geo.f:.6e} is degenerate; divergence undefined")
    xv, pr, f = geo.x, geo.pr, geo.f
    analytic = risk._div_form(r(f), r.deriv(f), f, pr.rank)

    def field(vs: np.ndarray) -> np.ndarray:
        # Row by row as the scalar field: F from a dot, P x from a
        # matrix-vector product. A stacked matrix product moves their bits.
        fv = np.array([float(v @ (pr.pinv @ v)) for v in vs])
        return (r(fv) / fv)[:, None] * (pr.projector @ vs[:, :, None])[:, :, 0]

    d = _central_diff_stack(field, xv)
    # The trace summed in order; np.trace pairs the terms from p = 8 on.
    oracle = 0.0
    for i in range(xv.size):
        oracle += float(d[i, i])
    return _report("div_x", analytic, oracle, FD_TOLERANCE)


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


def _mc_setup(replicates: int, floor: int, n: int, sigma, theta):
    """The Monte-Carlo engines' shared checks (at least `floor` replicates,
    n >= 1, theta against sigma); returns theta, Sigma^{1/2}, Sigma^{-1}."""
    if replicates < floor:
        raise ValueError(f"replicates must be at least {floor}, got {replicates}")
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    t, sig = randgen._checked_theta_sigma(theta, sigma)
    return t, linalg.sym_sqrt_pd(sig), linalg.inv_pd(sig)


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
    replicate (stream i = replicate i, X variates then Y variates, read
    slab by slab through risk.slabs). The divergence side uses the closed
    form; both sides are averaged and compared at 3 combined standard errors.
    """
    t, sqrt_sigma, sigma_inv = _mc_setup(replicates, MC_MIN_REPLICATES, n, sigma, theta)
    r = spec.r
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)

    def body(start: int, stop: int) -> None:
        streams = randgen.StreamReader(seed, start, stop - start)
        x = t + streams.read(t.size) @ sqrt_sigma
        for lo, hi, y in risk.slabs(streams, n, sqrt_sigma):
            ba, degen = risk.batch_geometry(x[lo:hi], y)
            if degen.any():
                i = start + lo + int(np.argmax(degen))
                raise RankDegenerateError(f"degenerate F at replicate {i}")
            rf = r.value(ba.f)
            g = -(rf / ba.f)[:, None] * ba.psx
            resid = np.einsum("ij,rj->ri", sigma_inv, x[lo:hi] - t)
            lhs[start + lo : start + hi] = 2.0 * np.einsum("ri,ri->r", g, resid)
            rhs[start + lo : start + hi] = -2.0 * risk._div_form(rf, r.deriv(ba.f), ba.f, ba.rank)

    risk.map_chunks(replicates, body)
    return _mc_report("stein", lhs, rhs)


GBuilder = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def eye_g_builder(p: int) -> GBuilder:
    """G(S) = I, whose Y-gradient trace is zero. E[tr(Sigma^{-1} S)] = n p."""
    eye = np.eye(p)

    def build(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.broadcast_to(eye, (len(y), p, p)), np.zeros(len(y))

    return build


def shrinkage_g_builder(x, r: ShrinkageFunction) -> GBuilder:
    """G(S) = r(F)^2 S+ x x' S+ S / F^2 for a fixed vector x.

    The trace of its Y-gradient is supplied analytically from the closed
    form -4 r r' + r^2 (p - 2m + 3)/F, the same expression checked by
    trace_grad_identity. One batch_geometry call serves the whole stack.
    """
    xv = np.asarray(x, dtype=float)

    def build(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ba, degen = risk.batch_geometry(np.broadcast_to(xv, (y.shape[0], xv.size)), y)
        if degen.any():
            i = int(np.argmax(degen))
            raise RankDegenerateError(
                f"degenerate F = {ba.f[i]:.6e} at stack entry {i} in G builder", entry=i
            )
        rf, rdf = r.value(ba.f), r.deriv(ba.f)
        g = (rf * rf / (ba.f * ba.f))[:, None, None] * ba.spx[:, :, None] * ba.psx[:, None, :]
        return g, risk._trace_grad_form(rf, rdf, ba.f, ba.rank, xv.size)

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
    of Y, row-major), slab by slab through risk.slabs. g_builder maps a
    slab's (R, n, p) stack of Y to the (R, p, p) stack of G and the (R,)
    analytic gradient traces. A RankDegenerateError from it that names a
    stack entry is raised again naming the replicate.
    """
    p = linalg.symmetrize(sigma).shape[0]
    _, sqrt_sigma, sigma_inv = _mc_setup(replicates, MC_MIN_REPLICATES, n, sigma, np.zeros(p))
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)

    def body(start: int, stop: int) -> None:
        streams = randgen.StreamReader(seed, start, stop - start)
        for lo, hi, y in risk.slabs(streams, n, sqrt_sigma):
            try:
                g, trace_grad = (np.asarray(a, dtype=float) for a in g_builder(y))
            except RankDegenerateError as exc:
                if exc.entry is None:
                    raise
                i = start + lo + exc.entry
                raise RankDegenerateError(f"degenerate F at replicate {i}") from exc
            if g.shape != (hi - lo, p, p) or trace_grad.shape != (hi - lo,):
                raise linalg.DimensionMismatchError(
                    f"G builder returned shapes {g.shape} and {trace_grad.shape}, "
                    f"expected ({hi - lo}, {p}, {p}) and ({hi - lo},)"
                )
            s = y.transpose(0, 2, 1) @ y
            lhs[start + lo : start + hi] = np.einsum("rij,rji->r", sigma_inv @ s, g)
            rhs[start + lo : start + hi] = n * np.einsum("rii->r", g) + trace_grad

    risk.map_chunks(replicates, body)
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
) -> FinitenessSummary:
    """Sample 1/F = 1/(X'S+X) at theta = 0 and summarize its tail.

    When r is given, also summarizes |(n + p - m + 3) r(F)^2/F - 4 r r'|,
    the divergence-size integrand whose expectation the moment conditions
    keep finite.
    """
    q = linalg.symmetrize(sigma).shape[0]
    if q != p:
        raise linalg.DimensionMismatchError(f"sigma is {q} x {q} but p = {p}")
    t, sqrt_sigma, _ = _mc_setup(replicates, 1, n, sigma, np.zeros(p))
    f, m = np.empty(replicates), np.empty(replicates)

    def body(start: int, stop: int) -> None:
        streams = randgen.StreamReader(seed, start, stop - start)
        x = t + streams.read(p) @ sqrt_sigma
        for lo, hi, y in risk.slabs(streams, n, sqrt_sigma):
            ba = linalg.apply_factor(linalg.factor_stack(y), x[lo:hi])
            f[start + lo : start + hi], m[start + lo : start + hi] = ba.f, ba.rank

    risk.map_chunks(replicates, body)
    inv_f = np.divide(1.0, f, out=np.full(replicates, np.inf), where=f > 0.0)
    div = None
    if r is not None:
        rf, rdf = r.value(f), r.deriv(f)
        # F = 0 reads inf, as in inv_f, and fails all_finite.
        quad = np.divide((n + p - m + 3.0) * rf * rf, f, out=np.full(f.shape, np.inf), where=f > 0)
        div = np.abs(quad - 4.0 * rf * rdf)
    return FinitenessSummary(
        inv_f=SummaryStats.of(inv_f),
        divergence=None if div is None else SummaryStats.of(div),
        replicates=replicates,
        all_finite=all(bool(np.isfinite(a).all()) for a in (inv_f, div) if a is not None),
    )


# ---------------------------------------------------------------------------
# default verification suite


FD_GRID = ((5, 3), (6, 4), (4, 6), (5, 5))
MC_GRID = ((5, 3), (3, 5))

# sample_identity_config's rejection bounds and its number of draws.
CONFIG_MIN_F = 1e-6
CONFIG_MIN_GAP = 1e-6
CONFIG_MAX_TRIES = 1000


def sample_identity_config(p: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, Y) pair kept comfortably away from rank degeneracy.

    Draws standard-normal entries and rejects configurations whose F falls
    below CONFIG_MIN_F or whose spectral gap at the rank cutoff falls below
    CONFIG_MIN_GAP * max(lambda_max, 1), where the constant-rank derivative
    formulas stop being testable by finite differences. The gap threshold
    is relative because square factors routinely draw a smallest retained
    eigenvalue orders of magnitude under the leading one, and a central
    difference with h = 1e-5 cannot resolve derivatives across a gap that
    is small on the scale of the spectrum.
    """
    if p < 1 or n < 1:
        raise ValueError(f"p and n must be at least 1, got p={p}, n={n}")
    g = randgen._as_generator(rng)
    k = min(n, p)
    for _ in range(CONFIG_MAX_TRIES):
        x = g.standard_normal(p)
        y = g.standard_normal((n, p))
        w = np.linalg.eigvalsh(_gram(y))[::-1]
        gap = w[k - 1] - (w[k] if k < p else 0.0)
        if gap < CONFIG_MIN_GAP * max(w[0], 1.0):
            continue
        if geometry(x, _pinv_locked(y)).f < CONFIG_MIN_F:
            continue
        return x, y
    raise RuntimeError(f"no acceptable (x, Y) configuration in {CONFIG_MAX_TRIES} draws")


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


def _fd_sweep(
    name: str, check: Callable, stream: Callable[[int, int], int] = lambda p, n: p * 1000 + n
) -> Callable[[int, int, int], IdentityReport]:
    """Suite entry: the worst of check(x, y, r) over `configs` random (x, Y)
    per (p, n) in FD_GRID, drawn from stream (seed, stream(p, n)). The
    replicate count plays no part."""

    def sweep(seed: int, configs: int, replicates: int) -> IdentityReport:
        r = _smooth_suite_r()
        reports: list[IdentityReport] = []
        for p, n in FD_GRID:
            g = randgen.RngStream(seed, stream(p, n)).generator()
            for _ in range(configs):
                x, y = sample_identity_config(p, n, g)
                reports += check(x, y, r)
        return _worst(reports, name)

    return sweep


def _per_entry(name: str, analytic: np.ndarray, fd: np.ndarray) -> list[IdentityReport]:
    """One report per entry (alpha, beta) of Y, in row-major order."""
    return [_report(name, analytic[i], fd[i], FD_TOLERANCE) for i in np.ndindex(fd.shape[:2])]


def _ds_dy_checks(x, y, r) -> list[IdentityReport]:
    return _per_entry("ds_dy", ds_dy(y), _central_diff_stack(_gram, y))


def _df_dy_checks(x, y, r) -> list[IdentityReport]:
    return [_report("df_dy", df_dy(x, y), _stacked_fd_df_dy(x, y), FD_TOLERANCE)]


def _dm_dy_checks(x, y, r) -> list[IdentityReport]:
    return _per_entry("dm_dy", dm_dy(x, y), _stacked_fd_dm_dy(x, y))


def _div_x_checks(x, y, r) -> list[IdentityReport]:
    return [div_x_identity(x, _gram(y), r)]


def _sure_assembly_checks(x, y, r) -> list[IdentityReport]:
    """Exact cross-check: n tr(G) plus the gradient-trace closed form must
    reassemble the quadratic coefficient of the risk-difference integrand,
    r^2 (n + p - 2m + 3)/F - 4 r r'."""
    n, p = y.shape
    g = geometry(x, _pinv_locked(y))
    f, m = g.f, g.pr.rank
    if f <= 0.0:
        raise RankDegenerateError(f"F = {f:.6e} is degenerate; r(F)/F undefined")
    rf, rdf = r(f), r.deriv(f)
    gmat = (rf * rf / (f * f)) * np.outer(g.spx, g.psx)
    assembled = n * float(np.trace(gmat)) + risk._trace_grad_form(rf, rdf, f, m, p)
    target = rf * rf * (n + p - 2.0 * m + 3.0) / f - 4.0 * rf * rdf
    return [_report("sure_assembly", assembled, target, 1e-12)]


def _stein_report(seed: int, replicates: int) -> IdentityReport:
    spec = Baranchik(_smooth_suite_r())
    subs = [
        stein_identity_mc(np.zeros(p), np.eye(p), n, spec, replicates, seed + 100 + i)
        for i, (p, n) in enumerate(MC_GRID)
    ]
    return _worst(subs, "stein")


def _stein_haff_report(seed: int, replicates: int) -> IdentityReport:
    subs = [
        stein_haff_mc(n, np.eye(p), build, replicates=replicates, seed=seed + offset + i)
        for i, (p, n) in enumerate(MC_GRID)
        for offset, build in (
            (200, eye_g_builder(p)),
            (300, shrinkage_g_builder(np.ones(p), constant_shrinkage(0.3))),
        )
    ]
    return _worst(subs, "stein_haff")


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


# Identity name -> report(seed, fd_configs, mc_replicates), in report order.
_SUITE: dict[str, Callable[[int, int, int], IdentityReport]] = {
    "ds_dy": _fd_sweep("ds_dy", _ds_dy_checks),
    "df_dy": _fd_sweep("df_dy", _df_dy_checks),
    "dm_dy": _fd_sweep("dm_dy", _dm_dy_checks),
    "trace_grad": _fd_sweep("trace_grad", lambda x, y, r: [trace_grad_identity(x, y, r)]),
    "div_x": _fd_sweep("div_x", _div_x_checks),
    "sure_assembly": _fd_sweep(
        "sure_assembly", _sure_assembly_checks, lambda p, n: 7000 + p * 10 + n
    ),
    "stein": lambda seed, configs, reps: _stein_report(seed, reps),
    "stein_haff": lambda seed, configs, reps: _stein_haff_report(seed, reps),
    "finiteness": lambda seed, configs, reps: _finiteness_report(seed + 400),
}
SUITE_NAMES = tuple(_SUITE)


def run_default_suite(
    seed: int = 13,
    only: str | None = None,
    fd_configs: int = 100,
    mc_replicates: int = 100_000,
) -> list[IdentityReport]:
    """The full identity suite at its standard settings, one report per name.

    Finite-difference identities sweep fd_configs (at least 1) random
    configurations per (p, n) in FD_GRID and report the worst case; the
    stein and stein_haff Monte-Carlo identities run on MC_GRID at
    mc_replicates (at least MC_MIN_REPLICATES, checked with the seed before
    any identity runs, whichever `only` names). The finiteness probe has a
    fixed size, 10 000 replicates at each of two shapes, whatever
    mc_replicates is. `only` restricts to a single name.
    """
    wanted = suite_names(seed, only, fd_configs, mc_replicates)
    return [_SUITE[name](seed, fd_configs, mc_replicates) for name in wanted]


def suite_names(
    seed: int, only: str | None, fd_configs: int, mc_replicates: int
) -> tuple[str, ...]:
    """The identities run_default_suite runs at these settings, in report
    order. Raises ValueError for an unknown `only`, fd_configs below 1,
    mc_replicates below MC_MIN_REPLICATES or a negative seed."""
    if only is not None and only not in _SUITE:
        raise ValueError(f"unknown identity {only!r}; choose from {', '.join(SUITE_NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if fd_configs < 1:
        raise ValueError(f"fd_configs must be at least 1, got {fd_configs}")
    if mc_replicates < MC_MIN_REPLICATES:
        raise ValueError(f"replicates must be at least {MC_MIN_REPLICATES}, got {mc_replicates}")
    return (only,) if only else SUITE_NAMES

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
    s = np.swapaxes(y, -1, -2) @ y
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def _pinv_locked(y: np.ndarray) -> linalg.PseudoinverseResult:
    """Pseudoinverse pieces for S = Y'Y at the rank locked to min(n, p).

    Finite differences perturb Y while the analytic formulas assume locally
    constant rank; locking it keeps the eigenvalue cutoff from flipping
    between the two perturbed evaluations. Raises RankDegenerateError when
    the smallest retained eigenvalue is indistinguishable from the
    discarded ones.
    """
    k = min(y.shape)
    dec = linalg.sym_eigen(_gram(y))
    lam_max = max(dec.eigenvalues[0], 0.0)
    if dec.eigenvalues[k - 1] <= 1e-10 * max(lam_max, 1.0):
        raise RankDegenerateError(
            f"eigenvalue {k - 1} of S is {dec.eigenvalues[k - 1]:.3e}; "
            "Y is numerically rank-degenerate"
        )
    return linalg.pseudo_inverse_from_eigen(dec, rank=k)


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
    geo = _pinv_locked(yv)
    u = geo.pinv @ xv
    cx = geo.complement @ xv
    return -2.0 * np.outer(yv @ u, u) + 2.0 * np.outer(yv @ (geo.pinv @ u), cx)


def dm_dy(x, y) -> np.ndarray:
    """d(S+ x x' S S+)/dY as an (n, p, p, p) array at locked rank: entry
    [a, b] is the nine-term expansion at (a, b).

    Written exactly as derived, term by term; several terms cancel against
    each other analytically (YSS+ = Y), but they are kept separate so the
    formula under test is the stated one.
    """
    xv, yv = _checked_xy(x, y)
    geo = _pinv_locked(yv)
    pv = geo.pinv
    c = geo.complement
    u = pv @ xv  # S+ x
    qx = geo.projector @ xv  # SS+ x
    cx = c @ xv  # (I - SS+) x
    n, p = yv.shape
    out = np.empty((n, p, p, p))
    for alpha, beta in np.ndindex(n, p):
        ya = yv[alpha]
        y_pinv_a = ya @ pv  # (Y S+)_{alpha, :}
        yu_a = float(ya @ u)  # (Y S+ x)_alpha
        ypu_a = float(ya @ (pv @ u))  # (Y S+ S+ x)_alpha
        yx_a = float(ya @ xv)  # (Y x)_alpha
        yqx_a = float(ya @ qx)  # (Y SS+ x)_alpha
        o = out[alpha, beta]
        o[...] = cx[beta] * np.outer(pv @ (pv @ ya), qx)
        o -= yu_a * np.outer(pv[:, beta], qx)
        o -= u[beta] * np.outer(pv @ ya, qx)
        o += ypu_a * np.outer(c[:, beta], qx)
        o += xv[beta] * np.outer(u, y_pinv_a)
        o += yx_a * np.outer(u, pv[beta, :])
        o += yu_a * np.outer(u, c[beta, :])
        o -= qx[beta] * np.outer(u, y_pinv_a)
        o -= yqx_a * np.outer(u, pv[beta, :])
    return out


# ---------------------------------------------------------------------------
# finite-difference oracles


def _fd_step(coord: float) -> float:
    return FD_STEP_SCALE * max(1.0, abs(coord))


# The suite's sweeps evaluate every perturbation of Y in one stacked call.
# Each stacked step repeats the per-slice arithmetic of the per-entry
# central differences in tests/fd_oracles.py (_central_diff_y, fd_ds_dy,
# fd_df_dy, fd_dm_dy), which the tests hold them to bit for bit.


def _central_diff_stack(fn: Callable[[np.ndarray], object], y: np.ndarray) -> np.ndarray:
    """The per-entry central difference at every entry of Y from a single
    call of fn.

    fn maps a (2np, n, p) stack, Y + h_ab e_ab for each entry in row-major
    order followed by Y - h_ab e_ab, to one value per slice. Returns the
    (n, p, ...) array of central differences.
    """
    n, p = y.shape
    cells = n * p
    h = np.array([_fd_step(c) for c in y.flat])
    stack = np.repeat(y[None], 2 * cells, axis=0)
    diag = np.arange(cells)
    flat = stack.reshape(2, cells, cells)
    flat[0, diag, diag] += h
    flat[1, diag, diag] -= h
    values = np.asarray(fn(stack), dtype=float)
    step = (2.0 * h).reshape((cells,) + (1,) * (values.ndim - 1))
    return ((values[:cells] - values[cells:]) / step).reshape((n, p) + values.shape[1:])


def _locked_x_stack(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S+ x, SS+ x) for each factor of a (count, n, p) stack, with S+ and
    SS+ formed exactly as _pinv_locked forms them (descending spectrum,
    leading min(n, p) eigenvalues inverted, both matrices symmetrised).

    sym_eigen's own symmetrisation is left out: _gram's output is already
    exactly symmetric, so it would return the same bits.
    """
    rank = min(ys.shape[1:])
    w, v = np.linalg.eigh(_gram(ys))
    w = w[:, ::-1]
    # A contiguous copy, like sym_eigen's, keeps matmul on the same BLAS path.
    v = np.ascontiguousarray(v[:, :, ::-1])
    count, p = w.shape
    inv_w = np.zeros_like(w)
    inv_w[:, :rank] = 1.0 / w[:, :rank]
    pinv = (v * inv_w[:, None, :]) @ np.swapaxes(v, -1, -2)
    pinv = (pinv + np.swapaxes(pinv, -1, -2)) / 2.0
    if rank == p:
        projector = np.broadcast_to(np.eye(p), (count, p, p))
    else:
        vk = v[:, :, :rank]
        projector = vk @ np.swapaxes(vk, -1, -2)
        projector = (projector + np.swapaxes(projector, -1, -2)) / 2.0
    return pinv @ x, projector @ x


def _stacked_fd_df_dy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fd_df_dy at every (alpha, beta), as an (n, p) array."""
    def f(ys: np.ndarray) -> list[float]:
        u, _ = _locked_x_stack(x, ys)
        # Row by row: a stacked u @ x does not give the dot's bits.
        return [float(x @ ui) for ui in u]

    return _central_diff_stack(f, y)


def _stacked_fd_dm_dy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fd_dm_dy at every (alpha, beta), as an (n, p, p, p) array."""
    def m(ys: np.ndarray) -> np.ndarray:
        u, q = _locked_x_stack(x, ys)
        return u[:, :, None] * q[:, None, :]

    return _central_diff_stack(m, y)


# ---------------------------------------------------------------------------
# the two scalar building-block identities; their closed forms live in risk,
# where they also build the risk-difference integrand


def trace_grad_identity(x, y, r: ShrinkageFunction) -> IdentityReport:
    """tr(Y' grad_Y [r(F)^2 SS+ x x' S+ / F^2]) against its closed form.

        analytic = -4 r(F) r'(F) + r(F)^2 (p - 2m + 3) / F,  m = min(n, p)

    The oracle assembles the trace from central differences over every
    entry of Y, all perturbations evaluated in one stacked call.
    """
    xv, yv = _checked_xy(x, y)
    n, p = yv.shape
    geo = _pinv_locked(yv)
    u = geo.pinv @ xv
    f = float(xv @ u)
    analytic = risk._trace_grad_form(r(f), r.deriv(f), f, geo.rank, p)

    def field(ys: np.ndarray) -> np.ndarray:
        ux, qx = _locked_x_stack(xv, ys)
        scale = []
        for ui in ux:
            fx = float(xv @ ui)
            rfx = r(fx)
            scale.append(rfx * rfx / (fx * fx))
        return np.array(scale)[:, None, None] * (qx[:, :, None] * ux[:, None, :])

    d = _central_diff_stack(field, yv)
    oracle = 0.0
    for alpha in range(n):
        for beta in range(p):
            oracle += float(yv[alpha] @ d[alpha, beta, beta])
    return _report("trace_grad", analytic, oracle, FD_TOLERANCE)


def div_x_identity(x, s, r: ShrinkageFunction) -> IdentityReport:
    """div_x [r(F) SS+ x / F] against 2 r'(F) + r(F) (m - 2) / F.

    S stays fixed; the oracle sums central differences of each component of
    the vector field over its own coordinate of x.
    """
    geo = pinv_geometry(x, s)
    if geo.degenerate:
        raise RankDegenerateError(f"F = {geo.f:.6e} is degenerate; divergence undefined")
    xv, pr, f = geo.x, geo.pr, geo.f
    analytic = risk._div_form(r(f), r.deriv(f), f, pr.rank)

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
    replicate (stream i = replicate i, X variates then Y variates). The
    divergence side uses the closed form; both sides are averaged and
    compared at 3 combined standard errors.
    """
    t, sqrt_sigma, sigma_inv = _mc_setup(replicates, MC_MIN_REPLICATES, n, sigma, theta)
    r = spec.r
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)

    def body(start: int, stop: int) -> None:
        x, y = randgen.batch_normal_wishart(t.size, n, t, sqrt_sigma, seed, start, stop - start)
        ba, degen = risk.batch_geometry(x, y)
        if degen.any():
            i = start + int(np.argmax(degen))
            raise RankDegenerateError(f"degenerate F at replicate {i}")
        rf = r.value(ba.f)
        g = -(rf / ba.f)[:, None] * ba.psx
        resid = np.einsum("ij,rj->ri", sigma_inv, x - t)
        lhs[start:stop] = 2.0 * np.einsum("ri,ri->r", g, resid)
        rhs[start:stop] = -2.0 * risk._div_form(rf, r.deriv(ba.f), ba.f, ba.rank.astype(float))

    risk.map_chunks(replicates, body)
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
        rf = r.value(ba.f)
        rdf = r.deriv(ba.f)
        g = (rf * rf / (ba.f * ba.f))[:, None, None] * ba.spx[:, :, None] * ba.psx[:, None, :]
        trace_grad = risk._trace_grad_form(rf, rdf, ba.f, ba.rank, xv.size)
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
    (R, p, p) stack of G and the (R,) analytic gradient traces. A
    RankDegenerateError from it that names a stack entry is raised again
    naming the replicate.
    """
    p = linalg.symmetrize(sigma).shape[0]
    _, sqrt_sigma, sigma_inv = _mc_setup(replicates, MC_MIN_REPLICATES, n, sigma, np.zeros(p))
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)

    def body(start: int, stop: int) -> None:
        count = stop - start
        z = randgen.batch_standard_normal(seed, start, count, n * p)
        y = z.reshape(count, n, p) @ sqrt_sigma
        try:
            g, trace_grad = g_builder(y)
        except RankDegenerateError as exc:
            if exc.entry is None:
                raise
            raise RankDegenerateError(f"degenerate F at replicate {start + exc.entry}") from exc
        g = np.asarray(g, dtype=float)
        trace_grad = np.asarray(trace_grad, dtype=float)
        if g.shape != (count, p, p) or trace_grad.shape != (count,):
            raise linalg.DimensionMismatchError(
                f"G builder returned shapes {g.shape} and {trace_grad.shape}, "
                f"expected ({count}, {p}, {p}) and ({count},)"
            )
        s = y.transpose(0, 2, 1) @ y
        lhs[start:stop] = np.einsum("rij,rji->r", sigma_inv @ s, g)
        rhs[start:stop] = n * np.einsum("rii->r", g) + trace_grad

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
    t, sqrt_sigma, _ = _mc_setup(replicates, 1, n, sigma, np.zeros(p))
    inv_f = np.empty(replicates)
    div = np.empty(replicates) if r is not None else None

    def body(start: int, stop: int) -> None:
        x, y = randgen.batch_normal_wishart(p, n, t, sqrt_sigma, seed, start, stop - start)
        ba = linalg.batch_pinv_factor(y, x)
        with np.errstate(divide="ignore"):
            inv_f[start:stop] = np.where(ba.f > 0.0, 1.0 / ba.f, np.inf)
        if r is not None:
            rf = r.value(ba.f)
            rdf = r.deriv(ba.f)
            m = ba.rank.astype(float)
            div[start:stop] = np.abs((n + p - m + 3.0) * rf * rf / ba.f - 4.0 * rf * rdf)

    risk.map_chunks(replicates, body)
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
    g = randgen._as_generator(rng)
    k = min(n, p)
    for _ in range(CONFIG_MAX_TRIES):
        x = g.standard_normal(p)
        y = g.standard_normal((n, p))
        s = y.T @ y
        w = np.linalg.eigvalsh((s + s.T) / 2.0)[::-1]
        gap = w[k - 1] - (w[k] if k < p else 0.0)
        if gap < CONFIG_MIN_GAP * max(w[0], 1.0):
            continue
        if float(x @ (_pinv_locked(y).pinv @ x)) < CONFIG_MIN_F:
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


def _ds_dy_checks(x, y, r) -> list[IdentityReport]:
    ds, fd = ds_dy(y), _central_diff_stack(_gram, y)
    return [_report("ds_dy", ds[a, b], fd[a, b], FD_TOLERANCE) for a, b in np.ndindex(y.shape)]


def _df_dy_checks(x, y, r) -> list[IdentityReport]:
    return [_report("df_dy", df_dy(x, y), _stacked_fd_df_dy(x, y), FD_TOLERANCE)]


def _dm_dy_checks(x, y, r) -> list[IdentityReport]:
    dm, fd = dm_dy(x, y), _stacked_fd_dm_dy(x, y)
    return [_report("dm_dy", dm[a, b], fd[a, b], FD_TOLERANCE) for a, b in np.ndindex(y.shape)]


def _div_x_checks(x, y, r) -> list[IdentityReport]:
    s = y.T @ y
    return [div_x_identity(x, (s + s.T) / 2.0, r)]


def _sure_assembly_checks(x, y, r) -> list[IdentityReport]:
    """Exact cross-check: n tr(G) plus the gradient-trace closed form must
    reassemble the quadratic coefficient of the risk-difference integrand,
    r^2 (n + p - 2m + 3)/F - 4 r r'."""
    n, p = y.shape
    geo = _pinv_locked(y)
    m = geo.rank
    u = geo.pinv @ x
    f = float(x @ u)
    rf = r(f)
    rdf = r.deriv(f)
    gmat = (rf * rf / (f * f)) * np.outer(u, geo.projector @ x)
    assembled = n * float(np.trace(gmat)) + risk._trace_grad_form(rf, rdf, f, m, p)
    target = rf * rf * (n + p - 2.0 * m + 3.0) / f - 4.0 * rf * rdf
    return [_report("sure_assembly", assembled, target, 1e-12)]


def _stein_report(seed: int, replicates: int) -> IdentityReport:
    spec = Baranchik(constant_shrinkage(0.3))
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
    mc_replicates (at least MC_MIN_REPLICATES, checked before any identity
    runs, whichever `only` names). The finiteness probe has a fixed size,
    10 000 replicates at each of two shapes, whatever mc_replicates is.
    `only` restricts to a single name.
    """
    wanted = suite_names(only, fd_configs, mc_replicates)
    return [_SUITE[name](seed, fd_configs, mc_replicates) for name in wanted]


def suite_names(only: str | None, fd_configs: int, mc_replicates: int) -> tuple[str, ...]:
    """The identities run_default_suite runs at these settings, in report
    order. Raises ValueError for an unknown `only`, fd_configs below 1 or
    mc_replicates below MC_MIN_REPLICATES."""
    if only is not None and only not in _SUITE:
        raise ValueError(f"unknown identity {only!r}; choose from {', '.join(SUITE_NAMES)}")
    if fd_configs < 1:
        raise ValueError(f"fd_configs must be at least 1, got {fd_configs}")
    if mc_replicates < MC_MIN_REPLICATES:
        raise ValueError(f"replicates must be at least {MC_MIN_REPLICATES}, got {mc_replicates}")
    return (only,) if only else SUITE_NAMES

"""Invariant quadratic loss, a deterministic Monte-Carlo risk engine, and
the unbiased risk-difference statistic for bounded-shrinkage estimators.

Loss is L(theta, d) = (d - theta)' Sigma^{-1} (d - theta), under which the
unshrunk estimator has risk exactly p for every theta and Sigma. The engine
evaluates all requested estimators on common draws, one random stream per
replicate, so results are bitwise reproducible for a given master seed no
matter how the work is scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, randgen
from .estimators import (
    DegenerateFError,
    ShrinkageFunction,
    check_unique_labels,
    f_degenerate,
    pinv_geometry,
)

# Replicates are processed in blocks of this size. The boundaries are fixed
# (never a function of jobs), which keeps outputs byte-identical across
# thread counts.
CHUNK = 2048

# slabs hands every engine its Y in slabs of about this many bytes of variates.
SLAB_BYTES = 1 << 20


def slabs(streams: randgen.StreamReader, n: int, sqrt_sigma: np.ndarray):
    """The one slab loop of every engine: (lo, hi, Y) over the opened streams'
    rows, Y = randgen.wishart_slab's next n*p variates of rows lo .. hi-1, a
    view of buffers reused slab after slab (fresh pages fault in serially)."""
    count, p = streams.count, sqrt_sigma.shape[0]
    rows = max(1, SLAB_BYTES // (8 * p * max(n, p)))
    work = np.empty((min(rows, count), n * p)), np.empty((min(rows, count), n, p))
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        yield lo, hi, randgen.wishart_slab(streams, n, sqrt_sigma, lo, hi, work)


def map_chunks(total: int, body: Callable[[int, int], object], jobs: int = 1) -> None:
    """The one chunk loop of every Monte-Carlo engine: body(start, stop) on
    each CHUNK block of range(total), in order, or on `jobs` threads when
    there is more than one block. Bodies write disjoint slices, so the
    schedule cannot change a value; a body's exception propagates."""
    starts = range(0, total, CHUNK)
    stops = [min(start + CHUNK, total) for start in starts]
    if jobs <= 1 or len(starts) <= 1:
        for start, stop in zip(starts, stops):
            body(start, stop)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(body, starts, stops))


def default_theta_norms(p: int) -> np.ndarray:
    """The study grid |theta| in {0, 0.5, 1, ..., 6} * sqrt(p)."""
    return np.arange(0.0, 6.5, 0.5) * math.sqrt(p)


def invariant_loss(delta, theta, sigma_inv) -> float:
    """(delta - theta)' sigma_inv (delta - theta)."""
    d = np.asarray(delta, dtype=float)
    t = np.asarray(theta, dtype=float)
    if d.shape != t.shape or d.ndim != 1:
        raise linalg.DimensionMismatchError(
            f"delta shape {d.shape} and theta shape {t.shape} must be equal vectors"
        )
    return linalg.quad_form(d - t, sigma_inv)


def _trace_grad_form(rf, rdf, f, m, p: int):
    """tr(Y' grad_Y [r^2 SS+ x x' S+ / F^2]) = -4 r r' + r^2 (p - 2m + 3)/F."""
    return -4.0 * rf * rdf + rf * rf * (p - 2.0 * m + 3.0) / f


def _div_form(rf, rdf, f, m):
    """div_x [r(F) SS+ x / F] = 2 r' + r (m - 2)/F."""
    return 2.0 * rdf + rf * (m - 2.0) / f


def _risk_difference(r: ShrinkageFunction, f, m, p: int, n: int):
    # Stein-Haff (n tr G, tr G = r^2/F, plus the gradient trace) minus twice
    # Stein's divergence; elementwise, shared by the scalar and MC paths.
    rf, rdf = r.value(f), r.deriv(f)
    return n * rf * rf / f + _trace_grad_form(rf, rdf, f, m, p) - 2.0 * _div_form(rf, rdf, f, m)


def unbiased_risk_difference(x, s, r: ShrinkageFunction, n: int) -> float:
    """Integrand whose expectation is risk(delta_r) - p.

        rho = r(F)^2 (n + p - 2m + 3)/F - 2 r(F) (m - 2)/F - 4 r'(F) (1 + r(F)),

    assembled as n r^2/F + _trace_grad_form - 2 _div_form, with F = x'S+x
    and m = tr(SS+) the rank of s. n is the Wishart degrees of freedom of
    s, supplied by the caller; p is the length of x. Raises
    DegenerateFError when F sits below the degeneracy threshold.
    """
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    g = pinv_geometry(x, s)
    if g.degenerate:
        raise DegenerateFError(f"F = {g.f:.6e} is degenerate; no risk-difference value")
    return float(_risk_difference(r, g.f, float(g.pr.rank), g.x.size, n))


def batch_geometry(x, y) -> tuple[linalg.BatchPinvApply, np.ndarray]:
    """Batched pinv_geometry for S_i = Y_i'Y_i: apply_factor(factor_stack(y),
    x) and the (R,) f_degenerate mask, the rule every engine applies."""
    ba = linalg.apply_factor(linalg.factor_stack(y), x)
    return ba, _degenerate(x, ba.f, ba.psx, ba.factor)


def _rowdot(a, b) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _degenerate(x, f, psx, factor: linalg.PinvFactor) -> np.ndarray:
    """f_degenerate at the factor's bound on lambda_max(S+) first. The bound
    is >= the exact value, so its mask holds the exact rule's; only when it
    flags a draw of a certified factor is the rule evaluated again at the
    exact lambda_max(S+)."""
    x_sq, psx_norm = _rowdot(x, x), np.linalg.norm(psx, axis=-1)
    degen = f_degenerate(f, x_sq, factor.rank, psx_norm, factor.lam_bound)
    if factor.certified and degen.any():
        degen = f_degenerate(f, x_sq, factor.rank, psx_norm, factor.lam_max_pinv)
    return degen


@dataclass(frozen=True, eq=False)
class RiskEstimate:
    """Monte-Carlo mean loss with its standard error."""

    mean_loss: float
    std_error: float


@dataclass
class ScenarioConfig:
    """One simulation scenario: dimensions, covariance, estimators, seeding.

    theta_direction defaults to the equal-weights unit vector; theta_norms
    defaults to the study grid {0, 0.5, ..., 6} * sqrt(p). Both must be
    finite, and no two estimators may share a label. cov must build at p
    (p at most linalg.MAX_DIM, even for spiked and block-diagonal), and
    master_seed must be nonnegative.
    """

    p: int
    n: int
    cov: randgen.CovarianceModel
    estimators: list
    theta_direction: np.ndarray | None = None
    theta_norms: np.ndarray | None = None
    replicates: int = 10_000
    master_seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        if min(self.p, self.n) < 3:
            raise ValueError(f"min(p, n) = {min(self.p, self.n)} < 3")
        randgen.build_covariance(self.cov, self.p)
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.replicates < 1:
            raise ValueError(f"replicates must be positive, got {self.replicates}")
        check_unique_labels(self.estimators)
        if self.theta_direction is None:
            self.theta_direction = np.ones(self.p) / math.sqrt(self.p)
        else:
            d = np.asarray(self.theta_direction, dtype=float)
            if d.shape != (self.p,):
                raise ValueError(
                    f"theta_direction must have length p={self.p}, got shape {d.shape}"
                )
            if not np.all(np.isfinite(d)):
                raise ValueError("theta_direction entries must be finite")
            norm = float(np.linalg.norm(d))
            if norm == 0.0:
                raise ValueError("theta_direction must be nonzero")
            self.theta_direction = d / norm
        if self.theta_norms is None:
            self.theta_norms = default_theta_norms(self.p)
        else:
            t = np.asarray(self.theta_norms, dtype=float)
            if t.ndim != 1 or t.size < 1:
                raise ValueError("theta_norms must be a nonempty vector")
            if not np.all(np.isfinite(t)) or np.any(t < 0) or np.any(np.diff(t) < 0):
                raise ValueError("theta_norms must be finite, nonnegative and ascending")
            self.theta_norms = t


@dataclass(eq=False)
class ReplicateStudy:
    """Per-replicate losses (one row per estimator) on common draws, the
    number of degenerate draws, which every estimator passed through
    unshrunk, and the unbiased risk-difference integrand when one was asked
    for. From run_study all three carry a leading theta axis. chunks counts
    the CHUNK blocks; of an n < p scenario's chunks, eigvalsh_chunks counts
    those with a slab whose full-rank certificate failed, so that
    eigvalsh(G) decided its ranks, and fallback_chunks those with a slab
    that then took the p x p side because some draw had rank below n."""

    losses: np.ndarray
    degenerate: np.ndarray
    sure: np.ndarray | None = None
    chunks: int = 0
    eigvalsh_chunks: int = 0
    fallback_chunks: int = 0


def run_study(
    cfg: ScenarioConfig,
    specs: list,
    theta_norms,
    sure_r: ShrinkageFunction | None = None,
    jobs: int = 1,
) -> ReplicateStudy:
    """Per-replicate invariant losses of each spec at each |theta|, all on
    common draws: losses has shape (theta, spec, replicate), sure, when
    sure_r is given, (theta, replicate) and degenerate (theta,).

    Replicate i reads stream (cfg.master_seed, i): p variates for X, then
    n*p for Y. Each chunk of replicates opens its streams once and draws
    and factors its Y = Z A, A = Sigma^{1/2}, once; only X = theta + z_x A
    changes along the theta loop. With z = z_x A and u =
    cfg.theta_direction, an estimate is d = X + a P_S X with a = (shrink
    factor - 1), so

        (d - theta)' Sigma^-1 (d - theta) = q_zz + a (2 q_zp + a q_pp)

    with q_zz = z'Sigma^-1 z, q_zp = z'Sigma^-1 P_S X and
    q_pp = (P_S X)'Sigma^-1 P_S X. P_S X and the factor coordinates that
    give F are linear in X, so the factor is applied to z and to u once
    (one solve with both as right-hand sides) and the theta loop only
    combines them. When sure_r is given, the unbiased risk-difference
    integrand for that curve is evaluated on the same draws (a degenerate F
    aborts the run, naming the replicate).

    Y is drawn and factored slab by slab through slabs, the F and mask of
    every theta taken while a slab's factor lives, so a thread holds
    per-replicate vectors and one slab's work (theta x rows x p), not
    CHUNK * n * p numbers. Work per matrix or row has the same bits in any
    slab; a 2-D product over rows need not (BLAS picks its kernel by the
    row count), so z_x A, z Sigma^-1 and P_S X Sigma^-1 span the chunk.
    linalg.factor_stack picks each slab's kernel: a draw of rank below n
    sends its slab to the p x p side, and the chunk's other slabs keep the
    solve side. Each chunk is one map_chunks body, run on `jobs` threads
    when jobs > 1; chunk boundaries and the reduction order never change,
    so results are independent of jobs.
    """
    sigma = randgen.build_covariance(cfg.cov, cfg.p)
    sqrt_sigma = linalg.sym_sqrt_pd(sigma)
    sigma_inv = linalg.inv_pd(sigma)
    norms = [float(tn) for tn in theta_norms]
    total = cfg.replicates
    losses = np.empty((len(norms), len(specs), total))
    sure = np.empty((len(norms), total)) if sure_r is not None else None
    degenerate = np.empty((len(norms), total), dtype=bool)
    uncertified: set[int] = set()
    fallbacks: set[int] = set()

    p, n, u = cfg.p, cfg.n, cfg.theta_direction
    tns = np.array(norms)[:, None, None]

    def body(start: int, stop: int) -> None:
        count = stop - start
        streams = randgen.StreamReader(cfg.master_seed, start, count)
        # Drawn at theta = 0: theta + (0 + z_x A) equals a draw made at theta.
        noise = streams.read(p) @ sqrt_sigma
        nsi = noise @ sigma_inv
        q_zz = _rowdot(nsi, noise)
        f = np.empty((len(norms), count))
        psx_noise, psx_dir, rank = np.empty((count, p)), np.empty((count, p)), np.empty(count)
        for lo, hi, y in slabs(streams, n, sqrt_sigma):
            factor = linalg.factor_stack(y)
            if n < p and not factor.certified:
                uncertified.add(start)
                if factor.gram is None:
                    fallbacks.add(start)
            # z and u go through the factor together: one solve, two right-hand sides.
            both = np.stack([noise[lo:hi], np.broadcast_to(u, (hi - lo, p))], axis=1)
            c, psx_both = linalg.factor_coords(factor, both)
            psx_noise[lo:hi], psx_dir[lo:hi] = psx_both[:, 0], psx_both[:, 1]
            rank[lo:hi] = factor.rank
            # Every theta at once, broadcast along a leading theta axis.
            x = tns * u + noise[lo:hi]
            linalg.check_finite(x.transpose(1, 0, 2), "x")
            f[:, lo:hi] = linalg.f_from_coords(factor, c[:, 0] + tns * c[:, 1])
            psx = psx_noise[lo:hi] + tns * psx_dir[lo:hi]
            degenerate[:, start + lo : start + hi] = _degenerate(x, f[:, lo:hi], psx, factor)
        for t, tn in enumerate(norms):
            degen = degenerate[t, start:stop]
            f_safe = np.where(degen, 1.0, f[t])
            psx = psx_noise + tn * psx_dir
            two_q_zp = 2.0 * _rowdot(nsi, psx)
            q_pp = _rowdot(psx @ sigma_inv, psx)
            for k, spec in enumerate(specs):
                # Degenerate draws keep x: their factor minus one is zero.
                sf = 1.0 - spec.r.value(f[t]) / f_safe
                a = np.where(degen, 0.0, sf - 1.0)
                losses[t, k, start:stop] = q_zz + a * (two_q_zp + a * q_pp)
            if sure_r is not None:
                if degen.any():
                    i = start + int(np.argmax(degen))
                    raise DegenerateFError(f"degenerate F at replicate {i}, |theta| = {tn:g}")
                sure[t, start:stop] = _risk_difference(sure_r, f[t], rank, p, n)

    map_chunks(total, body, jobs)
    return ReplicateStudy(
        losses=losses,
        sure=sure,
        degenerate=degenerate.sum(axis=1),
        chunks=len(range(0, total, CHUNK)),
        eigvalsh_chunks=len(uncertified),
        fallback_chunks=len(fallbacks),
    )


def run_replicates(
    cfg: ScenarioConfig,
    specs: list,
    theta_norm: float,
    sure_r: ShrinkageFunction | None = None,
    jobs: int = 1,
) -> ReplicateStudy:
    """run_study at the one |theta| = theta_norm: losses of shape (spec,
    replicate), sure of shape (replicate,) and a scalar degenerate count."""
    study = run_study(cfg, specs, [theta_norm], sure_r, jobs)
    return replace(
        study,
        losses=study.losses[0],
        sure=None if sure_r is None else study.sure[0],
        degenerate=study.degenerate[0],
    )


def summarize_losses(arr: np.ndarray) -> RiskEstimate:
    """Mean and standard error of a replicate-ordered loss array."""
    reps = arr.size
    se = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return RiskEstimate(mean_loss=float(arr.mean()), std_error=se)


class RiskRow(NamedTuple):
    """One (estimator, theta_norm) cell of a scenario's risk table and one
    line of its CSV: the fields are the columns, in order."""

    scenario: str
    p: int
    n: int
    cov_model: str
    estimator: str
    theta_norm: float
    replicates: int
    risk: float
    std_err: float


def risk_curve(cfg: ScenarioConfig, jobs: int = 1) -> tuple[list[RiskRow], ReplicateStudy]:
    """Risk table over cfg.theta_norms x cfg.estimators, and the run_study
    result it was reduced from, which holds the run's counters.

    Every cell reads the same draws (one run_study). Rows are grouped by
    estimator, then ordered by theta_norm.
    """
    study = run_study(cfg, cfg.estimators, cfg.theta_norms, jobs=jobs)
    scenario = (cfg.name, cfg.p, cfg.n, randgen.cov_label(cfg.cov))
    rows = []
    for k, spec in enumerate(cfg.estimators):
        for t, tn in enumerate(cfg.theta_norms):
            est = summarize_losses(study.losses[t, k])
            cell = (spec.label, float(tn), cfg.replicates, est.mean_loss, est.std_error)
            rows.append(RiskRow(*scenario, *cell))
    return rows, study

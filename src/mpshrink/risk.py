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
from typing import Callable

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


def _risk_difference(r: ShrinkageFunction, f, m, p: int, n: int):
    # Elementwise in f and m; shared by the scalar and Monte-Carlo paths.
    rf = r.value(f)
    rdf = r.deriv(f)
    return rf * rf * (n + p - 2.0 * m + 3.0) / f - 2.0 * rf * (m - 2.0) / f - 4.0 * rdf * (1.0 + rf)


def unbiased_risk_difference(x, s, r: ShrinkageFunction, n: int) -> float:
    """Integrand whose expectation is risk(delta_r) - p.

        rho = r(F)^2 (n + p - 2m + 3)/F - 2 r(F) (m - 2)/F - 4 r'(F) (1 + r(F))

    with F = x'S+x and m = tr(SS+) the rank of s. n is the Wishart degrees
    of freedom of s, supplied by the caller; p is the length of x. Raises
    DegenerateFError when F sits below the degeneracy threshold.
    """
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    g = pinv_geometry(x, s)
    if g.degenerate:
        raise DegenerateFError(f"F = {g.f:.6e} is degenerate; no risk-difference value")
    return float(_risk_difference(r, g.f, float(g.pr.rank), g.x.size, n))


def batch_geometry(x, y) -> tuple[linalg.BatchPinvApply, np.ndarray]:
    """Batched pinv_geometry for S_i = Y_i'Y_i: batch_pinv_factor(y, x) and
    the (R,) f_degenerate mask, the rule every engine applies."""
    ba = linalg.batch_pinv_factor(y, x)
    return ba, _degenerate(x, ba.f, ba.psx, ba.rank, ba.lam_max_pinv)


def _rowdot(a, b) -> np.ndarray:
    return np.einsum("ri,ri->r", a, b)


def _degenerate(x, f, psx, rank, lam_max_pinv) -> np.ndarray:
    psx_norm = np.linalg.norm(psx, axis=1)
    return f_degenerate(f, _rowdot(x, x), rank, psx_norm, lam_max_pinv)


@dataclass(frozen=True, eq=False)
class RiskEstimate:
    """Monte-Carlo mean loss with its standard error."""

    mean_loss: float
    std_error: float
    replicates: int


@dataclass
class ScenarioConfig:
    """One simulation scenario: dimensions, covariance, estimators, seeding.

    theta_direction defaults to the equal-weights unit vector; theta_norms
    defaults to the study grid {0, 0.5, ..., 6} * sqrt(p). Both must be
    finite, and no two estimators may share a label.
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
    the CHUNK blocks, and fallback_chunks those of an n < p scenario whose
    factor took the p x p side because some draw had rank below n."""

    losses: np.ndarray
    degenerate: np.ndarray
    sure: np.ndarray | None = None
    chunks: int = 0
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
    n*p for Y. Each chunk of replicates is drawn and its S = Y'Y factored
    once; only X = theta + z_x Sigma^{1/2} changes along the theta loop.
    With z = z_x Sigma^{1/2} and u = cfg.theta_direction, an estimate is
    d = X + a P_S X with a = (shrink factor - 1), so

        (d - theta)' Sigma^-1 (d - theta) = q_zz + a (2 q_zp + a q_pp)

    with q_zz = z'Sigma^-1 z, q_zp = z'Sigma^-1 P_S X and
    q_pp = (P_S X)'Sigma^-1 P_S X. P_S X and the factor coordinates that
    give F are linear in X, so each chunk applies the factor to z and to u
    once (one solve with both as right-hand sides) and the theta loop only
    combines them. When sure_r is given, the unbiased risk-difference
    integrand for that curve is evaluated on the same draws (a degenerate F
    aborts the run, naming the replicate).
    Each chunk is one map_chunks body, run on `jobs` threads when jobs > 1;
    chunk boundaries and the reduction order never change, so results are
    independent of jobs.
    """
    sigma = randgen.build_covariance(cfg.cov, cfg.p)
    sqrt_sigma = linalg.sym_sqrt_pd(sigma)
    sigma_inv = linalg.inv_pd(sigma)
    norms = [float(tn) for tn in theta_norms]
    total = cfg.replicates
    losses = np.empty((len(norms), len(specs), total))
    sure = np.empty((len(norms), total)) if sure_r is not None else None
    degenerate = np.empty((len(norms), total), dtype=bool)
    fallbacks: list[int] = []

    def body(start: int, stop: int) -> None:
        # Drawn at theta = 0: theta + (0 + z_x A) equals a draw made at theta.
        noise, y = randgen.batch_normal_wishart(
            cfg.p, cfg.n, np.zeros(cfg.p), sqrt_sigma, cfg.master_seed, start, stop - start
        )
        factor = linalg.factor_stack(y)
        if factor.gram is None and cfg.n < cfg.p:
            fallbacks.append(start)
        # z and u go through the factor together: one solve, two right-hand sides.
        both = np.stack([noise, np.broadcast_to(cfg.theta_direction, noise.shape)], axis=1)
        c, psx_both = linalg.factor_coords(factor, both)
        c_noise, c_dir = c[:, 0], c[:, 1]
        psx_noise, psx_dir = psx_both[:, 0], psx_both[:, 1]
        nsi = noise @ sigma_inv
        q_zz = _rowdot(nsi, noise)
        for t, tn in enumerate(norms):
            x = tn * cfg.theta_direction + noise
            linalg.check_finite(x, "x")
            f = linalg.f_from_coords(factor, c_noise + tn * c_dir)
            psx = psx_noise + tn * psx_dir
            degen = _degenerate(x, f, psx, factor.rank, factor.lam_max_pinv)
            degenerate[t, start:stop] = degen
            f_safe = np.where(degen, 1.0, f)
            two_q_zp = 2.0 * _rowdot(nsi, psx)
            q_pp = _rowdot(psx @ sigma_inv, psx)
            for k, spec in enumerate(specs):
                # Degenerate draws keep x: their factor minus one is zero.
                sf = 1.0 - spec.r.value(f) / f_safe
                a = np.where(degen, 0.0, sf - 1.0)
                losses[t, k, start:stop] = q_zz + a * (two_q_zp + a * q_pp)
            if sure_r is not None:
                if degen.any():
                    i = start + int(np.argmax(degen))
                    raise DegenerateFError(f"degenerate F at replicate {i}, |theta| = {tn:g}")
                sure[t, start:stop] = _risk_difference(
                    sure_r, f, factor.rank.astype(float), cfg.p, cfg.n
                )

    map_chunks(total, body, jobs)
    return ReplicateStudy(
        losses=losses,
        sure=sure,
        degenerate=degenerate.sum(axis=1),
        chunks=len(range(0, total, CHUNK)),
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
    return RiskEstimate(mean_loss=float(arr.mean()), std_error=se, replicates=reps)


@dataclass(frozen=True)
class RiskRow:
    """One (estimator, theta_norm) cell of a scenario's risk table.

    degenerate counts the draws at this theta_norm that every estimator
    passed through unshrunk, and chunks and fallback_chunks are the
    scenario's run_study counts; the CSV carries none of them.
    """

    scenario: str
    p: int
    n: int
    cov_model: str
    estimator: str
    theta_norm: float
    replicates: int
    risk: float
    std_err: float
    degenerate: int
    chunks: int
    fallback_chunks: int


def risk_curve(cfg: ScenarioConfig, jobs: int = 1) -> list[RiskRow]:
    """Risk table over cfg.theta_norms x cfg.estimators.

    Every cell reads the same draws (one run_study). Rows are grouped by
    estimator, then ordered by theta_norm.
    """
    if not cfg.estimators:
        return []
    study = run_study(cfg, cfg.estimators, cfg.theta_norms, jobs=jobs)
    cov_name = randgen.cov_label(cfg.cov)
    rows = []
    for k, spec in enumerate(cfg.estimators):
        for t, tn in enumerate(cfg.theta_norms):
            est = summarize_losses(study.losses[t, k])
            rows.append(
                RiskRow(
                    scenario=cfg.name,
                    p=cfg.p,
                    n=cfg.n,
                    cov_model=cov_name,
                    estimator=spec.label,
                    theta_norm=float(tn),
                    replicates=cfg.replicates,
                    risk=est.mean_loss,
                    std_err=est.std_error,
                    degenerate=int(study.degenerate[t]),
                    chunks=study.chunks,
                    fallback_chunks=study.fallback_chunks,
                )
            )
    return rows


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
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, randgen
from .estimators import (
    DegenerateFError,
    Estimator,
    ShrinkageFunction,
    check_unique_labels,
    f_degenerate,
    pinv_geometry,
)

# Replicates are processed in blocks of this size. The boundaries are fixed
# (never a function of jobs), which keeps outputs byte-identical across
# thread counts.
CHUNK = 2048


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


def unbiased_risk_difference(
    x, s, r: ShrinkageFunction, n: int, rel_tol: float | None = None
) -> float:
    """Integrand whose expectation is risk(delta_r) - p.

        rho = r(F)^2 (n + p - 2m + 3)/F - 2 r(F) (m - 2)/F - 4 r'(F) (1 + r(F))

    with F = x'S+x and m = tr(SS+) the rank of s. n is the Wishart degrees
    of freedom of s, supplied by the caller; p is the length of x. Raises
    DegenerateFError when F sits below the degeneracy threshold.
    """
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    g = pinv_geometry(x, s, rel_tol)
    if g.degenerate:
        raise DegenerateFError(f"F = {g.f:.6e} is degenerate; no risk-difference value")
    return float(_risk_difference(r, g.f, float(g.pr.rank), g.x.size, n))


@dataclass(frozen=True, eq=False)
class RiskEstimate:
    """Monte-Carlo mean loss with its standard error."""

    mean_loss: float
    std_error: float
    replicates: int
    losses: np.ndarray | None = field(default=None, repr=False)


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
    """Per-replicate losses (one row per estimator) on common draws."""

    losses: np.ndarray
    sure: np.ndarray | None = None


def run_replicates(
    cfg: ScenarioConfig,
    specs: list,
    theta_norm: float,
    sure_r: ShrinkageFunction | None = None,
    jobs: int = 1,
) -> ReplicateStudy:
    """Per-replicate invariant losses of each spec, all on common draws.

    Replicate i reads stream (cfg.master_seed, i): p variates for X, then
    n*p for Y. When sure_r is given, the unbiased risk-difference integrand
    for that curve is evaluated on the same draws (a degenerate F aborts the
    run, naming the replicate). jobs > 1 distributes fixed-size chunks over
    threads; chunk boundaries and the reduction order never change, so
    results are independent of jobs.
    """
    sigma = randgen.build_covariance(cfg.cov, cfg.p)
    sqrt_sigma = linalg.sym_sqrt_pd(sigma)
    sigma_inv = linalg.inv_pd(sigma)
    theta = float(theta_norm) * cfg.theta_direction
    rel_tol = linalg.default_rel_tol(cfg.p)
    total = cfg.replicates
    losses = np.empty((len(specs), total))
    sure = np.empty(total) if sure_r is not None else None

    def process(start: int) -> None:
        count = min(CHUNK, total - start)
        x, y = randgen.batch_normal_wishart(
            cfg.p, cfg.n, theta, sqrt_sigma, cfg.master_seed, start, count
        )
        ba = linalg.batch_pinv_factor(y, x, rel_tol)
        x_sq = np.einsum("ri,ri->r", x, x)
        psx_norm = np.linalg.norm(ba.psx, axis=1)
        degen = f_degenerate(ba.f, x_sq, ba.rank, psx_norm, ba.lam_max_pinv)
        f_safe = np.where(degen, 1.0, ba.f)
        centered = x - theta
        for k, spec in enumerate(specs):
            # Degenerate draws keep x: their factor minus one is zero.
            sf = 1.0 - spec.r.value(ba.f) / f_safe
            d = centered + np.where(degen, 0.0, sf - 1.0)[:, None] * ba.psx
            losses[k, start : start + count] = np.einsum(
                "ri,ij,rj->r", d, sigma_inv, d
            )
        if sure_r is not None:
            if degen.any():
                i = start + int(np.argmax(degen))
                raise DegenerateFError(f"degenerate F at replicate {i}")
            sure[start : start + count] = _risk_difference(
                sure_r, ba.f, ba.rank.astype(float), cfg.p, cfg.n
            )

    starts = range(0, total, CHUNK)
    if jobs <= 1 or len(starts) <= 1:
        for s0 in starts:
            process(s0)
    else:
        # Chunks write disjoint slices; thread scheduling cannot affect the
        # values, only the completion order.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for res in pool.map(process, starts):
                pass
    return ReplicateStudy(losses=losses, sure=sure)


def summarize_losses(arr: np.ndarray, keep_losses: bool = False) -> RiskEstimate:
    """Mean and standard error of a replicate-ordered loss array."""
    reps = arr.size
    se = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return RiskEstimate(
        mean_loss=float(arr.mean()),
        std_error=se,
        replicates=reps,
        losses=arr if keep_losses else None,
    )


def mc_risk(
    cfg: ScenarioConfig,
    spec: Estimator,
    theta_norm: float,
    keep_losses: bool = False,
    jobs: int = 1,
) -> RiskEstimate:
    """Monte-Carlo risk of one estimator at one value of |theta|."""
    study = run_replicates(cfg, [spec], theta_norm, jobs=jobs)
    return summarize_losses(study.losses[0], keep_losses=keep_losses)


@dataclass(frozen=True)
class RiskRow:
    """One (estimator, theta_norm) cell of a scenario's risk table."""

    scenario: str
    p: int
    n: int
    cov_model: str
    estimator: str
    theta_norm: float
    replicates: int
    risk: float
    std_err: float


def risk_curve(cfg: ScenarioConfig, jobs: int = 1) -> list[RiskRow]:
    """Risk table over cfg.theta_norms x cfg.estimators.

    All estimators at a given theta_norm share draws. Rows are grouped by
    estimator, then ordered by theta_norm.
    """
    if not cfg.estimators:
        return []
    cells: dict[tuple[int, float], RiskEstimate] = {}
    for tn in cfg.theta_norms:
        study = run_replicates(cfg, cfg.estimators, float(tn), jobs=jobs)
        for k in range(len(cfg.estimators)):
            cells[(k, float(tn))] = summarize_losses(study.losses[k])
    cov_name = randgen.cov_label(cfg.cov)
    rows = []
    for k, spec in enumerate(cfg.estimators):
        for tn in cfg.theta_norms:
            est = cells[(k, float(tn))]
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
                )
            )
    return rows


def scenario_with(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """Copy of cfg with fields replaced (re-runs validation)."""
    return replace(cfg, **changes)

"""Shrinkage estimators of a normal mean built on the Moore-Penrose inverse
of a singular Wishart matrix.

The working family is delta_r(X, S) = (I - r(F) SS+ / F) X with
F = X' S+ X: the component of X in the column space of S is shrunk by
1 - r(F)/F, the orthogonal component passes through untouched. With a
constant r this is the James-Stein-type rule; clamping the factor at zero
gives its positive-part variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg

# F values at or below this multiple of |x|^2 * lambda_max(S+) are treated
# as degenerate: the draw carries no usable shrinkage direction, so the
# estimators return x unshrunk and flag the output.
DEGENERATE_F_FACTOR = 1e-12


class DimensionCutoffError(ValueError):
    """min(p, n) < 3 leaves no admissible shrinkage range."""


class DegenerateFError(ValueError):
    """F = x'S+x fell below the degeneracy threshold."""


@dataclass(frozen=True)
class ShrinkageFunction:
    """A shrinkage curve r with its derivative and declared bounds.

    value and deriv take a float or an array of F values and return the
    same shape; the engines evaluate them on whole chunks at once, so a
    custom curve must be written with numpy operations (np.minimum,
    np.where) rather than Python branches. value_bound is the constant C1
    with 0 <= r <= C1; deriv_bound is C2 with |r'| <= C2. The domination
    conditions are checked against these.
    """

    value: Callable
    deriv: Callable
    value_bound: float
    deriv_bound: float

    def __call__(self, t):
        return self.value(t)


def _checked_constant(a) -> float:
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"shrinkage constant must be finite and nonnegative, got {a}")
    return float(a)


def constant_shrinkage(a: float) -> ShrinkageFunction:
    """r(t) = a, the James-Stein choice."""
    a = _checked_constant(a)
    return ShrinkageFunction(
        value=lambda t: np.full(np.shape(t), a),
        deriv=lambda t: np.zeros(np.shape(t)),
        value_bound=a,
        deriv_bound=0.0,
    )


def positive_part_shrinkage(a: float) -> ShrinkageFunction:
    """r(t) = min(a, t), which realizes the positive-part rule.

    1 - min(a, F)/F equals max(1 - a/F, 0) exactly, including the clamp at
    zero. The derivative at the kink t = a is taken as 0.
    """
    a = _checked_constant(a)
    return ShrinkageFunction(
        value=lambda t: np.minimum(a, t),
        deriv=lambda t: np.where(np.less(t, a), 1.0, 0.0),
        value_bound=a,
        deriv_bound=1.0,
    )


@dataclass(frozen=True)
class Estimator:
    """delta_r = (I - r(F) SS+ / F) X for a shrinkage curve r.

    label names the estimator in result tables and must be unique within a
    scenario. Usual, JamesStein, PositivePartJS and Baranchik build the
    standard members of the family.
    """

    label: str
    r: ShrinkageFunction


def Usual() -> Estimator:
    """The unshrunk estimator delta(X) = X, i.e. r = 0."""
    return Estimator("usual", constant_shrinkage(0.0))


def JamesStein(a: float) -> Estimator:
    """delta = (I - a SS+ / F) X."""
    return Estimator(f"js({a:.6g})", constant_shrinkage(a))


def PositivePartJS(a: float) -> Estimator:
    """James-Stein with the shrink factor clamped at zero."""
    return Estimator(f"js+({a:.6g})", positive_part_shrinkage(a))


def Baranchik(r: ShrinkageFunction) -> Estimator:
    """delta = (I - r(F) SS+ / F) X for a general shrinkage curve r."""
    return Estimator("baranchik", r)


def estimator_label(spec: Estimator) -> str:
    """Short stable name used in result tables."""
    return spec.label


def check_unique_labels(specs) -> None:
    """Raise ValueError naming the first label that two estimators share."""
    labels = [spec.label for spec in specs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"duplicate estimator label {label!r}")


def f_degenerate(f, x_sq, rank, psx_norm, lam_max_pinv):
    """True where F is too small relative to |x|^2 * lambda_max(S+) to shrink.

    Works elementwise on arrays and on scalars; the Monte-Carlo engine and
    estimate() share this rule so their outputs agree replicate by replicate.
    Where the threshold would be 0 * inf (x = 0 with an infinite lambda_max(S+)
    or bound on it) the F test reads False without forming it, as the nan
    comparison would.
    """
    bound = DEGENERATE_F_FACTOR * np.asarray(x_sq)
    lam = np.asarray(lam_max_pinv)
    defined = (bound != 0.0) & (lam != 0.0) | np.isfinite(bound) & np.isfinite(lam)
    small = (np.asarray(f) <= bound * np.where(defined, lam, 1.0)) & defined
    return (np.asarray(rank) == 0) | (np.asarray(psx_norm) == 0.0) | small


@dataclass(frozen=True, eq=False)
class PinvGeometry:
    """x seen through the pseudoinverse of S: F = x'S+x, S+x, P_S x, the
    pseudoinverse itself and the degeneracy verdict of f_degenerate."""

    x: np.ndarray
    pr: linalg.PseudoinverseResult
    spx: np.ndarray
    psx: np.ndarray
    f: float
    degenerate: bool


def pinv_geometry(x, s) -> PinvGeometry:
    """Decompose s once and derive everything the scalar estimators need.

    lambda_max(S+) for the degeneracy rule is 1 / the smallest retained
    eigenvalue of s, read off the same decomposition.
    """
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise linalg.DimensionMismatchError(f"x must be a vector, got shape {xv.shape}")
    dec = linalg.sym_eigen(s)
    if dec.dim != xv.size:
        raise linalg.DimensionMismatchError(
            f"s is {dec.dim} x {dec.dim} but x has length {xv.size}"
        )
    pr = linalg.pseudo_inverse_from_eigen(dec)
    spx = pr.pinv @ xv
    psx = pr.projector @ xv
    f = float(xv @ spx)
    lam_max_pinv = 1.0 / dec.eigenvalues[pr.rank - 1] if pr.rank > 0 else 0.0
    degenerate = bool(
        f_degenerate(f, float(xv @ xv), pr.rank, float(np.linalg.norm(psx)), lam_max_pinv)
    )
    return PinvGeometry(x=xv, pr=pr, spx=spx, psx=psx, f=f, degenerate=degenerate)


@dataclass(frozen=True, eq=False)
class EstimateOutput:
    """delta plus the shrinkage diagnostics of a single evaluation.

    shrink_factor multiplies the column-space component of x, so
    delta = (I - P_S) x + shrink_factor * P_S x. degenerate marks draws where
    F was too small and a shrinking estimator returned x unshrunk.
    """

    delta: np.ndarray
    shrink_factor: float
    f_value: float
    rank: int
    degenerate: bool = False


def estimate(spec: Estimator, x, s) -> EstimateOutput:
    """Evaluate an estimator at observation x with Wishart matrix s.

    s must be symmetric PSD; its pseudoinverse, rank and projector come from
    linalg.pseudo_inverse. F at or below the degeneracy threshold returns x
    unshrunk with degenerate=True; a curve with value_bound 0 never shrinks,
    so it returns x and is never degenerate.
    """
    g = pinv_geometry(x, s)
    shrinks = spec.r.value_bound > 0
    if g.degenerate or not shrinks:
        return EstimateOutput(g.x.copy(), 1.0, g.f, g.pr.rank, g.degenerate and shrinks)
    sf = float(1.0 - spec.r(g.f) / g.f)
    return EstimateOutput(g.x + (sf - 1.0) * g.psx, sf, g.f, g.pr.rank)


def _usable_min_dim(p: int, n: int) -> int:
    m = min(p, n)
    if m < 3:
        raise DimensionCutoffError(f"min(p, n) = {m} < 3: no admissible shrinkage range")
    return m


def domination_bound(p: int, n: int) -> float:
    """Largest constant shrinkage that still guarantees domination.

    2 (m - 2) / (n + p - 2m + 3) with m = min(n, p); for p > n this reads
    2 (n - 2) / (p - n + 3). Constants in [0, bound] give risk no worse than
    the unshrunk estimator whenever m >= 3.
    """
    m = _usable_min_dim(p, n)
    return 2.0 * (m - 2) / (n + p - 2 * m + 3)


def js_default_constant(p: int, n: int) -> float:
    """Midpoint of the admissible interval, (m - 2) / (n + p - 2m + 3).

    For p > n this reads (n - 2) / (p - n + 3), the constant used in the
    simulation study; for n >= p it reduces to the classical full-rank
    choice (p - 2) / (n - p + 3).
    """
    m = _usable_min_dim(p, n)
    return (m - 2) / (n + p - 2 * m + 3)


@dataclass(frozen=True)
class ConditionReport:
    """Grid check of the three domination conditions on a shrinkage curve."""

    range_ok: bool
    nondecreasing: bool
    deriv_bounded: bool
    bound: float
    max_value: float
    max_abs_deriv: float

    @property
    def all_ok(self) -> bool:
        return self.range_ok and self.nondecreasing and self.deriv_bounded


def check_r_conditions(
    r: ShrinkageFunction, p: int, n: int, grid
) -> ConditionReport:
    """Check 0 <= r <= domination_bound(p, n), monotonicity and |r'| <= C2.

    All three are evaluated on the supplied grid of nonnegative F values
    (at least two points). Monotonicity allows a -1e-12 slack for noise.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("grid must be a vector with at least two points")
    if np.any(pts < 0):
        raise ValueError("grid points must be nonnegative")
    pts = np.sort(pts)
    bound = domination_bound(p, n)
    values = np.asarray(r.value(pts), dtype=float)
    derivs = np.asarray(r.deriv(pts), dtype=float)
    range_ok = bool(np.all(values >= 0.0) and np.all(values <= bound))
    nondecreasing = bool(np.all(np.diff(values) >= -1e-12))
    deriv_bounded = bool(np.all(np.abs(derivs) <= r.deriv_bound))
    return ConditionReport(
        range_ok=range_ok,
        nondecreasing=nondecreasing,
        deriv_bounded=deriv_bounded,
        bound=bound,
        max_value=float(values.max()),
        max_abs_deriv=float(np.abs(derivs).max()),
    )

"""Shrinkage estimation of a normal mean with a singular Wishart covariance.

When the sample covariance S has fewer degrees of freedom than dimensions
(n < p), S is singular and the classical James-Stein recipe breaks down.
This package implements the Moore-Penrose variant: shrink only inside the
column space of S, by a data-driven factor built from F = X'S+X. It ships

- spectral/pseudoinverse primitives with explicit rank control (`linalg`),
- covariance models and reproducible normal/Wishart samplers (`randgen`),
- the estimator family and its domination constants (`estimators`),
- a Monte-Carlo risk engine plus an unbiased risk-difference formula (`risk`),
- numerical oracles for every derivative and expectation identity the risk
  analysis rests on (`identities`),
- a CLI (`mpshrink run`, `mpshrink verify`) driving both.

The namespace holds what README and the demos use; the engines and kernels
are imported from their modules (`mpshrink.risk.run_study`).
"""

from .estimators import (
    Baranchik,
    Estimator,
    JamesStein,
    PositivePartJS,
    ShrinkageFunction,
    Usual,
    domination_bound,
    estimate,
    estimator_label,
    js_default_constant,
)
from .identities import run_default_suite
from .linalg import pseudo_inverse, quad_form, sym_eigen
from .randgen import Autoregressive, BlockDiagonal, Identity, RngStream, Spiked, sample_wishart
from .risk import ScenarioConfig, risk_curve

__version__ = "0.1.0"

__all__ = [
    "Autoregressive",
    "Baranchik",
    "BlockDiagonal",
    "Estimator",
    "Identity",
    "JamesStein",
    "PositivePartJS",
    "RngStream",
    "ScenarioConfig",
    "ShrinkageFunction",
    "Spiked",
    "Usual",
    "domination_bound",
    "estimate",
    "estimator_label",
    "js_default_constant",
    "pseudo_inverse",
    "quad_form",
    "risk_curve",
    "run_default_suite",
    "sample_wishart",
    "sym_eigen",
]

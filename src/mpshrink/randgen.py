"""Seeded sampling of multivariate normal vectors and (possibly singular)
Wishart matrices, plus the covariance structures used in the simulation
study.

Reproducibility contract: a stream is addressed by (master_seed, stream_id)
and its k-th variate is a fixed function of (master_seed, stream_id, k).
Monte-Carlo engines key one stream per replicate, which makes every result
independent of execution order and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Spiked:
    """Diagonal covariance, first p/2 entries 1 and last p/2 entries 10."""


@dataclass(frozen=True)
class Autoregressive:
    """Sigma_ij = rho ** |i - j|."""

    rho: float = 0.5

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ValueError(f"autoregressive rho must satisfy |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class BlockDiagonal:
    """p/2 independent 2x2 blocks [[1, rho], [rho, 1]]."""

    rho: float = 0.5

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ValueError(f"block-diagonal rho must satisfy |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class Identity:
    """Identity covariance."""


@dataclass(frozen=True, eq=False)
class Custom:
    """A user-supplied positive definite matrix."""

    matrix: np.ndarray


CovarianceModel = Union[Spiked, Autoregressive, BlockDiagonal, Identity, Custom]


def _require_even(p: int, label: str) -> None:
    if p % 2 != 0:
        raise ValueError(f"{label} covariance needs an even dimension, got p={p}")


def build_covariance(model: CovarianceModel, p: int) -> np.ndarray:
    """Materialize a covariance model as a p x p positive definite matrix."""
    if p < 1:
        raise ValueError(f"dimension must be positive, got p={p}")
    if p > linalg.MAX_DIM:
        raise linalg.DimensionMismatchError(
            f"dimension {p} exceeds the dense cap {linalg.MAX_DIM}"
        )
    if isinstance(model, Spiked):
        _require_even(p, "spiked")
        return np.diag(np.concatenate([np.ones(p // 2), np.full(p // 2, 10.0)]))
    if isinstance(model, Autoregressive):
        idx = np.arange(p)
        return np.asarray(model.rho ** np.abs(idx[:, None] - idx[None, :]), dtype=float)
    if isinstance(model, BlockDiagonal):
        _require_even(p, "block-diagonal")
        sigma = np.eye(p)
        for k in range(0, p, 2):
            sigma[k, k + 1] = sigma[k + 1, k] = model.rho
        return sigma
    if isinstance(model, Identity):
        return np.eye(p)
    if isinstance(model, Custom):
        sigma = linalg.symmetrize(model.matrix)
        if sigma.shape[0] != p:
            raise linalg.DimensionMismatchError(
                f"custom covariance is {sigma.shape[0]} x {sigma.shape[0]}, expected p={p}"
            )
        smallest = np.linalg.eigvalsh(sigma)[0]
        if smallest <= 0.0:
            raise linalg.NotPositiveDefiniteError(
                f"custom covariance is not positive definite: min eigenvalue {smallest:.6e}"
            )
        return sigma
    raise TypeError(f"unknown covariance model: {model!r}")


def cov_label(model: CovarianceModel) -> str:
    """Short stable name used in result tables."""
    if isinstance(model, Spiked):
        return "spiked"
    if isinstance(model, Autoregressive):
        return f"ar({model.rho:g})"
    if isinstance(model, BlockDiagonal):
        return f"block({model.rho:g})"
    if isinstance(model, Identity):
        return "identity"
    if isinstance(model, Custom):
        return "custom"
    raise TypeError(f"unknown covariance model: {model!r}")


@dataclass(frozen=True)
class RngStream:
    """Address of one reproducible random stream."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream.

        Built from SeedSequence(master_seed, spawn_key=(stream_id,)), so
        distinct stream ids give statistically independent streams and the
        variate sequence depends on nothing else.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if hasattr(rng, "standard_normal"):
        # Accepts np.random.Generator and test stubs alike.
        return rng
    raise TypeError(f"rng must be an RngStream or expose standard_normal, got {rng!r}")


def _checked_theta_sigma(theta, sigma):
    t = np.asarray(theta, dtype=float)
    if t.ndim != 1:
        raise linalg.DimensionMismatchError(f"theta must be a vector, got shape {t.shape}")
    s = linalg.symmetrize(sigma)
    if s.shape[0] != t.size:
        raise linalg.DimensionMismatchError(
            f"covariance is {s.shape[0]} x {s.shape[0]} but theta has length {t.size}"
        )
    return t, s


def sample_normal(theta, sigma, rng, size: int | None = None) -> np.ndarray:
    """Draw from N(theta, sigma) as theta + z A, A the symmetric PD root.

    size=None returns one vector of length p; an integer returns a (size, p)
    array of independent draws from the same generator.
    """
    g = _as_generator(rng)
    t, s = _checked_theta_sigma(theta, sigma)
    a = linalg.sym_sqrt_pd(s)
    if size is None:
        return t + g.standard_normal(t.size) @ a
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    return t + g.standard_normal((size, t.size)) @ a


@dataclass(frozen=True, eq=False)
class WishartDraw:
    """One draw S = Y'Y with the n rows of Y i.i.d. N(0, sigma).

    Y is kept because the derivative identities differentiate through its
    entries. For p > n the draw is singular with rank min(n, p) a.s.
    """

    y: np.ndarray
    s: np.ndarray
    n: int
    p: int


def sample_wishart(n: int, sigma, rng) -> WishartDraw:
    """Draw S = Y'Y, Y an n x p matrix of i.i.d. N(0, sigma) rows."""
    if n < 1:
        raise ValueError(f"degrees of freedom must be positive, got n={n}")
    g = _as_generator(rng)
    s = linalg.symmetrize(sigma)
    a = linalg.sym_sqrt_pd(s)
    y = g.standard_normal((n, s.shape[0])) @ a
    gram = y.T @ y
    return WishartDraw(y=y, s=(gram + gram.T) / 2.0, n=int(n), p=s.shape[0])


def batch_standard_normal(master_seed: int, start: int, count: int, width: int) -> np.ndarray:
    """(count, width) array whose row j is the first width standard normals
    of stream (master_seed, start + j)."""
    z = np.empty((count, width))
    for j in range(count):
        z[j] = RngStream(master_seed, start + j).generator().standard_normal(width)
    return z


def batch_normal_wishart(
    p: int,
    n: int,
    theta: np.ndarray,
    sqrt_sigma: np.ndarray,
    master_seed: int,
    start: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Block draws of (X_i, Y_i) for replicate streams start .. start+count-1.

    Stream i yields p standard normals for X, then n*p (row-major) for Y:
    X_i = theta + z_x A and Y_i has rows z A. Splitting one stream this way
    reproduces sample_normal followed by sample_wishart on the same
    generator variate for variate.

    Returns X with shape (count, p) and Y with shape (count, n, p).
    """
    z = batch_standard_normal(master_seed, start, count, p + n * p)
    x = theta + z[:, :p] @ sqrt_sigma
    y = z[:, p:].reshape(count, n, p) @ sqrt_sigma
    return x, y

"""Seeded sampling of multivariate normal vectors and (possibly singular)
Wishart matrices, plus the covariance structures used in the simulation
study.

Reproducibility contract: a stream is addressed by (master_seed, stream_id)
and its k-th variate is a fixed function of (master_seed, stream_id, k).
Monte-Carlo engines key one stream per replicate, which makes every result
independent of execution order and thread count.
"""

from __future__ import annotations

import functools
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
    if not np.isfinite(t).all():
        raise ValueError("theta has non-finite entries")
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), reproduced so
# that a chunk's streams are hashed in bulk; NEP 19 keeps it stable across
# numpy releases, and StreamReader checks it once per opening.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_UINT64 = np.dtype(np.uint64)


def _int_words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a nonnegative int, least significant first."""
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_consts(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hash step."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    """One hash step on a Python int or a uint32 array (which wraps by itself)."""
    xor, mult = next(consts)
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    r &= _MASK32
    return r ^ (r >> _XSHIFT)


def _seed_words(run: list[int], spawn: list) -> np.ndarray:
    """(rows, 4) uint64: SeedSequence.generate_state(4, np.uint64) for the
    entropy run + spawn. run holds the master seed's words padded to the
    pool size; spawn[w] is spawn word w, per row (uint32 array) or shared."""
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    rows = spawn[0].size
    pool = [np.full(rows, word, dtype=np.uint32) for word in pool]
    for word in run[_POOL_SIZE:] + spawn:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = np.empty((rows, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        out[:, i] = _hashmix(pool[i % _POOL_SIZE], consts)
    return out.view("<u8")


def _stream_words(master_seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) C-contiguous uint64: row j is
    SeedSequence(master_seed, spawn_key=(start + j,)).generate_state(4, np.uint64)."""
    run = _int_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    words = np.empty((count, _POOL_SIZE), dtype=np.uint64)
    first, end = start, start + count
    while first < end:
        # Ids with as many 32-bit words and the same bits above bit 64 hash as one group.
        high, n_words = first >> 64, len(_int_words(first))
        last = min(end, (high + 1) << 64, 1 << (32 * n_words))
        low = np.arange(last - first, dtype=np.uint64) + np.uint64(first - (high << 64))
        spawn = [(low & _MASK32).astype(np.uint32), (low >> 32).astype(np.uint32)][:n_words]
        if high:
            spawn += _int_words(high)
        words[first - start : last - start] = _seed_words(run, spawn)
        first = last
    return words


@functools.cache
def _stream_words_type() -> type:
    """ISeedSequence that hands successive PCG64s the rows of a block of
    generate_state(4, np.uint64) words, one row each, so that PCG64 seeds
    itself from them. Made on first use: importing the package leaves
    numpy.random unloaded."""

    class StreamWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            # PCG64 reads each row as 4 raw native uint64 words.
            self.rows = iter(np.ascontiguousarray(words, dtype=_UINT64).reshape(-1, _POOL_SIZE))

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or (dtype is not np.uint64 and np.dtype(dtype) != _UINT64):
                raise ValueError(f"StreamWords serves (4, uint64) only, got ({n_words}, {dtype})")
            return next(self.rows)

    return StreamWords


class StreamReader:
    """Streams (master_seed, start + j), j < count, opened once and read in
    order: read(width, lo, hi, out) gives the next width standard normals of
    rows lo .. hi-1 (into out, of shape (hi - lo, width)), and as numpy's
    ziggurat keeps no state between calls, a stream read in several calls
    gives the variates of one call. The words are hashed for the whole block
    and each row's PCG64 seeds itself from its own. Row 0 is checked against
    RngStream.generator(), the reference, on its words at opening and on
    every variate read; a mismatch raises RuntimeError rather than letting
    the variates drift.
    """

    def __init__(self, master_seed: int, start: int, count: int):
        self.stream = RngStream(master_seed, start)
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        self.start, self.count = start, count
        words = _stream_words(int(master_seed), int(start), count)
        rows = _stream_words_type()(words)
        self._rows = [np.random.Generator(np.random.PCG64(rows)) for _ in range(count)]
        if count:
            self._reference = self.stream.generator()
            seq = self._reference.bit_generator.seed_seq
            self._check(np.array_equal(words[0], seq.generate_state(_POOL_SIZE, np.uint64)))

    def _check(self, agrees: bool) -> None:
        if not agrees:
            raise RuntimeError(
                f"bulk stream opening disagrees with numpy {np.__version__}'s SeedSequence "
                f"for stream (master_seed={self.stream.master_seed}, stream_id={self.start})"
            )

    def read(self, width: int, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        hi = self.count if hi is None else hi
        if not 0 <= lo <= hi <= self.count:
            raise ValueError(f"rows {lo} .. {hi} are not within 0 .. {self.count}")
        z = np.empty((hi - lo, width)) if out is None else out
        if z.shape != (hi - lo, width):
            raise ValueError(f"out has shape {z.shape}, expected ({hi - lo}, {width})")
        for g, row in zip(self._rows[lo:hi], z):
            g.standard_normal(out=row)
        if lo == 0 and len(z):
            self._check(np.array_equal(z[0], self._reference.standard_normal(width)))
        return z


def wishart_slab(streams: StreamReader, n: int, sqrt_sigma: np.ndarray, lo: int, hi: int, work):
    """Y_i of shape (hi - lo, n, p) for rows lo .. hi-1 of opened streams:
    the next n*p variates of each row (row-major) as n rows z A. work is a
    pair of buffers of at least hi - lo rows, shaped (., n*p) and (., n, p),
    that the variates and Y are written into; Y is a view of the second."""
    p, rows = sqrt_sigma.shape[0], hi - lo
    z = streams.read(n * p, lo, hi, out=work[0][:rows])
    return np.matmul(z.reshape(rows, n, p), sqrt_sigma, out=work[1][:rows])


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

    Returns X with shape (count, p) and Y with shape (count, n, p). Engines
    draw through risk.slabs; this is the whole-chunk reference tests hold it to.
    """
    z = StreamReader(master_seed, start, count).read(p + n * p)
    x = theta + z[:, :p] @ sqrt_sigma
    y = z[:, p:].reshape(count, n, p) @ sqrt_sigma
    return x, y

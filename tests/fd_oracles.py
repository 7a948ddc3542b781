"""Per-entry finite-difference oracles of the identity suite.

Each function perturbs one entry (alpha, beta) of Y by +-h and factors the
two perturbed matrices on its own. mpshrink.identities evaluates all 2np
perturbations of a configuration in one stacked call instead; the tests
hold those stacked sweeps to these functions bit for bit.
"""

from typing import Callable

import numpy as np

from mpshrink.identities import _checked_index, _checked_xy, _fd_step, _gram, _pinv_locked


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
    return _central_diff_y(_gram, yv, alpha, beta)


def fd_df_dy(x, y, alpha: int, beta: int) -> float:
    """Central difference of F = x' S+ x, pseudoinverse at locked rank."""
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    k = min(yv.shape)
    return float(_central_diff_y(lambda m: xv @ (_pinv_locked(m, k).pinv @ xv), yv, alpha, beta))


def fd_dm_dy(x, y, alpha: int, beta: int) -> np.ndarray:
    """Central difference of S+ x x' S S+, pseudoinverse at locked rank."""
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    k = min(yv.shape)
    return _central_diff_y(lambda m: _m_locked(xv, m, k), yv, alpha, beta)

"""Per-entry references of the identity suite.

Each fd_ function perturbs one entry (alpha, beta) of Y by +-h and factors
the two perturbed matrices on its own; fd_div_x perturbs one coordinate of x
at a time. mpshrink.identities evaluates all perturbations of a
configuration in one stacked call instead; the tests hold those stacked
sweeps to these functions bit for bit. dm_dy_loop is the analytic dM/dY
written entry by entry, the reference for identities.dm_dy's whole-array
terms.
"""

from typing import Callable

import numpy as np

from mpshrink.estimators import pinv_geometry
from mpshrink.identities import _checked_xy, _fd_step, _gram, _pinv_locked


def _checked_index(y: np.ndarray, alpha: int, beta: int) -> None:
    n, p = y.shape
    if not (0 <= alpha < n and 0 <= beta < p):
        raise IndexError(f"(alpha, beta) = ({alpha}, {beta}) outside a {n} x {p} factor")


def _m_locked(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    geo = _pinv_locked(y)
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
    return float(_central_diff_y(lambda m: xv @ (_pinv_locked(m).pinv @ xv), yv, alpha, beta))


def fd_dm_dy(x, y, alpha: int, beta: int) -> np.ndarray:
    """Central difference of S+ x x' S S+, pseudoinverse at locked rank."""
    xv, yv = _checked_xy(x, y)
    _checked_index(yv, alpha, beta)
    return _central_diff_y(lambda m: _m_locked(xv, m), yv, alpha, beta)


def fd_div_x(x, s, r) -> float:
    """Sum over the coordinates i of x of the central difference of the
    field r(F) SS+ x / F's component i in x_i, S fixed."""
    geo = pinv_geometry(x, s)
    xv, pr = geo.x, geo.pr

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
    return oracle


def dm_dy_loop(x, y) -> np.ndarray:
    """d(S+ x x' S S+)/dY at locked rank, the nine-term expansion written
    out at each (alpha, beta) in turn."""
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

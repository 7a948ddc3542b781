import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpshrink import linalg, randgen, risk
from mpshrink.estimators import JamesStein, Usual, f_degenerate, pinv_geometry
from mpshrink.linalg import (
    MAX_DIM,
    BatchPinvApply,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    apply_factor,
    batch_pinv_apply,
    batch_pinv_factor,
    default_rel_tol,
    f_from_coords,
    factor_coords,
    factor_stack,
    inv_pd,
    projectors,
    pseudo_inverse,
    pseudo_inverse_from_eigen,
    quad_form,
    sym_eigen,
    sym_sqrt_pd,
    symmetrize,
)


def random_psd(rng, p, rank=None):
    """Random PSD matrix of the given rank via A'A."""
    if rank is None:
        rank = p
    a = rng.standard_normal((rank, p))
    return a.T @ a


def test_symmetrize_returns_symmetric_average():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    out = symmetrize(m)
    assert np.array_equal(out, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        symmetrize(np.zeros((2, 3)))


def test_symmetrize_rejects_vector():
    with pytest.raises(DimensionMismatchError):
        symmetrize(np.zeros(4))


def test_symmetrize_rejects_nonfinite():
    with pytest.raises(ValueError):
        symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_symmetrize_rejects_oversized():
    with pytest.raises(DimensionMismatchError):
        symmetrize(np.eye(MAX_DIM + 1))


def test_sym_eigen_descending_and_reconstructs():
    rng = np.random.default_rng(0)
    m = random_psd(rng, 8)
    dec = sym_eigen(m)
    assert np.all(np.diff(dec.eigenvalues) <= 0.0)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(dec.matrix() - m) <= 1e-10 * scale
    # columns orthonormal
    assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(8), atol=1e-12)


def test_sym_eigen_dim_property():
    assert sym_eigen(np.eye(5)).dim == 5


def test_pseudo_inverse_diagonal_example():
    # diag(4, 1, 0): invert the nonzero part, keep the null direction at zero
    res = pseudo_inverse(np.diag([4.0, 1.0, 0.0]))
    assert res.rank == 2
    assert np.allclose(res.pinv, np.diag([0.25, 1.0, 0.0]), atol=1e-14)
    assert np.allclose(res.projector, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    assert np.allclose(res.complement, np.diag([0.0, 0.0, 1.0]), atol=1e-14)


def test_pseudo_inverse_full_rank_matches_inverse():
    rng = np.random.default_rng(1)
    m = random_psd(rng, 6) + 0.5 * np.eye(6)
    res = pseudo_inverse(m)
    assert res.rank == 6
    assert np.array_equal(res.projector, np.eye(6))
    assert np.array_equal(res.complement, np.zeros((6, 6)))
    assert np.allclose(res.pinv, np.linalg.inv(m), atol=1e-10)


def test_pseudo_inverse_zero_matrix():
    res = pseudo_inverse(np.zeros((4, 4)))
    assert res.rank == 0
    assert np.array_equal(res.pinv, np.zeros((4, 4)))
    assert np.array_equal(res.projector, np.zeros((4, 4)))
    assert np.array_equal(res.complement, np.eye(4))


def test_pseudo_inverse_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        pseudo_inverse(np.diag([1.0, -1.0]))


def test_pseudo_inverse_accepts_tiny_negative_noise():
    # eigenvalue at -1e-12 relative: inside the PSD slack, clipped to rank 1
    res = pseudo_inverse(np.diag([1.0, -1e-12]))
    assert res.rank == 1


@pytest.mark.parametrize("edge", [1.0 + 1e-3, 1.0 - 1e-3], ids=["above", "below"])
@pytest.mark.parametrize("n", [15, 6], ids=["square-side", "solve-side"])
def test_one_cutoff_at_its_edge(n, edge):
    # Y = U diag(sigma) V' puts the smallest nonzero eigenvalue of S = Y'Y
    # (and of G = YY') a hair above or below default_rel_tol(p) * lambda_max.
    # The scalar path, pinv_geometry and both sides of factor_stack must all
    # draw the line there; on the solve side the cutoff belongs to p, not n.
    p, count = 12, 4
    k = min(n, p)
    rng = np.random.default_rng(5)
    sigma_sq = np.linspace(1.0, 0.5, k)
    sigma_sq[-1] = edge * default_rel_tol(p)
    ys = []
    for _ in range(count):
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((p, k)))
        ys.append((u * np.sqrt(sigma_sq)) @ v.T)
    factor = factor_stack(np.array(ys))
    expected = k if edge > 1.0 else k - 1
    assert factor.rank.tolist() == [expected] * count
    for y in ys:
        s = symmetrize(y.T @ y)
        assert pseudo_inverse(s).rank == expected
        assert pinv_geometry(rng.standard_normal(p), s).pr.rank == expected


def test_pseudo_inverse_from_eigen_matches_direct():
    rng = np.random.default_rng(2)
    m = random_psd(rng, 7, rank=4)
    dec = sym_eigen(m)
    a = pseudo_inverse(m)
    b = pseudo_inverse_from_eigen(dec)
    assert a.rank == b.rank == 4
    assert np.array_equal(a.pinv, b.pinv)


def penrose_errors(m, pinv):
    scale = max(1.0, np.linalg.norm(m))
    return (
        np.linalg.norm(m @ pinv @ m - m) / scale,
        np.linalg.norm(pinv @ m @ pinv - pinv) / max(1.0, np.linalg.norm(pinv)),
        np.linalg.norm((m @ pinv).T - m @ pinv) / scale,
        np.linalg.norm((pinv @ m).T - pinv @ m) / scale,
    )


@pytest.mark.parametrize("p,rank", [(5, 5), (6, 3), (8, 1), (10, 7)])
def test_penrose_conditions(p, rank):
    rng = np.random.default_rng(100 + p + rank)
    m = random_psd(rng, p, rank)
    res = pseudo_inverse(m)
    assert res.rank == rank
    for err in penrose_errors(m, res.pinv):
        assert err <= 1e-8


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=1, max_value=12),
    rank_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_penrose_conditions_property(p, rank_frac, seed):
    rank = max(1, int(round(rank_frac * p)))
    rng = np.random.default_rng(seed)
    m = random_psd(rng, p, rank)
    res = pseudo_inverse(m)
    for err in penrose_errors(m, res.pinv):
        assert err <= 1e-8
    # projector really is S S+
    assert np.allclose(res.projector, m @ res.pinv, atol=1e-8 * max(1.0, np.linalg.norm(m)))


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_double_pseudo_inverse_property(p, seed):
    # Inverting twice loses about kappa * eps relative, kappa the condition
    # number of the kept spectrum; draws with kappa above 1e8 exist in this
    # strategy (p=3, seed=72 has an error of 5.8e-5), so the 1e-8 bound
    # widens to kappa * eps there.
    rng = np.random.default_rng(seed)
    rank = rng.integers(1, p + 1)
    m = random_psd(rng, p, rank)
    once = pseudo_inverse(m)
    twice = pseudo_inverse(once.pinv)
    assert twice.rank == once.rank
    kappa = np.linalg.norm(m, 2) * np.linalg.norm(once.pinv, 2)
    bound = max(1e-8, kappa * np.finfo(float).eps) * max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(twice.pinv - symmetrize(m)) <= bound


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gram_rank_and_null_space(n, p, seed):
    # S = Y'Y has rank min(n, p) for generic Y, and (I - SS+) kills Y'
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, p))
    s = symmetrize(y.T @ y)
    res = pseudo_inverse(s)
    assert res.rank == min(n, p)
    assert np.linalg.norm(res.complement @ y.T) <= 1e-8 * max(1.0, np.linalg.norm(y))


def test_projector_is_idempotent_orthogonal():
    rng = np.random.default_rng(3)
    m = random_psd(rng, 9, rank=4)
    proj, comp = projectors(m)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    assert np.allclose(proj @ comp, np.zeros((9, 9)), atol=1e-10)
    assert np.allclose(proj + comp, np.eye(9), atol=1e-14)
    assert abs(np.trace(proj) - 4.0) <= 1e-10


def test_quad_form_value():
    assert quad_form([1.0, 2.0], np.array([[2.0, 0.0], [0.0, 3.0]])) == 14.0


def test_quad_form_shape_errors():
    with pytest.raises(DimensionMismatchError):
        quad_form(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(DimensionMismatchError):
        quad_form([1.0, 2.0], np.eye(3))


def test_default_rel_tol_scales_with_dimension():
    assert default_rel_tol(10) == 1e-11
    assert default_rel_tol(1) == 1e-12


def test_sym_sqrt_pd_squares_back():
    rng = np.random.default_rng(4)
    m = random_psd(rng, 6) + np.eye(6)
    root = sym_sqrt_pd(m)
    assert np.allclose(root @ root, m, atol=1e-10 * np.linalg.norm(m))
    assert np.allclose(root, root.T, atol=0.0)
    assert np.all(np.linalg.eigvalsh(root) > 0.0)


def test_sym_sqrt_pd_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        sym_sqrt_pd(np.diag([1.0, 0.0]))


def test_inv_pd_matches_numpy():
    rng = np.random.default_rng(5)
    m = random_psd(rng, 5) + np.eye(5)
    assert np.allclose(inv_pd(m), np.linalg.inv(m), atol=1e-10)


def test_inv_pd_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        inv_pd(np.diag([2.0, 0.0]))


def test_batch_pinv_apply_matches_scalar_path():
    rng = np.random.default_rng(6)
    reps, n, p = 50, 4, 7
    y = rng.standard_normal((reps, n, p))
    s = y.transpose(0, 2, 1) @ y
    s = (s + s.transpose(0, 2, 1)) / 2.0
    x = rng.standard_normal((reps, p))
    batch = batch_pinv_apply(s, x)
    assert isinstance(batch, BatchPinvApply)
    for i in range(reps):
        res = pseudo_inverse(s[i])
        assert batch.rank[i] == res.rank
        f_scalar = quad_form(x[i], res.pinv)
        assert abs(batch.f[i] - f_scalar) <= 1e-12 * max(1.0, abs(f_scalar))
        assert np.allclose(batch.psx[i], res.projector @ x[i], atol=1e-10)
        assert np.allclose(batch.spx[i], res.pinv @ x[i], atol=1e-10)


def test_batch_pinv_apply_zero_matrix_entry():
    s = np.zeros((1, 3, 3))
    x = np.ones((1, 3))
    batch = batch_pinv_apply(s, x)
    assert batch.rank[0] == 0
    assert batch.f[0] == 0.0
    assert batch.lam_max_pinv[0] == 0.0
    assert np.array_equal(batch.psx[0], np.zeros(3))


def test_batch_pinv_apply_shape_errors():
    with pytest.raises(DimensionMismatchError):
        batch_pinv_apply(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        batch_pinv_apply(np.zeros((2, 3, 3)), np.zeros((3, 3)))


def test_batch_pinv_apply_rejects_nonfinite_entry():
    s = np.stack([np.eye(3)] * 3)
    s[1, 0, 2] = s[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="stack entry 1"):
        batch_pinv_apply(s, np.ones((3, 3)))
    x = np.ones((3, 3))
    x[2, 1] = np.inf
    with pytest.raises(ValueError, match="stack entry 2"):
        batch_pinv_apply(np.stack([np.eye(3)] * 3), x)


def test_batch_pinv_apply_rejects_indefinite_entry():
    s = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
    x = np.zeros((2, 3))
    with pytest.raises(NotPositiveSemidefiniteError):
        batch_pinv_apply(s, x)


# -------------------------------------------- solve and p x p factor sides


def square_path(y, x):
    """The p x p oracle: S = Y'Y symmetrised, then batch_pinv_apply."""
    s = y.transpose(0, 2, 1) @ y
    return batch_pinv_apply((s + s.transpose(0, 2, 1)) / 2.0, x)


def rel_diff(a, b):
    """Largest per-entry relative difference, vectors compared by norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a, b = a[:, None], b[:, None]
    # Rescale each row first so that entries near 1e+-200 cannot overflow.
    scale = np.max(np.abs(b), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    num = np.linalg.norm((a - b) / scale, axis=-1)
    den = np.maximum(np.linalg.norm(b / scale, axis=-1), 1e-300)
    out = float(np.max(num / den))
    assert np.isfinite(out)
    return out


def kernel_agreement(a, b) -> float:
    assert np.array_equal(a.rank, b.rank)
    return max(
        rel_diff(a.f, b.f),
        rel_diff(a.psx, b.psx),
        rel_diff(a.spx, b.spx),
        rel_diff(a.lam_max_pinv, b.lam_max_pinv),
    )


def spectrum_checked_stack(y) -> float:
    """Condition number of the kept spectrum of S = Y'Y, worst over the stack.

    Skips stacks with an eigenvalue within 10x of the rank cutoff, where any
    two solvers may disagree on the rank.
    """
    p = y.shape[2]
    s = y.transpose(0, 2, 1) @ y
    w = np.linalg.eigvalsh((s + s.transpose(0, 2, 1)) / 2.0)
    cutoff = default_rel_tol(p) * w[:, -1:]
    assume(np.all((w >= 10.0 * cutoff) | (w <= cutoff / 10.0)))
    kept_min = np.where(w > cutoff, w, np.inf).min(axis=1)
    return float(np.max(w[:, -1] / kept_min))


def agreement_tol(kappa: float) -> float:
    """1e-10 relative, widened to 1e-12 * kappa for ill-conditioned draws.

    Both kernels lose about 1e-14 * kappa against an SVD of Y (measured:
    at most 2.3e-14 * kappa over 2762 draws); no pair of backward-stable
    solvers can agree beyond that, however exact each formula is.
    """
    return max(1e-10, 1e-12 * kappa)


# "p-1" and "p" straddle the kernel's choice: n < p takes the solve side
# unless a draw has rank below n, n >= p always the p x p side.
_SHAPES = st.sampled_from(["quarter", "half", "p-1", "p", "p+1"])
_ROW_DEFECT = st.sampled_from(["none", "duplicate", "near"])


def draw_factor(rng, p, shape, defect, scale_exp, near_exp, reps=3):
    n = {
        "quarter": max(1, p // 4),
        "half": max(2, p // 2 - int(rng.integers(0, 3))),
        "p-1": p - 1,
        "p": p,
        "p+1": p + 1,
    }[shape]
    y = rng.standard_normal((reps, n, p))
    if defect == "duplicate":
        y[:, -1] = y[:, 0]
    elif defect == "near":
        y[:, -1] = y[:, 0] + 10.0**near_exp * rng.standard_normal((reps, p))
    x = rng.standard_normal((reps, p))
    return y * 10.0**scale_exp, x


def svd_spx(y, x, rank):
    """S+ x from an SVD of each Y: V_k diag(1/s_k^2) V_k' x over the top rank
    singular values. It never forms Y'Y, so it keeps the directions that a
    near-duplicate row leaves at the bottom of S's spectrum."""
    out = np.empty_like(x)
    for i in range(len(y)):
        _, sv, vt = np.linalg.svd(y[i], full_matrices=False)
        k = int(rank[i])
        out[i] = vt[:k].T @ ((vt[:k] @ x[i]) / sv[:k] / sv[:k])
    return out


@settings(deadline=None, max_examples=300)
@given(
    p=st.integers(min_value=5, max_value=24),
    shape=_SHAPES,
    defect=_ROW_DEFECT,
    scale_exp=st.integers(min_value=-100, max_value=100),
    near_exp=st.floats(min_value=-6.0, max_value=0.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# kappa 2.7e8: the p x p oracle's S+ x is 1.2e-3 off the SVD's, the solve
# kernel's 3.1e-7 off.
@example(p=17, shape="half", defect="near", scale_exp=0, near_exp=-3.6875, seed=9108064)
def test_batch_pinv_factor_matches_square_path(p, shape, defect, scale_exp, near_exp, seed):
    """Equal ranks; F, P_S x and lambda_max(S+) within 1e-10 relative of the
    p x p path (1e-12 * kappa when the kept spectrum of S is ill-conditioned).

    The solve side is taken exactly when n < p and every draw has rank n.
    There S+ x is checked against an SVD of Y at the same tolerance instead:
    forming Y'Y squares the condition number, so along a near-duplicate row
    the p x p path's S+ x is the less accurate of the two. Every other stack
    takes the p x p side, which is batch_pinv_apply on S bit for bit.
    """
    y, x = draw_factor(np.random.default_rng(seed), p, shape, defect, scale_exp, near_exp)
    tol = agreement_tol(spectrum_checked_stack(y))
    got = batch_pinv_factor(y, x)
    oracle = square_path(y, x)
    assert np.array_equal(got.rank, oracle.rank)
    for field in ("f", "psx", "lam_max_pinv"):
        assert rel_diff(getattr(got, field), getattr(oracle, field)) <= tol, field
    solved = factor_stack(y).gram is not None
    assert solved == (y.shape[1] < p and bool(np.all(oracle.rank == y.shape[1])))
    if solved:
        assert rel_diff(got.spx, svd_spx(y, x, got.rank)) <= tol
    else:
        for field in ("f", "rank", "psx", "spx", "lam_max_pinv"):
            assert np.array_equal(getattr(got, field), getattr(oracle, field))


def test_batch_pinv_factor_tiny_factor_keeps_spx_finite():
    # Y ~ 1e-99 with a near-duplicate row: S+x ~ 1e206 is representable,
    # but forming G^-2 Y x on the solve side first reaches ~1e313.
    y, x = draw_factor(np.random.default_rng(0), 5, "half", "near", -99, -4.0)
    assert factor_stack(y).gram is not None
    got = batch_pinv_factor(y, x)
    assert np.isfinite(got.spx).all()
    s = y.transpose(0, 2, 1) @ y
    w = np.linalg.eigvalsh((s + s.transpose(0, 2, 1)) / 2.0)
    kappa = float(np.max(w[:, -1] / w[:, -y.shape[1]]))
    assert kernel_agreement(got, square_path(y, x)) <= agreement_tol(kappa)


def test_batch_pinv_factor_duplicate_row_drops_rank():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((4, 6, 20))
    y[:, 5] = y[:, 2]
    x = rng.standard_normal((4, 20))
    ba = batch_pinv_factor(y, x)
    assert np.array_equal(ba.rank, np.full(4, 5))
    assert kernel_agreement(ba, square_path(y, x)) <= 1e-10


@pytest.mark.parametrize("defect", ["duplicate", "near", "zero", "mixed"])
def test_rank_deficient_stack_takes_the_p_x_p_fallback(defect):
    """One draw below rank n < p sends the whole stack to the p x p side,
    which is batch_pinv_apply on S bit for bit: a duplicate row, a
    near-duplicate row far below the rank cutoff, an all-zero Y, and a
    stack where only one entry of four is rank-deficient."""
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 6, 10))
    x = rng.standard_normal((4, 10))
    if defect == "duplicate":
        y[:, 5] = y[:, 2]
    elif defect == "near":
        y[:, 5] = y[:, 2] + 1e-9 * rng.standard_normal((4, 10))
    elif defect == "zero":
        y[:] = 0.0
    else:
        y[2, 5] = y[2, 0]
    factor = factor_stack(y)
    assert factor.gram is None
    want_rank = {"duplicate": 5, "near": 5, "zero": 0, "mixed": [6, 6, 5, 6]}[defect]
    assert np.array_equal(factor.rank, np.broadcast_to(want_rank, (4,)))
    got = apply_factor(factor, x)
    want = square_path(y, x)
    for field in ("f", "rank", "psx", "spx", "lam_max_pinv"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_batch_pinv_factor_zero_factor_entry():
    ba = batch_pinv_factor(np.zeros((1, 3, 10)), np.ones((1, 10)))
    assert ba.rank[0] == 0
    assert ba.f[0] == 0.0
    assert ba.lam_max_pinv[0] == 0.0
    assert np.array_equal(ba.psx[0], np.zeros(10))
    assert np.array_equal(ba.spx[0], np.zeros(10))


@settings(deadline=None, max_examples=100)
@given(
    p=st.integers(min_value=5, max_value=24),
    shape=_SHAPES,
    t=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factor_coords_combine_linearly(p, shape, t, seed):
    """F, P_S x and the degeneracy mask from factor_coords on the stacked
    (noise, u) pair, combined as c(noise) + t c(u), match apply_factor at
    x = noise + t u, on both kernel sides. Entry 1 of the full stack has a
    zero Y, so its draw is degenerate at every t and the stack takes the
    p x p side; without it, an n < p stack takes the solve side."""
    rng = np.random.default_rng(seed)
    y, noise = draw_factor(rng, p, shape, "none", 0, 0.0, reps=4)
    y[1] = 0.0
    tol = agreement_tol(spectrum_checked_stack(y))
    u = rng.standard_normal(p)
    u /= np.linalg.norm(u)
    for rows in ([0, 1, 2, 3], [0, 2, 3]):
        factor = factor_stack(y[rows])
        assert (factor.gram is not None) == (len(rows) == 3 and y.shape[1] < p)
        both = np.stack([noise[rows], np.broadcast_to(u, noise[rows].shape)], axis=1)
        c, psx_both = factor_coords(factor, both)
        f = f_from_coords(factor, c[:, 0] + t * c[:, 1])
        psx = psx_both[:, 0] + t * psx_both[:, 1]
        x = t * u + noise[rows]
        direct = apply_factor(factor, x)
        assert rel_diff(f, direct.f) <= tol
        assert rel_diff(psx, direct.psx) <= tol

        def mask(f, psx):
            x_sq = np.einsum("ri,ri->r", x, x)
            return f_degenerate(f, x_sq, factor.rank, np.linalg.norm(psx, axis=1), factor.lam_max_pinv)

        assert np.array_equal(mask(f, psx), mask(direct.f, direct.psx))
        assert mask(f, psx)[1] == (len(rows) == 4)


def test_batch_pinv_factor_shape_errors():
    with pytest.raises(DimensionMismatchError):
        batch_pinv_factor(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        batch_pinv_factor(np.zeros((2, 3, 8)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        batch_pinv_factor(np.zeros((2, 3, 8)), np.zeros((3, 8)))


@pytest.mark.parametrize("n", [3, 9])
def test_batch_pinv_factor_rejects_nonfinite_entry(n):
    y = np.ones((3, n, 10))
    y[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="stack entry 1"):
        batch_pinv_factor(y, np.ones((3, 10)))
    x = np.ones((3, 10))
    x[2, 4] = np.inf
    with pytest.raises(ValueError, match="stack entry 2"):
        batch_pinv_factor(np.ones((3, n, 10)), x)
    # Finite entries whose Gram matrix overflows are rejected as well.
    y = np.ones((3, n, 10))
    y[0] *= 1e200
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="stack entry 0"):
        batch_pinv_factor(y, np.ones((3, 10)))


@pytest.mark.parametrize("n", [5, 12])  # the solve side, the p x p side
@pytest.mark.parametrize("c", [1e-155, 1e-170])
def test_factor_stack_rejects_a_nonzero_y_whose_squares_underflow(n, c):
    """(c x, c Y) keeps F, but at c = 1e-155 G = YY' (S = Y'Y) goes
    subnormal and F came out wrong, and at 1e-170 it is zero and the rank
    came out 0, without an error. Such a Y_i is rejected, naming its entry."""
    rng = np.random.default_rng(7)
    y = rng.standard_normal((2, n, 10))
    y[1] *= c
    with pytest.raises(ValueError, match=r"stack entry 1: Y's largest row norm\^2 underflows"):
        factor_stack(y)


@pytest.mark.parametrize("n", [5, 12])
def test_factor_stack_keeps_zero_rows_and_small_normal_y(n):
    """An all-zero Y_i has rank 0 and a zero row drops the rank by one, as
    before the underflow rule; (c x, c Y) at c = 1e-150, whose squared row
    norms are still normal, keeps F and the rank."""
    rng = np.random.default_rng(7)
    y, x = rng.standard_normal((3, n, 10)), rng.standard_normal((3, 10))
    base = batch_pinv_factor(y, x)
    small = batch_pinv_factor(1e-150 * y, 1e-150 * x)
    assert np.array_equal(small.rank, base.rank)
    assert rel_diff(small.f, base.f) <= 1e-10
    y[1] = 0.0
    y[2, 0] = 0.0
    assert np.array_equal(factor_stack(y).rank, [min(n, 10), 0, min(n - 1, 10)])


def test_batch_geometry_flags_zero_x_at_an_infinite_bound():
    """At |Y| ~ 1e-150 the certificate's bound on lambda_max(S+) is inf; an
    x = 0 draw is flagged degenerate without forming 0 * inf, which tier-1's
    RuntimeWarning filter would turn into an error."""
    y = 1e-150 * np.random.default_rng(0).standard_normal((2, 5, 10))
    ba, degen = risk.batch_geometry(np.zeros((2, 10)), y)
    assert ba.factor.certified and np.all(np.isinf(ba.factor.lam_bound))
    assert np.array_equal(degen, [True, True])


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=5, max_value=24),
    shape=_SHAPES,
    defect=_ROW_DEFECT,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factor_then_apply_matches_batch_pinv_factor(p, shape, defect, seed):
    """One factor_stack serves several x stacks, each bit for bit equal to a
    fresh batch_pinv_factor call, on both sides of the solve/p x p choice."""
    rng = np.random.default_rng(seed)
    y, x = draw_factor(rng, p, shape, defect, 0, -3.0)
    factor = factor_stack(y)
    for xs in (x, 3.0 + x, rng.standard_normal(x.shape)):
        want = batch_pinv_factor(y, xs)
        got = apply_factor(factor, xs)
        for field in ("f", "rank", "psx", "spx", "lam_max_pinv"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("n", [3, 9, 12])
def test_apply_factor_rejects_bad_x(n):
    factor = factor_stack(np.random.default_rng(2).standard_normal((3, n, 10)))
    x = np.ones((3, 10))
    x[1, 7] = np.nan
    with pytest.raises(ValueError, match="stack entry 1: x"):
        apply_factor(factor, x)
    # The message names the shape the caller passed, against the factor's (R, p).
    for shape in [(3, 9), (2, 10), (3, 1, 10), (10,)]:
        message = f"x stack shape {shape} does not match the factor's (R, p) = (3, 10)"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            apply_factor(factor, np.ones(shape))


def _pinv_apply_on(s):
    return batch_pinv_apply(s, np.ones(s.shape[:2]))


@pytest.mark.parametrize(
    "call, kind, shape",
    [(factor_stack, "(R, n, p)", s) for s in [(0, 3, 5), (0, 5, 3), (4, 0, 3), (4, 3, 0), (4, 0, 0)]]
    + [(_pinv_apply_on, "(R, p, p)", s) for s in [(0, 3, 3), (2, 0, 0)]],
)
def test_empty_stacks_are_rejected_naming_the_shape(call, kind, shape):
    """An empty stack, or one with n = 0 or p = 0, is a DimensionMismatchError
    that names its shape, from factor_stack and batch_pinv_apply alike."""
    message = f"expected a nonempty {kind} stack, got shape {shape}"
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        call(np.empty(shape))


def _js_delta(ba, x, a=0.4):
    # delta = x - a P_S x / F on non-degenerate draws.
    return x - (a / ba.f)[:, None] * ba.psx


@settings(deadline=None, max_examples=80)
@given(
    p=st.integers(min_value=5, max_value=24),
    shape=_SHAPES,
    scale_exp=st.integers(min_value=-60, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_pinv_factor_scale_equivariance(p, shape, scale_exp, seed):
    """(c x, c Y), i.e. c^2 S, keeps F and P_S and maps delta to c delta."""
    y, x = draw_factor(np.random.default_rng(seed), p, shape, "none", 0, 0.0)
    tol = agreement_tol(spectrum_checked_stack(y))
    c = 10.0**scale_exp * 1.7
    base = batch_pinv_factor(y, x)
    scaled = batch_pinv_factor(c * y, c * x)
    assert np.array_equal(scaled.rank, base.rank)
    assert rel_diff(scaled.f, base.f) <= tol
    assert rel_diff(scaled.psx, c * base.psx) <= tol
    assert rel_diff(scaled.spx, base.spx / c) <= tol
    assert rel_diff(scaled.lam_max_pinv, base.lam_max_pinv / c**2) <= tol
    assert rel_diff(_js_delta(scaled, c * x), c * _js_delta(base, x)) <= tol


@settings(deadline=None, max_examples=80)
@given(
    p=st.integers(min_value=5, max_value=24),
    shape=_SHAPES,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_pinv_factor_orthogonal_equivariance(p, shape, seed):
    """(Q x, Y Q'), i.e. Q S Q', keeps F and maps P_S x, S+ x and delta by Q."""
    rng = np.random.default_rng(seed)
    y, x = draw_factor(rng, p, shape, "none", 0, 0.0)
    tol = agreement_tol(spectrum_checked_stack(y))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    base = batch_pinv_factor(y, x)
    turned = batch_pinv_factor(y @ q.T, x @ q.T)
    assert np.array_equal(turned.rank, base.rank)
    assert rel_diff(turned.f, base.f) <= tol
    assert rel_diff(turned.psx, base.psx @ q.T) <= tol
    assert rel_diff(turned.spx, base.spx @ q.T) <= tol
    assert rel_diff(turned.lam_max_pinv, base.lam_max_pinv) <= tol
    assert rel_diff(_js_delta(turned, x @ q.T), _js_delta(base, x) @ q.T) <= tol


# ------------------------------------------------- full-rank certificate


def designed_stack(rng, p, n, positions, scale_exp):
    """A stack Y_i = U diag(sigma) V' with n < p, one entry per position in
    [0, 1]: the other sigma^2 are uniform on [1, 2], the smallest sits at
    that point of the log scale from the rank cutoff / 10 to 10 times the
    certificate's shift c t^2 = 2 default_rel_tol(p) |G|_F. Also returns,
    per entry, sigma_min^2 / (c t^2), the unit vector w of S's range with
    w'S+w = 1/sigma_min^2 and a unit vector z of S's null space."""
    rel_tol = default_rel_tol(p)
    y, margin = np.empty((len(positions), n, p)), np.empty(len(positions))
    w, z = np.empty((len(positions), p)), np.empty((len(positions), p))
    for i, pos in enumerate(positions):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((p, n + 1)))
        s2 = rng.uniform(1.0, 2.0, n)
        shift = 2.0 * rel_tol * np.sqrt(np.sum(s2[:-1] ** 2))
        lo, hi = rel_tol * s2[:-1].max() / 10.0, 10.0 * shift
        s2[-1] = lo * (hi / lo) ** pos
        margin[i] = s2[-1] / shift
        y[i] = (u * np.sqrt(s2)) @ v[:, :n].T
        w[i], z[i] = v[:, n - 1], v[:, n]
    return y * 10.0**scale_exp, margin, w, z


def exact_spectrum(factor, p):
    """Ranks and lambda_max(S+) from eigvalsh of the factor's G and the cutoff rule."""
    _, _, _, rank, lam = linalg._batch_spectrum(factor.gram, default_rel_tol(p), vectors=False)
    return rank, lam


def designed_streams(x, y):
    """A stand-in for randgen.StreamReader whose variates are the rows of x,
    then those of Y: with Sigma = I, run_study draws exactly (x, Y)."""
    r, n, p = y.shape

    class Designed:
        start = 0

        def __init__(self, master_seed, start, count):
            pass

        def read(self, width, lo=0, hi=None, out=None):
            z = x if width == p else y.reshape(r, n * p)[lo:hi]
            if out is None:
                return z.copy()
            out[...] = z
            return out

    return Designed


def run_study_mask(y, x):
    """The degenerate mask that run_study's theta loop applies at |theta| = 0
    to the given (x, Y) draws."""
    r, n, p = y.shape
    cfg = risk.ScenarioConfig(p=p, n=n, cov=randgen.Identity(), estimators=[], replicates=r)
    masks = []
    degenerate = risk._degenerate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randgen, "StreamReader", designed_streams(x, y))
        mp.setattr(risk, "_degenerate", lambda *args: masks.append(degenerate(*args)) or masks[-1])
        # x almost in S's null space has a tiny F, so js's loss may overflow.
        with np.errstate(over="ignore"):
            study = risk.run_study(cfg, [JamesStein(1.0)], [0.0])
    # One slab and one theta: the mask's shape is (theta, replicate).
    assert len(masks) == 1 and study.degenerate[0] == masks[0].sum()
    return masks[0][0]


@settings(deadline=None, max_examples=150)
@given(
    p=st.integers(min_value=5, max_value=24),
    n_pick=st.integers(min_value=0, max_value=1000),
    positions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    scale_exp=st.integers(min_value=-100, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(p=12, n_pick=0, positions=[0.0], scale_exp=0, seed=1)
@example(p=12, n_pick=5, positions=[0.0, 1.0], scale_exp=-99, seed=2)
@example(p=12, n_pick=5, positions=[1.0, 0.9], scale_exp=-99, seed=3)
@example(p=12, n_pick=5, positions=[1.0, 0.9], scale_exp=100, seed=4)
def test_full_rank_certificate_against_eigvalsh(p, n_pick, positions, scale_exp, seed):
    """A certified stack has rank n under eigvalsh and the cutoff rule, and
    its bound is >= the exact lambda_max(S+) as floats; a stack whose
    smallest sigma^2 is 3 c or more is certified at any |Y|. Whatever the
    side, batch_geometry's and run_study's degenerate masks equal the exact
    rule. x runs over a random draw and two draws almost in S's null space:
    one that the bound flags and the exact pass clears, one that both flag."""
    n = 3 + n_pick % (p - 3)
    rng = np.random.default_rng(seed)
    y, margin, w, z = designed_stack(rng, p, n, positions, scale_exp)
    factor = factor_stack(y)
    if factor.gram is not None:
        rank, lam = exact_spectrum(factor, p)
        assert np.array_equal(factor.rank, rank)
        assert np.array_equal(factor.lam_max_pinv, lam)
    if factor.certified:
        assert np.all(rank == n)
        assert np.all(factor.lam_bound >= lam)
        # F / (1e-12 |x|^2 lam) = sqrt(lam_bound / lam): above the exact
        # rule's threshold by that factor, below the bound's by as much.
        eps = 1e-6 * (factor.lam_bound / lam) ** 0.25
    else:
        assert not np.all(margin >= 3.0)
        eps = np.full(len(y), 1e-5)
    xs = {
        "random": rng.standard_normal((len(y), p)),
        "bound only": z + eps[:, None] * w,
        "both": z + 1e-8 * w,
    }
    for name, x in xs.items():
        ba, degen = risk.batch_geometry(x, y)
        x_sq, psx_norm = np.einsum("ri,ri->r", x, x), np.linalg.norm(ba.psx, axis=1)
        exact = f_degenerate(ba.f, x_sq, ba.rank, psx_norm, ba.lam_max_pinv)
        assert np.array_equal(degen, exact), name
        assert np.array_equal(run_study_mask(y, x), exact), name
        if factor.certified and name != "random":
            assert np.all(f_degenerate(ba.f, x_sq, ba.rank, psx_norm, factor.lam_bound))
            assert np.all(exact) == (name == "both")


@pytest.mark.parametrize("p, n", [(12, 5), (24, 23)])
def test_certificate_bound_holds_at_the_shift(p, n):
    """Where lambda_min(G/t^2) sits within rounding of the shift c, the
    Cholesky of G/t^2 - c I succeeds on some entries and fails on others.
    Wherever it succeeds, the bound is still >= the exact lambda_max(S+),
    and eigvalsh still finds rank n: the 2x margin covers the window."""
    rng = np.random.default_rng(17)
    certified = 0
    # Steps of 1e-7 relative: the window where rounding decides is about 1e-5 wide.
    for k in range(-200, 201):
        y, _, _, _ = designed_stack(rng, p, n, [0.0], 0)
        u, s, vt = np.linalg.svd(y[0], full_matrices=False)
        s2 = s**2
        s2[-1] = 2.0 * default_rel_tol(p) * np.sqrt(np.sum(s2[:-1] ** 2)) * (1.0 + k * 1e-7)
        factor = factor_stack(((u * np.sqrt(s2)) @ vt)[None])
        if factor.certified:
            certified += 1
            rank, lam = exact_spectrum(factor, p)
            assert rank[0] == n
            assert factor.lam_bound[0] >= lam[0], k
    assert 0 < certified < 401


def test_certificate_at_the_largest_finite_gram():
    """Each entry's largest G_ii is 8.5e307, just below the 2^1023 that
    (G + G')/2 keeps finite, so tr G overflows while G does not: t is
    2^511, the largest scale a finite G gives, and the stack certifies
    with a valid bound."""
    y, _, _, _ = designed_stack(np.random.default_rng(4), 10, 5, [1.0, 1.0], 0)
    y *= np.sqrt(8.5e307 / np.einsum("rij,rij->ri", y, y).max(axis=1))[:, None, None]
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(np.einsum("rij,rij->r", y, y)))
    factor = factor_stack(y)
    assert np.all(factor.scale == 2.0**511)
    rank, lam = exact_spectrum(factor, 10)
    assert factor.certified and np.all(rank == 5)
    assert np.all(factor.lam_bound >= lam)


def test_factor_stack_scale_survives_an_overflowing_trace():
    """Y = 2e153 N(0, 1): entry 1's tr G overflows while G stays finite.
    F, P_S x and S+ x match those of the 2^-510-scaled stack on both
    entries (S+ x scales by 2^-1020, F too as x stays unscaled)."""
    rng = np.random.default_rng(0)
    y = 2e153 * rng.standard_normal((2, 5, 10))
    x = rng.standard_normal((2, 10))
    with np.errstate(over="ignore"):
        assert list(np.isinf(np.einsum("rij,rij->r", y, y))) == [False, True]
    big = apply_factor(factor_stack(y), x)
    small = apply_factor(factor_stack(y * 2.0**-510), x)
    assert rel_diff(big.spx * 2.0**1020, small.spx) <= 1e-12
    assert rel_diff(big.f * 2.0**1020, small.f) <= 1e-12
    assert rel_diff(big.psx, small.psx) <= 1e-12


def test_factor_stack_peak_memory_is_g_plus_slabs():
    """factor_stack on a (2048, 49, 50) stack holds G, the finite check's
    boolean mask of G and at most a few SLAB_BYTES temporaries at once
    (tracemalloc sees numpy's buffers): symmetrising G and the shifted
    Cholesky work one slab at a time on the certified path."""
    r, n, p = 2048, 49, 50
    y = np.random.default_rng(0).standard_normal((r, n, p))
    g_bytes = r * n * n * 8
    slab_bytes = linalg.SLAB_BYTES
    tracemalloc.start()
    try:
        factor = factor_stack(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.certified
    assert peak <= g_bytes + g_bytes // 8 + 4 * slab_bytes, (peak, g_bytes, slab_bytes)


def test_certified_path_never_reads_the_exact_value():
    """On a certified stack whose draws the bound clears, neither the risk
    engine's theta loop nor batch_geometry runs eigvalsh(G)."""
    rng = np.random.default_rng(8)
    y = rng.standard_normal((16, 6, 10))
    x = rng.standard_normal((16, 10))
    ba, degen = risk.batch_geometry(x, y)
    assert ba.factor.certified and not degen.any()
    assert ba.factor._exact is None
    factors = []

    def recorded(y):
        factors.append(factor_stack(y))
        return factors[-1]

    cfg = risk.ScenarioConfig(p=10, n=6, cov=randgen.Identity(), estimators=[], replicates=16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randgen, "StreamReader", designed_streams(x, y))
        mp.setattr(linalg, "factor_stack", recorded)
        study = risk.run_study(cfg, [Usual(), JamesStein(1.0)], [0.0, 1.0, 5.0])
    assert study.eigvalsh_chunks == 0 and not study.degenerate.any()
    assert len(factors) == 1 and factors[0].certified and factors[0]._exact is None


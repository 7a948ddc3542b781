import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink.linalg import (
    MAX_DIM,
    BatchPinvApply,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    batch_pinv_apply,
    default_rel_tol,
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


def test_pseudo_inverse_rel_tol_validation():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            pseudo_inverse(np.eye(3), rel_tol=bad)


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
    rng = np.random.default_rng(seed)
    rank = rng.integers(1, p + 1)
    m = random_psd(rng, p, rank)
    once = pseudo_inverse(m)
    twice = pseudo_inverse(once.pinv)
    assert twice.rank == once.rank
    assert np.linalg.norm(twice.pinv - symmetrize(m)) <= 1e-8 * max(1.0, np.linalg.norm(m))


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

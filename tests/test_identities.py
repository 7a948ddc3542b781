import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink import linalg, risk
from mpshrink.estimators import Baranchik, constant_shrinkage, geometry, positive_part_shrinkage
from mpshrink import identities
from mpshrink.identities import (
    FD_GRID,
    MC_GRID,
    MC_MIN_REPLICATES,
    SUITE_NAMES,
    IdentityReport,
    RankDegenerateError,
    SummaryStats,
    _central_diff_stack,
    _df_dy_checks,
    _div_x_checks,
    _dm_dy_checks,
    _ds_dy_checks,
    _gram,
    _pinv_locked,
    _report,
    _stacked_fd_df_dy,
    _stacked_fd_dm_dy,
    _sure_assembly_checks,
    _worst,
    df_dy,
    div_x_identity,
    dm_dy,
    ds_dy,
    eye_g_builder,
    finiteness_probe,
    run_default_suite,
    sample_identity_config,
    stein_haff_mc,
    stein_identity_mc,
    shrinkage_g_builder,
    trace_grad_identity,
)
from mpshrink.randgen import RngStream

from fd_oracles import _central_diff_y, dm_dy_loop, fd_df_dy, fd_div_x, fd_dm_dy, fd_ds_dy


def smooth_r():
    from mpshrink.estimators import ShrinkageFunction

    return ShrinkageFunction(
        value=lambda t: 0.5 * t / (1.0 + t),
        deriv=lambda t: 0.5 / (1.0 + t) ** 2,
        value_bound=0.5,
        deriv_bound=0.5,
    )


def suite_config(p, n, seed=0):
    return sample_identity_config(p, n, RngStream(seed, p * 100 + n).generator())


# ------------------------------------------------------------ fixed-rank pinv

def test_pinv_fixed_rank_full_rank_exact_projector():
    # n >= p: S = Y'Y = diag(3, 2, 1) up to rounding, rank locked at 3.
    geo = _pinv_locked(np.diag(np.sqrt([3.0, 2.0, 1.0])))
    assert geo.rank == 3
    assert np.array_equal(geo.projector, np.eye(3))
    assert np.array_equal(geo.complement, np.zeros((3, 3)))
    assert np.allclose(geo.pinv, np.diag([1 / 3, 0.5, 1.0]), atol=1e-15)


def test_pinv_fixed_rank_partial():
    # n = 2 < p = 3: S = diag(4, 1, 0), rank locked at 2.
    geo = _pinv_locked(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert geo.rank == 2
    assert np.allclose(geo.pinv, np.diag([0.25, 1.0, 0.0]), atol=1e-15)
    assert np.allclose(geo.projector, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(geo.complement, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("p,n", FD_GRID + ((7, 2), (3, 9)))
def test_pinv_locked_stack_gives_each_factors_bits(p, n):
    ys = np.random.default_rng(p * 10 + n).standard_normal((6, n, p))
    stacked = _pinv_locked(ys)
    assert stacked.rank == min(n, p)
    for i, y in enumerate(ys):
        one = _pinv_locked(y)
        for name in ("pinv", "projector", "complement", "cutoff", "lam_max_pinv"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)), name
        low = np.linalg.eigvalsh(_gram(y))[-min(n, p)]
        assert np.isclose(stacked.lam_max_pinv[i], 1.0 / low, rtol=1e-12)
    if n >= p:
        assert np.array_equal(stacked.projector, np.broadcast_to(np.eye(p), (6, p, p)))
        assert np.array_equal(stacked.complement, np.zeros((6, p, p)))


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from(FD_GRID + ((3, 9),)), seed=st.integers(0, 10_000))
def test_pinv_locked_and_the_cutoff_rule_share_one_construction(shape, seed):
    # Wherever the cutoff keeps min(n, p) eigenvalues, the rank-locked S+
    # and linalg.pseudo_inverse of the same S are one computation.
    p, n = shape
    y = np.random.default_rng(seed).standard_normal((n, p))
    by_cutoff = linalg.pseudo_inverse(_gram(y))
    locked = _pinv_locked(y)
    assert by_cutoff.rank == locked.rank == min(n, p)
    for name in ("pinv", "projector", "complement", "lam_max_pinv"):
        assert np.array_equal(getattr(by_cutoff, name), getattr(locked, name)), name


@pytest.mark.parametrize("p,n", FD_GRID + ((7, 2), (3, 9)))
def test_geometry_of_a_locked_stack_gives_each_entrys_bits(p, n):
    rng = np.random.default_rng(p * 10 + n + 1)
    x, ys = rng.standard_normal(p), rng.standard_normal((6, n, p))
    stacked = geometry(x, _pinv_locked(ys))
    assert stacked.f.shape == (6,)
    for i, y in enumerate(ys):
        pr = _pinv_locked(y)
        one = geometry(x, pr)
        assert isinstance(one.f, float)
        want = {"spx": pr.pinv @ x, "psx": pr.projector @ x, "cx": pr.complement @ x}
        for name, value in want.items():
            got = getattr(stacked, name)[i].tobytes(), getattr(one, name).tobytes()
            assert got == (value.tobytes(),) * 2, name
        assert stacked.f[i] == one.f == float(x @ (pr.pinv @ x))


def test_every_locked_pinv_is_read_through_geometry():
    # S+x, SS+x, (I - SS+)x and F of the rank-locked path come from
    # estimators.geometry alone, as they do on the cutoff-rule path.
    locked, read = [], set()
    for path in sorted(pathlib.Path(identities.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "_pinv_locked":
                locked.append((path.stem, node.lineno, node.col_offset))
            elif name == "geometry":
                read.update((path.stem, a.lineno, a.col_offset) for a in node.args)
    assert locked
    assert [site for site in locked if site not in read] == []


def test_pinv_locked_rejects_a_stack_with_one_degenerate_entry():
    ys = np.random.default_rng(1).standard_normal((3, 2, 4))
    ys[1, 1] = ys[1, 0]  # rank 1 < min(n, p) = 2
    with pytest.raises(RankDegenerateError, match="eigenvalue 1 of S is"):
        _pinv_locked(ys)


# ---------------------------------------------------------------- dS / dY

def test_ds_dy_single_row_symbolic():
    # Y = [[a, b]]: S = [[a^2, ab], [ab, b^2]], so dS/dY_00 = [[2a, b], [b, 0]]
    ds = ds_dy(np.array([[3.0, 5.0]]))
    assert ds.shape == (1, 2, 2, 2)
    assert np.array_equal(ds[0, 0], np.array([[6.0, 5.0], [5.0, 0.0]]))
    assert np.array_equal(ds[0, 1], np.array([[0.0, 3.0], [3.0, 10.0]]))


def test_ds_dy_matches_fd():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 4))
    ds = ds_dy(y)
    assert ds.shape == (3, 4, 4, 4)
    for a in range(3):
        for b in range(4):
            got = ds[a, b]
            want = fd_ds_dy(y, a, b)
            assert np.array_equal(got, got.T)
            assert np.allclose(got, want, rtol=0, atol=1e-9)


def test_derivatives_reject_misshaped_input():
    _, y = suite_config(5, 3, seed=5)
    with pytest.raises(linalg.DimensionMismatchError):
        ds_dy(np.zeros(3))
    with pytest.raises(linalg.DimensionMismatchError):
        df_dy(np.ones(4), y)
    with pytest.raises(linalg.DimensionMismatchError):
        dm_dy(np.ones(4), y)


# ---------------------------------------------------------------- dF / dY

def test_df_dy_zero_x():
    _, y = suite_config(5, 3)
    assert np.array_equal(df_dy(np.zeros(5), y), np.zeros((3, 5)))


@pytest.mark.parametrize("p,n", FD_GRID)
def test_df_dy_matches_fd(p, n):
    x, y = suite_config(p, n)
    df = df_dy(x, y)
    assert df.shape == (n, p)
    for a in range(n):
        for b in range(p):
            assert df[a, b] == pytest.approx(fd_df_dy(x, y, a, b), rel=1e-6, abs=1e-8)


def test_df_dy_out_of_range_term_vanishes_at_full_rank():
    # n >= p: (I - SS+) x is exactly zero, so only the first term remains
    x, y = suite_config(4, 6, seed=2)
    u = _pinv_locked(y).pinv @ x
    first_term = -2.0 * np.outer(y @ u, u)
    assert np.array_equal(df_dy(x, y), first_term)


# The four paths that factor Y through _pinv_locked.
LOCKED_PATHS = {
    "df_dy": df_dy,
    "dm_dy": dm_dy,
    "trace_grad_identity": lambda x, y: trace_grad_identity(x, y, smooth_r()),
    "sure_assembly": lambda x, y: _sure_assembly_checks(x, y, smooth_r()),
}


@pytest.mark.parametrize("path", list(LOCKED_PATHS))
def test_df_dy_rejects_rank_degenerate_y(path):
    y = np.zeros((3, 5))
    y[0] = [1.0, 0.0, 0.0, 0.0, 0.0]
    y[1] = y[0]
    y[2] = [0.0, 1.0, 0.0, 0.0, 0.0]  # rank 2 < min(n, p) = 3
    with pytest.raises(RankDegenerateError, match="eigenvalue 2 of S"):
        LOCKED_PATHS[path](np.ones(5), y)


@pytest.mark.parametrize("path", list(LOCKED_PATHS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_locked_paths_reject_a_non_finite_s(path, bad):
    # 1e200 is finite, but S = Y'Y overflows.
    _, y = suite_config(5, 3, seed=9)
    y[1, 2] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        LOCKED_PATHS[path](np.ones(5), y)


@pytest.mark.parametrize("path", list(LOCKED_PATHS))
def test_locked_paths_reject_y_wider_than_the_dense_cap(path):
    p = linalg.MAX_DIM + 1
    with pytest.raises(linalg.DimensionMismatchError, match="513"):
        LOCKED_PATHS[path](np.ones(p), np.ones((1, p)))


@pytest.mark.parametrize("path", list(LOCKED_PATHS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_locked_paths_reject_a_non_finite_x(path, bad):
    x, y = suite_config(5, 3, seed=11)
    x[2] = bad
    with pytest.raises(ValueError, match="^x has non-finite entries$"):
        LOCKED_PATHS[path](x, y)


@pytest.mark.parametrize("check", [trace_grad_identity, _sure_assembly_checks])
def test_locked_f_paths_reject_zero_f(check):
    # x = 0 gives F = 0, where r(F)/F is undefined.
    _, y = suite_config(5, 3, seed=10)
    with pytest.raises(RankDegenerateError, match=r"F = 0\.000000e\+00 is degenerate"):
        check(np.zeros(5), y, smooth_r())


# ---------------------------------------------------------------- dM / dY

def test_dm_dy_zero_x():
    _, y = suite_config(5, 3, seed=3)
    assert np.array_equal(dm_dy(np.zeros(5), y), np.zeros((3, 5, 5, 5)))


@settings(deadline=None, max_examples=60)
@given(
    shape=st.sampled_from(FD_GRID + ((9, 4), (3, 9))),
    seed=st.integers(0, 2**32 - 1),
    zero_x=st.booleans(),
)
def test_dm_dy_equals_the_term_by_term_loop(shape, seed, zero_x):
    # Bit for bit, signed zeros included: the whole-array terms keep the
    # loop's products, the order of its sums and its scalar placement.
    p, n = shape
    x, y = suite_config(p, n, seed)
    if zero_x:
        x = np.zeros(p)
    assert dm_dy(x, y).tobytes() == dm_dy_loop(x, y).tobytes()


@pytest.mark.parametrize("p,n", FD_GRID)
def test_dm_dy_matches_fd(p, n):
    x, y = suite_config(p, n, seed=4)
    dm = dm_dy(x, y)
    assert dm.shape == (n, p, p, p)
    for a in range(n):
        for b in range(p):
            want = fd_dm_dy(x, y, a, b)
            err = np.linalg.norm(dm[a, b] - want) / max(1.0, np.linalg.norm(want))
            assert err <= 1e-6


# ------------------------------------------------------ stacked FD sweeps

@pytest.mark.parametrize("p,n", FD_GRID)
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_fd_sweeps_match_per_entry_oracles(p, n, seed):
    x, y = suite_config(p, n, seed)
    ds = _central_diff_stack(_gram, y)
    df = _stacked_fd_df_dy(x, y)
    dm = _stacked_fd_dm_dy(x, y)
    assert ds.shape == dm.shape == (n, p, p, p)
    assert df.shape == (n, p)
    for a, b in np.ndindex(n, p):
        assert np.array_equal(ds[a, b], fd_ds_dy(y, a, b))
        assert np.array_equal(df[a, b], fd_df_dy(x, y, a, b))
        assert np.array_equal(dm[a, b], fd_dm_dy(x, y, a, b))
    # The suite's checks report exactly what the per-entry oracles give.
    entries = list(np.ndindex(n, p))
    ds_an, dm_an = ds_dy(y), dm_dy(x, y)
    assert _ds_dy_checks(x, y, None) == [
        _report("ds_dy", ds_an[a, b], fd_ds_dy(y, a, b), 1e-5) for a, b in entries
    ]
    fd = np.array([[fd_df_dy(x, y, a, b) for b in range(p)] for a in range(n)])
    assert _df_dy_checks(x, y, None) == [_report("df_dy", df_dy(x, y), fd, 1e-5)]
    assert _dm_dy_checks(x, y, None) == [
        _report("dm_dy", dm_an[a, b], fd_dm_dy(x, y, a, b), 1e-5) for a, b in entries
    ]


@pytest.mark.parametrize("p,n", FD_GRID)
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), constant=st.booleans())
def test_trace_grad_stacked_oracle_matches_per_entry_sum(p, n, seed, constant):
    x, y = suite_config(p, n, seed)
    r = constant_shrinkage(0.3) if constant else smooth_r()
    def field(m):
        g = _pinv_locked(m)
        ux = g.pinv @ x
        fx = float(x @ ux)
        rfx = r(fx)
        return (rfx * rfx / (fx * fx)) * np.outer(g.projector @ x, ux)

    oracle = 0.0
    for a in range(n):
        for b in range(p):
            oracle += float(y[a] @ _central_diff_y(field, y, a, b)[b])
    assert trace_grad_identity(x, y, r).oracle == oracle


# p = 9 also pins the summation order: np.trace pairs terms from p = 8 on.
@pytest.mark.parametrize("p,n", FD_GRID + ((9, 4),))
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), constant=st.booleans())
def test_div_x_stacked_oracle_matches_per_coordinate_loop(p, n, seed, constant):
    x, y = suite_config(p, n, seed)
    r = constant_shrinkage(0.3) if constant else smooth_r()
    s = _gram(y)
    assert div_x_identity(x, s, r).oracle == fd_div_x(x, s, r)
    assert _div_x_checks(x, y, r) == [div_x_identity(x, s, r)]


# ----------------------------------------------------------- scalar identities

@pytest.mark.parametrize("p,n", [(5, 3), (4, 6)])
def test_trace_grad_identity_passes(p, n):
    x, y = suite_config(p, n, seed=6)
    rep = trace_grad_identity(x, y, smooth_r())
    assert rep.name == "trace_grad"
    assert rep.passed
    assert rep.rel_err <= 1e-5


def test_trace_grad_zero_curve_is_exact_zero():
    x, y = suite_config(5, 3, seed=7)
    rep = trace_grad_identity(x, y, constant_shrinkage(0.0))
    assert rep.analytic == 0.0
    assert rep.passed


def test_div_x_identity_constant_r_worked_example():
    # S = diag(1,1,1,0,0), x = e1: F = 1, m = 3, so div = r * (3 - 2) / 1
    s = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    rep = div_x_identity(x, s, constant_shrinkage(0.25))
    assert rep.analytic == pytest.approx(0.25, abs=1e-12)
    assert rep.passed


def test_div_x_identity_smooth_curve():
    x, y = suite_config(6, 4, seed=8)
    s = y.T @ y
    rep = div_x_identity(x, (s + s.T) / 2.0, smooth_r())
    assert rep.passed


def test_div_x_degenerate_raises():
    s = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    x = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(RankDegenerateError):
        div_x_identity(x, s, constant_shrinkage(0.25))


# --------------------------------------------------------------- MC identities

def test_stein_identity_small_run():
    rep = stein_identity_mc(
        np.zeros(6), np.eye(6), 4, Baranchik(constant_shrinkage(0.3)),
        replicates=4000, seed=2,
    )
    assert rep.name == "stein"
    assert rep.passed


def test_stein_identity_nonzero_theta_and_positive_part():
    theta = 0.4 * np.ones(5)
    rep = stein_identity_mc(
        theta, np.eye(5), 4, Baranchik(positive_part_shrinkage(0.5)),
        replicates=4000, seed=3,
    )
    assert rep.passed


def test_stein_identity_validation():
    with pytest.raises(ValueError):
        stein_identity_mc(np.zeros(5), np.eye(5), 3, Baranchik(constant_shrinkage(0.3)), replicates=10)
    with pytest.raises(ValueError):
        stein_identity_mc(np.zeros(5), np.eye(5), 0, Baranchik(constant_shrinkage(0.3)), replicates=2000)
    with pytest.raises(linalg.DimensionMismatchError):
        stein_identity_mc(np.zeros(4), np.eye(5), 3, Baranchik(constant_shrinkage(0.3)), replicates=2000)


def test_stein_haff_eye_builder_gives_np():
    rep = stein_haff_mc(3, np.eye(5), eye_g_builder(5), replicates=3000, seed=4)
    assert rep.name == "stein_haff"
    assert rep.analytic == pytest.approx(15.0, abs=1e-12)  # n tr(I) = n p exactly
    assert rep.passed


def test_stein_haff_shrinkage_builder():
    rep = stein_haff_mc(
        3,
        np.eye(5),
        shrinkage_g_builder(np.ones(5), constant_shrinkage(0.3)),
        replicates=3000,
        seed=5,
    )
    assert rep.passed


def test_stein_haff_respects_covariance():
    sigma = np.diag([1.0, 2.0, 3.0])
    rep = stein_haff_mc(4, sigma, eye_g_builder(3), replicates=3000, seed=6)
    assert rep.analytic == pytest.approx(12.0, abs=1e-12)
    assert rep.passed


def test_stein_haff_builder_shape_check():
    def bad_builder(s):
        return np.eye(2), 0.0

    with pytest.raises(linalg.DimensionMismatchError):
        stein_haff_mc(3, np.eye(5), bad_builder, replicates=1000, seed=0)


@pytest.mark.parametrize("n, p", [(3, 5), (5, 3), (4, 9)])
def test_shrinkage_g_builder_matches_scalar_geometry(n, p):
    """The chunk builder gives each replicate's r(F)^2 S+x (P_S x)' / F^2
    and gradient trace as the scalar pinv_geometry path does."""
    from mpshrink.estimators import pinv_geometry

    rng = np.random.default_rng(n * 100 + p)
    y = rng.standard_normal((6, n, p))
    x = rng.standard_normal(p)
    r = smooth_r()
    g, trace_grad = shrinkage_g_builder(x, r)(y)
    assert g.shape == (6, p, p) and trace_grad.shape == (6,)
    for i in range(6):
        s = y[i].T @ y[i]
        geo = pinv_geometry(x, (s + s.T) / 2.0)
        f = geo.f
        expect = (r(f) ** 2 / f**2) * np.outer(geo.spx, geo.psx)
        assert np.linalg.norm(g[i] - expect) <= 1e-10 * np.linalg.norm(expect)
        closed = -4.0 * r(f) * r.deriv(f) + r(f) ** 2 * (p - 2.0 * geo.pr.rank + 3.0) / f
        assert trace_grad[i] == pytest.approx(closed, rel=1e-10)


def test_shrinkage_g_builder_names_degenerate_entry():
    # x in the null space of S_2 = Y_2'Y_2: F = 0 there.
    y = np.random.default_rng(3).standard_normal((4, 3, 5))
    y[2, :, 0] = 0.0
    x = np.zeros(5)
    x[0] = 1.0
    with pytest.raises(RankDegenerateError, match="stack entry 2"):
        shrinkage_g_builder(x, constant_shrinkage(0.3))(y)


def test_eye_g_builder_broadcasts_identity():
    g, trace_grad = eye_g_builder(4)(np.zeros((3, 2, 4)))
    assert g.shape == (3, 4, 4)
    assert np.array_equal(g[1], np.eye(4))
    assert np.array_equal(trace_grad, np.zeros(3))


def test_stein_haff_validation():
    with pytest.raises(ValueError):
        stein_haff_mc(3, np.eye(5), eye_g_builder(5), replicates=10)
    with pytest.raises(ValueError):
        stein_haff_mc(0, np.eye(5), eye_g_builder(5), replicates=2000)


# ------------------------------------------------------------------ finiteness

def test_finiteness_probe_basic():
    summary = finiteness_probe(5, 3, np.eye(5), r=smooth_r(), replicates=2000, seed=7)
    assert summary.all_finite
    assert summary.replicates == 2000
    assert summary.inv_f.mean > 0.0
    assert summary.inv_f.maximum >= summary.inv_f.q99 >= summary.inv_f.q90
    assert summary.divergence is not None


def test_finiteness_probe_without_curve():
    summary = finiteness_probe(4, 3, np.eye(4), replicates=1000, seed=8)
    assert summary.divergence is None
    assert summary.all_finite


def test_finiteness_probe_names_sigma_and_p():
    with pytest.raises(linalg.DimensionMismatchError, match=r"^sigma is 4 x 4 but p = 5$"):
        finiteness_probe(5, 3, np.eye(4))


def test_finiteness_probe_validation():
    with pytest.raises(ValueError):
        finiteness_probe(5, 3, np.eye(5), replicates=0)
    with pytest.raises(linalg.DimensionMismatchError):
        finiteness_probe(5, 3, np.eye(4))


@pytest.mark.parametrize("n", [0, -1])
def test_finiteness_probe_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match=f"degrees of freedom must be positive, got n={n}"):
        finiteness_probe(5, n, np.eye(5), replicates=100)


def test_summary_stats_quantiles():
    stats = SummaryStats.of(np.arange(1.0, 101.0))
    assert stats.mean == pytest.approx(50.5)
    assert stats.maximum == 100.0
    assert stats.q50 <= stats.q90 <= stats.q99 <= stats.maximum


# ----------------------------------------------------------------- the suite

def test_sample_identity_config_respects_thresholds():
    for p, n in FD_GRID:
        x, y = sample_identity_config(p, n, RngStream(10, 0).generator())
        assert x.shape == (p,) and y.shape == (n, p)
        k = min(n, p)
        s = (y.T @ y + (y.T @ y).T) / 2.0
        w = np.linalg.eigvalsh(s)[::-1]
        gap = w[k - 1] - (w[k] if k < p else 0.0)
        assert gap >= 1e-6 * max(w[0], 1.0)
        assert float(x @ _pinv_locked(y).pinv @ x) >= 1e-6


@pytest.mark.parametrize("p,n", [(5, 0), (0, 3), (-1, 3)])
def test_sample_identity_config_rejects_an_empty_shape(p, n):
    with pytest.raises(ValueError, match=f"^p and n must be at least 1, got p={p}, n={n}$"):
        sample_identity_config(p, n, np.random.default_rng(0))


def test_sample_identity_config_deterministic():
    a = sample_identity_config(5, 3, RngStream(11, 1).generator())
    b = sample_identity_config(5, 3, RngStream(11, 1).generator())
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_worst_report_selection():
    good = IdentityReport("x", 1.0, 1.0, 1e-9, 1e-9, 1e-5, True)
    bad = IdentityReport("x", 1.0, 2.0, 1.0, 0.5, 1e-5, False)
    combined = _worst([good, bad], "combined")
    assert combined.rel_err == 0.5
    assert not combined.passed
    assert combined.name == "combined"
    assert _worst([good, good], "ok").passed


def test_run_default_suite_small_settings():
    reports = run_default_suite(seed=13, fd_configs=2, mc_replicates=1000)
    assert [r.name for r in reports] == list(SUITE_NAMES)
    fd_names = {"ds_dy", "df_dy", "dm_dy", "trace_grad", "div_x", "sure_assembly"}
    for rep in reports:
        if rep.name in fd_names:
            assert rep.passed, rep


def test_run_default_suite_only_filter():
    reports = run_default_suite(seed=13, only="sure_assembly", fd_configs=3)
    assert len(reports) == 1
    assert reports[0].name == "sure_assembly"
    assert reports[0].passed
    assert reports[0].tolerance == 1e-12
    with pytest.raises(ValueError):
        run_default_suite(only="nonsense")


@pytest.mark.parametrize("only", [None, "ds_dy"])
def test_run_default_suite_checks_the_replicate_floor_before_any_identity(only, monkeypatch):
    calls = []
    monkeypatch.setattr(identities, "_SUITE", {name: lambda *a: calls.append(a) for name in SUITE_NAMES})
    few = MC_MIN_REPLICATES - 1
    with pytest.raises(ValueError, match=f"replicates must be at least {MC_MIN_REPLICATES}, got {few}"):
        run_default_suite(only=only, fd_configs=1, mc_replicates=few)
    assert calls == []


def test_stein_check_fails_a_wrong_divergence(monkeypatch):
    """The suite's stein check tests Baranchik with the smooth curve, whose
    r(F)/F is bounded, so its 3-SE test is valid at MC_GRID's rank 3 (a
    constant r gives the a(m - 2)/F term infinite variance there). At the
    default seed and 1000 replicates it passes the closed-form divergence
    and fails, by over 4 tolerances, one with (m - 1) in place of (m - 2)."""
    (right,) = run_default_suite(seed=13, only="stein", mc_replicates=1000)
    assert right.passed
    monkeypatch.setattr(risk, "_div_form", lambda rf, rdf, f, m: 2.0 * rdf + rf * (m - 1.0) / f)
    (wrong,) = run_default_suite(seed=13, only="stein", mc_replicates=1000)
    assert not wrong.passed
    assert wrong.abs_err > 4.0 * wrong.tolerance * max(1.0, abs(wrong.oracle))


def test_mc_grid_is_the_three_by_five_pair():
    assert MC_GRID == ((5, 3), (3, 5))

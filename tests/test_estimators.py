import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink import linalg
from mpshrink.estimators import (
    Baranchik,
    DimensionCutoffError,
    JamesStein,
    PositivePartJS,
    ShrinkageFunction,
    Usual,
    check_r_conditions,
    constant_shrinkage,
    domination_bound,
    estimate,
    estimator_label,
    f_degenerate,
    js_default_constant,
    positive_part_shrinkage,
)
from mpshrink.identities import _smooth_suite_r
from mpshrink.randgen import RngStream, sample_wishart

X0 = np.array([2.0, 0.0, 1.0])
S0 = np.diag([4.0, 1.0, 0.0])  # S+ = diag(0.25, 1, 0), F = 1 at X0


# ------------------------------------------------------------ worked examples

def test_james_stein_diagonal_example():
    out = estimate(JamesStein(0.5), X0, S0)
    assert np.allclose(out.delta, [1.0, 0.0, 1.0], atol=1e-14)
    assert out.shrink_factor == 0.5
    assert out.f_value == pytest.approx(1.0, abs=1e-14)
    assert out.rank == 2
    assert not out.degenerate


def test_positive_part_clamps_exactly():
    # r = min(2, F) = F, so the factor is exactly 1 - F/F = 0
    out = estimate(PositivePartJS(2.0), X0, S0)
    assert out.shrink_factor == 0.0
    assert np.array_equal(out.delta, [0.0, 0.0, 1.0])


def test_plain_james_stein_overshoots():
    # no clamp: a = 2 at F = 1 flips the column-space component
    out = estimate(JamesStein(2.0), X0, S0)
    assert out.shrink_factor == -1.0
    assert np.allclose(out.delta, [-2.0, 0.0, 1.0], atol=1e-14)


def test_usual_returns_x():
    out = estimate(Usual(), X0, S0)
    assert np.array_equal(out.delta, X0)
    assert out.shrink_factor == 1.0
    assert out.rank == 2


def test_null_component_passes_through():
    # the piece of x outside the column space of S is never shrunk
    out = estimate(JamesStein(0.5), X0, S0)
    comp = np.diag([0.0, 0.0, 1.0])
    assert np.array_equal(comp @ out.delta, comp @ X0)


# ----------------------------------------------------------------- constants

@pytest.mark.parametrize(
    "p,n,bound,const",
    [
        (10, 5, 0.75, 0.375),
        (10, 9, 3.5, 1.75),
        (5, 5, 2.0, 1.0),
        (20, 19, 8.5, 4.25),
        (50, 25, 1.6428571428571428, 0.8214285714285714),
    ],
)
def test_domination_constants(p, n, bound, const):
    assert domination_bound(p, n) == pytest.approx(bound, rel=1e-15)
    assert js_default_constant(p, n) == pytest.approx(const, rel=1e-15)


def test_constants_symmetric_in_p_n():
    assert domination_bound(7, 12) == domination_bound(12, 7)
    assert js_default_constant(7, 12) == js_default_constant(12, 7)


def test_full_rank_constant_reduces_to_classical():
    # n >= p: (p - 2) / (n - p + 3)
    assert js_default_constant(5, 10) == pytest.approx(3.0 / 8.0)
    assert domination_bound(5, 10) == pytest.approx(6.0 / 8.0)


@pytest.mark.parametrize("p,n", [(2, 50), (50, 2), (1, 1), (3, 2)])
def test_dimension_cutoff(p, n):
    with pytest.raises(DimensionCutoffError):
        domination_bound(p, n)
    with pytest.raises(DimensionCutoffError):
        js_default_constant(p, n)


# ---------------------------------------------------------- shrinkage curves

def test_constant_shrinkage_curve():
    r = constant_shrinkage(0.5)
    assert r(0.0) == 0.5
    assert r(100.0) == 0.5
    assert r.deriv(3.0) == 0.0
    assert r.value_bound == 0.5
    assert r.deriv_bound == 0.0


def test_positive_part_shrinkage_curve():
    r = positive_part_shrinkage(2.0)
    assert r(1.0) == 1.0
    assert r(2.0) == 2.0
    assert r(5.0) == 2.0
    assert r.deriv(1.0) == 1.0
    assert r.deriv(2.0) == 0.0
    assert r.deriv(5.0) == 0.0


def test_negative_constants_rejected():
    with pytest.raises(ValueError):
        constant_shrinkage(-0.1)
    with pytest.raises(ValueError):
        positive_part_shrinkage(-1.0)
    with pytest.raises(ValueError):
        JamesStein(-0.5)
    with pytest.raises(ValueError):
        PositivePartJS(-2.0)


def test_shrinkage_of_and_labels():
    assert Usual().r(17.0) == 0.0
    assert JamesStein(0.4).r(17.0) == 0.4
    assert PositivePartJS(0.4).r(0.1) == 0.1
    curve = constant_shrinkage(0.3)
    assert Baranchik(curve).r is curve
    assert estimator_label(Usual()) == "usual"
    assert estimator_label(JamesStein(0.375)) == "js(0.375)"
    assert estimator_label(PositivePartJS(1.75)) == "js+(1.75)"
    assert estimator_label(Baranchik(curve)) == "baranchik"


def test_nonfinite_constants_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            constant_shrinkage(bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            positive_part_shrinkage(bad)


# Reference for the array contract: the pointwise loop every engine used
# before curves took arrays.
def _pointwise(fn, arr):
    return np.array([fn(t) for t in arr], dtype=float)


_F_VALUES = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


@settings(deadline=None, max_examples=100)
@given(f=_F_VALUES, a=st.floats(min_value=0.0, max_value=50.0))
def test_curves_on_arrays_match_pointwise_loop(f, a):
    # points at the positive-part kink and just either side of it
    arr = np.array(f + [a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)])
    for r in (constant_shrinkage(a), positive_part_shrinkage(a), _smooth_suite_r()):
        assert np.array_equal(r.value(arr), _pointwise(r.value, arr))
        assert np.array_equal(r.deriv(arr), _pointwise(r.deriv, arr))
        assert np.shape(r.value(arr)) == arr.shape == np.shape(r.deriv(arr))


# -------------------------------------------------------------- degeneracy

def test_f_degenerate_rules():
    assert f_degenerate(0.0, 0.0, 0, 0.0, 0.0)  # rank zero
    assert f_degenerate(0.0, 25.0, 2, 0.0, 1.0)  # x orthogonal to range
    assert f_degenerate(1e-13, 1.0, 2, 1e-6, 1.0)  # F below threshold
    assert not f_degenerate(1.0, 1.0, 2, 1.0, 1.0)
    flags = f_degenerate(
        np.array([1.0, 0.0]),
        np.array([1.0, 4.0]),
        np.array([2, 0]),
        np.array([1.0, 0.0]),
        np.array([1.0, 0.0]),
    )
    assert np.array_equal(flags, [False, True])


def test_f_degenerate_infinite_lambda_never_forms_zero_times_inf():
    """At |x|^2 = 0 with an infinite lambda_max(S+), or its bound, the F test
    reads False (as the nan comparison did) and warns of nothing; an x = 0
    draw is still flagged through P_S x = 0."""
    inf = np.inf
    assert not f_degenerate(1.0, 0.0, 3, 1.0, inf)
    assert f_degenerate(0.0, 0.0, 3, 0.0, inf)
    assert f_degenerate(1.0, 1.0, 3, 1.0, inf)
    flags = f_degenerate(
        np.array([0.0, 1.0, 1.0, 1e-13]),
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([3, 3, 3, 3]),
        np.array([0.0, 1.0, 1.0, 1.0]),
        np.array([inf, inf, 1.0, 1.0]),
    )
    assert np.array_equal(flags, [True, False, False, True])


def test_estimate_degenerate_orthogonal_x():
    out = estimate(JamesStein(0.5), np.array([0.0, 0.0, 5.0]), S0)
    assert out.degenerate
    assert out.shrink_factor == 1.0
    assert np.array_equal(out.delta, [0.0, 0.0, 5.0])


def test_estimate_degenerate_zero_x():
    out = estimate(JamesStein(0.5), np.zeros(3), S0)
    assert out.degenerate
    assert np.array_equal(out.delta, np.zeros(3))


def test_estimate_degenerate_tiny_f():
    x = np.array([1e-10, 0.0, 7.0])
    out = estimate(JamesStein(0.5), x, np.diag([1.0, 1.0, 0.0]))
    assert out.degenerate
    assert np.array_equal(out.delta, x)


def test_estimate_small_but_usable_f_still_shrinks():
    x = np.array([1e-3, 0.0, 7.0])
    out = estimate(JamesStein(0.5), x, np.diag([1.0, 1.0, 0.0]))
    assert not out.degenerate
    assert out.shrink_factor != 1.0


def test_usual_ignores_degeneracy():
    out = estimate(Usual(), np.array([0.0, 0.0, 5.0]), S0)
    assert not out.degenerate
    assert np.array_equal(out.delta, [0.0, 0.0, 5.0])


@pytest.mark.parametrize("x", [X0, np.array([0.0, 0.0, 5.0]), np.zeros(3)])
def test_usual_equals_js_zero(x):
    # the second and third draws are degenerate; neither curve shrinks
    usual = estimate(Usual(), x, S0)
    js0 = estimate(JamesStein(0.0), x, S0)
    assert np.array_equal(usual.delta, js0.delta)
    assert usual.shrink_factor == js0.shrink_factor
    assert usual.degenerate == js0.degenerate is False


# ---------------------------------------------------------------- estimate()

def test_estimate_validation():
    with pytest.raises(linalg.DimensionMismatchError):
        estimate(Usual(), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(linalg.DimensionMismatchError):
        estimate(Usual(), np.zeros(3), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_scalar_path_rejects_a_non_finite_x(bad):
    from mpshrink.identities import div_x_identity
    from mpshrink.risk import unbiased_risk_difference

    x = np.full(10, bad)
    s = sample_wishart(4, np.eye(10), RngStream(0, 0)).s
    for call in (
        lambda: estimate(JamesStein(1.0), x, s),
        lambda: unbiased_risk_difference(x, s, constant_shrinkage(0.5), 4),
        lambda: div_x_identity(x, s, _smooth_suite_r()),
    ):
        with pytest.raises(ValueError, match="^x has non-finite entries$"):
            call()


def test_projection_form_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, p = 4, 7
        draw = sample_wishart(n, np.eye(p), rng)
        x = rng.standard_normal(p)
        out = estimate(JamesStein(0.8), x, draw.s)
        pr = linalg.pseudo_inverse(draw.s)
        f = linalg.quad_form(x, pr.pinv)
        expected = pr.complement @ x + (1.0 - 0.8 / f) * (pr.projector @ x)
        assert np.allclose(out.delta, expected, rtol=1e-12, atol=1e-12)
        assert out.f_value == pytest.approx(f, rel=1e-12)
        assert out.rank == 4


def test_baranchik_positive_part_equivalence():
    rng = np.random.default_rng(8)
    for _ in range(10):
        draw = sample_wishart(3, np.eye(5), rng)
        x = rng.standard_normal(5)
        a = estimate(PositivePartJS(1.2), x, draw.s)
        b = estimate(Baranchik(positive_part_shrinkage(1.2)), x, draw.s)
        assert np.array_equal(a.delta, b.delta)
        assert a.shrink_factor == b.shrink_factor


def test_positive_part_equals_plain_js_when_clamp_inactive():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(40):
        draw = sample_wishart(4, np.eye(6), rng)
        x = 3.0 * rng.standard_normal(6)
        a = 0.5
        js = estimate(JamesStein(a), x, draw.s)
        pp = estimate(PositivePartJS(a), x, draw.s)
        if js.f_value > a:
            hits += 1
            assert np.array_equal(js.delta, pp.delta)
            assert js.shrink_factor == pp.shrink_factor
        else:
            assert pp.shrink_factor == 0.0
    assert hits > 0


def test_positive_part_factor_never_negative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        draw = sample_wishart(3, np.eye(5), rng)
        x = 0.3 * rng.standard_normal(5)
        out = estimate(PositivePartJS(5.0), x, draw.s)
        assert out.shrink_factor >= 0.0


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_full_rank_reduction_matches_classical(seed):
    # n >= p: SS+ = I and the estimator is the classical one built from S^-1
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 8))
    n = int(rng.integers(p, 2 * p + 4))
    draw = sample_wishart(n, np.eye(p), rng)
    x = rng.standard_normal(p)
    a = js_default_constant(p, n)
    out = estimate(JamesStein(a), x, draw.s)
    f_inv = float(x @ np.linalg.inv(draw.s) @ x)
    classical = (1.0 - a / f_inv) * x
    assert out.rank == p
    scale = max(1.0, float(np.linalg.norm(classical)))
    assert np.linalg.norm(out.delta - classical) <= 1e-8 * scale


_EQUIVARIANT_SPECS = [JamesStein(0.4), PositivePartJS(0.4), Baranchik(_smooth_suite_r())]


def _draw_x_s(seed, p, shape):
    rng = np.random.default_rng(seed)
    n = {"half": p // 2, "p-1": p - 1, "p": p, "p+1": p + 1}[shape]
    y = rng.standard_normal((n, p))
    s = y.T @ y
    s = (s + s.T) / 2.0
    w = np.linalg.eigvalsh(s)
    kept = w[w > linalg.default_rel_tol(p) * w[-1]]
    # Two solves of one problem agree to about 1e-14 * cond(S) at best.
    tol = max(1e-10, 1e-12 * w[-1] / kept[0])
    return rng, y, rng.standard_normal(p), tol


def _rel(a, b) -> float:
    # The positive-part rule maps the whole vector to 0 when F < a and n >= p.
    return float(np.linalg.norm(a - b) / max(float(np.linalg.norm(b)), 1e-300))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.integers(min_value=6, max_value=20),
    shape=st.sampled_from(["half", "p-1", "p", "p+1"]),
    scale_exp=st.integers(min_value=-60, max_value=60),
)
def test_estimate_scale_equivariance(seed, p, shape, scale_exp):
    """(c x, c^2 S) maps delta to c delta: F and P_S do not see c."""
    _, y, x, tol = _draw_x_s(seed, p, shape)
    c = 1.3 * 10.0**scale_exp
    s = y.T @ y
    cy = c * y
    cs = cy.T @ cy
    for spec in _EQUIVARIANT_SPECS:
        base = estimate(spec, x, (s + s.T) / 2.0)
        scaled = estimate(spec, c * x, (cs + cs.T) / 2.0)
        assert scaled.rank == base.rank
        assert scaled.f_value == pytest.approx(base.f_value, rel=tol)
        assert _rel(scaled.delta, c * base.delta) <= tol


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.integers(min_value=6, max_value=20),
    shape=st.sampled_from(["half", "p-1", "p", "p+1"]),
)
def test_estimate_orthogonal_equivariance(seed, p, shape):
    """(Q x, Q S Q') maps delta to Q delta for orthogonal Q."""
    rng, y, x, tol = _draw_x_s(seed, p, shape)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    s = y.T @ y
    yq = y @ q.T
    qs = yq.T @ yq
    for spec in _EQUIVARIANT_SPECS:
        base = estimate(spec, x, (s + s.T) / 2.0)
        turned = estimate(spec, q @ x, (qs + qs.T) / 2.0)
        assert turned.rank == base.rank
        assert turned.f_value == pytest.approx(base.f_value, rel=tol)
        assert _rel(turned.delta, q @ base.delta) <= tol


# ------------------------------------------------------------- r conditions

GRID = np.linspace(0.0, 40.0, 200)


def test_conditions_constant_within_bound():
    rep = check_r_conditions(constant_shrinkage(0.375), 10, 5, GRID)
    assert rep.all_ok
    assert rep.bound == pytest.approx(0.75)
    assert rep.max_value == 0.375
    assert rep.max_abs_deriv == 0.0


def test_conditions_constant_above_bound():
    rep = check_r_conditions(constant_shrinkage(1.0), 10, 5, GRID)
    assert not rep.range_ok
    assert not rep.all_ok


def test_conditions_positive_part():
    rep = check_r_conditions(positive_part_shrinkage(0.5), 10, 5, GRID)
    assert rep.all_ok
    assert rep.max_abs_deriv == 1.0


def test_conditions_catch_decreasing_curve():
    r = ShrinkageFunction(
        value=lambda t: 0.5 / (1.0 + t),
        deriv=lambda t: -0.5 / (1.0 + t) ** 2,
        value_bound=0.5,
        deriv_bound=0.5,
    )
    rep = check_r_conditions(r, 10, 5, GRID)
    assert not rep.nondecreasing


def test_conditions_catch_derivative_overrun():
    r = ShrinkageFunction(
        value=lambda t: np.minimum(0.5, 2.0 * t),
        deriv=lambda t: np.where(t < 0.25, 2.0, 0.0),
        value_bound=0.5,
        deriv_bound=1.0,
    )
    rep = check_r_conditions(r, 10, 5, GRID)
    assert not rep.deriv_bounded


def test_conditions_grid_validation():
    r = constant_shrinkage(0.1)
    with pytest.raises(ValueError):
        check_r_conditions(r, 10, 5, [1.0])
    with pytest.raises(ValueError):
        check_r_conditions(r, 10, 5, [-1.0, 2.0])

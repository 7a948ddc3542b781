import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpshrink import linalg, randgen, risk
from mpshrink.estimators import (
    Baranchik,
    DegenerateFError,
    Estimator,
    JamesStein,
    PositivePartJS,
    Usual,
    constant_shrinkage,
    estimate,
    js_default_constant,
    pinv_geometry,
    positive_part_shrinkage,
)
from mpshrink.identities import (
    RankDegenerateError,
    _smooth_suite_r,
    finiteness_probe,
    run_default_suite,
    shrinkage_g_builder,
    stein_haff_mc,
    stein_identity_mc,
)
from mpshrink.randgen import Autoregressive, Identity, RngStream, Spiked, batch_normal_wishart
from mpshrink.risk import (
    RiskRow,
    ScenarioConfig,
    batch_geometry,
    default_theta_norms,
    invariant_loss,
    risk_curve,
    run_replicates,
    run_study,
    summarize_losses,
    unbiased_risk_difference,
)


# ---------------------------------------------------------------------- loss

def test_invariant_loss_value():
    delta = np.array([2.0, 1.0])
    theta = np.array([1.0, -1.0])
    sigma_inv = np.diag([2.0, 3.0])
    assert invariant_loss(delta, theta, sigma_inv) == 14.0


def test_invariant_loss_zero_at_truth():
    theta = np.array([1.0, 2.0, 3.0])
    assert invariant_loss(theta, theta, np.eye(3)) == 0.0


def test_invariant_loss_shape_check():
    with pytest.raises(linalg.DimensionMismatchError):
        invariant_loss(np.zeros(3), np.zeros(2), np.eye(3))


# -------------------------------------------------- unbiased risk difference

S5 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
E1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # F = 1, m = 3, p = 5


def test_risk_difference_zero_shrinkage():
    assert unbiased_risk_difference(E1, S5, constant_shrinkage(0.0), n=3) == 0.0


def test_risk_difference_constant_example():
    # r = 0.25: 0.0625 * (3 + 5 - 6 + 3) - 2 * 0.25 * 1 = 0.3125 - 0.5
    got = unbiased_risk_difference(E1, S5, constant_shrinkage(0.25), n=3)
    assert got == pytest.approx(-0.1875, abs=1e-14)


def test_risk_difference_includes_derivative_term():
    # min(2, F) at F = 1: r = 1, r' = 1, so 5 - 2 - 4 * 1 * 2 = -5
    got = unbiased_risk_difference(E1, S5, positive_part_shrinkage(2.0), n=3)
    assert got == pytest.approx(-5.0, abs=1e-14)


def test_risk_difference_negative_inside_admissible_range():
    # anywhere strictly inside (0, bound) the integrand at F = 1, m = 3 is negative
    for a in (0.1, 0.2, 0.3, 0.39):
        got = unbiased_risk_difference(E1, S5, constant_shrinkage(a), n=3)
        assert got < 0.0


def test_risk_difference_degenerate_raises():
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0])  # orthogonal to the column space
    with pytest.raises(DegenerateFError):
        unbiased_risk_difference(x, S5, constant_shrinkage(0.25), n=3)


def test_risk_difference_validation():
    with pytest.raises(linalg.DimensionMismatchError):
        unbiased_risk_difference(np.zeros((2, 2)), np.eye(2), constant_shrinkage(0.1), n=3)
    with pytest.raises(ValueError):
        unbiased_risk_difference(E1, S5, constant_shrinkage(0.1), n=0)
    with pytest.raises(linalg.DimensionMismatchError):
        unbiased_risk_difference(np.zeros(3), S5, constant_shrinkage(0.1), n=3)


# ------------------------------------------------------------- configuration

def test_default_theta_norms_grid():
    norms = default_theta_norms(4)
    assert norms[0] == 0.0
    assert norms[-1] == pytest.approx(12.0)
    assert len(norms) == 13
    assert np.allclose(np.diff(norms), 1.0)


def test_scenario_defaults():
    cfg = ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[Usual()])
    assert np.allclose(cfg.theta_direction, 0.5 * np.ones(4))
    assert np.linalg.norm(cfg.theta_direction) == pytest.approx(1.0)
    assert len(cfg.theta_norms) == 13


def test_scenario_normalizes_direction():
    cfg = ScenarioConfig(
        p=3, n=3, cov=Identity(), estimators=[], theta_direction=[3.0, 0.0, 4.0]
    )
    assert np.allclose(cfg.theta_direction, [0.6, 0.0, 0.8])


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(p=2, n=10, cov=Identity(), estimators=[])
    with pytest.raises(ValueError):
        ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], replicates=0)
    with pytest.raises(ValueError):
        ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], theta_direction=[1.0, 0.0])
    with pytest.raises(ValueError):
        ScenarioConfig(
            p=4, n=3, cov=Identity(), estimators=[], theta_direction=np.zeros(4)
        )
    with pytest.raises(ValueError):
        ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], theta_norms=[2.0, 1.0])
    with pytest.raises(ValueError):
        ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], theta_norms=[-1.0, 0.0])


def test_scenario_rejects_nonfinite_theta():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], theta_norms=[0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(
                p=4, n=3, cov=Identity(), estimators=[], theta_direction=[1.0, 0.0, bad, 0.0]
            )


def test_scenario_rejects_duplicate_labels():
    with pytest.raises(ValueError, match=r"duplicate estimator label 'js\(0\.5\)'"):
        ScenarioConfig(
            p=4, n=3, cov=Identity(), estimators=[JamesStein(0.5), JamesStein(0.50000001)]
        )
    # two general curves in one scenario need their own labels
    with pytest.raises(ValueError, match="'baranchik'"):
        ScenarioConfig(
            p=4,
            n=3,
            cov=Identity(),
            estimators=[Baranchik(constant_shrinkage(0.1)), Baranchik(constant_shrinkage(0.2))],
        )
    cfg = ScenarioConfig(
        p=4,
        n=3,
        cov=Identity(),
        estimators=[
            Estimator("low", constant_shrinkage(0.1)),
            Estimator("high", constant_shrinkage(0.2)),
        ],
        theta_norms=[0.0],
        replicates=50,
    )
    assert [row.estimator for row in risk_curve(cfg)[0]] == ["low", "high"]


def test_replace_revalidates_scenario():
    cfg = ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[Usual()])
    bumped = replace(cfg, replicates=77, name="bumped")
    assert bumped.replicates == 77 and bumped.name == "bumped"
    assert cfg.replicates == 10_000
    with pytest.raises(ValueError):
        replace(cfg, n=2)


def test_summarize_losses():
    est = summarize_losses(np.array([1.0, 2.0, 3.0]))
    assert est.mean_loss == 2.0
    assert est.std_error == pytest.approx(1.0 / math.sqrt(3.0))
    single = summarize_losses(np.array([4.0]))
    assert single.std_error == 0.0


# -------------------------------------------------------------------- engine

SMALL = ScenarioConfig(
    p=6,
    n=4,
    cov=Spiked(),
    estimators=[Usual(), JamesStein(0.5), PositivePartJS(0.5)],
    replicates=64,
    master_seed=99,
    name="small",
)


def test_js_zero_equals_usual_bitwise():
    study = run_replicates(SMALL, [Usual(), JamesStein(0.0)], theta_norm=2.0)
    assert np.array_equal(study.losses[0], study.losses[1])


def test_engine_matches_per_draw_estimates():
    # rebuild the exact draws and push each through estimate()
    from mpshrink.randgen import build_covariance

    theta_norm = 1.5
    study = run_replicates(SMALL, SMALL.estimators, theta_norm)
    sigma = build_covariance(SMALL.cov, SMALL.p)
    sqrt_sigma = linalg.sym_sqrt_pd(sigma)
    sigma_inv = linalg.inv_pd(sigma)
    theta = theta_norm * SMALL.theta_direction
    x, y = batch_normal_wishart(
        SMALL.p, SMALL.n, theta, sqrt_sigma, SMALL.master_seed, 0, SMALL.replicates
    )
    for i in range(SMALL.replicates):
        s = y[i].T @ y[i]
        for k, spec in enumerate(SMALL.estimators):
            out = estimate(spec, x[i], s)
            want = invariant_loss(out.delta, theta, sigma_inv)
            assert study.losses[k, i] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_engine_bitwise_reproducible():
    a = run_replicates(SMALL, SMALL.estimators, 3.0)
    b = run_replicates(SMALL, SMALL.estimators, 3.0)
    assert np.array_equal(a.losses, b.losses)


def test_jobs_do_not_change_results():
    cfg = replace(SMALL, replicates=2100)  # spans two chunks
    serial = run_replicates(cfg, cfg.estimators, 1.0, jobs=1)
    threaded = run_replicates(cfg, cfg.estimators, 1.0, jobs=4)
    assert np.array_equal(serial.losses, threaded.losses)


def test_usual_losses_do_not_depend_on_theta_norm():
    # common draws: the usual loss is the noise's z'Sigma^-1 z at every theta_norm
    a = run_replicates(SMALL, [Usual()], 0.0)
    b = run_replicates(SMALL, [Usual()], 6.0)
    assert np.array_equal(a.losses, b.losses)


def test_usual_risk_is_dimension():
    cfg = ScenarioConfig(
        p=5, n=4, cov=Identity(), estimators=[Usual()], replicates=2000, master_seed=5
    )
    losses = run_replicates(cfg, [Usual()], theta_norm=0.0).losses[0]
    assert losses.shape == (2000,)
    est = summarize_losses(losses)
    assert abs(est.mean_loss - 5.0) < 5.0 * est.std_error


def test_james_stein_beats_usual_at_origin():
    cfg = ScenarioConfig(
        p=10,
        n=5,
        cov=Spiked(),
        estimators=[Usual(), JamesStein(js_default_constant(10, 5))],
        replicates=4000,
        master_seed=31,
    )
    study = run_replicates(cfg, cfg.estimators, theta_norm=0.0)
    usual = summarize_losses(study.losses[0])
    js = summarize_losses(study.losses[1])
    gap_se = math.sqrt(usual.std_error**2 + js.std_error**2)
    assert js.mean_loss < usual.mean_loss - 3.0 * gap_se


def test_sure_tracks_actual_risk_gap():
    # per replicate, loss - p - rho has mean zero; t-statistic stays small
    a = js_default_constant(8, 6)
    cfg = ScenarioConfig(
        p=8,
        n=6,
        cov=Identity(),
        estimators=[JamesStein(a)],
        replicates=4000,
        master_seed=44,
    )
    study = run_replicates(
        cfg, cfg.estimators, theta_norm=2.0, sure_r=constant_shrinkage(a)
    )
    diff = study.losses[0] - cfg.p - study.sure
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) < 4.0 * se


# -------------------------------------------------------- chunk-major study


def _count_opens(monkeypatch):
    """Wrap RngStream.generator, which opening a block of streams calls once
    for its first stream; returns the list of chunk starts."""
    opened = RngStream.generator
    starts = []

    def counted(self):
        starts.append(self.stream_id)
        return opened(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    return starts


@pytest.mark.parametrize("n", [3, 5, 7])  # p = 6: the solve side, then the p x p side
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_study_matches_run_replicates_at_each_theta(monkeypatch, n, jobs):
    monkeypatch.setattr(risk, "CHUNK", 16)
    a = js_default_constant(6, n)
    cfg = replace(
        SMALL,
        n=n,
        replicates=50,
        estimators=[Usual(), JamesStein(a), PositivePartJS(a)],
        theta_norms=[0.0, 1.0, 4.0],
    )
    sure_r = constant_shrinkage(a)
    starts = _count_opens(monkeypatch)
    study = run_study(cfg, cfg.estimators, cfg.theta_norms, sure_r=sure_r, jobs=jobs)
    # Each chunk's streams are opened once for the whole theta grid.
    assert sorted(starts) == [0, 16, 32, 48]
    assert study.losses.shape == (3, 3, 50) and study.sure.shape == (3, 50)
    for t, tn in enumerate(cfg.theta_norms):
        one = run_replicates(cfg, cfg.estimators, tn, sure_r=sure_r)
        assert np.array_equal(study.losses[t], one.losses)
        assert np.array_equal(study.sure[t], one.sure)


def _defect_draws(i, defect):
    """randgen.wishart_slab, the slab draw of every engine, and
    randgen.batch_normal_wishart, the whole-chunk reference the tests read
    the same draws from, each with defect applied in place to replicate i's
    Y. Engines are patched with the first; the second is only an oracle."""
    slab_draw, batch_draw = randgen.wishart_slab, randgen.batch_normal_wishart

    def slab(streams, n, sqrt_sigma, lo, hi, work):
        y = slab_draw(streams, n, sqrt_sigma, lo, hi, work)
        if lo <= i - streams.start < hi:
            defect(y[i - streams.start - lo])
        return y

    def batch(p, n, theta, sqrt_sigma, seed, start, count):
        x, y = batch_draw(p, n, theta, sqrt_sigma, seed, start, count)
        if start <= i < start + count:
            defect(y[i - start])
        return x, y

    return slab, batch


def _zero(yi):
    """Every row of Y zeroed, which makes S zero and the draw degenerate."""
    yi[:] = 0.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_study_sure_names_degenerate_replicate(monkeypatch, jobs):
    monkeypatch.setattr(risk, "CHUNK", 16)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(21, _zero)[0])
    cfg = replace(SMALL, replicates=40, theta_norms=[0.0, 2.0])
    with pytest.raises(DegenerateFError, match="replicate 21"):
        run_study(cfg, cfg.estimators, cfg.theta_norms, sure_r=constant_shrinkage(0.5), jobs=jobs)
    # Without sure_r the degenerate draw passes through unshrunk and is counted.
    study = run_study(cfg, cfg.estimators, cfg.theta_norms, jobs=jobs)
    assert np.array_equal(study.losses[:, 0, 21], study.losses[:, 1, 21])
    assert np.array_equal(study.degenerate, [1, 1])
    # The zero Y fails the full-rank certificate and sends its chunk, and
    # only that one, through eigvalsh to the p x p side.
    assert (study.chunks, study.eigvalsh_chunks, study.fallback_chunks) == (3, 1, 1)
    assert np.array_equal(risk_curve(cfg, jobs=jobs)[1].degenerate, [1, 1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_chunks_visits_each_fixed_block_once(monkeypatch, jobs):
    monkeypatch.setattr(risk, "CHUNK", 16)
    seen = []
    risk.map_chunks(40, lambda start, stop: seen.append((start, stop)), jobs=jobs)
    assert sorted(seen) == [(0, 16), (16, 32), (32, 40)]


def test_map_chunks_propagates_a_chunk_error_from_the_pool(monkeypatch):
    monkeypatch.setattr(risk, "CHUNK", 16)

    def body(start, stop):
        if start == 16:
            raise RuntimeError(f"chunk {start}:{stop} failed")

    with pytest.raises(RuntimeError, match="chunk 16:32 failed"):
        risk.map_chunks(40, body, jobs=2)


# Slab budgets for p = 5, n = 3 and where replicate 21 then sits: one slab
# per 16-replicate chunk (entry 5 of the slab at 0), or slabs of 2 rows
# (entry 1 of the slab at 4), so that the message must add the slab's offset.
_SLAB_OFFSETS = {1 << 40: 5, 2 * 8 * 5 * 5: 1}


def test_stein_identity_mc_names_degenerate_replicate_across_chunks(monkeypatch):
    # Replicate 21 sits in the second 16-replicate chunk, so the message
    # must carry the chunk's and the slab's offsets, not the index within them.
    monkeypatch.setattr(risk, "CHUNK", 16)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(21, _zero)[0])
    spec = Baranchik(constant_shrinkage(0.3))
    for budget in _SLAB_OFFSETS:
        monkeypatch.setattr(risk, "SLAB_BYTES", budget)
        with pytest.raises(RankDegenerateError, match="replicate 21$"):
            stein_identity_mc(np.zeros(5), np.eye(5), 3, spec, replicates=1000)


def test_stein_haff_mc_names_degenerate_replicate_across_chunks(monkeypatch):
    # The G builder sees one slab's stack, in which replicate 21 is entry 5
    # (one slab per chunk) or 1 (slabs of 2 rows); stein_haff_mc adds the
    # chunk's and the slab's offsets.
    monkeypatch.setattr(risk, "CHUNK", 16)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(21, _zero)[0])
    g_builder = shrinkage_g_builder(np.ones(5), constant_shrinkage(0.3))
    for budget, entry in _SLAB_OFFSETS.items():
        monkeypatch.setattr(risk, "SLAB_BYTES", budget)
        with pytest.raises(RankDegenerateError, match="replicate 21$") as info:
            stein_haff_mc(3, np.eye(5), g_builder, replicates=1000, seed=1)
        assert f"stack entry {entry} " in str(info.value.__cause__)


def test_finiteness_probe_reports_a_zero_f_as_infinite(monkeypatch):
    # Replicate 21's Y is zeroed, so its F is 0: the divergence integrand
    # reads inf there, as 1/F does, with no warning, and the suite's
    # finiteness row fails by its report.
    monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(21, _zero)[0])
    summary = finiteness_probe(5, 3, np.eye(5), r=_smooth_suite_r(), replicates=1000)
    assert not summary.all_finite
    assert summary.inv_f.maximum == summary.divergence.maximum == math.inf
    assert math.isfinite(summary.divergence.q99)
    (report,) = run_default_suite(only="finiteness", fd_configs=1, mc_replicates=1000)
    assert not report.passed and report.rel_err == math.inf


@pytest.mark.parametrize("p, n", [(5, 3), (3, 5), (8, 4), (50, 49)])
def test_slabs_reproduce_the_whole_chunk_draw(monkeypatch, p, n):
    """X read over the chunk, as the engines read it, and Y from risk.slabs
    in slabs of 3 rows equal batch_normal_wishart's X and Y bit for bit,
    across slab boundaries and a partial last slab; every slab's Y is a
    view of the same reused buffer."""
    monkeypatch.setattr(risk, "SLAB_BYTES", 3 * 8 * p * max(n, p))
    root = linalg.sym_sqrt_pd(randgen.build_covariance(Autoregressive(0.5), p))
    theta = np.full(p, 0.3)
    x_ref, y_ref = batch_normal_wishart(p, n, theta, root, 7, 40, 20)
    streams = randgen.StreamReader(7, 40, 20)
    assert np.array_equal(theta + streams.read(p) @ root, x_ref)
    bounds, first = [], None
    for lo, hi, y in risk.slabs(streams, n, root):
        first = y if first is None else first
        assert np.shares_memory(y, first) and np.array_equal(y, y_ref[lo:hi])
        bounds.append((lo, hi))
    assert bounds == [(lo, min(lo + 3, 20)) for lo in range(0, 20, 3)]


@pytest.mark.parametrize("p, n", [(5, 3), (3, 5), (8, 4)])
def test_identity_engines_do_not_depend_on_the_slab_size(monkeypatch, p, n):
    """stein_identity_mc, stein_haff_mc (shrinkage G builder) and
    finiteness_probe give the same reports, bit for bit, with one slab per
    chunk and with slabs of 1 and 7 rows, at Sigma = AR(0.5) and
    theta = 0.3 * 1. Chunks of 384 replicates end in partial slabs."""
    monkeypatch.setattr(risk, "CHUNK", 384)
    sigma = randgen.build_covariance(Autoregressive(0.5), p)
    theta, r = np.full(p, 0.3), constant_shrinkage(0.3)

    def reports():
        return (
            stein_identity_mc(theta, sigma, n, Baranchik(r), replicates=1000, seed=5),
            stein_haff_mc(n, sigma, shrinkage_g_builder(theta, r), replicates=1000, seed=6),
            finiteness_probe(p, n, sigma, r=r, replicates=1000, seed=7),
        )

    whole = reports()
    for rows in (1, 7):
        monkeypatch.setattr(risk, "SLAB_BYTES", rows * 8 * p * max(n, p))
        assert reports() == whole


@settings(deadline=None, max_examples=60)
@given(
    half_p=st.integers(min_value=2, max_value=6),
    side=st.sampled_from(["solve", "pxp"]),
    n_pick=st.integers(min_value=0, max_value=1000),
    cov=st.sampled_from([Identity(), Spiked(), Autoregressive(0.5)]),
    theta_mult=st.floats(min_value=0.0, max_value=6.0),
    shrink=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_study_losses_match_scalar_estimate(half_p, side, n_pick, cov, theta_mult, shrink, seed):
    """Per replicate, run_study's quadratic-in-a loss equals invariant_loss of
    the scalar estimate() on the same draw, on both kernel sides and with a
    degenerate draw (replicate 1, zero Y). Chunks of two replicates put that
    draw's chunk on the p x p fallback and, for n < p, the other two on the
    solve side. JS constants up to 4x the default
    reach large shrinkage, where z ~ -a P_S x cancels, so the bound is scaled
    by q_zz + 2|a q_zp| + a^2 q_pp rather than by the loss, and by the kept
    spectrum's condition number, which the two kernels' F and P_S x carry."""
    p = 2 * half_p
    n = 3 + n_pick % (p - 3) if side == "solve" else p + n_pick % 2
    c = shrink * js_default_constant(p, n)
    specs = [Usual(), JamesStein(c), PositivePartJS(c)]
    cfg = ScenarioConfig(
        p=p, n=n, cov=cov, estimators=specs, theta_norms=[0.0, theta_mult * math.sqrt(p)],
        replicates=6, master_seed=seed,
    )
    slab, draw = _defect_draws(1, _zero)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risk, "CHUNK", 2)
        mp.setattr(randgen, "wishart_slab", slab)
        study = run_study(cfg, specs, cfg.theta_norms)
    assert (study.chunks, study.fallback_chunks) == (3, int(side == "solve"))
    sigma = randgen.build_covariance(cov, p)
    sigma_inv = linalg.inv_pd(sigma)
    noise, y = draw(p, n, np.zeros(p), linalg.sym_sqrt_pd(sigma), seed, 0, cfg.replicates)
    assert np.array_equal(study.degenerate, [1, 1])
    eps = np.finfo(float).eps
    for t, tn in enumerate(cfg.theta_norms):
        theta = tn * cfg.theta_direction
        x = theta + noise
        for i in range(cfg.replicates):
            s = y[i].T @ y[i]
            w = np.linalg.eigvalsh((s + s.T) / 2.0)
            kept = w[w > linalg.default_rel_tol(p) * w[-1]]
            kappa = kept[-1] / kept[0] if kept.size else 1.0
            psx = pinv_geometry(x[i], s).psx
            z = noise[i]
            q_zz, q_zp, q_pp = z @ sigma_inv @ z, z @ sigma_inv @ psx, psx @ sigma_inv @ psx
            for k, spec in enumerate(specs):
                out = estimate(spec, x[i], s)
                assert out.shrink_factor == 1.0 or i != 1
                want = invariant_loss(out.delta, theta, sigma_inv)
                a = out.shrink_factor - 1.0
                scale = q_zz + 2.0 * abs(a * q_zp) + a * a * q_pp
                assert abs(study.losses[t, k, i] - want) <= 128.0 * eps * kappa * scale


def _row_defect(defect):
    """A rank-deficient Y: its last row a duplicate of row 0, a
    near-duplicate far below the rank cutoff, or every row zero."""

    def apply(yi):
        if defect == "zero":
            _zero(yi)
        else:
            yi[-1] = yi[0] + (1e-9 * yi[1] if defect == "near" else 0.0)

    return apply


def _thinned(yi):
    """lambda_min(G) between the rank cutoff and the full-rank certificate's shift."""
    u, sv, vt = np.linalg.svd(yi, full_matrices=False)
    sv[-1] = sv[0] * math.sqrt(1.4 * linalg.default_rel_tol(yi.shape[1]))
    yi[:] = (u * sv) @ vt


def test_uncertified_full_rank_draw_stays_on_the_solve_side(monkeypatch):
    """A draw whose lambda_min(G) lies between the rank cutoff and the
    full-rank certificate's shift fails the certificate; eigvalsh then finds
    rank n, so its chunk is counted as needing eigvalsh and keeps the solve
    side, with exact ranks and lambda_max(S+)."""
    factors = []
    monkeypatch.setattr(risk, "CHUNK", 4)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(5, _thinned)[0])
    def recorded(y, factor_stack=linalg.factor_stack):
        factors.append(factor_stack(y))
        return factors[-1]

    monkeypatch.setattr(linalg, "factor_stack", recorded)
    cfg = replace(SMALL, replicates=12, theta_norms=[0.0, 3.0])
    study = run_study(cfg, cfg.estimators, cfg.theta_norms)
    assert (study.chunks, study.eigvalsh_chunks, study.fallback_chunks) == (3, 1, 0)
    assert [f.certified for f in factors] == [True, False, True]
    assert factors[1].gram is not None and np.all(factors[1].rank == cfg.n)
    assert np.array_equal(factors[1].lam_bound, factors[1].lam_max_pinv)


@pytest.mark.parametrize("defect", ["duplicate", "near", "zero"])
def test_rank_deficient_draw_falls_back_and_matches_scalar_estimate(monkeypatch, defect):
    """One rank-deficient draw among full-rank ones puts its chunk, and only
    that one, on the p x p side; every loss still matches invariant_loss of
    the scalar estimate() on the same draw."""
    monkeypatch.setattr(risk, "CHUNK", 4)
    a = js_default_constant(6, 4)
    specs = [Usual(), JamesStein(a), PositivePartJS(a)]
    cfg = replace(SMALL, replicates=12, estimators=specs, theta_norms=[0.0, 3.0])
    slab, draw = _defect_draws(5, _row_defect(defect))
    monkeypatch.setattr(randgen, "wishart_slab", slab)
    study = run_study(cfg, specs, cfg.theta_norms)
    assert (study.chunks, study.eigvalsh_chunks, study.fallback_chunks) == (3, 1, 1)
    assert np.array_equal(study.degenerate, [int(defect == "zero")] * 2)
    sigma = randgen.build_covariance(cfg.cov, cfg.p)
    sigma_inv = linalg.inv_pd(sigma)
    noise, y = draw(cfg.p, cfg.n, np.zeros(cfg.p), linalg.sym_sqrt_pd(sigma), cfg.master_seed, 0, 12)
    assert pinv_geometry(noise[5], y[5].T @ y[5]).pr.rank == (0 if defect == "zero" else 3)
    for t, tn in enumerate(cfg.theta_norms):
        theta = tn * cfg.theta_direction
        for i in range(cfg.replicates):
            x = theta + noise[i]
            for k, spec in enumerate(specs):
                want = invariant_loss(estimate(spec, x, y[i].T @ y[i]).delta, theta, sigma_inv)
                assert study.losses[t, k, i] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _off_theta_direction(yi):
    """Rows of Y made orthogonal to the default theta direction, so that at a
    large |theta| x lies almost in S's null space: the full-rank
    certificate holds and its bound on lambda_max(S+) flags the draw."""
    u = np.ones(yi.shape[1]) / math.sqrt(yi.shape[1])
    yi -= np.outer(yi @ u, u)


_SLAB_CASES = {
    "solve": (6, 4, None, [0.0, 3.0]),
    "pxp": (6, 7, None, [0.0, 3.0]),
    "sure": (6, 4, None, [0.0, 3.0]),
    "thinned": (6, 4, _thinned, [0.0, 3.0]),
    "exact-lambda": (10, 5, _off_theta_direction, [0.0, 1e8]),
}


@pytest.mark.parametrize("case", sorted(_SLAB_CASES))
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_study_does_not_depend_on_the_slab_size(monkeypatch, case, jobs):
    """Slabs of 1 and of 3 rows give run_study's losses, masks, SURE values
    and chunk counts bit for bit as one slab per chunk does, on the solve and
    p x p sides, with a draw that fails the certificate at rank n (thinned)
    and one that a certified slab's bound flags, so that the exact
    lambda_max(S+) is read. Replicate 21 carries the defect: row 5 of the
    second of three chunks, the last one partial."""
    p, n, defect, norms = _SLAB_CASES[case]
    monkeypatch.setattr(risk, "CHUNK", 16)
    if defect is not None:
        monkeypatch.setattr(randgen, "wishart_slab", _defect_draws(21, defect)[0])
    a = js_default_constant(p, n)
    # A dense Sigma: products with a diagonal one are exact in any slab.
    cfg = replace(
        SMALL, p=p, n=n, cov=Autoregressive(0.5), replicates=40, theta_direction=None,
        theta_norms=norms, estimators=[Usual(), JamesStein(a), PositivePartJS(a)],
    )
    sure_r = constant_shrinkage(a) if case == "sure" else None
    studies = []
    for rows in (None, 1, 3):
        budget = 1 << 40 if rows is None else rows * 8 * p * max(n, p)
        monkeypatch.setattr(risk, "SLAB_BYTES", budget)
        studies.append(run_study(cfg, cfg.estimators, norms, sure_r=sure_r, jobs=jobs))
    whole = studies[0]
    counts = (whole.chunks, whole.eigvalsh_chunks, whole.fallback_chunks)
    assert counts == ((3, 1, 0) if case == "thinned" else (3, 0, 0))
    if case == "exact-lambda":
        assert whole.degenerate[-1] >= 1
    for study in studies[1:]:
        assert np.array_equal(study.losses, whole.losses)
        assert np.array_equal(study.degenerate, whole.degenerate)
        assert (study.sure is None) == (sure_r is None)
        assert sure_r is None or np.array_equal(study.sure, whole.sure)
        assert (study.chunks, study.eigvalsh_chunks, study.fallback_chunks) == counts


@pytest.mark.parametrize("defect", ["duplicate", "near", "zero"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_rank_deficient_draw_moves_only_its_own_slab(monkeypatch, defect, jobs):
    """factor_stack picks each slab's side: a draw of rank below n sends its
    slab, and nothing more, to the p x p side. With slabs of 1 and 3 rows
    and with one slab per chunk, every replicate outside the defective
    draw's slab has the losses of the same run without the defect, bit for
    bit; that slab's losses match invariant_loss of the scalar estimate() on
    the same draws; and each chunk's streams are opened once, the fallback
    chunk's included. Replicate 21 carries the defect: row 5 of the second
    of three chunks, the last one partial."""
    p, n = 6, 4
    monkeypatch.setattr(risk, "CHUNK", 16)
    a = js_default_constant(p, n)
    specs = [Usual(), JamesStein(a), PositivePartJS(a)]
    # A dense Sigma: products with a diagonal one are exact in any slab.
    cfg = replace(
        SMALL, p=p, n=n, cov=Autoregressive(0.5), replicates=40, theta_direction=None,
        theta_norms=[0.0, 3.0], estimators=specs,
    )
    slab, draw = _defect_draws(21, _row_defect(defect))
    sigma = randgen.build_covariance(cfg.cov, p)
    sigma_inv = linalg.inv_pd(sigma)
    noise, y = draw(p, n, np.zeros(p), linalg.sym_sqrt_pd(sigma), cfg.master_seed, 0, 40)
    plain = randgen.wishart_slab
    for rows in (1, 3, 16):
        monkeypatch.setattr(risk, "SLAB_BYTES", rows * 8 * p * max(n, p))
        monkeypatch.setattr(randgen, "wishart_slab", plain)
        clean = run_study(cfg, specs, cfg.theta_norms, jobs=jobs)
        monkeypatch.setattr(randgen, "wishart_slab", slab)
        starts = _count_opens(monkeypatch)
        study = run_study(cfg, specs, cfg.theta_norms, jobs=jobs)
        assert sorted(starts) == [0, 16, 32]
        assert (study.chunks, study.eigvalsh_chunks, study.fallback_chunks) == (3, 1, 1)
        lo = 16 + (21 - 16) // rows * rows
        outside = np.r_[0:lo, lo + rows : 40]
        assert np.array_equal(study.losses[..., outside], clean.losses[..., outside])
        for t, tn in enumerate(cfg.theta_norms):
            theta = tn * cfg.theta_direction
            for i in range(lo, lo + rows):
                x = theta + noise[i]
                for k, spec in enumerate(specs):
                    want = invariant_loss(estimate(spec, x, y[i].T @ y[i]).delta, theta, sigma_inv)
                    assert study.losses[t, k, i] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_run_study_memory_is_bounded_by_the_slab_budget():
    """Per chunk, run_study holds per-replicate vectors and one slab's work,
    not CHUNK * n * p: a 2048-replicate chunk at p40-n39 peaks under 20 MiB
    (tracemalloc sees numpy's buffers), where its variates alone take 25."""
    cfg = ScenarioConfig(
        p=40, n=39, cov=Spiked(), estimators=SMALL.estimators, replicates=2048,
        theta_norms=[0.0], master_seed=3,
    )
    tracemalloc.start()
    try:
        run_study(cfg, cfg.estimators, cfg.theta_norms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


# ---------------------------------------------------------------- risk table

def test_risk_curve_rows_and_grouping():
    cfg = ScenarioConfig(
        p=4,
        n=3,
        cov=Spiked(),
        estimators=[Usual(), JamesStein(0.25)],
        theta_norms=[0.0, 2.0],
        replicates=50,
        master_seed=1,
        name="grid",
    )
    rows, study = risk_curve(cfg)
    assert len(rows) == 4
    assert study.losses.shape == (2, 2, 50)
    assert [r.estimator for r in rows] == ["usual", "usual", "js(0.25)", "js(0.25)"]
    assert [r.theta_norm for r in rows] == [0.0, 2.0, 0.0, 2.0]
    assert all(isinstance(r, RiskRow) for r in rows)
    assert RiskRow._fields == (
        "scenario", "p", "n", "cov_model", "estimator", "theta_norm", "replicates", "risk", "std_err"
    )
    assert all(r.scenario == "grid" and r.cov_model == "spiked" for r in rows)
    assert all(r.p == 4 and r.n == 3 and r.replicates == 50 for r in rows)
    # usual is invariant: identical risk in both cells
    assert rows[0].risk == rows[1].risk


def test_risk_curve_deterministic():
    cfg = ScenarioConfig(
        p=4,
        n=3,
        cov=Identity(),
        estimators=[JamesStein(0.25)],
        theta_norms=[0.0],
        replicates=60,
        master_seed=8,
    )
    first, _ = risk_curve(cfg)
    second, _ = risk_curve(cfg)
    assert first == second


def test_risk_curve_empty_estimators():
    cfg = ScenarioConfig(p=4, n=3, cov=Identity(), estimators=[], replicates=50)
    rows, study = risk_curve(cfg)
    assert rows == [] and study.losses.shape == (len(cfg.theta_norms), 0, 50)


# ------------------------------------------------------------ batch geometry


@settings(deadline=None, max_examples=150)
@given(
    p=st.integers(min_value=3, max_value=14),
    side=st.sampled_from(["solve", "pxp"]),
    n_pick=st.integers(min_value=0, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_geometry_matches_scalar_pinv_geometry(p, side, n_pick, seed):
    """Mask, rank, F and P_S x of batch_geometry match pinv_geometry's per
    replicate, on both kernel sides. Entry 1 has x orthogonal to the rows
    of Y (when n < p) and entry 2 a zero Y: both must be degenerate. The
    zero Y puts the whole stack on the p x p side, so for n < p the stack
    without it is checked as well, on the solve side."""
    n = 1 + n_pick % (p - 1) if side == "solve" else p + n_pick % 2
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((4, n, p))
    x = rng.standard_normal((4, p))
    if n < p:
        q, _ = np.linalg.qr(y[1].T)
        x[1] -= q @ (q.T @ x[1])
    y[2] = 0.0
    s = y.transpose(0, 2, 1) @ y
    s = (s + s.transpose(0, 2, 1)) / 2.0
    w = np.linalg.eigvalsh(s)
    cutoff = linalg.default_rel_tol(p) * w[:, -1:]
    # No eigenvalue within 10x of the cutoff, where two solvers may disagree on the rank.
    assume(np.all((w >= 10.0 * cutoff) | (w <= cutoff / 10.0)))
    kept_min = np.where(w > cutoff, w, np.inf).min(axis=1)
    kappa = float(np.max(np.where(np.isfinite(kept_min), w[:, -1] / kept_min, 1.0)))
    tol = max(1e-10, 1e-12 * kappa)

    ba, degen = batch_geometry(x, y)
    assert degen.shape == (4,)
    assert degen[2] and ba.rank[2] == 0
    if n < p:
        assert degen[1]
    stacks = [[0, 1, 2, 3]] + ([[0, 1, 3]] if n < p else [])
    for rows in stacks:
        assert (linalg.factor_stack(y[rows]).gram is not None) == (len(rows) == 3)
        ba, degen = batch_geometry(x[rows], y[rows])
        for j, i in enumerate(rows):
            g = pinv_geometry(x[i], s[i])
            assert bool(degen[j]) == g.degenerate
            assert ba.rank[j] == g.pr.rank
            scale = max(1.0, float(np.linalg.norm(x[i])))
            assert np.linalg.norm(ba.psx[j] - g.psx) <= tol * scale
            # F = x'S+x is at most |x|^2 lambda_max(S+), its rounding scale; F far
            # below that (x nearly orthogonal to the rows of Y) is all cancellation.
            assert abs(ba.f[j] - g.f) <= tol * float(x[i] @ x[i]) * ba.lam_max_pinv[j]

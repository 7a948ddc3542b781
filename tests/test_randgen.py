import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink import linalg, randgen
from mpshrink.randgen import (
    Autoregressive,
    BlockDiagonal,
    Custom,
    Identity,
    RngStream,
    Spiked,
    StreamReader,
    batch_normal_wishart,
    build_covariance,
    cov_label,
    sample_normal,
    sample_wishart,
)


class ZeroNoise:
    """Stub generator: every variate is zero."""

    def standard_normal(self, size=None):
        return np.zeros(size if size is not None else ())


# ---------------------------------------------------------------- covariances

def test_spiked_example():
    assert np.array_equal(
        build_covariance(Spiked(), 4), np.diag([1.0, 1.0, 10.0, 10.0])
    )


def test_ar_example():
    expected = np.array(
        [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
    )
    assert np.allclose(build_covariance(Autoregressive(0.5), 3), expected, atol=1e-15)


def test_block_example():
    expected = np.array(
        [
            [1.0, 0.5, 0.0, 0.0],
            [0.5, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.5, 1.0],
        ]
    )
    assert np.array_equal(build_covariance(BlockDiagonal(0.5), 4), expected)


def test_identity_example():
    assert np.array_equal(build_covariance(Identity(), 3), np.eye(3))


@pytest.mark.parametrize("model", [Spiked(), BlockDiagonal(0.5)])
def test_even_dimension_required(model):
    with pytest.raises(ValueError):
        build_covariance(model, 5)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
def test_rho_range_enforced(rho):
    with pytest.raises(ValueError):
        Autoregressive(rho)
    with pytest.raises(ValueError):
        BlockDiagonal(rho)


def test_all_models_positive_definite():
    for model in (Spiked(), Autoregressive(0.9), BlockDiagonal(-0.8), Identity()):
        sigma = build_covariance(model, 6)
        assert np.linalg.eigvalsh(sigma)[0] > 0.0


def test_custom_covariance_checked():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(build_covariance(Custom(m), 2), m)
    with pytest.raises(linalg.NotPositiveDefiniteError):
        build_covariance(Custom(np.diag([1.0, 0.0])), 2)
    with pytest.raises(linalg.DimensionMismatchError):
        build_covariance(Custom(m), 3)


def test_dimension_bounds():
    with pytest.raises(ValueError):
        build_covariance(Identity(), 0)
    with pytest.raises(linalg.DimensionMismatchError):
        build_covariance(Identity(), linalg.MAX_DIM + 1)


def test_cov_labels():
    assert cov_label(Spiked()) == "spiked"
    assert cov_label(Autoregressive(0.5)) == "ar(0.5)"
    assert cov_label(BlockDiagonal(-0.25)) == "block(-0.25)"
    assert cov_label(Identity()) == "identity"
    assert cov_label(Custom(np.eye(2))) == "custom"


# -------------------------------------------------------------------- streams

def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)


def test_stream_reproducible_and_distinct():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    c = RngStream(42, 8).generator().standard_normal(16)
    d = RngStream(43, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_split_draws_match_single_draw():
    # the batch sampler relies on this: one big draw == consecutive draws
    whole = RngStream(5, 3).generator().standard_normal(20)
    g = RngStream(5, 3).generator()
    parts = np.concatenate([g.standard_normal(4), g.standard_normal(16)])
    assert np.array_equal(whole, parts)


# ------------------------------------------------------------------- sampling

def test_sample_normal_zero_noise_returns_mean():
    theta = np.array([1.0, -2.0, 3.0])
    out = sample_normal(theta, np.eye(3), ZeroNoise())
    assert np.array_equal(out, theta)


def test_sample_normal_shapes_and_validation():
    theta = np.zeros(3)
    one = sample_normal(theta, np.eye(3), RngStream(0, 0))
    many = sample_normal(theta, np.eye(3), RngStream(0, 0), size=5)
    assert one.shape == (3,)
    assert many.shape == (5, 3)
    assert np.array_equal(many[0], one)
    with pytest.raises(linalg.DimensionMismatchError):
        sample_normal(np.zeros(2), np.eye(3), RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_normal(theta, np.eye(3), RngStream(0, 0), size=0)
    with pytest.raises(TypeError):
        sample_normal(theta, np.eye(3), rng=object())


def test_a_non_finite_theta_is_rejected_by_name():
    from mpshrink.estimators import JamesStein
    from mpshrink.identities import stein_identity_mc

    theta = np.r_[np.inf, 0.0, 0.0]
    with pytest.raises(ValueError, match="^theta has non-finite entries$"):
        sample_normal(theta, np.eye(3), RngStream(0, 0))
    with pytest.raises(ValueError, match="^theta has non-finite entries$"):
        stein_identity_mc(theta, np.eye(3), 5, JamesStein(0.1), replicates=1000)


def test_sample_normal_mean_and_covariance():
    theta = np.array([1.0, 0.0, -1.0, 2.0])
    sigma = build_covariance(Spiked(), 4)
    draws = sample_normal(theta, sigma, RngStream(11, 0), size=4000)
    err = draws.mean(axis=0) - theta
    # 5 standard errors, worst variance is 10
    assert np.all(np.abs(err) < 5.0 * np.sqrt(10.0 / 4000))
    emp = np.cov(draws.T)
    assert np.allclose(emp, sigma, atol=1.0)


def test_sample_wishart_shapes_and_rank():
    draw = sample_wishart(4, build_covariance(Autoregressive(0.5), 7), RngStream(1, 2))
    assert draw.n == 4 and draw.p == 7
    assert draw.y.shape == (4, 7)
    assert np.array_equal(draw.s, draw.s.T)
    assert np.allclose(draw.s, draw.y.T @ draw.y, atol=1e-12)
    assert linalg.pseudo_inverse(draw.s).rank == 4


def test_sample_wishart_full_rank_when_n_exceeds_p():
    draw = sample_wishart(9, np.eye(5), RngStream(1, 3))
    assert linalg.pseudo_inverse(draw.s).rank == 5


def test_sample_wishart_validation():
    with pytest.raises(ValueError):
        sample_wishart(0, np.eye(3), RngStream(0, 0))
    with pytest.raises(linalg.NotPositiveDefiniteError):
        sample_wishart(2, np.diag([1.0, 0.0]), RngStream(0, 0))


def test_wishart_mean_is_n_sigma():
    sigma = build_covariance(Autoregressive(0.5), 4)
    n, reps = 6, 3000
    root = linalg.sym_sqrt_pd(sigma)
    _, y = batch_normal_wishart(4, n, np.zeros(4), root, master_seed=3, start=0, count=reps)
    s_mean = np.einsum("rij,rik->jk", y, y) / reps
    # entrywise SE is about sqrt(n * 2) / sqrt(reps) ~ 0.063 here
    assert np.allclose(s_mean, n * sigma, atol=0.4)


def test_wishart_trace_matches_chi_square():
    # tr(Sigma^-1 S) is chi-square with n*p degrees of freedom
    sigma = build_covariance(BlockDiagonal(0.5), 4)
    n, reps = 6, 3000
    root = linalg.sym_sqrt_pd(sigma)
    inv = linalg.inv_pd(sigma)
    _, y = batch_normal_wishart(4, n, np.zeros(4), root, master_seed=4, start=0, count=reps)
    traces = np.einsum("rij,jk,rik->r", y, inv, y)
    assert abs(traces.mean() - n * 4) < 5.0 * np.sqrt(2.0 * n * 4 / reps)


# ---------------------------------------------------------------- batch draws

def test_batch_matches_scalar_samplers_identity_sigma():
    p, n, seed = 4, 3, 17
    theta = np.array([0.5, -1.0, 0.0, 2.0])
    x, y = batch_normal_wishart(p, n, theta, np.eye(p), master_seed=seed, start=0, count=3)
    for i in range(3):
        g = RngStream(seed, i).generator()
        x_ref = sample_normal(theta, np.eye(p), g)
        w_ref = sample_wishart(n, np.eye(p), g)
        assert np.array_equal(x[i], x_ref)
        assert np.array_equal(y[i], w_ref.y)


def test_batch_matches_scalar_samplers_general_sigma():
    p, n, seed = 5, 4, 23
    sigma = build_covariance(Autoregressive(0.6), p)
    root = linalg.sym_sqrt_pd(sigma)
    theta = np.linspace(-1.0, 1.0, p)
    x, y = batch_normal_wishart(p, n, theta, root, master_seed=seed, start=0, count=4)
    for i in range(4):
        g = RngStream(seed, i).generator()
        x_ref = sample_normal(theta, sigma, g)
        w_ref = sample_wishart(n, sigma, g)
        assert np.allclose(x[i], x_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(y[i], w_ref.y, rtol=1e-12, atol=1e-12)


def test_batch_start_offset_consistency():
    # drawing streams 2..3 directly equals rows 2..3 of a 0..5 batch
    p, n = 3, 4
    theta = np.zeros(p)
    x_all, y_all = batch_normal_wishart(p, n, theta, np.eye(p), 9, start=0, count=6)
    x_tail, y_tail = batch_normal_wishart(p, n, theta, np.eye(p), 9, start=2, count=2)
    assert np.array_equal(x_all[2:4], x_tail)
    assert np.array_equal(y_all[2:4], y_tail)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=0, max_value=5),
    width=st.integers(min_value=0, max_value=30),
)
def test_batch_standard_normal_rows_are_streams(seed, start, count, width):
    z = StreamReader(seed, start, count).read(width)
    assert z.shape == (count, width)
    for j in range(count):
        assert np.array_equal(z[j], RngStream(seed, start + j).generator().standard_normal(width))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**130 - 1),
    base=st.sampled_from([0, 2**32, 2**64, 2**65]),
    offset=st.integers(min_value=-6, max_value=6),
    count=st.integers(min_value=0, max_value=5),
    width=st.integers(min_value=0, max_value=40),
)
def test_bulk_stream_opening_matches_seed_sequence(seed, base, offset, count, width):
    # Master seeds of 1 to 5 words; blocks that cross 2**32 and 2**64, where
    # the spawn key gains a word, and 2**65, where its words above bit 64 change.
    start = max(0, base + offset)
    z = StreamReader(seed, start, count).read(width)
    words = randgen._stream_words(seed, start, count)
    assert z.shape == (count, width) and words.shape == (count, 4)
    for j in range(count):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(start + j,))
        assert np.array_equal(words[j], seq.generate_state(4, np.uint64))
        seeded = np.random.PCG64(randgen._stream_words_type()(words[j]))
        assert seeded.state == np.random.PCG64(seq).state
        assert np.array_equal(z[j], RngStream(seed, start + j).generator().standard_normal(width))


def test_bulk_stream_opening_guard_names_the_stream(monkeypatch):
    monkeypatch.setattr(randgen, "_MULT_B", randgen._MULT_B ^ 2)
    with pytest.raises(RuntimeError, match=r"numpy .*stream_id=77\b"):
        StreamReader(5, 77, 3).read(4)
    # Width 0 draws nothing; the guard still compares the opened state.
    with pytest.raises(RuntimeError, match="stream_id=77"):
        StreamReader(5, 77, 1).read(0)


@pytest.mark.parametrize("master_seed,start", [(-1, 0), (0, -1)])
def test_batch_standard_normal_rejects_negative_addresses(master_seed, start):
    for count in (0, 2):
        with pytest.raises(ValueError, match="must be nonnegative"):
            StreamReader(master_seed, start, count).read(3)


@pytest.mark.parametrize("count,width,name", [(-1, 3, "count"), (2, -1, "width")])
def test_batch_standard_normal_rejects_negative_shape_by_name(count, width, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
        StreamReader(5, 0, count).read(width)


@pytest.mark.parametrize(
    "n_words,dtype", [(8, np.uint32), (2, np.uint64), (4, np.uint32), (4, np.int64)]
)
def test_stream_words_refuse_other_requests(n_words, dtype):
    seq = randgen._stream_words_type()(randgen._stream_words(3, 0, 1)[0])
    with pytest.raises(ValueError, match=r"StreamWords serves \(4, uint64\) only, got \(\d+, "):
        seq.generate_state(n_words, dtype)


@pytest.mark.parametrize(
    "layout",
    [lambda w: w, np.asfortranarray, lambda w: w.astype(">u8"), lambda w: w.tolist()],
    ids=["block", "fortran", "big-endian", "list"],
)
def test_stream_words_hand_out_contiguous_native_rows_in_order(layout):
    words = randgen._stream_words(3, 7, 3)
    seq = randgen._stream_words_type()(layout(words))
    for j in range(3):
        state = seq.generate_state(4, np.uint64)
        assert state.dtype == np.dtype(np.uint64) and state.dtype.isnative
        assert state.flags.c_contiguous and state.shape == (4,)
        assert np.array_equal(state, words[j])
    seq = randgen._stream_words_type()(layout(words))
    for j in range(3):
        reference = np.random.PCG64(np.random.SeedSequence(3, spawn_key=(7 + j,)))
        assert np.random.PCG64(seq).state == reference.state


def test_stream_words_refuse_a_partial_row():
    with pytest.raises(ValueError, match="size 3 into shape"):
        randgen._stream_words_type()(np.zeros(3, dtype=np.uint64))


@pytest.mark.parametrize("count,opened", [(2048, 1), (0, 0)])
def test_one_call_opens_at_most_one_reference_stream(monkeypatch, count, opened):
    # perfbench's randgen.streams_opened counts these calls; one per block
    # keeps it meaning "draw calls" and catches a return to per-row streams.
    calls = []
    reference = RngStream.generator

    def counted(self):
        calls.append(self)
        return reference(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    z = StreamReader(11, 4096, count).read(3)
    assert z.shape == (count, 3)
    assert calls == [RngStream(11, 4096)] * opened


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=7),
    width=st.integers(min_value=0, max_value=12),
    cuts=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
def test_reads_of_row_slabs_equal_one_read_and_the_reference_streams(seed, count, width, cuts):
    """Rows read in several (lo, hi) calls, every other one into a caller's
    out, give the variates of one whole-block read and of each row's
    RngStream.generator(); a second read of every row continues its stream."""
    bounds = sorted({0, count, *(c % (count + 1) for c in cuts)})
    streams = StreamReader(seed, 3, count)
    parts = []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        out = np.empty((hi - lo, width)) if k % 2 else None
        parts.append(streams.read(width, lo, hi, out))
        assert out is None or parts[-1] is out
    z, more = np.concatenate(parts), streams.read(width + 2)
    assert np.array_equal(z, StreamReader(seed, 3, count).read(width))
    for j in range(count):
        g = RngStream(seed, 3 + j).generator()
        assert np.array_equal(z[j], g.standard_normal(width))
        assert np.array_equal(more[j], g.standard_normal(width + 2))


@pytest.mark.parametrize(
    "lo,hi,out_shape,message",
    [
        (0, 6, None, r"^rows 0 \.\. 6 are not within 0 \.\. 3$"),
        (2, 1, None, r"^rows 2 \.\. 1 are not within 0 \.\. 3$"),
        (-1, 2, None, r"^rows -1 \.\. 2 are not within 0 \.\. 3$"),
        (1, 3, (5, 4), r"^out has shape \(5, 4\), expected \(2, 4\)$"),
        (0, None, (3, 7), r"^out has shape \(3, 7\), expected \(3, 4\)$"),
    ],
)
def test_read_rejects_rows_outside_the_block_and_a_misshaped_out(lo, hi, out_shape, message):
    """Rows past the block, a reversed or negative range and an out of
    another shape than (hi - lo, width) are rejected before anything is
    drawn, rather than returned as unwritten memory or drawn at out's width."""
    streams = StreamReader(7, 0, 3)
    out = None if out_shape is None else np.empty(out_shape)
    with pytest.raises(ValueError, match=message):
        streams.read(4, lo, hi, out)
    assert np.array_equal(streams.read(4), StreamReader(7, 0, 3).read(4))


def test_wishart_slab_writes_y_into_the_work_buffers_slab_by_slab():
    """After each row's p X variates, wishart_slab over rows 0..3 and 3..5
    of opened streams returns batch_normal_wishart's Y bit for bit, as a
    view of the second work buffer."""
    p, n, count = 4, 3, 5
    root = linalg.sym_sqrt_pd(build_covariance(Autoregressive(0.5), p))
    x_ref, y_ref = batch_normal_wishart(p, n, np.zeros(p), root, 9, 2, count)
    streams = StreamReader(9, 2, count)
    assert np.array_equal(np.zeros(p) + streams.read(p) @ root, x_ref)
    work = np.empty((3, n * p)), np.empty((3, n, p))
    for lo, hi in [(0, 3), (3, 5)]:
        y = randgen.wishart_slab(streams, n, root, lo, hi, work)
        assert y.shape == (hi - lo, n, p) and np.shares_memory(y, work[1])
        assert np.array_equal(y, y_ref[lo:hi])

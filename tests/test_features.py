import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.errors import ConfigError, DataError, NotReadyError
from nervedecode.features import (
    FEATURE_NAMES, NUM_FEATURES, THRESHOLDS, FeatureThresholds, FeatureWindowSpec, NormStats,
    TickGrid, extract_features, window_features,
)
from nervedecode.engine import FrontEnd
from nervedecode.sigproc import StreamingBandpass

from oracles import brute_features, two_pass_stats

THR = THRESHOLDS
IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


class TestExtractFeatures:
    def test_alternating_signs_zero_crossings(self):
        out = extract_features(np.array([1.0, -1.0, 1.0, -1.0]), THR)
        assert out[IDX["ZC"]] == 3

    def test_constant_window(self):
        out = extract_features(np.full(500, -2.5), THR)
        assert out[IDX["WL"]] == 0.0
        assert out[IDX["MAB"]] == pytest.approx(2.5, rel=1e-15)
        assert out[IDX["RMS"]] == pytest.approx(2.5, rel=1e-15)
        assert out[IDX["DABS"]] == 0.0
        assert out[IDX["MAVS"]] == 0.0
        assert np.all(np.isfinite(out)), "every feature stays finite on a constant window"

    def test_seeded_window_matches_brute_force(self):
        rng = np.random.default_rng(42)
        window = rng.uniform(-1.0, 1.0, size=500)
        got = extract_features(window, THR)
        want = brute_features(window, THR)
        assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_too_short_window_rejected(self):
        with pytest.raises(DataError):
            extract_features(np.array([1.0, 2.0, 3.0]), THR)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            extract_features(np.array([1.0, np.nan, 0.5, 0.1]), THR)

    @given(st.integers(0, 2**32 - 1), st.floats(0.25, 8.0))
    def test_scale_equivariance(self, seed, amp):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        base = extract_features(x, THR)
        scaled_thr = FeatureThresholds(wamp=THR.wamp * amp, mpr=THR.mpr * amp)
        scaled = extract_features(amp * x, scaled_thr)
        for name in ("WL", "MAB", "RMS", "DABS"):
            assert scaled[IDX[name]] == pytest.approx(amp * base[IDX[name]], rel=1e-9)
        assert scaled[IDX["MSQ"]] == pytest.approx(amp * amp * base[IDX["MSQ"]], rel=1e-9)
        for name in ("ZC", "SSC", "MPR"):
            assert scaled[IDX[name]] == pytest.approx(base[IDX[name]], abs=0)

    @given(st.integers(0, 2**32 - 1))
    def test_rms_squared_equals_msq(self, seed):
        x = np.random.default_rng(seed).normal(size=300)
        out = extract_features(x, THR)
        assert out[IDX["RMS"]] ** 2 == pytest.approx(out[IDX["MSQ"]], rel=1e-12)

    def test_counts_are_integers(self):
        x = np.random.default_rng(1).normal(size=500)
        out = extract_features(x, THR)
        for name in ("ZC", "SSC", "WA"):
            assert out[IDX[name]] == int(out[IDX[name]])
            assert out[IDX[name]] >= 0


class TestWindowFeatures:
    def test_block_size_does_not_change_values(self):
        """One window computed alone is bit-identical to the same window
        inside one large gather (kernel shared by stream and batch)."""
        rng = np.random.default_rng(7)
        samples = np.ascontiguousarray(rng.normal(size=(3, 3000)))
        ends_all = np.arange(500, 3001, 100, dtype=np.int64)
        batch = window_features(samples, ends_all, 500)
        for k, end in enumerate(ends_all[::5]):
            single = window_features(samples, np.array([end]), 500)
            assert_array_equal(single[:, 0, :], batch[:, 5 * k, :])
        # small streamed groups too
        grp = window_features(samples, ends_all[3:8], 500)
        assert_array_equal(grp, batch[:, 3:8, :])

    @pytest.mark.parametrize("ends", [
        TickGrid(FeatureWindowSpec(), 30.0).tick_end(np.arange(3, 18)),
        np.array([1_234]),
        np.empty(0, dtype=np.int64),
    ], ids=["uneven-30Hz-ticks", "single-end", "no-ends"])
    def test_equals_per_window_definition(self, ends):
        """Any set of ends, evenly spaced or not, gives exactly the per-window
        `extract_features` of each channel's window (rtol 0)."""
        samples = np.random.default_rng(11).normal(size=(3, 3_000))
        got = window_features(samples, ends, 500)
        assert got.shape == (3, ends.size, NUM_FEATURES)
        if ends.size > 1:
            assert np.unique(np.diff(ends)).size > 1
        for ch in range(3):
            for k, e in enumerate(ends):
                assert_array_equal(got[ch, k], extract_features(samples[ch, e - 500:e]))

    def test_out_of_range_end_raises(self):
        samples = np.zeros((1, 600))
        with pytest.raises(NotReadyError):
            window_features(samples, np.array([601]), 500)
        with pytest.raises(NotReadyError):
            window_features(samples, np.array([499]), 500)

    def test_steps_must_divide_history(self):
        with pytest.raises(ConfigError):
            FeatureWindowSpec(window_ms=100.0, step_ms=30.0, history_s=1.0)


class TestTickGrid:
    @pytest.mark.parametrize("rate_hz,want", [
        (5.1, lambda m: m * 100_000 // 51),
        (30.0, lambda m: m * 1000 // 3),
        # the float 16.666666666666668 is a little above 50/3, so every tick
        # period is a little under 600 samples
        (10_000 / 600, lambda m: np.maximum(600 * m - 1, 0)),
    ], ids=["5.1-100000-51", "30.0-1000-3", "16.7-600m-1"])
    def test_tick_end_is_the_exact_floor(self, rate_hz, want):
        """Tick m ends (and is due) at floor(m * 10 kHz / rate), with rate
        the exact value of its float, computed in integers; float arithmetic
        strays across the integer (at 5.1 Hz m * (fs / rate) reads
        100000.00000000001 for m = 51, and at 10000/600 Hz most ends land
        one sample late)."""
        grid = TickGrid(FeatureWindowSpec(), rate_hz)
        m = np.arange(200_000, dtype=np.int64)
        assert_array_equal(grid.tick_end_raw(m), want(m))
        assert_array_equal(grid.tick_end(m), want(m) // 2)
        for k in (1, 3, 51, 102, 199_999):
            assert grid.tick_end_raw(k) == want(np.int64(k))
        if rate_hz == 5.1:
            assert grid.tick_end_raw(51) == 100_000

    @pytest.mark.parametrize("window_ms", [100.0, 90.0])
    def test_windows_end_at_the_tick_and_every_step_before(self, window_ms):
        grid = TickGrid(FeatureWindowSpec(window_ms=window_ms), 10.0)
        ends = grid.window_ends(5_500)
        assert_array_equal(ends, 5_500 - 100 * np.arange(49, -1, -1))
        # warm-up ends exactly when the oldest window is whole
        assert grid.window_ends(grid.need)[0] == grid.win

    @pytest.mark.parametrize("rate_hz", [10.0, 30.0, 5.1])
    def test_chunked_columns_equal_one_pass(self, rate_hz):
        """The engine asks for columns chunk by chunk; the union is every
        window end of every warm tick, as one pass over the run finds."""
        grid = TickGrid(FeatureWindowSpec(window_ms=90.0), rate_hz)
        hi = 20_000
        whole = grid.columns_between(0, hi)
        cuts = [0, 37, 500, 1_234, 5_000, 5_050, 12_000, hi]
        parts = np.concatenate([grid.columns_between(a, b) for a, b in zip(cuts, cuts[1:])])
        assert_array_equal(parts, whole)
        # ticks up to 0.98 s past hi still use columns that end by hi
        ticks = grid.warm_tick_ends(0, hi + 49 * 100)
        assert_array_equal(grid.warm_tick_ends(1_000, 9_000),
                           ticks[(ticks >= 1_000) & (ticks <= 9_000)])
        used = np.unique(np.concatenate([grid.window_ends(e) for e in ticks]))
        assert_array_equal(whole, used[used <= hi])


def front_frames(raw, rate_hz, dtype=np.float64):
    """(end, frame) of every warm tick of a raw 10 kHz stream, in order,
    framed by the front end at the default window."""
    front = FrontEnd(raw.shape[0], FeatureWindowSpec(), rate_hz)
    return [(end, front.frame(end, dtype)) for end in front.push(raw)]


def decimated(raw):
    """The front end's filtered and decimated signal, in one pass."""
    return StreamingBandpass(raw.shape[0], 10_000).process(raw)[:, ::2]


class TestFrameMatrix:
    """`FrontEnd.frame`: the [channels*14 x steps] decoder input of a tick."""

    def test_shape_16_channels(self):
        raw = np.random.default_rng(0).normal(size=(16, 12_000))
        assert [f.shape for _, f in front_frames(raw, 10.0)] == [(224, 50)] * 2

    def test_shape_8_channels(self):
        raw = np.random.default_rng(0).normal(size=(8, 12_000))
        assert [f.shape for _, f in front_frames(raw, 10.0)] == [(112, 50)] * 2

    def test_column_shift_between_consecutive_frames(self):
        """At 50 Hz consecutive ticks are one 20 ms window step apart."""
        raw = np.random.default_rng(3).normal(size=(2, 11_600))
        frames = front_frames(raw, 50.0)
        assert len(frames) == 5
        for (e0, first), (e1, second) in zip(frames, frames[1:]):
            assert e1 - e0 == 100
            assert_array_equal(second[:, :49], first[:, 1:])

    def test_row_order_is_channel_major(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(2, 11_000))
        [(end, frame)] = front_frames(raw, 10.0)
        x = decimated(raw)
        for ch in range(2):
            rows = frame[ch * NUM_FEATURES:(ch + 1) * NUM_FEATURES]
            assert_array_equal(rows[:, -1], extract_features(x[ch, end - 500:end]))
            assert_array_equal(rows[:, 0], extract_features(x[ch, end - 5_400:end - 4_900]))

    def test_float32_frame_is_the_float64_frame_cast(self):
        raw = np.random.default_rng(8).normal(size=(3, 12_000))
        wide = front_frames(raw, 10.0, np.float64)
        narrow = front_frames(raw, 10.0, np.float32)
        assert [e for e, _ in narrow] == [e for e, _ in wide]
        for (_, f32), (_, f64) in zip(narrow, wide):
            assert f32.dtype == np.float32 and f32.flags.c_contiguous
            assert_array_equal(f32, f64.astype(np.float32))


class TestNormalize:
    def test_identity_stats(self):
        vals = np.random.default_rng(0).normal(size=(NUM_FEATURES, 5))
        out = NormStats.identity(NUM_FEATURES).apply(vals)
        assert_array_equal(out, vals)

    def test_tensor_equal_to_means_gives_zeros(self):
        means = np.random.default_rng(1).normal(size=NUM_FEATURES)
        vals = np.repeat(means[:, None], 4, axis=1)
        out = NormStats(means, np.ones(NUM_FEATURES)).apply(vals)
        assert_array_equal(out, np.zeros_like(vals))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(NUM_FEATURES, 7))
        mean = rng.normal(size=NUM_FEATURES)
        std = rng.uniform(0.5, 2.0, size=NUM_FEATURES)
        out = NormStats(mean, std).apply(vals)
        expect = np.empty_like(vals)
        for r in range(vals.shape[0]):
            for t in range(vals.shape[1]):
                expect[r, t] = (vals[r, t] - mean[r]) / std[r]
        assert_allclose(out, expect, rtol=1e-12)

    def test_float32_stack_matches_single_frames(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(5, NUM_FEATURES, 6)).astype(np.float32)
        stats = NormStats(rng.normal(size=NUM_FEATURES), rng.uniform(0.5, 2.0, NUM_FEATURES))
        out = stats.apply(stack)
        assert out.dtype == np.float32
        for i in range(stack.shape[0]):
            assert_array_equal(out[i], stats.apply(stack[i]))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            NormStats.identity(7).apply(np.zeros((NUM_FEATURES, 3)))


class TestFitNormStats:
    def test_single_constant_tensor(self):
        stats = NormStats.fit(np.full((1, 3, 10), 4.0))
        assert_allclose(stats.mean, [4.0, 4.0, 4.0])
        assert_array_equal(stats.std, [1.0, 1.0, 1.0])  # zero variance clamps to 1

    def test_two_tensor_mean(self):
        stats = NormStats.fit(np.stack([np.zeros((2, 5)), np.full((2, 5), 2.0)]))
        assert_allclose(stats.mean, [1.0, 1.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        stack = rng.normal(size=(3, 4, 11))
        stats = NormStats.fit(stack)
        means, stds = two_pass_stats([m.tolist() for m in stack])
        assert_allclose(stats.mean, means, rtol=1e-10)
        assert_allclose(stats.std, stds, rtol=1e-10)

    def test_chunked_float32_stack_matches_oracle(self):
        # more frames than one 512-frame chunk
        stack = np.random.default_rng(9).normal(2.0, 3.0, size=(1100, 2, 3)).astype(np.float32)
        stats = NormStats.fit(stack)
        means, stds = two_pass_stats([m.astype(np.float64).tolist() for m in stack])
        assert_allclose(stats.mean, means, rtol=1e-10)
        assert_allclose(stats.std, stds, rtol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            NormStats.fit(np.empty((0, 3, 5)))

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.errors import ConfigError, DataError, NotReadyError
from nervedecode.features import (
    FEATURE_NAMES, NUM_FEATURES, THRESHOLDS, BlockSums, FeatureThresholds, FeatureWindowSpec,
    NormStats, TickGrid, extract_features, window_features,
)
from nervedecode.engine import FrontEnd
from nervedecode.sigproc import StreamingBandpass

from oracles import brute_features, identity_stats, two_pass_stats

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


def kernel(samples, ends, window=500, block=None):
    """One `window_features` call over a whole signal [channels x n], in the
    largest blocks that fit the window and the ends unless `block` is given."""
    ends = np.asarray(ends, dtype=np.int64)
    if block is None:
        block = math.gcd(window, window // 2, -(-window // 4), -(-3 * window // 4),
                         *ends.tolist())
    sums = BlockSums(samples.shape[0], block)
    sums.append(samples)
    return window_features(sums, ends, window)


COUNTS = [IDX[name] for name in ("ZC", "SSC", "WA", "MPR")]


def assert_features_match(got, want):
    """Count features exactly, the rest at ACC-04's tolerance: block sums
    add in another order than one window's own sums."""
    got, want = np.asarray(got), np.asarray(want)
    assert_array_equal(got[..., COUNTS], want[..., COUNTS])
    assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestWindowFeatures:
    def test_block_size_does_not_change_values(self):
        """5 windows in one call, one window alone and all windows at once
        give the same bits: a window sums the same block partials however
        many windows share the call."""
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(3, 3000))
        ends_all = np.arange(500, 3001, 100, dtype=np.int64)
        batch = kernel(samples, ends_all, block=25)
        for k, end in enumerate(ends_all[::5]):
            assert_array_equal(kernel(samples, [end], block=25)[:, 0], batch[:, 5 * k])
        sums = BlockSums(3, 25)
        sums.append(samples)
        groups = [window_features(sums, ends_all[i:i + 5], 500)
                  for i in range(0, ends_all.size, 5)]
        assert_array_equal(np.concatenate(groups, axis=1), batch)

    @pytest.mark.parametrize("ends", [
        TickGrid(FeatureWindowSpec(), 30.0).tick_end(np.arange(3, 18)),
        np.array([1_234]),
        np.empty(0, dtype=np.int64),
    ], ids=["uneven-30Hz-ticks", "single-end", "no-ends"])
    def test_equals_per_window_definition(self, ends):
        """Any set of ends, evenly spaced or not, gives the per-window
        `extract_features` of each channel's window: its counts exactly, the
        rest at ACC-04's tolerance."""
        samples = np.random.default_rng(11).normal(size=(3, 3_000))
        got = kernel(samples, ends)
        assert got.shape == (3, ends.size, NUM_FEATURES)
        if ends.size > 1:
            assert np.unique(np.diff(ends)).size > 1
        for ch in range(3):
            for k, e in enumerate(ends):
                assert_features_match(got[ch, k], extract_features(samples[ch, e - 500:e]))

    def test_out_of_range_end_raises(self):
        sums = BlockSums(1, 25)
        sums.append(np.zeros((1, 600)))
        with pytest.raises(NotReadyError):
            window_features(sums, np.array([625]), 500)
        with pytest.raises(NotReadyError):
            window_features(sums, np.array([475]), 500)
        window_features(sums, np.array([600]), 500)
        with pytest.raises(NotReadyError):  # its blocks are no longer kept
            window_features(sums, np.array([575]), 500)

    def test_windows_off_the_block_grid_are_config_errors(self):
        sums = BlockSums(1, 25)
        sums.append(np.zeros((1, 600)))
        for ends, window in (([590], 500), ([600], 510), ([600], 90)):
            with pytest.raises(ConfigError):
                window_features(sums, np.array(ends), window)

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


class _ColumnRows(FrontEnd):
    """A front end that keeps every finished column, in float64."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ends, self.rows = [], []

    def _keep(self, ends, rows):
        self.ends.append(ends)
        self.rows.append(rows)


def front_frames(raw, rate_hz):
    """(end, frame) of every warm tick of a raw 10 kHz stream, in order, at
    the default window: the front end's columns at the tick's window ends
    (`TickGrid.window_ends`), as [channels*14 x steps]."""
    front = _ColumnRows(raw.shape[0], FeatureWindowSpec(), rate_hz)
    ticks = list(front.push(raw))
    ends, rows = np.concatenate(front.ends), np.concatenate(front.rows)
    return [(end, rows[np.searchsorted(ends, front.grid.window_ends(end))].T)
            for end in ticks]


def decimated(raw):
    """The front end's filtered and decimated signal, in one pass."""
    return StreamingBandpass(raw.shape[0], 10_000).process(raw)[:, ::2]


class TestFrameMatrix:
    """A tick's decoder input: the front end's columns at its window ends,
    [channels*14 x steps]."""

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
            assert_features_match(rows[:, -1], extract_features(x[ch, end - 500:end]))
            assert_features_match(rows[:, 0], extract_features(x[ch, end - 5_400:end - 4_900]))


def front_columns(raw, window, rate_hz, push):
    """(ends, [columns x channels*14] rows, grid) of every column the front
    end computes, with the raw stream pushed `push` samples at a time."""
    front = _ColumnRows(raw.shape[0], window, rate_hz)
    for start in range(0, raw.shape[1], push):
        for _ in front.push(raw[:, start:start + push]):
            pass
    return np.concatenate(front.ends), np.concatenate(front.rows), front.grid


GEOMETRIES = [(FeatureWindowSpec(), 10.0, 25), (FeatureWindowSpec(), 30.0, 1),
              (FeatureWindowSpec(), 5.1, 1), (FeatureWindowSpec(window_ms=90.0), 10.0, 1)]


class TestKernelInvariants:
    """Each decimated sample goes through the kernel once, into the block
    sums of `BlockSums`; a column only adds its blocks' sums. These hold at
    the default geometry (25-sample blocks) and at the one-sample blocks of
    ticks off the step grid and of a 90 ms window."""

    @pytest.fixture(scope="class")
    def raw(self):
        return np.random.default_rng(21).normal(size=(3, 15_000))

    def test_block_of_the_geometry(self):
        for window, rate_hz, block in GEOMETRIES:
            assert TickGrid(window, rate_hz).block == block
        for rate_hz in (50.0, 25.0, 12.5):
            assert TickGrid(FeatureWindowSpec(), rate_hz).block == 25

    @pytest.mark.parametrize("window,rate_hz,block", GEOMETRIES,
                             ids=["default", "30Hz", "5.1Hz", "90ms"])
    def test_columns_do_not_depend_on_the_push_size(self, raw, window, rate_hz, block):
        ends, rows, _ = front_columns(raw, window, rate_hz, 1)
        assert ends.size > 10
        for push in (7, 50, 1_000, 65_535):
            other_ends, other_rows, _ = front_columns(raw, window, rate_hz, push)
            assert_array_equal(other_ends, ends)
            assert_array_equal(other_rows, rows)

    @pytest.mark.parametrize("window,rate_hz,block", GEOMETRIES,
                             ids=["default", "30Hz", "5.1Hz", "90ms"])
    def test_columns_equal_one_call_over_the_whole_signal(self, raw, window, rate_hz, block):
        """The front end's columns are one `window_features` call over the
        whole decimated signal, and so are calls of 5 windows each; their
        counts are `extract_features`' counts."""
        ends, rows, grid = front_columns(raw, window, rate_hz, 1_000)
        x = decimated(raw)
        whole = kernel(x, ends, grid.win, block)
        assert_array_equal(whole.swapaxes(0, 1).reshape(rows.shape), rows)
        sums = BlockSums(3, block)
        sums.append(x)
        fives = [window_features(sums, ends[i:i + 5], grid.win) for i in range(0, ends.size, 5)]
        assert_array_equal(np.concatenate(fives, axis=1), whole)
        for k in range(0, ends.size, 7):
            for ch in range(3):
                want = extract_features(x[ch, ends[k] - grid.win:ends[k]])
                assert_features_match(whole[ch, k], want)

    def test_every_block_boundary_crossed_by_a_sign_change(self):
        """Each block boundary has a zero crossing, a step above `wamp` and
        a slope sign change on either side, so a boundary term dropped or
        counted twice changes the counts."""
        g, n = 25, 500
        sign = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        # magnitude highest at both ends of each block: both boundary samples
        # are local extremes
        x = (sign[:, None] * (1.0 + 0.01 * np.abs(np.arange(g) - 12.0))).ravel()
        ends = np.arange(n, x.size + 1, g)
        got = kernel(x[None], ends, n, g)[0]
        for k, e in enumerate(ends):
            want = brute_features(x[e - n:e], THR)
            assert want[IDX["ZC"]] == want[IDX["WA"]] == n // g - 1
            assert want[IDX["SSC"]] == 2 * (n // g - 1) + n // g
            assert_array_equal(got[k, COUNTS], np.array(want)[COUNTS])
            assert_allclose(got[k], want, rtol=1e-12, atol=1e-14)


class TestNormalize:
    def test_identity_stats(self):
        vals = np.random.default_rng(0).normal(size=(NUM_FEATURES, 5))
        out = identity_stats(NUM_FEATURES).apply(vals)
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
        """A stack is z-scored frame by frame, and in float64 whatever the
        input's precision."""
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(5, NUM_FEATURES, 6)).astype(np.float32)
        stats = NormStats(rng.normal(size=NUM_FEATURES), rng.uniform(0.5, 2.0, NUM_FEATURES))
        out = stats.apply(stack)
        assert out.dtype == np.float64
        assert_array_equal(out, stats.apply(stack.astype(np.float64)))
        for i in range(stack.shape[0]):
            assert_array_equal(out[i], stats.apply(stack[i]))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            identity_stats(7).apply(np.zeros((NUM_FEATURES, 3)))


class TestFitNormStats:
    """`NormStats.fit(store, counts)`: the stats of frames over a column
    store, from each column once and the number of frame steps using it."""

    def test_single_constant_tensor(self):
        stats = NormStats.fit(np.full((3, 10), 4.0), np.ones(10))
        assert_allclose(stats.mean, [4.0, 4.0, 4.0])
        assert_array_equal(stats.std, [1.0, 1.0, 1.0])  # zero variance clamps to 1

    def test_two_tensor_mean(self):
        store = np.concatenate([np.zeros((2, 5)), np.full((2, 5), 2.0)], axis=1)
        stats = NormStats.fit(store, np.ones(10))
        assert_allclose(stats.mean, [1.0, 1.0])

    def test_matches_two_pass_oracle(self):
        """Unit counts: the stats of the store's columns."""
        store = np.random.default_rng(6).normal(size=(4, 33))
        stats = NormStats.fit(store, np.ones(33, dtype=np.int64))
        means, stds = two_pass_stats([store.tolist()])
        assert_allclose(stats.mean, means, rtol=1e-10)
        assert_allclose(stats.std, stds, rtol=1e-10)

    def test_float32_store_matches_oracle(self):
        store = np.random.default_rng(9).normal(2.0, 3.0, size=(2, 1100)).astype(np.float32)
        stats = NormStats.fit(store, np.ones(1100, dtype=np.int64))
        means, stds = two_pass_stats([store.astype(np.float64).tolist()])
        assert_allclose(stats.mean, means, rtol=1e-10)
        assert_allclose(stats.std, stds, rtol=1e-10)

    def test_counts_weight_the_columns(self):
        """Frames that overlap in their columns: the fit over the store with
        each column's frame count equals the oracle over the frames."""
        rng = np.random.default_rng(12)
        store = rng.normal(1.0, 2.0, size=(3, 40))
        pos = np.arange(30)[:, None] + np.arange(6)  # 30 frames of 6 steps, 1 apart
        pos = pos[rng.permutation(30)[:17]]
        counts = np.bincount(pos.ravel(), minlength=40)
        assert np.any(counts == 0) and counts.max() > 1
        stats = NormStats.fit(store, counts)
        means, stds = two_pass_stats([store[:, p].tolist() for p in pos])
        assert_allclose(stats.mean, means, rtol=1e-10)
        assert_allclose(stats.std, stds, rtol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            NormStats.fit(np.empty((3, 0)), np.empty(0))
        with pytest.raises(ConfigError):
            NormStats.fit(np.ones((3, 5)), np.zeros(5))
        with pytest.raises(ConfigError):
            NormStats.fit(np.ones((3, 5)), np.ones(4))

from fractions import Fraction
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import signal as sps

from nervedecode.dataset import (
    build_training_data, concat_frames, session_frames, split_frames,
)
from nervedecode.errors import ConfigError
from nervedecode.features import (
    NUM_FEATURES, FeatureWindowSpec, NormStats, extract_features,
)
from nervedecode.gestures import gesture_to_bits

from oracles import two_pass_stats


class TestSessionFrames:
    def test_shapes_and_grid(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=50.0)
        assert frames.x.shape[1:] == (4 * NUM_FEATURES, tiny_window.steps)
        assert frames.store.dtype == np.float64
        assert frames.y.shape == (frames.x.shape[0], 6)
        # ticks every 20 ms from the first grid point with 0.58 s of history
        assert frames.t_ms[0] == 580
        assert np.all(np.diff(frames.t_ms) == 20)

    def test_labels_align_with_schedule(self, tiny_sessions, tiny_window):
        session = tiny_sessions[0]
        frames = session_frames(session, tiny_window, frame_rate_hz=50.0)
        label_by_ms = dict(zip(session.label_times_ms.tolist(), session.labels))
        for i in range(0, frames.x.shape[0], 37):
            t = int(frames.t_ms[i])
            want = label_by_ms[min(t, session.label_times_ms[-1])]
            assert_array_equal(frames.y[i], gesture_to_bits(want).astype(np.float64))

    @pytest.mark.parametrize("window_ms,history_s,frame_rate_hz", [
        (100.0, 0.5, 50.0), (90.0, 0.5, 50.0), (100.0, 0.06, 10.0), (90.0, 0.06, 5.0),
        (100.0, 0.5, 30.0), (90.0, 0.5, 10_000 / 600),
    ], ids=["100ms", "90ms", "stride-past-history", "90ms-stride-past-history",
            "off-grid-30Hz", "90ms-off-grid-16.7Hz"])
    def test_frame_tensor_matches_direct_extraction(self, tiny_sessions, tiny_window,
                                                    window_ms, history_s, frame_rate_hz):
        """A frame equals the features of each window of the filtered prefix,
        computed one by one (shared kernel, bit-exact), in channel-major row
        order. Its windows end at the frame's end sample and at every step
        before it, also when the window is not a whole number of steps and
        when frames are further apart than the history is long."""
        from dataclasses import replace

        session = tiny_sessions[0]
        tiny_window = replace(tiny_window, window_ms=window_ms, history_s=history_s)
        frames = session_frames(session, tiny_window, frame_rate_hz=frame_rate_hz)
        sos = sps.butter(4, [25.0, 600.0], btype="bandpass", fs=10000, output="sos")
        filtered = sps.sosfilt(sos, session.recording.samples.astype(np.float64),
                               axis=-1)[:, ::2]
        win = tiny_window.window_samples(5000)
        step = tiny_window.step_samples(5000)
        steps = tiny_window.steps
        # tick m ends at raw sample floor(m * 10000 / rate), the exact floor
        # for the float rate, halved at 5 kHz; it gives a frame once its full
        # history has arrived
        n_raw = session.recording.n_samples
        period = Fraction(10_000) / Fraction(frame_rate_hz)
        raw_ends = [math.floor(m * period)
                    for m in range(int(n_raw * frame_rate_hz / 10_000) + 2)]
        ends = [r // 2 for r in raw_ends
                if r <= n_raw and r // 2 >= (steps - 1) * step + win]
        assert_array_equal(frames.t_ms, np.array(ends) // 5)
        for idx in (0, 13, frames.x.shape[0] - 1):
            end = ends[idx]
            want = np.empty((4 * NUM_FEATURES, steps))
            for ch in range(4):
                for t in range(steps):
                    e = end - step * (steps - 1 - t)
                    want[ch * NUM_FEATURES:(ch + 1) * NUM_FEATURES, t] = extract_features(
                        filtered[ch, e - win:e])
            assert_array_equal(frames.x[idx].astype(np.float32), want.astype(np.float32))

    def test_single_frame_session(self, tiny_profile, tiny_window):
        from nervedecode.synthgen import SessionSpec, generate_session

        # 0.7 s of signal: of the 80 ms ticks only 0.64 s has 0.58 s of history
        spec = SessionSpec(gestures=("100000",), repetitions=1, hold_s=0.4, rest_s=0.3)
        session = generate_session(tiny_profile, spec, seed=1)
        frames = session_frames(session, tiny_window, frame_rate_hz=12.5)
        assert frames.x.shape == (1, 4 * NUM_FEATURES, tiny_window.steps)
        longer = session_frames(session, tiny_window, frame_rate_hz=50.0)
        assert_array_equal(frames.x[0], longer.x[list(longer.t_ms).index(frames.t_ms[0])])

    @pytest.mark.parametrize("rate_hz", [30.0, 10_000 / 600], ids=["30Hz", "16.7Hz"])
    def test_off_grid_frame_rates_follow_the_engine_ticks(self, tiny_sessions, tiny_trained,
                                                          tiny_window, rate_hz):
        """Rates whose ticks fall between window steps give one frame per
        tick the engine decodes, at that tick's end."""
        from nervedecode.engine import EngineConfig, run_pipeline

        session = tiny_sessions[0]
        frames = session_frames(session, tiny_window, frame_rate_hz=rate_hz)
        preds, _ = run_pipeline(session.recording, tiny_trained[0],
                                EngineConfig(prediction_rate_hz=rate_hz))
        ends = [round(p.frame_timestamp_s * 5000) for p in preds]  # 5 kHz samples
        assert any(e % tiny_window.step_samples(5000) for e in ends)
        assert frames.t_ms.tolist() == [e // 5 for e in ends]

    @pytest.mark.parametrize("rate_hz", [0.0, -10.0, float("nan"), float("inf"), 50.5, 1e9,
                                         1e-300])
    def test_bad_frame_rate_is_config_error(self, tiny_sessions, tiny_window, rate_hz):
        """A rate must be finite, positive and give at most one frame per
        20 ms window step (50 Hz); at 1e-300 Hz no tick after the first falls
        due, so the session is too short."""
        with pytest.raises(ConfigError):
            session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=rate_hz)

    def test_recording_must_be_raw_rate(self, tiny_sessions, tiny_window):
        from dataclasses import replace

        from nervedecode.sigproc import Recording

        session = tiny_sessions[0]
        rec = Recording(5000, session.recording.samples)
        with pytest.raises(ConfigError):
            session_frames(replace(session, recording=rec), tiny_window)

    def test_too_short_session_rejected(self, tiny_profile, tiny_window):
        from nervedecode.synthgen import SessionSpec, generate_session

        spec = SessionSpec(gestures=("100000",), repetitions=1, hold_s=0.2, rest_s=0.2)
        session = generate_session(tiny_profile, spec, seed=1)
        with pytest.raises(ConfigError):
            session_frames(session, tiny_window)


class TestSplitsAndStats:
    def test_split_is_chronological(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window)
        head, tail = split_frames(frames, 0.25)
        assert head.x.shape[0] + tail.x.shape[0] == frames.x.shape[0]
        assert head.t_ms[-1] < tail.t_ms[0]

    def test_bad_split_fraction(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window)
        with pytest.raises(ConfigError):
            split_frames(frames, 1.5)

    def test_concat_requires_matching_geometry(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window)
        other = session_frames(tiny_sessions[1], FeatureWindowSpec(history_s=0.6))
        with pytest.raises(ConfigError):
            concat_frames([frames, other])

    def test_stack_stats_match_public_op(self, tiny_sessions, tiny_window):
        """The fit over the store, each column weighted by its frame count,
        gives the stats of the first 40 frames."""
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=12.5)
        pos = frames.pos[:40]
        stats = NormStats.fit(frames.store, np.bincount(pos.ravel(),
                                                        minlength=frames.store.shape[1]))
        means, stds = two_pass_stats([frames.x[i].astype(np.float64).tolist()
                                      for i in range(40)])
        np.testing.assert_allclose(stats.mean, means, rtol=1e-9)
        np.testing.assert_allclose(stats.std, stds, rtol=1e-9)

    def test_fit_of_a_split_skips_the_other_sides_columns(self, tiny_sessions, tiny_window):
        """Both sides of a split keep the whole store; the training side's
        fit gives the columns only the validation side uses a count of 0."""
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=12.5)
        head, _ = split_frames(frames, 0.5)
        counts = np.bincount(head.pos.ravel(), minlength=head.store.shape[1])
        assert np.count_nonzero(counts == 0) > head.store.shape[1] // 3
        fit = NormStats.fit(head.store, counts)
        means, stds = two_pass_stats([f.astype(np.float64).tolist() for f in head.x])
        np.testing.assert_allclose(fit.mean, means, rtol=1e-10)
        np.testing.assert_allclose(fit.std, stds, rtol=1e-10)
        # training data z-scores with the fit rounded to float32, as a
        # checkpoint stores it
        data = build_training_data(head, None)
        assert_array_equal(data.stats.mean, fit.mean.astype(np.float32))
        assert_array_equal(data.stats.std, fit.std.astype(np.float32))
        assert data.stats.mean.dtype == data.stats.std.dtype == np.float64

    def test_training_data_is_z_scored(self, tiny_training_data):
        x = tiny_training_data.x_train[:]
        means = x.mean(axis=(0, 2))
        stds = x.std(axis=(0, 2))
        live = stds > 1e-6  # rows with any variance at all
        assert np.all(np.abs(means[live]) < 1e-3)
        assert np.all(np.abs(stds[live] - 1.0) < 1e-3)


def _long_session(seed):
    """A 49 s, 16-channel session of ACC-07's seven gestures, 2 repetitions."""
    from nervedecode.synthgen import SessionSpec, generate_session, make_profile

    spec = SessionSpec(gestures=("100000", "010000", "001000", "000100", "000010",
                                 "111110", "000001"),
                       repetitions=2, hold_s=2.0, rest_s=1.5)
    session = generate_session(make_profile(), spec, seed=seed)
    assert session.recording.duration_s == pytest.approx(49.0, abs=0.1)
    return session


@pytest.fixture(scope="module")
def long_sessions():
    return _long_session(101), _long_session(102)


def _peak_bytes(fn):
    """(fn(), the peak of memory traced while it ran)."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestColumnStore:
    @pytest.mark.parametrize("rate_hz", [50.0, 25.0, 12.5])
    def test_frames_are_read_only_views_of_the_store(self, tiny_sessions, tiny_window,
                                                     rate_hz):
        """The frames and both z-scored splits are read-only views over one
        float64 store each: indexing gathers the frames' columns into a new
        array, and nothing writes through them."""
        train = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=rate_hz)
        val = session_frames(tiny_sessions[1], tiny_window, frame_rate_hz=rate_hz)
        data = build_training_data(train, val)
        assert train.x.store is train.store and train.store.dtype == np.float64
        for x, frames in ((train.x, train), (data.x_train, train), (data.x_val, val)):
            assert x.shape == (len(frames.pos),) + frames.store.shape[:1] + (tiny_window.steps,)
            assert len(x) == x.shape[0] and x.nbytes == 8 * np.prod(x.shape)
            assert x.store.dtype == np.float64
            assert not np.shares_memory(x[0], x.store)
            shift = round(50.0 / rate_hz)  # consecutive frames overlap
            assert_array_equal(x[1][:, :-shift], x[0][:, shift:])
            with pytest.raises(TypeError):
                x[0] = 0.0
        assert train.store.nbytes < train.x.nbytes

    def test_off_grid_frames_are_gathered(self, tiny_sessions, tiny_window):
        """At 30 Hz, ticks of different families interleave in the store;
        indexing gathers each frame's columns, one or many frames at a time."""
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=30.0)
        assert_array_equal(frames.x[5], frames.store[:, frames.pos[5]])
        batch = frames.x[[7, 5, 9]]
        assert batch.shape == (3,) + frames.x.shape[1:]
        for got, i in zip(batch, (7, 5, 9)):
            assert_array_equal(got, frames.x[i])
        assert_array_equal(frames.x[2:4], frames.x[[2, 3]])

    def test_single_part_concat_and_split_copy_nothing(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window)
        assert concat_frames([frames]) is frames
        head, tail = split_frames(frames, 0.25)
        assert head.store is frames.store and tail.store is frames.store
        assert_array_equal(tail.x[0], frames.x[len(head.x)])
        data = build_training_data(head, tail)  # one store, z-scored once
        assert data.x_train.store is data.x_val.store

    def test_concat_of_sessions_equals_the_stacked_frames(self, tiny_sessions, tiny_window):
        """The frames are the parts' frames stacked in the order concat_frames
        chose, and listing the parts in either order gives equal frame sets."""
        parts = [session_frames(s, tiny_window) for s in tiny_sessions]
        both = concat_frames(parts)
        width = parts[0].store.shape[1]
        first = 0 if np.array_equal(both.store[:, :width], parts[0].store) else 1
        laid = [parts[first], parts[1 - first]]
        assert_array_equal(both.x[:], np.concatenate([p.x[:] for p in laid]))
        assert_array_equal(both.t_ms, np.concatenate([p.t_ms for p in laid]))
        other = concat_frames(parts[::-1])
        for name in ("store", "pos", "y", "t_ms"):
            assert_array_equal(getattr(other, name), getattr(both, name))
        assert (other.channels, other.window) == (both.channels, both.window)

    def test_session_frames_peak_memory(self, long_sessions):
        """Framing a 49 s, 16-channel session at 50 Hz allocates a few MB:
        its 2,446 frames as a dense float64 stack would take 210 MB."""
        frames, peak = _peak_bytes(lambda: session_frames(long_sessions[0]))
        assert frames.x.nbytes > 200 * 2 ** 20
        assert peak < 20 * 2 ** 20, peak

    def test_training_data_peak_memory(self, long_sessions):
        """Two 49 s, 16-channel sessions framed together, and one framed at
        30 Hz, become training data in a few stores' worth of memory: the
        frames are never stacked densely (418 MB, and 123 MB at 30 Hz)."""
        parts = [session_frames(s) for s in long_sessions]
        data, peak = _peak_bytes(lambda: build_training_data(concat_frames(parts), None))
        assert peak < 64 * 2 ** 20, peak
        assert data.x_train.nbytes > 400 * 2 ** 20
        data, peak = _peak_bytes(lambda: build_training_data(
            session_frames(long_sessions[0], frame_rate_hz=30.0), None))
        assert peak < 64 * 2 ** 20, peak
        assert data.x_train.nbytes > 120 * 2 ** 20


class TestDecoderPeakMemory:
    """tracemalloc peaks of the decoder on bench-shape frames (224 rows, 50
    steps, the shape `nervedecode train` makes) over a store whose frames
    are one column apart, as at 50 Hz."""

    @pytest.fixture(scope="class")
    def bench(self):
        from nervedecode.dataset import Frames
        from nervedecode.network import ModelConfig, init_params

        cfg = ModelConfig(input_rows=224, steps=50, conv_out=96, gru_hidden=96,
                          fc_hidden=48, dropout_rate=0.5)
        rng = np.random.default_rng(19)
        frames = Frames(rng.normal(size=(224, 320)), np.arange(256)[:, None] + np.arange(50))
        return init_params(cfg, rng), frames, rng

    def test_training_step_keeps_no_im2col(self, bench):
        """One 64-frame training step, forward and backward, stays under
        56 MB: its im2col and the cache that kept it took 62 MB."""
        from nervedecode.network import batch_loss_and_grads

        params, frames, rng = bench
        x = frames[rng.permutation(len(frames))[:64]]
        y = rng.integers(0, 2, size=(64, 6)).astype(np.float64)
        _, peak = _peak_bytes(lambda: batch_loss_and_grads(x, y, params, rng=rng))
        assert peak < 56 * 2 ** 20, peak

    def test_eval_over_the_store_stays_below_one_forward_pass(self, bench):
        """Evaluating 256 frames per store column peaks below one per-frame
        forward pass of 64 of them."""
        from nervedecode.network import forward_batch
        from nervedecode.training import predict_batch

        params, frames, _ = bench
        x = frames[:64]
        _, per_frame = _peak_bytes(lambda: forward_batch(x, params))
        _, per_column = _peak_bytes(lambda: predict_batch(params, frames))
        assert per_column < per_frame, (per_column, per_frame)

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from nervedecode.dataset import (
    build_training_data, concat_frames, session_frames, split_frames,
)
from nervedecode.errors import ConfigError
from nervedecode.features import (
    NUM_FEATURES, FeatureThresholds, FeatureWindowSpec, NormStats, extract_features,
)
from nervedecode.gestures import gesture_to_bits

from oracles import two_pass_stats


class TestSessionFrames:
    def test_shapes_and_grid(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=50.0)
        assert frames.x.shape[1:] == (4 * NUM_FEATURES, tiny_window.steps)
        assert frames.x.dtype == np.float32
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
    ], ids=["100ms", "90ms", "stride-past-history", "90ms-stride-past-history"])
    def test_frame_tensor_matches_direct_extraction(self, tiny_sessions, tiny_window,
                                                    window_ms, history_s, frame_rate_hz):
        """A frame assembled from the column grid equals the features of each
        window of the filtered prefix, computed one by one (shared kernel,
        bit-exact), in channel-major row order. Its windows end at the frame's
        end sample and at every step before it, also when the window is not a
        whole number of steps and when frames are further apart than the
        history is long."""
        from dataclasses import replace

        from nervedecode.sigproc import bandpass_filter_array

        session = tiny_sessions[0]
        tiny_window = replace(tiny_window, window_ms=window_ms, history_s=history_s)
        frames = session_frames(session, tiny_window, frame_rate_hz=frame_rate_hz)
        filtered = bandpass_filter_array(
            session.recording.samples.astype(np.float64), 10000)[:, ::2]
        win = tiny_window.window_samples(5000)
        step = tiny_window.step_samples(5000)
        steps = tiny_window.steps
        for idx in (0, 13, frames.x.shape[0] - 1):
            end = int(frames.t_ms[idx]) * 5  # ms -> samples at 5 kHz
            want = np.empty((4 * NUM_FEATURES, steps))
            for ch in range(4):
                for t in range(steps):
                    e = end - step * (steps - 1 - t)
                    want[ch * NUM_FEATURES:(ch + 1) * NUM_FEATURES, t] = extract_features(
                        filtered[ch, e - win:e], FeatureThresholds())
            assert_array_equal(frames.x[idx], want.astype(np.float32))

    def test_single_frame_session(self, tiny_profile, tiny_window):
        from nervedecode.synthgen import SessionSpec, generate_session

        # 0.7 s of signal: of the 80 ms ticks only 0.64 s has 0.58 s of history
        spec = SessionSpec(gestures=("100000",), repetitions=1, hold_s=0.4, rest_s=0.3)
        session = generate_session(tiny_profile, spec, seed=1)
        frames = session_frames(session, tiny_window, frame_rate_hz=12.5)
        assert frames.x.shape == (1, 4 * NUM_FEATURES, tiny_window.steps)
        longer = session_frames(session, tiny_window, frame_rate_hz=50.0)
        assert_array_equal(frames.x[0], longer.x[list(longer.t_ms).index(frames.t_ms[0])])

    def test_off_grid_frame_rate_rejected(self, tiny_sessions, tiny_window):
        with pytest.raises(ConfigError):
            session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=30.0)

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

    def test_concat_requires_matching_thresholds(self, tiny_sessions, tiny_window):
        """A merged set records one set of thresholds, so every part must
        have been extracted with it."""
        frames = session_frames(tiny_sessions[0], tiny_window)
        other = session_frames(tiny_sessions[1], tiny_window, FeatureThresholds(wamp=0.5))
        with pytest.raises(ConfigError):
            concat_frames([frames, other])

    def test_stack_stats_match_public_op(self, tiny_sessions, tiny_window):
        frames = session_frames(tiny_sessions[0], tiny_window, frame_rate_hz=12.5)
        stats = NormStats.fit(frames.x[:40])
        means, stds = two_pass_stats([frames.x[i].astype(np.float64).tolist()
                                      for i in range(40)])
        np.testing.assert_allclose(stats.mean, means, rtol=1e-9)
        np.testing.assert_allclose(stats.std, stds, rtol=1e-9)

    def test_training_data_is_z_scored(self, tiny_training_data):
        x = tiny_training_data.x_train
        means = x.mean(axis=(0, 2))
        stds = x.std(axis=(0, 2))
        live = stds > 1e-6  # rows with any variance at all
        assert np.all(np.abs(means[live]) < 1e-3)
        assert np.all(np.abs(stds[live] - 1.0) < 1e-3)

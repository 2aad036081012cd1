import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from nervedecode.engine import (
    DecodePipeline, DropOldestQueue, EngineConfig, decode_over_socket, load_engine_config,
    parse_endpoint, replay_blocks, run_pipeline, serve, write_engine_config,
)
from nervedecode.errors import ConfigError
from nervedecode.sigproc import RAW_SAMPLE_RATE_HZ, Recording
from nervedecode.synthgen import SessionSpec, generate_session
from nervedecode import wire


@pytest.fixture(scope="module")
def replay_recording(tiny_profile):
    spec = SessionSpec(gestures=("100000", "010000"), repetitions=3,
                       hold_s=1.1, rest_s=0.9, session_id="replay")
    return generate_session(tiny_profile, spec, seed=77).recording


@pytest.fixture(scope="module")
def engine_cfg(tiny_trained):
    params, _ = tiny_trained
    return EngineConfig.for_params(params)


class TestTickArithmetic:
    def test_ten_second_replay_at_ten_hz(self, tiny_profile, tiny_trained):
        params, _ = tiny_trained
        rng = np.random.default_rng(5)
        rec = Recording(RAW_SAMPLE_RATE_HZ,
                        rng.normal(0, 2.0, size=(4, 10 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        cfg = EngineConfig.for_params(params, prediction_rate_hz=10.0)
        preds, report = run_pipeline(rec, params, cfg)
        # ticks at 0.0 .. 10.0 s, each firing once its data is complete; the
        # 0.5 s history + 0.1 s window needs 0.58 s, so ticks at 0.0 .. 0.5 s
        # are warmup skips
        assert report.warmup_skips == 6
        assert len(preds) == 101 - report.warmup_skips
        assert preds[0].frame_timestamp_s == pytest.approx(0.6)
        assert preds[-1].frame_timestamp_s == pytest.approx(10.0)

    def test_default_window_warmup_matches_ceil_rule(self, tiny_profile):
        # with the full 1.0 s + 100 ms window the skip count equals
        # ceil(1.1 s * rate) at 10 Hz
        from nervedecode.features import FeatureWindowSpec
        from nervedecode.network import ModelConfig, init_params
        from nervedecode.features import NormStats

        window = FeatureWindowSpec()
        cfg = ModelConfig(input_rows=4 * 14, steps=50, conv_out=8, gru_hidden=8, fc_hidden=8)
        params = init_params(cfg, np.random.default_rng(0))
        params.norm_stats = NormStats.identity(4 * 14)
        params.channels = 4
        params.window = window
        rng = np.random.default_rng(6)
        rec = Recording(RAW_SAMPLE_RATE_HZ,
                        rng.normal(size=(4, 10 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        preds, report = run_pipeline(rec, params, EngineConfig.for_params(params))
        assert report.warmup_skips == int(np.ceil(1.1 * 10.0))
        assert len(preds) == 101 - 11

    def test_predictions_threshold_their_probabilities(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        preds, _ = run_pipeline(replay_recording, params)
        for p in preds[:20]:
            bits = "".join("1" if v >= 0.5 else "0" for v in p.probabilities)
            assert p.label == bits


class TestTrainServeParity:
    def test_engine_input_equals_offline_frame(self, tiny_sessions, tiny_trained,
                                               monkeypatch):
        """At every tick both paths share, the un-normalized tensor the engine
        feeds the model equals the offline training frame, bit for bit."""
        import nervedecode.engine as engine_mod
        from nervedecode.dataset import session_frames
        from nervedecode.features import NormStats

        params = tiny_trained[0].copy()
        params.norm_stats = NormStats.identity(params.config.input_rows)
        fed = []
        original = engine_mod.forward_batch

        def capture(x, *args, **kwargs):
            fed.append(np.array(x[0]))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "forward_batch", capture)
        session = tiny_sessions[0]
        preds, _ = run_pipeline(session.recording, params)
        frames = session_frames(session, params.window)
        row = {int(t): i for i, t in enumerate(frames.t_ms)}
        assert len(fed) == len(preds) > 0
        for pred, x in zip(preds, fed):
            # every 10 Hz tick lies on the 50 Hz frame grid
            frame = frames.x[row[round(pred.frame_timestamp_s * 1000)]]
            assert_array_equal(frame, x.astype(np.float32))


class TestModeEquivalence:
    def test_block_size_does_not_change_probabilities(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        base, _ = run_pipeline(replay_recording, params)
        for block in (512, 1000, 7919):
            other, _ = run_pipeline(replay_blocks(replay_recording, block), params)
            assert len(other) == len(base)
            for a, b in zip(base, other):
                assert_array_equal(a.probabilities, b.probabilities)

    def test_realtime_pacing_matches_batch(self, tiny_profile, tiny_trained):
        params, _ = tiny_trained
        spec = SessionSpec(gestures=("100000",), repetitions=1, hold_s=0.8, rest_s=0.7,
                           session_id="rt")
        rec = generate_session(tiny_profile, spec, seed=12).recording
        batch, _ = run_pipeline(rec, params)
        paced, _ = run_pipeline(replay_blocks(rec, 2000), params, realtime=True)
        assert len(batch) == len(paced)
        for a, b in zip(batch, paced):
            assert_array_equal(a.probabilities, b.probabilities)
            assert a.frame_timestamp_s == b.frame_timestamp_s

    def test_gap_resets_history_no_torn_frames(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        pipe = DecodePipeline(params)
        first = replay_recording.samples[:, :30000]
        preds = pipe.ingest(first, first_sample_index=0)
        n_before = len(preds)
        assert n_before > 0
        # skip 5000 samples: discontinuity must reset, not splice
        preds2 = pipe.ingest(replay_recording.samples[:, 35000:65000],
                             first_sample_index=35000)
        report = pipe.report()
        assert report.gap_events == 1
        # after the reset the pipeline needs a full warmup again
        assert preds2[0].frame_timestamp_s == pytest.approx(0.6)

    def test_nan_block_rejected(self, tiny_trained):
        params, _ = tiny_trained
        pipe = DecodePipeline(params)
        bad = np.full((4, 100), np.nan, dtype=np.float32)
        from nervedecode.errors import DataError

        with pytest.raises(DataError):
            pipe.ingest(bad)


class TestLatencyReport:
    def test_end_to_end_bounds_stage_sum(self, replay_recording, tiny_trained):
        from nervedecode.engine import SCHED_OVERHEAD_US

        params, _ = tiny_trained
        _, report = run_pipeline(replay_recording, params)
        assert report.frames > 0
        assert np.all(report.end_to_end_us >= report.feature_us + report.decode_us)
        # percentiles are not additive; allow the documented scheduling margin
        assert report.percentile("feature_us", 50) + report.percentile("decode_us", 50) \
            <= report.percentile("end_to_end_us", 50) + SCHED_OVERHEAD_US

    def test_summary_shape(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        _, report = run_pipeline(replay_recording, params)
        summary = report.summary()
        assert {"frames", "warmup_skips", "gap_events", "dropped", "over_budget",
                "feature_us", "decode_us", "end_to_end_us"} <= set(summary)
        assert summary["over_budget"]["decode"] == 0


class TestEngineConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = EngineConfig(prediction_rate_hz=25.0, channels=8, endpoint="127.0.0.1:9100",
                           model_path="model.ndm")
        path = tmp_path / "engine.ini"
        write_engine_config(cfg, path)
        back = load_engine_config(path)
        assert back.prediction_rate_hz == 25.0
        assert back.channels == 8
        assert back.endpoint == "127.0.0.1:9100"
        assert back.model_path == "model.ndm"
        assert back.window == cfg.window
        assert back.thresholds == cfg.thresholds

    def test_rate_bounds_enforced(self):
        with pytest.raises(ConfigError):
            EngineConfig(prediction_rate_hz=4.0)
        with pytest.raises(ConfigError):
            EngineConfig(prediction_rate_hz=51.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_engine_config(tmp_path / "nope.ini")

    def test_channel_mismatch_is_startup_error(self, tiny_trained):
        params, _ = tiny_trained
        with pytest.raises(ConfigError):
            DecodePipeline(params, EngineConfig(channels=16))


class TestDropOldestQueue:
    def test_drops_oldest_and_counts(self):
        q = DropOldestQueue(3)
        for i in range(5):
            q.push(i)
        assert q.dropped == 2
        assert list(q.drain()) == [2, 3, 4]


class TestServe:
    def _start_server(self, params, cfg, max_connections):
        stop = threading.Event()
        ready = {}
        event = threading.Event()

        def on_ready(addr):
            ready["addr"] = addr
            event.set()

        thread = threading.Thread(
            target=serve,
            args=(f"127.0.0.1:0", params, cfg),
            kwargs={"stop": stop, "max_connections": max_connections, "on_ready": on_ready},
            daemon=True)
        thread.start()
        assert event.wait(5.0), "server did not come up"
        host, port = ready["addr"]
        return f"{host}:{port}", stop, thread

    def test_loopback_equals_offline(self, replay_recording, tiny_trained, engine_cfg):
        params, _ = tiny_trained
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=1)
        try:
            got, latency = decode_over_socket(replay_recording, endpoint)
            want, report = run_pipeline(replay_recording, params, engine_cfg)
            assert len(got) == len(want)
            for msg, pred in zip(got, want):
                assert_array_equal(np.asarray(msg.probabilities),
                                   pred.probabilities.astype(np.float32))
                assert msg.timestamp_us == int(round(pred.frame_timestamp_s * 1e6))
            assert latency is not None
            assert latency.frames == report.frames
            assert latency.warmup_skips == report.warmup_skips
        finally:
            stop.set()
            thread.join(timeout=5.0)

    def test_garbage_gets_error_frame_and_server_survives(self, replay_recording,
                                                          tiny_trained, engine_cfg):
        import socket as socketlib

        params, _ = tiny_trained
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=2)
        try:
            host, port = parse_endpoint(endpoint)
            with socketlib.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b"\xde\xad\xbe\xef" * 8)
                sock.shutdown(socketlib.SHUT_WR)
                chunks = []
                while True:
                    data = sock.recv(4096)
                    if not data:
                        break
                    chunks.append(data)
            reader = wire.FrameReader()
            msgs = reader.feed(b"".join(chunks))
            assert len(msgs) == 1 and isinstance(msgs[0], wire.ErrorMsg)
            # second client gets a clean, independent session
            got, _ = decode_over_socket(replay_recording, endpoint)
            want, _ = run_pipeline(replay_recording, params, engine_cfg)
            assert len(got) == len(want)
        finally:
            stop.set()
            thread.join(timeout=5.0)

    def test_two_sequential_clients_no_state_bleed(self, replay_recording, tiny_trained,
                                                   engine_cfg):
        params, _ = tiny_trained
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=2)
        try:
            first, _ = decode_over_socket(replay_recording, endpoint)
            second, _ = decode_over_socket(replay_recording, endpoint)
            assert len(first) == len(second)
            for a, b in zip(first, second):
                assert a.probabilities == b.probabilities
                assert a.timestamp_us == b.timestamp_us
        finally:
            stop.set()
            thread.join(timeout=5.0)

    def test_endpoint_parsing(self):
        assert parse_endpoint("0.0.0.0:81") == ("0.0.0.0", 81)
        with pytest.raises(ConfigError):
            parse_endpoint("no-port")

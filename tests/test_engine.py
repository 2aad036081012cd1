import re
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_array_equal

from nervedecode.engine import (
    DecodePipeline, DropOldestQueue, EngineConfig, LatencyBudget, decode_over_socket,
    load_engine_config, parse_endpoint, replay_blocks, run_pipeline, serve,
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
    return EngineConfig()


class TestTickArithmetic:
    def test_ten_second_replay_at_ten_hz(self, tiny_profile, tiny_trained):
        params, _ = tiny_trained
        rng = np.random.default_rng(5)
        rec = Recording(RAW_SAMPLE_RATE_HZ,
                        rng.normal(0, 2.0, size=(4, 10 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        cfg = EngineConfig(prediction_rate_hz=10.0)
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
        preds, report = run_pipeline(rec, params, EngineConfig())
        assert report.warmup_skips == int(np.ceil(1.1 * 10.0))
        assert len(preds) == 101 - 11

    @pytest.mark.parametrize("rate_hz,num,den,ticks", [(5.1, 100_000, 51, 51),
                                                       (30.0, 1000, 3, 60)])
    def test_tick_fires_in_the_block_that_completes_it(self, tiny_trained, rate_hz, num,
                                                       den, ticks):
        """Cut the stream at every tick end, floor(m * 10 kHz / rate): each
        block then emits exactly its own tick, also where m * (fs / rate)
        rounds above the end sample (5.1 Hz: the 10.0 s tick, raw 100000)."""
        params, _ = tiny_trained
        pipe = DecodePipeline(params, EngineConfig(prediction_rate_hz=rate_hz))
        need = params.window.min_history_samples(5000)
        cuts = [m * num // den for m in range(ticks + 1)]
        samples = np.random.default_rng(8).normal(0, 2.0, size=(4, cuts[-1]))
        emitted = []
        for m in range(1, ticks + 1):
            preds = pipe.ingest(samples[:, cuts[m - 1]:cuts[m]])
            end = cuts[m] // 2
            assert [p.frame_timestamp_s for p in preds] == ([end / 5000] if end >= need else [])
            emitted += preds
        assert emitted[-1].frame_timestamp_s == (10.0 if rate_hz == 5.1 else 2.0)

    def test_predictions_threshold_their_probabilities(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        preds, _ = run_pipeline(replay_recording, params)
        for p in preds[:20]:
            bits = "".join("1" if v >= 0.5 else "0" for v in p.probabilities)
            assert p.label == bits


class TestTrainServeParity:
    @pytest.mark.parametrize("window_ms,rate_hz", [(100.0, 10.0), (100.0, 30.0),
                                                   (90.0, 10.0), (90.0, 30.0)],
                             ids=["100ms-10Hz", "100ms-30Hz", "90ms-10Hz", "90ms-30Hz"])
    def test_engine_input_equals_offline_frame(self, tiny_sessions, tiny_trained,
                                               monkeypatch, window_ms, rate_hz):
        """At every tick both paths share, the un-normalized tensor the engine
        feeds the model equals the offline training frame, bit for bit, also
        for a window that is not a whole number of steps."""
        import nervedecode.engine as engine_mod
        from nervedecode.dataset import session_frames
        from nervedecode.features import NormStats

        params = tiny_trained[0].copy()
        params.norm_stats = NormStats.identity(params.config.input_rows)
        params.window = replace(params.window, window_ms=window_ms)
        fed = []
        original = engine_mod.forward_batch

        def capture(x, *args, **kwargs):
            fed.append(np.array(x[0]))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "forward_batch", capture)
        session = tiny_sessions[0]
        cfg = EngineConfig(prediction_rate_hz=rate_hz)
        preds, _ = run_pipeline(session.recording, params, cfg)
        frames = session_frames(session, params.window)
        row = {int(t) * 5: i for i, t in enumerate(frames.t_ms)}  # 5 kHz samples
        assert len(fed) == len(preds) > 0
        shared = [(row[end], x) for pred, x in zip(preds, fed)
                  if (end := round(pred.frame_timestamp_s * 5000)) in row]
        # every 10 Hz tick lies on the 50 Hz frame grid, every third 30 Hz one
        assert len(shared) >= len(preds) // (3 if rate_hz == 30.0 else 1)
        for i, x in shared:
            assert_array_equal(frames.x[i], x.astype(np.float32))


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


VALID_INI = """[engine]
rate_hz = 25.0
endpoint = 127.0.0.1:9100
feature_budget_us = 900
decode_budget_us = 15000
"""


class TestEngineConfigFile:
    def test_reads_the_four_engine_keys(self, tmp_path):
        path = tmp_path / "engine.ini"
        path.write_text(VALID_INI)
        assert load_engine_config(path) == EngineConfig(
            prediction_rate_hz=25.0, endpoint="127.0.0.1:9100",
            budget=LatencyBudget(feature_us=900, decode_us=15000))

    def test_fields_are_what_a_checkpoint_does_not_know(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "prediction_rate_hz", "budget", "endpoint"]

    @pytest.mark.parametrize("extra,named", [
        ("[window]\nwindow_ms = 90\n", "[window]"),
        ("[thresholds]\nwamp = 0.5\n", "[thresholds]"),
        ("[band]\nlow_hz = 30\n", "[band]"),
        ("[DEFAULT]\nrate_hz = 20\n", "[DEFAULT]"),
        ("channels = 8\n", "[engine] channels"),
        ("model = m.ndm\n", "[engine] model"),
    ], ids=["window", "thresholds", "band", "default", "channels", "model"])
    def test_front_end_keys_are_refused(self, tmp_path, extra, named):
        """Each of these once set the front end, or looked as if it did; the
        checkpoint now does, so the file is refused with the key named."""
        path = tmp_path / "engine.ini"
        path.write_text(VALID_INI + extra)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_engine_config(path)

    @pytest.mark.parametrize("body", [
        b"rate_hz = 10\n",
        b"[engine]\nrate_hz = 10\nrate_hz = 20\n",
        b"\xff\xfe[engine]\n",
        b"[engine]\nrate_hz = fast\n",
        b"[engine]\nrate_hz = nan\n",
    ], ids=["no-header", "duplicate", "utf16-bom", "not-a-number", "nan"])
    def test_malformed_file_is_config_error(self, tmp_path, body):
        path = tmp_path / "engine.ini"
        path.write_bytes(body)
        with pytest.raises(ConfigError):
            load_engine_config(path)

    def test_percent_is_taken_literally(self, tmp_path):
        path = tmp_path / "engine.ini"
        path.write_text("[engine]\nendpoint = 127.0.0.1:%d\n")
        assert load_engine_config(path).endpoint == "127.0.0.1:%d"

    @given(st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, len(VALID_INI)), st.integers(0, len(VALID_INI)),
                  st.text(max_size=20)).map(
            lambda m: (VALID_INI[:m[0]] + m[2] + VALID_INI[m[1]:]).encode("utf-8", "replace")),
    ))
    def test_only_config_error_escapes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ini") / "engine.ini"
        path.write_bytes(data)
        try:
            load_engine_config(path)
        except ConfigError:
            pass

    def test_rate_bounds_enforced(self):
        with pytest.raises(ConfigError):
            EngineConfig(prediction_rate_hz=4.0)
        with pytest.raises(ConfigError):
            EngineConfig(prediction_rate_hz=51.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_engine_config(tmp_path / "nope.ini")

    def test_channel_mismatch_is_startup_error(self, tiny_trained):
        """A checkpoint header whose channel count disagrees with its
        network's input rows is refused before any sample is taken."""
        params = tiny_trained[0].copy()
        params.channels = 16  # the network was built for 4 x 14 rows
        with pytest.raises(ConfigError):
            DecodePipeline(params)


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

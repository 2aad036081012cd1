import re
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.dataset import Frames
from nervedecode.engine import (
    IDLE_TIMEOUT_S, DecodePipeline, EngineConfig, load_engine_config, parse_endpoint,
    replay_blocks, run_pipeline, serve,
)
from nervedecode.errors import ConfigError, NumericFault
from nervedecode.network import forward_batch
from nervedecode.sigproc import RAW_SAMPLE_RATE_HZ, Recording
from nervedecode.synthgen import SessionSpec, generate_session
from nervedecode import wire

from loopback import decode_over_socket
from oracles import identity_stats

# Tick timers nest (end-to-end wraps the stages), so per-frame end_to_end is
# always >= feature + decode; across percentiles the stage sum may exceed the
# end-to-end figure by at most this scheduling allowance.
SCHED_OVERHEAD_US = 1000.0


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

        window = FeatureWindowSpec()
        cfg = ModelConfig(input_rows=4 * 14, steps=50, conv_out=8, gru_hidden=8, fc_hidden=8)
        params = init_params(cfg, np.random.default_rng(0))
        params.norm_stats = identity_stats(4 * 14)
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


def _engine_columns(monkeypatch, recording, params, rate_hz):
    """(predictions, grid, {window end: un-normalized column the engine
    z-scores}, {window end: z-scored column its conv reads}) of a replay at
    `rate_hz`. Each column is z-scored once, at the first tick that reads it."""
    import nervedecode.engine as engine_mod

    raw, normalized, ticks = {}, {}, []
    take, conv_rows = engine_mod._StreamFront.take, engine_mod.conv_rows

    def capture_take(front, end):
        first, cols = take(front, end)
        for j in range(cols.shape[1]):
            assert first + j * front.grid.step not in raw
            raw[first + j * front.grid.step] = cols[:, j].copy()
        ticks.append((end, front.grid.step))
        return first, cols

    def capture_conv_rows(z, taps, p):
        end, step = ticks[-1]
        for j in np.unique(taps[taps >= 0]).tolist():  # z's last column ends at the tick
            e = end - (z.shape[1] - 1 - j) * step
            if e in normalized:
                assert_array_equal(normalized[e], z[:, j])
            normalized[e] = z[:, j].copy()
        return conv_rows(z, taps, p)

    monkeypatch.setattr(engine_mod._StreamFront, "take", capture_take)
    monkeypatch.setattr(engine_mod, "conv_rows", capture_conv_rows)
    pipe = DecodePipeline(params, EngineConfig(prediction_rate_hz=rate_hz))
    preds = pipe.ingest(recording.samples)
    return preds, pipe._front.grid, raw, normalized


def _tick_frames(preds, grid, columns):
    """(tick end, [rows x steps] frame of each tick from `columns`)."""
    ends = [round(p.frame_timestamp_s * grid.fs) for p in preds]
    return [(end, np.stack([columns[e] for e in grid.window_ends(end).tolist()], axis=1))
            for end in ends]


class TestTrainServeParity:
    @pytest.mark.parametrize("window_ms,rate_hz", [(100.0, 10.0), (100.0, 30.0),
                                                   (90.0, 10.0), (90.0, 30.0)],
                             ids=["100ms-10Hz", "100ms-30Hz", "90ms-10Hz", "90ms-30Hz"])
    def test_engine_input_equals_offline_frame(self, tiny_sessions, tiny_trained,
                                               monkeypatch, window_ms, rate_hz):
        """Offline frames at the engine's rate hold the un-normalized columns
        the engine z-scores, one frame per tick and bit for bit, also for a
        window that is not a whole number of steps and for ticks between
        window steps. At every tick the engine shares with the default 50 Hz
        training frames, its columns equal that training frame's."""
        from nervedecode.dataset import session_frames

        params = tiny_trained[0].copy()
        params.window = replace(params.window, window_ms=window_ms)
        session = tiny_sessions[0]
        preds, grid, raw, _ = _engine_columns(monkeypatch, session.recording, params, rate_hz)
        fed = _tick_frames(preds, grid, raw)
        frames = session_frames(session, params.window, frame_rate_hz=rate_hz)
        assert frames.x.shape[0] == len(fed) == len(preds) > 0
        ends = np.array([end for end, _ in fed])  # 5 kHz samples
        assert_array_equal(frames.t_ms, ends // 5)
        for i, (_, x_engine) in enumerate(fed):
            assert_array_equal(frames.store[:, frames.pos[i]], x_engine)

        train = session_frames(session, params.window)
        row = {int(t) * 5: i for i, t in enumerate(train.t_ms)}  # 5 kHz samples
        shared = [(row[end], x) for end, x in fed if end in row]
        # every 10 Hz tick lies on the 50 Hz frame grid, every third 30 Hz one
        assert len(shared) >= len(preds) // (3 if rate_hz == 30.0 else 1) > 0
        # 30 Hz columns are summed over one-sample blocks, 50 Hz ones over
        # 25-sample blocks, so the two agree to rounding (<= 2e-13)
        cast = np.float32 if rate_hz == 30.0 else np.float64
        for i, x in shared:
            assert_array_equal(train.x[i].astype(cast), x.astype(cast))

    @pytest.mark.parametrize("window_ms", [100.0, 90.0], ids=["100ms", "90ms"])
    def test_engine_input_equals_z_scored_training_frame(self, tiny_sessions, tiny_trained,
                                                         monkeypatch, window_ms):
        """With the stats `build_training_data` fits on the 50 Hz training
        frames, the z-scored columns a 10 Hz engine's conv reads for each
        tick equal that tick's z-scored training frame, bit for bit."""
        from nervedecode.dataset import build_training_data, session_frames

        session = tiny_sessions[0]
        params = tiny_trained[0].copy()
        params.window = replace(params.window, window_ms=window_ms)
        train = session_frames(session, params.window)
        data = build_training_data(train, None)
        params.norm_stats = data.stats
        preds, grid, _, normalized = _engine_columns(monkeypatch, session.recording,
                                                     params, 10.0)
        row = {int(t) * 5: i for i, t in enumerate(train.t_ms)}  # 5 kHz samples
        fed = _tick_frames(preds, grid, normalized)
        assert len(fed) == len(preds) > 0 and all(end in row for end, _ in fed)
        for end, x in fed:
            assert x.dtype == np.float64
            assert_array_equal(data.x_train[row[end]], x)

    def test_reloaded_model_input_equals_z_scored_training_frame(self, tiny_sessions,
                                                                 tiny_trained, monkeypatch):
        """A model saved with the stats `build_training_data` fits, and loaded
        again, feeds its conv the z-scored training frames bit for bit: the
        training frames are z-scored with the stats rounded to the float32
        a checkpoint stores them in."""
        from nervedecode.checkpoint import load_checkpoint, save_checkpoint
        from nervedecode.dataset import build_training_data, session_frames

        session = tiny_sessions[0]
        params = tiny_trained[0].copy()
        train = session_frames(session, params.window)
        data = build_training_data(train, None)
        params.norm_stats = data.stats
        reloaded = load_checkpoint(save_checkpoint(params))
        preds, grid, _, normalized = _engine_columns(monkeypatch, session.recording,
                                                     reloaded, 10.0)
        row = {int(t) * 5: i for i, t in enumerate(train.t_ms)}  # 5 kHz samples
        fed = _tick_frames(preds, grid, normalized)
        assert len(fed) == len(preds) > 0
        for end, x in fed:
            assert_array_equal(data.x_train[row[end]], x)

    def test_odd_length_stream_has_one_frame_per_tick(self, tiny_sessions, tiny_trained):
        """On 19,999 raw samples the last 50 Hz tick (raw sample 20,000)
        never falls due, offline or in the engine."""
        from nervedecode.dataset import session_frames

        params = tiny_trained[0]
        session = tiny_sessions[0]
        rec = Recording(RAW_SAMPLE_RATE_HZ, session.recording.samples[:, :19_999])
        frames = session_frames(replace(session, recording=rec), params.window,
                                frame_rate_hz=50.0)
        preds, _ = run_pipeline(rec, params, EngineConfig(prediction_rate_hz=50.0))
        assert frames.x.shape[0] == len(preds) == 71
        assert frames.t_ms[-1] == round(preds[-1].frame_timestamp_s * 1000) == 1980


class TestModeEquivalence:
    def test_block_size_does_not_change_probabilities(self, replay_recording, tiny_trained):
        """Also at 30 Hz, whose tick ends fall in three residue classes of
        the window step, each with its own frames in flight."""
        params, _ = tiny_trained
        for cfg in (EngineConfig(), EngineConfig(prediction_rate_hz=30.0)):
            base, _ = run_pipeline(replay_recording, params, cfg)
            for block in (512, 1000, 7919):
                other, _ = run_pipeline(replay_blocks(replay_recording, block), params, cfg)
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
        # ticks 0.0-0.5 s lack 0.58 s of history, before and after the gap
        assert report.warmup_skips == 2 * 6

    def test_nan_block_rejected(self, tiny_trained):
        params, _ = tiny_trained
        pipe = DecodePipeline(params)
        bad = np.full((4, 100), np.nan, dtype=np.float32)
        from nervedecode.errors import DataError

        with pytest.raises(DataError):
            pipe.ingest(bad)


class TestLatencyReport:
    def test_end_to_end_bounds_stage_sum(self, replay_recording, tiny_trained):
        params, _ = tiny_trained
        _, report = run_pipeline(replay_recording, params)
        assert report.frames > 0
        assert np.all(report.end_to_end_us >= report.feature_us + report.decode_us)
        # percentiles are not additive; allow the documented scheduling margin
        assert report.percentile("feature_us", 50) + report.percentile("decode_us", 50) \
            <= report.percentile("end_to_end_us", 50) + SCHED_OVERHEAD_US

    def test_column_work_counts_at_the_first_tick_of_its_step(self, replay_recording,
                                                              tiny_trained):
        """At 50 Hz each 1000-sample step completes up to 5 ticks: the first
        carries the step's column work, the others none."""
        params, _ = tiny_trained
        preds, report = run_pipeline(replay_blocks(replay_recording, 1000), params,
                                     EngineConfig(prediction_rate_hz=50.0))
        step = [-(-round(p.frame_timestamp_s * RAW_SAMPLE_RATE_HZ) // 1000) for p in preds]
        first = np.diff(step, prepend=-1) > 0
        assert 0 < first.sum() < len(preds)
        assert np.all(report.feature_us[first] > 0) and np.all(report.feature_us[~first] == 0)


class TestInFlightDecode:
    """The engine decodes per column, with one GRU state per frame in
    flight; each output is `forward_batch` on the tick's z-scored offline
    frame, up to rounding."""

    @staticmethod
    def _offline(session, params, rate_hz):
        from nervedecode.dataset import session_frames

        frames = session_frames(session, params.window, frame_rate_hz=rate_hz)
        x = Frames(params.norm_stats.apply(frames.store), frames.pos)
        return frames.t_ms, forward_batch(x[:], params)

    @pytest.mark.parametrize("window_ms", [100.0, 90.0], ids=["100ms", "90ms"])
    @pytest.mark.parametrize("rate_hz", [5.1, 6.0, 10.0, 30.0, 50.0])
    def test_equals_forward_batch(self, tiny_sessions, tiny_trained, rate_hz, window_ms):
        """At 6 Hz every third tick shares a residue class and the model's
        0.5 s frames abut: a class's next frame starts right after its last
        one ends, with none in flight."""
        params = tiny_trained[0].copy()
        params.window = replace(params.window, window_ms=window_ms)
        rec = Recording(RAW_SAMPLE_RATE_HZ, tiny_sessions[0].recording.samples[:, :120_000])
        session = replace(tiny_sessions[0], recording=rec)
        t_ms, want = self._offline(session, params, rate_hz)
        preds, _ = run_pipeline(rec, params, EngineConfig(prediction_rate_hz=rate_hz))
        assert_array_equal([round(p.frame_timestamp_s * 5000) // 5 for p in preds], t_ms)
        assert_allclose(np.stack([p.probabilities for p in preds]), want, rtol=0, atol=1e-12)

    def test_equals_forward_batch_across_a_gap(self, tiny_sessions, tiny_trained):
        """After a gap the frames in flight are dropped with the history;
        each side of the gap decodes as its own recording."""
        params = tiny_trained[0]
        samples = tiny_sessions[0].recording.samples
        pipe = DecodePipeline(params)
        before = pipe.ingest(samples[:, :40_000], first_sample_index=0)
        after = pipe.ingest(samples[:, 45_000:90_000], first_sample_index=45_000)
        assert pipe.report().gap_events == 1
        for preds, part in ((before, samples[:, :40_000]), (after, samples[:, 45_000:90_000])):
            rec = Recording(RAW_SAMPLE_RATE_HZ, part)
            _, want = self._offline(replace(tiny_sessions[0], recording=rec), params, 10.0)
            assert len(preds) == len(want) > 0
            assert_allclose(np.stack([p.probabilities for p in preds]), want,
                            rtol=0, atol=1e-12)

    def test_nan_in_recurrent_weights_is_traced_to_the_hidden_state(self, replay_recording,
                                                                     tiny_trained):
        params = tiny_trained[0].copy()
        params.tensors["gru_uh_c"][0, 0] = np.nan
        with pytest.raises(NumericFault, match="'gru_hidden'"):
            DecodePipeline(params).ingest(replay_recording.samples[:, :12_000])


VALID_INI = """[engine]
rate_hz = 25.0
endpoint = 127.0.0.1:9100
"""
# ports `parse_endpoint` refuses: out of range, a non-ASCII digit that
# `str.isdigit` accepts, a sign, none at all
BAD_PORTS = ["99999", "\u00b2", "-1", ""]
BAD_PORT_IDS = ["too-large", "superscript-two", "negative", "empty"]


class TestEngineConfigFile:
    def test_reads_the_two_engine_keys(self, tmp_path):
        path = tmp_path / "engine.ini"
        path.write_text(VALID_INI)
        assert load_engine_config(path) == EngineConfig(
            prediction_rate_hz=25.0, endpoint="127.0.0.1:9100")

    def test_fields_are_what_a_checkpoint_does_not_know(self):
        assert [f.name for f in fields(EngineConfig)] == ["prediction_rate_hz", "endpoint"]

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

    @pytest.mark.parametrize("key", ["feature_budget_us", "decode_budget_us"])
    def test_budget_keys_are_refused(self, tmp_path, key):
        """No program reads a latency budget, so a file that sets one is
        refused with the key named."""
        path = tmp_path / "engine.ini"
        path.write_text(VALID_INI + f"{key} = 900\n")
        with pytest.raises(ConfigError, match=re.escape(f"[engine] {key}")):
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
        path.write_text("[engine]\nendpoint = %d:9100\n")
        assert load_engine_config(path).endpoint == "%d:9100"

    @pytest.mark.parametrize("port", BAD_PORTS, ids=BAD_PORT_IDS)
    def test_bad_endpoint_port_is_config_error(self, tmp_path, port):
        """Refused when the file is read, not when the service binds."""
        path = tmp_path / "engine.ini"
        path.write_text(f"[engine]\nendpoint = 127.0.0.1:{port}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="0-65535"):
            load_engine_config(path)

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

    @pytest.mark.parametrize("rate_hz", [10.0, 50.0])
    def test_every_prediction_is_served(self, tiny_trained, rate_hz):
        """One sample-block frame may complete many ticks (a u16 block of
        65,535 samples spans about 65 ticks at 10 Hz and 327 at 50 Hz); the
        service sends each of them, in order, as offline replay decodes them."""
        params, _ = tiny_trained
        cfg = EngineConfig(prediction_rate_hz=rate_hz)
        rng = np.random.default_rng(14)
        rec = Recording(RAW_SAMPLE_RATE_HZ,
                        rng.normal(0, 2.0, size=(4, 14 * RAW_SAMPLE_RATE_HZ)).astype(np.float32))
        endpoint, stop, thread = self._start_server(params, cfg, max_connections=1)
        try:
            got, latency = decode_over_socket(rec, endpoint, block_samples=65_535)
            want, _ = run_pipeline(rec, params, cfg)
            assert len(got) == len(want)
            assert_array_equal([m.probabilities for m in got],
                               np.stack([p.probabilities for p in want]).astype(np.float32))
            assert [m.timestamp_us for m in got] == [
                int(round(p.frame_timestamp_s * 1e6)) for p in want]
            assert latency is not None
            assert latency.frames == len(want) and latency.dropped == 0
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

    def test_silent_client_does_not_block_the_next(self, replay_recording, tiny_trained,
                                                   engine_cfg):
        """A client that connects and sends nothing gets the latency frame and
        a close after IDLE_TIMEOUT_S; the client queued behind it is then
        served in full."""
        import socket as socketlib
        import time

        params, _ = tiny_trained
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=2)
        try:
            host, port = parse_endpoint(endpoint)
            with socketlib.create_connection((host, port), timeout=30.0) as silent:
                started = time.monotonic()
                got, latency = decode_over_socket(replay_recording, endpoint)
                assert time.monotonic() - started >= IDLE_TIMEOUT_S
                chunks = []
                while data := silent.recv(4096):
                    chunks.append(data)
            msgs = wire.FrameReader().feed(b"".join(chunks))
            assert len(msgs) == 1 and isinstance(msgs[0], wire.LatencyMsg)
            assert msgs[0].frames == 0
            want, report = run_pipeline(replay_recording, params, engine_cfg)
            assert_array_equal([m.probabilities for m in got],
                               np.stack([p.probabilities for p in want]).astype(np.float32))
            assert latency is not None and latency.frames == report.frames
        finally:
            stop.set()
            thread.join(timeout=5.0)

    def test_trickling_client_does_not_block_the_next(self, replay_recording, tiny_trained,
                                                      engine_cfg):
        """A client that sends a valid frame one byte per second completes no
        frame, so it gets the latency frame and a close after IDLE_TIMEOUT_S;
        the client queued behind it is then served in full."""
        import socket as socketlib
        import time

        params, _ = tiny_trained
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=2)
        host, port = parse_endpoint(endpoint)
        frame = wire.encode_frame(wire.SampleBlockMsg(0, np.zeros((4, 40), np.float32)))
        connected, chunks, sent = threading.Event(), [], []

        def trickle():
            with socketlib.create_connection((host, port), timeout=1.0) as sock:
                connected.set()
                try:
                    for byte in frame:
                        sock.sendall(bytes([byte]))
                        sent.append(byte)
                        try:
                            data = sock.recv(4096)  # waits a second for the service
                        except socketlib.timeout:
                            continue
                        while data:
                            chunks.append(data)
                            data = sock.recv(4096)
                        return
                except ConnectionResetError:
                    pass  # a byte sent as the service closed; what it sent is kept

        trickler = threading.Thread(target=trickle, daemon=True)
        try:
            trickler.start()
            assert connected.wait(5.0)
            started = time.monotonic()
            got, latency = decode_over_socket(replay_recording, endpoint)
            assert time.monotonic() - started >= IDLE_TIMEOUT_S
            trickler.join(timeout=5.0)
            assert len(sent) < len(frame)
            msgs = wire.FrameReader().feed(b"".join(chunks))
            assert len(msgs) == 1 and isinstance(msgs[0], wire.LatencyMsg)
            assert msgs[0].frames == 0
            want, report = run_pipeline(replay_recording, params, engine_cfg)
            assert_array_equal([m.probabilities for m in got],
                               np.stack([p.probabilities for p in want]).astype(np.float32))
            assert latency is not None and latency.frames == report.frames
        finally:
            stop.set()
            thread.join(timeout=5.0)

    @staticmethod
    def _error_of_session(endpoint, recording):
        """The frames a session that sends 1.2 s of `recording` gets back."""
        import socket as socketlib

        host, port = parse_endpoint(endpoint)
        block = wire.encode_frame(wire.SampleBlockMsg(
            0, np.ascontiguousarray(recording.samples[:, :12_000], dtype=np.float32)))
        with socketlib.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(block)
            sock.shutdown(socketlib.SHUT_WR)
            chunks = []
            while data := sock.recv(4096):
                chunks.append(data)
        return wire.FrameReader().feed(b"".join(chunks))

    def test_numeric_fault_ends_the_session_not_the_service(self, replay_recording,
                                                            tiny_trained, engine_cfg):
        """A model that yields a non-finite value answers each client with an
        error frame (code 3) and a close, and keeps serving."""
        params = tiny_trained[0].copy()
        params.tensors["fc2_b"][0] = np.nan
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=None)
        try:
            for _ in range(2):
                msgs = self._error_of_session(endpoint, replay_recording)
                assert len(msgs) == 1 and isinstance(msgs[0], wire.ErrorMsg)
                assert msgs[0].code == 3 and "non-finite" in msgs[0].message
            assert thread.is_alive()
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_nan_in_recurrent_weights_ends_the_session_with_code_3(self, replay_recording,
                                                                   tiny_trained, engine_cfg):
        """The fault is traced to its layer across the wire too."""
        params = tiny_trained[0].copy()
        params.tensors["gru_uh_c"][0, 0] = np.nan
        endpoint, stop, thread = self._start_server(params, engine_cfg, max_connections=1)
        try:
            msgs = self._error_of_session(endpoint, replay_recording)
            assert len(msgs) == 1 and isinstance(msgs[0], wire.ErrorMsg)
            assert msgs[0].code == 3 and "'gru_hidden'" in msgs[0].message
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_endpoint_parsing(self):
        assert parse_endpoint("0.0.0.0:81") == ("0.0.0.0", 81)
        assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)
        with pytest.raises(ConfigError):
            parse_endpoint("no-port")

    @pytest.mark.parametrize("port", BAD_PORTS, ids=BAD_PORT_IDS)
    def test_port_outside_ascii_digits_or_range_is_config_error(self, port):
        with pytest.raises(ConfigError, match="0-65535"):
            parse_endpoint(f"127.0.0.1:{port}")

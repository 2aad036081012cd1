"""Real-time streaming pipeline: ingest raw samples, decode at a fixed rate.

`FrontEnd` turns raw samples into decoder inputs: each ingest step filters
and decimates its samples and computes the feature columns whose windows end
inside it, for the ticks still to come, and a tick stacks its columns into
the [rows x steps] tensor. Offline training frames (`dataset.session_frames`)
run the same class over a whole recording and keep each column once. Per
prediction tick, `DecodePipeline` z-scores the tensor, runs the eval-mode
forward pass, thresholds, and emits a Prediction with stage latencies.

Ticks are derived from the sample count, never the wall clock, so offline
replay, paced real-time runs, and the loopback service produce identical
prediction sequences for identical inputs. `features.TickGrid` is the clock:
tick m fires as soon as floor(m * 10 kHz / rate) raw samples have been
ingested, computed in exact integers, and its windows end at its end sample
and at every step before it.
Ticks whose history is still shorter than history_s + window_ms are skipped
and counted.

The front end is the checkpoint's: the channel count and window geometry are
read from `ModelParams`, while the feature thresholds (`features.THRESHOLDS`)
and the band-pass (`sigproc`) are constants, so a served model sees the
features it was trained on. `EngineConfig` holds only what a checkpoint does
not know: the prediction rate and the service endpoint.

The socket service sends each prediction frame as soon as `ingest` returns
it, so a session delivers every prediction the pipeline decodes, in order,
followed by the latency frame. A session also ends after `IDLE_TIMEOUT_S`
without a whole frame from its client, so neither a silent client nor one
that trickles bytes can hold the service. A session whose input or model
fails (a malformed frame, a bad sample block, a non-finite network value)
gets an error frame and a close; the service goes on with the next client.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
import socket
import threading
import time

import numpy as np

from .errors import ConfigError, DataError, FrameError, NumericFault
from .features import NUM_FEATURES, BlockSums, FeatureWindowSpec, TickGrid, window_features
from .gestures import gesture_to_mask
from .network import ModelParams, Prediction, forward_batch, threshold
from .sigproc import (
    DECIMATION, RAW_SAMPLE_RATE_HZ, Recording, StreamingBandpass, StreamingDecimator,
)
from . import wire

_INGEST_CHUNK_RAW = 1000  # raw samples processed per internal step (100 ms)
_PLAN_SAMPLES = 5000      # decimated samples whose column ends are listed at once (1 s)
# A client that completes no frame for this long is gone: the service takes
# one client at a time, so a silent or trickling one would hold it until
# shutdown.
IDLE_TIMEOUT_S = 3.0


@dataclass(frozen=True)
class EngineConfig:
    """What a serving run sets that a checkpoint does not know. The channel
    count and window are the model's own (`ModelParams`)."""

    prediction_rate_hz: float = 10.0
    endpoint: str = "127.0.0.1:7340"

    def __post_init__(self):
        if not 5.0 <= self.prediction_rate_hz <= 50.0:
            raise ConfigError(
                f"prediction_rate_hz must lie in [5, 50], got {self.prediction_rate_hz}")

    @staticmethod
    def for_params(params: ModelParams, **overrides) -> "EngineConfig":
        """`EngineConfig(**overrides)`; `params` is not read. Kept only because
        perfbench/server.py calls it."""
        return EngineConfig(**overrides)


_INI_KEYS = ("rate_hz", "endpoint")


def load_engine_config(path) -> EngineConfig:
    """Engine configuration file: INI with one [engine] section holding
    rate_hz and endpoint. Any other section or key is refused, so an old file
    that set the front end (channels, [window], [thresholds]) or a latency
    budget fails instead of being ignored."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        if not ini.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read engine config {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed engine config {path}: {exc}") from exc
    unknown = [f"[{s}]" for s in ini.sections() if s != "engine"]
    if ini.defaults():
        unknown.append(f"[{ini.default_section}]")
    eng = ini["engine"] if ini.has_section("engine") else {}
    unknown += [f"[engine] {k}" for k in eng if k not in _INI_KEYS]
    if unknown:
        raise ConfigError(f"engine config {path}: unknown {', '.join(unknown)}; [engine] "
                          "sets only rate_hz and endpoint, the channel count and window "
                          "come from the checkpoint and the feature thresholds are fixed")
    try:
        return EngineConfig(
            prediction_rate_hz=float(eng.get("rate_hz", 10.0)),
            endpoint=eng.get("endpoint", "127.0.0.1:7340"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad engine config value: {exc}") from exc


@dataclass
class LatencyReport:
    feature_us: np.ndarray
    decode_us: np.ndarray
    end_to_end_us: np.ndarray
    warmup_skips: int
    gap_events: int

    @property
    def frames(self) -> int:
        return int(self.feature_us.size)

    def percentile(self, which: str, q: float) -> float:
        arr = getattr(self, which)
        return float(np.percentile(arr, q)) if arr.size else 0.0


class FrontEnd:
    """Raw 10 kHz samples -> decoder inputs, tick by tick.

    Owns the band-pass, the decimator, the `TickGrid` clock, the feature
    kernel's block sums and the store of finished feature columns. Each
    internal step filters and decimates its samples and computes the columns
    whose windows end inside it and that some tick uses. A column is stored
    as its float64 [channels*14] decoder rows in channel-major order, so a
    tick's tensor is one stack of its columns. The streaming engine runs one
    per stretch of gap-free stream. Offline frames run one over a whole
    recording that hands each finished column on once (`_keep`) instead of
    stacking ticks, so both see the same inputs, in the same precision, at
    the same tick.
    Single-owner.
    """

    def __init__(self, channels: int, window: FeatureWindowSpec, rate_hz: float):
        self.grid = TickGrid(window, rate_hz)
        self._filter = StreamingBandpass(channels, RAW_SAMPLE_RATE_HZ)
        self._decim = StreamingDecimator(DECIMATION)
        self._sums = BlockSums(channels, self.grid.block)  # the decimated stream
        self._planned = np.empty(0, dtype=np.int64)  # column ends still to fill, ascending
        self._planned_to = 0
        self._columns: dict[int, np.ndarray] = {}  # [channels*14] rows by absolute window end
        self.raw_count = 0
        self._tick = 0
        self.warmup_skips = 0

    def push(self, block: np.ndarray):
        """Take in a [channels x n] block of raw samples; yields the end
        (decimated sample, exclusive) of each warm tick it completes, in
        order, as soon as the step holding the tick's last sample is done.
        Ticks whose history is still too short are counted in `warmup_skips`."""
        grid = self.grid
        for start in range(0, block.shape[1], _INGEST_CHUNK_RAW):
            chunk = np.asarray(block[:, start:start + _INGEST_CHUNK_RAW], dtype=np.float64)
            self._fill_columns(self._decim.process(self._filter.process(chunk)))
            self.raw_count += chunk.shape[1]
            while grid.tick_end_raw(self._tick) <= self.raw_count:
                end = grid.tick_end(self._tick)
                self._tick += 1
                if end < grid.need:
                    self.warmup_skips += 1
                else:
                    yield end

    def _fill_columns(self, block: np.ndarray) -> None:
        """Take in a decimated block and compute the feature columns whose
        windows end inside it and that some tick uses; the kernel folds the
        samples into block sums only then."""
        self._sums.append(block)
        count = self._sums.count
        if count > self._planned_to:
            hi = count + _PLAN_SAMPLES
            self._planned = np.concatenate(
                [self._planned, self.grid.columns_between(self._planned_to, hi)])
            self._planned_to = hi
        due = int(np.searchsorted(self._planned, count, side="right"))
        ends, self._planned = self._planned[:due], self._planned[due:]
        if ends.size:
            feats = window_features(self._sums, ends, self.grid.win)  # [C, ends, 14]
            rows = feats.swapaxes(0, 1).reshape(ends.size, -1)        # [ends, C*14]
            self._keep(ends, rows)

    def _keep(self, ends: np.ndarray, rows: np.ndarray) -> None:
        """Store finished columns, ascending by window end, until `frame`
        has used them."""
        self._columns.update(zip(ends.tolist(), rows))

    def frame(self, end: int) -> np.ndarray:
        """The [rows x steps] decoder input of the tick that ends at `end`.
        Frees the columns no later tick uses."""
        ends = self.grid.window_ends(end).tolist()
        tensor = np.stack([self._columns[e] for e in ends], axis=1)
        # later ticks end later, so none of them uses this tick's oldest column
        for stale in [e for e in self._columns if e <= ends[0]]:
            del self._columns[stale]
        return tensor


class DecodePipeline:
    """Single-session streaming decoder. Single-owner; feed with ingest()."""

    def __init__(self, params: ModelParams, cfg: EngineConfig = EngineConfig()):
        if params.norm_stats is None:
            raise ConfigError("model has no normalization stats; train it first")
        # the checkpoint header comes from outside the program: its network
        # shape must fit the front end it names
        rows = params.channels * NUM_FEATURES
        if params.config.input_rows != rows or params.config.steps != params.window.steps:
            raise ConfigError(
                f"model shape [{params.config.input_rows} x {params.config.steps}] does not "
                f"match its frontend [{rows} x {params.window.steps}] "
                f"({params.channels} channels)")
        self.params = params
        self._rate_hz = cfg.prediction_rate_hz
        self._front = self._new_front()
        self.gap_events = 0
        self._lat_feature: list[float] = []
        self._lat_decode: list[float] = []
        self._lat_e2e: list[float] = []

    def _new_front(self) -> FrontEnd:
        """Fresh filter state, history and sample clock."""
        return FrontEnd(self.params.channels, self.params.window, self._rate_hz)

    # -- ingest ------------------------------------------------------------

    def ingest(self, block: np.ndarray, first_sample_index: int | None = None) -> list[Prediction]:
        """Feed a [channels x n] block of raw 10 kHz samples; returns the
        predictions whose ticks completed inside this block."""
        block = np.asarray(block)
        channels = self.params.channels
        if block.ndim != 2 or block.shape[0] != channels:
            raise DataError(f"expected [{channels} x n] block, got {block.shape}")
        if not np.all(np.isfinite(block)):
            raise DataError("sample block contains non-finite values")
        if first_sample_index is not None and first_sample_index != self._front.raw_count:
            self._note_gap()
        return [self._predict_at(end) for end in self._front.push(block)]

    def _note_gap(self) -> None:
        """Source discontinuity: drop history so no tensor spans the gap."""
        self.gap_events += 1
        skips = self._front.warmup_skips  # counted over the whole session
        self._front = self._new_front()
        self._front.warmup_skips = skips

    def _predict_at(self, end: int) -> Prediction:
        t0 = time.perf_counter_ns()
        tensor = self._front.frame(end)
        t1 = time.perf_counter_ns()
        normalized = self.params.norm_stats.apply(tensor)
        probs = forward_batch(normalized[None], self.params, train=False)[0]
        label = threshold(probs)
        t2 = time.perf_counter_ns()

        pred = Prediction(
            probabilities=probs, label=label,
            frame_timestamp_s=end / self._front.grid.fs,
            feature_us=(t1 - t0) / 1000.0, decode_us=(t2 - t1) / 1000.0,
        )
        self._lat_feature.append(pred.feature_us)
        self._lat_decode.append(pred.decode_us)
        self._lat_e2e.append((time.perf_counter_ns() - t0) / 1000.0)
        return pred

    def report(self) -> LatencyReport:
        return LatencyReport(
            np.asarray(self._lat_feature), np.asarray(self._lat_decode),
            np.asarray(self._lat_e2e), self._front.warmup_skips, self.gap_events,
        )


def replay_blocks(recording: Recording, block_samples: int = 4096):
    """Split a recording into ingest blocks (batch replay runs unpaced)."""
    for start in range(0, recording.n_samples, block_samples):
        yield recording.samples[:, start:start + block_samples]


def run_pipeline(source, params: ModelParams, cfg: EngineConfig = EngineConfig(),
                 realtime: bool = False) -> tuple[list[Prediction], LatencyReport]:
    """Drive a pipeline from a Recording or an iterable of sample blocks.

    With realtime=True the feed is paced to the sample clock; results are
    identical either way because ticks derive from sample counts.
    """
    pipe = DecodePipeline(params, cfg)
    if isinstance(source, Recording):
        if source.sample_rate_hz != RAW_SAMPLE_RATE_HZ:
            raise ConfigError(f"pipeline ingests raw {RAW_SAMPLE_RATE_HZ} Hz signal, "
                              f"got {source.sample_rate_hz}")
        source = replay_blocks(source)
    preds: list[Prediction] = []
    started = time.perf_counter()
    fed = 0
    for block in source:
        if realtime:
            due = started + fed / RAW_SAMPLE_RATE_HZ
            lag = due - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
        preds.extend(pipe.ingest(block))
        fed += np.asarray(block).shape[1]
    return preds, pipe.report()


# ---------------------------------------------------------------------------
# Socket service: one decoding session per connection.
# ---------------------------------------------------------------------------

def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)


def _prediction_msg(pred: Prediction) -> wire.PredictionMsg:
    return wire.PredictionMsg(
        timestamp_us=int(round(pred.frame_timestamp_s * 1e6)),
        probabilities=tuple(float(p) for p in pred.probabilities),
        mask=gesture_to_mask(pred.label),
        feature_us=int(pred.feature_us), decode_us=int(pred.decode_us),
    )


def _latency_msg(report: LatencyReport) -> wire.LatencyMsg:
    pct = report.percentile
    return wire.LatencyMsg(
        timestamp_us=int(time.time() * 1e6), frames=report.frames,
        warmup_skips=report.warmup_skips, gap_events=report.gap_events,
        dropped=0,
        feature_p50_us=int(pct("feature_us", 50)), feature_p95_us=int(pct("feature_us", 95)),
        feature_max_us=int(pct("feature_us", 100)),
        decode_p50_us=int(pct("decode_us", 50)), decode_p95_us=int(pct("decode_us", 95)),
        decode_max_us=int(pct("decode_us", 100)),
        end_to_end_p50_us=int(pct("end_to_end_us", 50)),
        end_to_end_p95_us=int(pct("end_to_end_us", 95)),
        end_to_end_max_us=int(pct("end_to_end_us", 100)),
    )


def _serve_session(conn: socket.socket, params: ModelParams, cfg: EngineConfig,
                   stop: threading.Event) -> None:
    """Decode one connection. It ends at end of stream, or once the client has
    completed no frame for IDLE_TIMEOUT_S, with the latency frame and a close;
    a failure ends it with an error frame (code 1: malformed frame, 2: bad
    input or configuration, 3: non-finite value in the network) and a close."""
    pipe = DecodePipeline(params, cfg)
    reader = wire.FrameReader()
    conn.settimeout(0.1)
    try:
        idle_since = time.monotonic()
        while not stop.is_set() and time.monotonic() - idle_since < IDLE_TIMEOUT_S:
            try:
                data = conn.recv(1 << 16)
            except socket.timeout:
                continue
            if not data:
                break
            msgs = reader.feed(data)
            for msg in msgs:
                if isinstance(msg, wire.SampleBlockMsg):
                    for pred in pipe.ingest(msg.samples, msg.first_sample_index):
                        conn.sendall(wire.encode_frame(_prediction_msg(pred)))
                # the service decodes sample blocks; other frame types are ignored
            if msgs:
                idle_since = time.monotonic()
        conn.sendall(wire.encode_frame(_latency_msg(pipe.report())))
    except (FrameError, DataError, ConfigError, NumericFault) as exc:
        code = 1 if isinstance(exc, FrameError) else 3 if isinstance(exc, NumericFault) else 2
        try:
            conn.sendall(wire.encode_frame(wire.ErrorMsg(code, str(exc))))
        except OSError:
            pass
    except OSError:
        pass
    finally:
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.close()


def serve(endpoint: str, params: ModelParams, cfg: EngineConfig = EngineConfig(),
          stop: threading.Event | None = None, max_connections: int | None = None,
          on_ready=None) -> None:
    """Stream-decode for one client at a time until stopped.

    Sessions are fully independent: each connection gets a fresh pipeline, so
    no state bleeds between clients. A session that fails gets an error
    frame and a closed connection; the listener keeps running.
    """
    host, port = parse_endpoint(endpoint)
    stop = stop or threading.Event()
    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise ConfigError(f"cannot bind {endpoint}: {exc}") from exc
    listener.settimeout(0.1)
    if on_ready is not None:
        on_ready(listener.getsockname())
    served = 0
    try:
        while not stop.is_set():
            if max_connections is not None and served >= max_connections:
                break
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            served += 1
            _serve_session(conn, params, cfg, stop)
    finally:
        listener.close()

"""Real-time streaming pipeline: ingest raw samples, decode at a fixed rate.

Per prediction tick: snapshot the ring buffer, fill in the per-window feature
columns that are new since the last tick, assemble the [rows x steps] tensor,
z-score it, run the eval-mode forward pass, threshold, and emit a Prediction
with stage latencies.

Ticks are derived from the sample count, never the wall clock, so offline
replay, paced real-time runs, and the loopback service produce identical
prediction sequences for identical inputs. Tick m fires as soon as
m * fs_raw / rate raw samples have been ingested; ticks whose history is
still shorter than history_s + window_ms are skipped and counted.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
import socket
import threading
import time
from collections import deque

import numpy as np

from .errors import ConfigError, DataError, FrameError
from .features import (
    NUM_FEATURES, FeatureThresholds, FeatureWindowSpec, frame_matrix, window_features,
)
from .gestures import gesture_to_mask
from .network import ModelParams, Prediction, forward_batch, threshold
from .sigproc import (
    RAW_SAMPLE_RATE_HZ, BandSpec, Recording, StreamingBandpass, StreamingDecimator,
)
from . import wire

_INGEST_CHUNK_RAW = 1000  # raw samples processed per internal step (100 ms)

# Tick timers nest (end-to-end wraps the stages), so per-frame end_to_end is
# always >= feature + decode; across PERCENTILES the stage sum may exceed the
# end-to-end figure by at most this scheduling allowance.
SCHED_OVERHEAD_US = 1000.0


@dataclass(frozen=True)
class LatencyBudget:
    feature_us: int = 1000
    decode_us: int = 20000


@dataclass(frozen=True)
class EngineConfig:
    prediction_rate_hz: float = 10.0
    channels: int = 16
    window: FeatureWindowSpec = FeatureWindowSpec()
    thresholds: FeatureThresholds = FeatureThresholds()
    band: BandSpec = BandSpec()
    budget: LatencyBudget = LatencyBudget()
    endpoint: str = "127.0.0.1:7340"
    model_path: str = ""
    queue_limit: int = 64

    def __post_init__(self):
        if not 5.0 <= self.prediction_rate_hz <= 50.0:
            raise ConfigError(
                f"prediction_rate_hz must lie in [5, 50], got {self.prediction_rate_hz}")
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")

    @staticmethod
    def for_params(params: ModelParams, **overrides) -> "EngineConfig":
        base = EngineConfig(channels=params.channels, window=params.window,
                            thresholds=params.thresholds)
        return replace(base, **overrides) if overrides else base


def load_engine_config(path) -> EngineConfig:
    """Engine configuration file: INI with [engine], [window], [thresholds]."""
    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise ConfigError(f"cannot read engine config {path}")
    eng = ini["engine"] if ini.has_section("engine") else {}
    win = ini["window"] if ini.has_section("window") else {}
    thr = ini["thresholds"] if ini.has_section("thresholds") else {}
    try:
        return EngineConfig(
            prediction_rate_hz=float(eng.get("rate_hz", 10.0)),
            channels=int(eng.get("channels", 16)),
            window=FeatureWindowSpec(
                window_ms=float(win.get("window_ms", 100.0)),
                step_ms=float(win.get("step_ms", 20.0)),
                history_s=float(win.get("history_s", 1.0))),
            thresholds=FeatureThresholds(
                eps_zc=float(thr.get("eps_zc", 0.0)),
                eps_ssc=float(thr.get("eps_ssc", 0.0)),
                wamp=float(thr.get("wamp", 0.05)),
                mpr=float(thr.get("mpr", 0.05)),
                log_eps=float(thr.get("log_eps", 1e-12))),
            budget=LatencyBudget(
                feature_us=int(eng.get("feature_budget_us", 1000)),
                decode_us=int(eng.get("decode_budget_us", 20000))),
            endpoint=eng.get("endpoint", "127.0.0.1:7340"),
            model_path=eng.get("model", ""),
        )
    except ValueError as exc:
        raise ConfigError(f"bad engine config value: {exc}") from exc


def write_engine_config(cfg: EngineConfig, path) -> None:
    ini = configparser.ConfigParser()
    ini["engine"] = {
        "rate_hz": str(cfg.prediction_rate_hz), "channels": str(cfg.channels),
        "endpoint": cfg.endpoint, "model": cfg.model_path,
        "feature_budget_us": str(cfg.budget.feature_us),
        "decode_budget_us": str(cfg.budget.decode_us),
    }
    ini["window"] = {"window_ms": str(cfg.window.window_ms),
                     "step_ms": str(cfg.window.step_ms),
                     "history_s": str(cfg.window.history_s)}
    ini["thresholds"] = {k: str(v) for k, v in cfg.thresholds.as_dict().items()}
    with open(path, "w") as fh:
        ini.write(fh)


@dataclass
class LatencyReport:
    feature_us: np.ndarray
    decode_us: np.ndarray
    end_to_end_us: np.ndarray
    warmup_skips: int
    gap_events: int
    dropped: int = 0
    budget: LatencyBudget = LatencyBudget()

    @property
    def frames(self) -> int:
        return int(self.feature_us.size)

    def percentile(self, which: str, q: float) -> float:
        arr = getattr(self, which)
        return float(np.percentile(arr, q)) if arr.size else 0.0

    @property
    def over_budget(self) -> dict:
        return {
            "feature": int(np.count_nonzero(self.feature_us > self.budget.feature_us)),
            "decode": int(np.count_nonzero(self.decode_us > self.budget.decode_us)),
        }

    def summary(self) -> dict:
        out = {"frames": self.frames, "warmup_skips": self.warmup_skips,
               "gap_events": self.gap_events, "dropped": self.dropped,
               "over_budget": self.over_budget}
        for stage in ("feature_us", "decode_us", "end_to_end_us"):
            out[stage] = {"p50": self.percentile(stage, 50),
                          "p95": self.percentile(stage, 95),
                          "max": self.percentile(stage, 100)}
        return out


class RingBuffer:
    """Fixed-capacity per-channel sample ring with an absolute write count.

    snapshot() refuses spans that have been overwritten, so a tensor can
    never be built from a torn or partially rewritten window.
    """

    def __init__(self, channels: int, capacity: int):
        self.capacity = capacity
        self._data = np.zeros((channels, capacity))
        self.count = 0  # absolute index of the next sample to be written

    def append(self, block: np.ndarray) -> None:
        n = block.shape[1]
        if n > self.capacity:
            raise ConfigError(f"block of {n} exceeds ring capacity {self.capacity}")
        pos = self.count % self.capacity
        first = min(n, self.capacity - pos)
        self._data[:, pos:pos + first] = block[:, :first]
        if n > first:
            self._data[:, :n - first] = block[:, first:]
        self.count += n

    def snapshot(self, start: int, stop: int) -> np.ndarray:
        """Copy of absolute sample span [start, stop) as a contiguous block."""
        if start < 0 or stop > self.count or stop - start > self.capacity or \
                start < self.count - self.capacity:
            raise ConfigError(f"span [{start}, {stop}) not held by ring "
                              f"(count={self.count}, capacity={self.capacity})")
        idx = np.arange(start, stop) % self.capacity
        return np.ascontiguousarray(self._data[:, idx])

    def reset(self) -> None:
        self.count = 0
        self._data[:] = 0.0


class DecodePipeline:
    """Single-session streaming decoder. Single-owner; feed with ingest()."""

    def __init__(self, params: ModelParams, cfg: EngineConfig | None = None):
        if cfg is None:
            cfg = EngineConfig.for_params(params)
        if params.channels != cfg.channels:
            raise ConfigError(f"model expects {params.channels} channels, "
                              f"engine config says {cfg.channels}")
        if params.norm_stats is None:
            raise ConfigError("model has no normalization stats; train it first")
        rows = cfg.channels * NUM_FEATURES
        if params.config.input_rows != rows or params.config.steps != cfg.window.steps:
            raise ConfigError(
                f"model shape [{params.config.input_rows} x {params.config.steps}] does not "
                f"match engine frontend [{rows} x {cfg.window.steps}]")
        self.params = params
        self.cfg = cfg
        self.fs_raw = RAW_SAMPLE_RATE_HZ
        self.fs = self.fs_raw // 2
        self._filter = StreamingBandpass(cfg.channels, self.fs_raw, cfg.band)
        self._decim = StreamingDecimator(2)
        self._win = cfg.window.window_samples(self.fs)
        self._step = cfg.window.step_samples(self.fs)
        self._steps = cfg.window.steps
        self._need = cfg.window.min_history_samples(self.fs)
        self._ring = RingBuffer(cfg.channels, self._need + 2048)
        self._raw_per_tick = self.fs_raw / cfg.prediction_rate_hz
        tick_5k = self.fs / cfg.prediction_rate_hz
        self._grid_aligned = abs(tick_5k / self._step - round(tick_5k / self._step)) < 1e-9
        self._raw_count = 0
        self._tick = 0
        self._cache: dict[int, np.ndarray] = {}
        self._warmed_to = self._win - self._step
        self.warmup_skips = 0
        self.gap_events = 0
        self._lat_feature: list[float] = []
        self._lat_decode: list[float] = []
        self._lat_e2e: list[float] = []

    # -- ingest ------------------------------------------------------------

    def ingest(self, block: np.ndarray, first_sample_index: int | None = None) -> list[Prediction]:
        """Feed a [channels x n] block of raw 10 kHz samples; returns the
        predictions whose ticks completed inside this block."""
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != self.cfg.channels:
            raise DataError(f"expected [{self.cfg.channels} x n] block, got {block.shape}")
        if not np.all(np.isfinite(block)):
            raise DataError("sample block contains non-finite values")
        if first_sample_index is not None and first_sample_index != self._raw_count:
            self._note_gap()
        out: list[Prediction] = []
        for start in range(0, block.shape[1], _INGEST_CHUNK_RAW):
            chunk = np.asarray(block[:, start:start + _INGEST_CHUNK_RAW], dtype=np.float64)
            filtered = self._filter.process(chunk)
            self._ring.append(self._decim.process(filtered))
            self._raw_count += chunk.shape[1]
            if self._grid_aligned:
                self._warm_cache()
            out.extend(self._due_ticks())
        return out

    def _note_gap(self) -> None:
        """Source discontinuity: drop history so no tensor spans the gap."""
        self.gap_events += 1
        self._ring.reset()
        self._cache.clear()
        self._warmed_to = self._win - self._step
        self._filter = StreamingBandpass(self.cfg.channels, self.fs_raw, self.cfg.band)
        self._decim = StreamingDecimator(2)
        self._raw_count = 0
        self._tick = 0

    def _warm_cache(self) -> None:
        grid = self._step
        newest = (self._ring.count // grid) * grid
        if newest <= self._warmed_to:
            return
        missing = list(range(self._warmed_to + grid, newest + 1, grid))
        lo = missing[0] - self._win
        snap = self._ring.snapshot(lo, newest)
        ends = np.asarray(missing, dtype=np.int64) - lo
        feats = window_features(snap, ends, self._win, self.cfg.thresholds)
        for i, e in enumerate(missing):
            self._cache[e] = feats[:, i, :]
        self._warmed_to = newest

    def _due_ticks(self) -> list[Prediction]:
        preds = []
        while self._tick * self._raw_per_tick <= self._raw_count:
            end_5k = int(self._tick * self.fs_raw / self.cfg.prediction_rate_hz) // 2
            if end_5k < self._need:
                self.warmup_skips += 1
            else:
                preds.append(self._predict_at(end_5k))
            self._tick += 1
        return preds

    def _predict_at(self, end: int) -> Prediction:
        t0 = time.perf_counter_ns()
        ends = end - self._step * np.arange(self._steps - 1, -1, -1, dtype=np.int64)
        missing = [int(e) for e in ends if int(e) not in self._cache]
        if missing:
            lo = missing[0] - self._win
            snap = self._ring.snapshot(lo, end)
            rel = np.asarray(missing, dtype=np.int64) - lo
            feats = window_features(snap, rel, self._win, self.cfg.thresholds)
            for i, e in enumerate(missing):
                self._cache[e] = feats[:, i, :]
        cols = np.stack([self._cache[int(e)] for e in ends], axis=1)   # [C, T, 14]
        tensor = frame_matrix(cols, np.float64)
        t1 = time.perf_counter_ns()
        normalized = self.params.norm_stats.apply(tensor)
        probs = forward_batch(normalized[None], self.params, train=False)[0]
        label = threshold(probs)
        t2 = time.perf_counter_ns()

        horizon = end - self._need - 4 * self._step
        for stale in [e for e in self._cache if e < horizon]:
            del self._cache[stale]

        pred = Prediction(
            probabilities=probs, label=label,
            frame_timestamp_s=end / self.fs,
            feature_us=(t1 - t0) / 1000.0, decode_us=(t2 - t1) / 1000.0,
        )
        self._lat_feature.append(pred.feature_us)
        self._lat_decode.append(pred.decode_us)
        self._lat_e2e.append((time.perf_counter_ns() - t0) / 1000.0)
        return pred

    def report(self) -> LatencyReport:
        return LatencyReport(
            np.asarray(self._lat_feature), np.asarray(self._lat_decode),
            np.asarray(self._lat_e2e), self.warmup_skips, self.gap_events,
            budget=self.cfg.budget,
        )


def replay_blocks(recording: Recording, block_samples: int = 4096):
    """Split a recording into ingest blocks (batch replay runs unpaced)."""
    for start in range(0, recording.n_samples, block_samples):
        yield recording.samples[:, start:start + block_samples]


def run_pipeline(source, params: ModelParams, cfg: EngineConfig | None = None,
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

class DropOldestQueue:
    """Bounded FIFO that drops the oldest item on overflow and counts drops."""

    def __init__(self, limit: int):
        self._items = deque()
        self.limit = limit
        self.dropped = 0

    def push(self, item) -> None:
        if len(self._items) >= self.limit:
            self._items.popleft()
            self.dropped += 1
        self._items.append(item)

    def drain(self):
        while self._items:
            yield self._items.popleft()

    def __len__(self):
        return len(self._items)


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
        dropped=report.dropped,
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
    pipe = DecodePipeline(params, cfg)
    reader = wire.FrameReader()
    outq = DropOldestQueue(cfg.queue_limit)
    conn.settimeout(0.1)
    try:
        while not stop.is_set():
            for frame_bytes in outq.drain():
                conn.sendall(frame_bytes)
            try:
                data = conn.recv(1 << 16)
            except socket.timeout:
                continue
            if not data:
                break
            for msg in reader.feed(data):
                if isinstance(msg, wire.SampleBlockMsg):
                    for pred in pipe.ingest(msg.samples, msg.first_sample_index):
                        outq.push(wire.encode_frame(_prediction_msg(pred)))
                # config frames are informational; other types are ignored
        report = pipe.report()
        report.dropped = outq.dropped
        for frame_bytes in outq.drain():
            conn.sendall(frame_bytes)
        conn.sendall(wire.encode_frame(_latency_msg(report)))
    except FrameError as exc:
        try:
            conn.sendall(wire.encode_frame(wire.ErrorMsg(1, str(exc))))
        except OSError:
            pass
    except (DataError, ConfigError) as exc:
        try:
            conn.sendall(wire.encode_frame(wire.ErrorMsg(2, str(exc))))
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


def serve(endpoint: str, params: ModelParams, cfg: EngineConfig | None = None,
          stop: threading.Event | None = None, max_connections: int | None = None,
          on_ready=None) -> None:
    """Stream-decode for one client at a time until stopped.

    Sessions are fully independent: each connection gets a fresh pipeline, so
    no state bleeds between clients. Malformed frames get an error frame and
    a closed connection; the listener keeps running.
    """
    if cfg is None:
        cfg = EngineConfig.for_params(params)
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


def decode_over_socket(recording: Recording, endpoint: str,
                       block_samples: int = 4096, timeout_s: float = 30.0):
    """Loopback client: stream a recording, collect predictions + the final
    latency frame. Returns (list of PredictionMsg, LatencyMsg | None)."""
    host, port = parse_endpoint(endpoint)
    reader = wire.FrameReader()
    preds: list[wire.PredictionMsg] = []
    latency = None
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        first = 0
        for block in replay_blocks(recording, block_samples):
            sock.sendall(wire.encode_frame(
                wire.SampleBlockMsg(first, np.ascontiguousarray(block, dtype=np.float32))))
            first += block.shape[1]
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(timeout_s)
        while True:
            try:
                data = sock.recv(1 << 16)
            except socket.timeout:
                break
            if not data:
                break
            for msg in reader.feed(data):
                if isinstance(msg, wire.PredictionMsg):
                    preds.append(msg)
                elif isinstance(msg, wire.LatencyMsg):
                    latency = msg
                elif isinstance(msg, wire.ErrorMsg):
                    raise FrameError(f"server error {msg.code}: {msg.message}")
    return preds, latency

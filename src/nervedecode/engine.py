"""Real-time streaming pipeline: ingest raw samples, decode at a fixed rate.

Each ingest step filters and decimates its samples and computes the feature
columns whose windows end inside it, for the ticks still to come. Per
prediction tick: stack the tick's columns into the [rows x steps] tensor,
z-score it, run the eval-mode forward pass, threshold, and emit a Prediction
with stage latencies.

Ticks are derived from the sample count, never the wall clock, so offline
replay, paced real-time runs, and the loopback service produce identical
prediction sequences for identical inputs. `features.TickGrid` is the clock,
shared with the offline frames: tick m fires as soon as
floor(m * fs_raw / rate) raw samples have been ingested, and its windows end
at its end sample and at every step before it. Ticks whose history is still
shorter than history_s + window_ms are skipped and counted.

The front end is the checkpoint's: the channel count, window geometry and
feature thresholds are read from `ModelParams`, and the band-pass is the one
every path uses (`BandSpec()`), so a served model sees the features it was
trained on. `EngineConfig` holds only what a checkpoint does not know: the
prediction rate, the latency budgets and the service endpoint.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
import socket
import threading
import time
from collections import deque

import numpy as np

from .errors import ConfigError, DataError, FrameError
from .features import NUM_FEATURES, TickGrid, frame_matrix, window_features
from .gestures import gesture_to_mask
from .network import ModelParams, Prediction, forward_batch, threshold
from .sigproc import (
    DECIMATION, RAW_SAMPLE_RATE_HZ, Recording, StreamingBandpass, StreamingDecimator,
)
from . import wire

_INGEST_CHUNK_RAW = 1000  # raw samples processed per internal step (100 ms)
_PLAN_SAMPLES = 5000      # decimated samples whose column ends are listed at once (1 s)
QUEUE_LIMIT = 64          # prediction frames a session holds before dropping the oldest

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
    """What a serving run sets that a checkpoint does not know. The channel
    count, window and feature thresholds are the model's own (`ModelParams`)."""

    prediction_rate_hz: float = 10.0
    budget: LatencyBudget = LatencyBudget()
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


_INI_KEYS = ("rate_hz", "endpoint", "feature_budget_us", "decode_budget_us")


def load_engine_config(path) -> EngineConfig:
    """Engine configuration file: INI with one [engine] section holding
    rate_hz, endpoint, feature_budget_us and decode_budget_us. Any other
    section or key is refused, so an old file that set the front end
    (channels, [window], [thresholds]) fails instead of being ignored."""
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
        raise ConfigError(f"engine config {path}: unknown {', '.join(unknown)}; the "
                          "channel count, window and thresholds come from the checkpoint")
    try:
        return EngineConfig(
            prediction_rate_hz=float(eng.get("rate_hz", 10.0)),
            budget=LatencyBudget(
                feature_us=int(eng.get("feature_budget_us", 1000)),
                decode_us=int(eng.get("decode_budget_us", 20000))),
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
        self.cfg = cfg
        self._grid = TickGrid(params.window, cfg.prediction_rate_hz, RAW_SAMPLE_RATE_HZ)
        self._start_stream()
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
        channels = self.params.channels
        if block.ndim != 2 or block.shape[0] != channels:
            raise DataError(f"expected [{channels} x n] block, got {block.shape}")
        if not np.all(np.isfinite(block)):
            raise DataError("sample block contains non-finite values")
        if first_sample_index is not None and first_sample_index != self._raw_count:
            self._note_gap()
        out: list[Prediction] = []
        for start in range(0, block.shape[1], _INGEST_CHUNK_RAW):
            chunk = np.asarray(block[:, start:start + _INGEST_CHUNK_RAW], dtype=np.float64)
            self._fill_columns(self._decim.process(self._filter.process(chunk)))
            self._raw_count += chunk.shape[1]
            out.extend(self._due_ticks())
        return out

    def _note_gap(self) -> None:
        """Source discontinuity: drop history so no tensor spans the gap."""
        self.gap_events += 1
        self._start_stream()

    def _start_stream(self) -> None:
        """Fresh filter state, history and sample clock."""
        self._filter = StreamingBandpass(self.params.channels, RAW_SAMPLE_RATE_HZ)
        self._decim = StreamingDecimator(DECIMATION)
        self._recent = np.empty((self.params.channels, 0))  # newest decimated samples
        self._count = 0      # decimated samples ingested
        self._planned = np.empty(0, dtype=np.int64)  # column ends still to fill, ascending
        self._planned_to = 0
        self._columns: dict[int, np.ndarray] = {}  # [channels x 14] by absolute window end
        self._raw_count = 0
        self._tick = 0

    def _fill_columns(self, block: np.ndarray) -> None:
        """Take in a decimated block and compute the feature columns whose
        windows end inside it and that some tick uses. Columns are computed
        in the ingest step that delivers their last sample, so a tick only
        stacks them."""
        self._count += block.shape[1]
        if self._count > self._planned_to:
            hi = self._count + _PLAN_SAMPLES
            self._planned = np.concatenate(
                [self._planned, self._grid.columns_between(self._planned_to, hi)])
            self._planned_to = hi
        due = int(np.searchsorted(self._planned, self._count, side="right"))
        ends, self._planned = self._planned[:due], self._planned[due:]
        recent = np.concatenate([self._recent, block], axis=1)
        if ends.size:
            rel = ends - (self._count - recent.shape[1])
            feats = window_features(recent, rel, self._grid.win, self.params.thresholds)
            for i, e in enumerate(ends.tolist()):
                self._columns[e] = feats[:, i, :]
        self._recent = recent[:, -self._grid.win:]  # all that a later window reaches back to

    def _due_ticks(self) -> list[Prediction]:
        preds = []
        grid = self._grid
        while grid.tick_end_raw(self._tick) <= self._raw_count:
            end = grid.tick_end(self._tick)
            if end < grid.need:
                self.warmup_skips += 1
            else:
                preds.append(self._predict_at(end))
            self._tick += 1
        return preds

    def _predict_at(self, end: int) -> Prediction:
        t0 = time.perf_counter_ns()
        ends = self._grid.window_ends(end).tolist()
        cols = np.stack([self._columns[e] for e in ends], axis=1)   # [C, T, 14]
        tensor = frame_matrix(cols, np.float64)
        t1 = time.perf_counter_ns()
        normalized = self.params.norm_stats.apply(tensor)
        probs = forward_batch(normalized[None], self.params, train=False)[0]
        label = threshold(probs)
        t2 = time.perf_counter_ns()

        # later ticks end later, so none of them uses this tick's oldest column
        for stale in [e for e in self._columns if e <= ends[0]]:
            del self._columns[stale]

        pred = Prediction(
            probabilities=probs, label=label,
            frame_timestamp_s=end / self._grid.fs,
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
    outq = DropOldestQueue(QUEUE_LIMIT)
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


def serve(endpoint: str, params: ModelParams, cfg: EngineConfig = EngineConfig(),
          stop: threading.Event | None = None, max_connections: int | None = None,
          on_ready=None) -> None:
    """Stream-decode for one client at a time until stopped.

    Sessions are fully independent: each connection gets a fresh pipeline, so
    no state bleeds between clients. Malformed frames get an error frame and
    a closed connection; the listener keeps running.
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

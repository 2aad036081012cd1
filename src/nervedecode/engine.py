"""Real-time streaming pipeline: ingest raw samples, decode at a fixed rate.

`FrontEnd` turns raw samples into feature columns: each ingest step filters
and decimates its samples and computes the columns whose windows end inside
it, for the ticks still to come. Offline training frames
(`dataset.session_frames`) run the same class over a whole recording and
keep each column once. `DecodePipeline` decodes per column, not per tick:
it keeps a GRU state for every frame in flight and advances them all by one
batched step per new column, so each output equals the eval-mode
`forward_batch` on the tick's z-scored frame up to rounding.

A Prediction carries two stage timers, and the latency report a third:
`feature_us` is the column work (block sums and `window_features`) of the
ingest step that completes the tick, counted at the first tick that step
completes and 0 at the others; `decode_us` is the z-score, conv, in-flight
steps, head and threshold; `end_to_end_us` runs from the start of the
completing step, before its filter, to the emit, so it bounds the other two.

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
from .network import (
    ModelParams, Prediction, conv_rows, check_finite, gru_cell, gru_inputs, head, threshold,
)
# Not called here: perfbench's tracer rebinds `engine.forward_batch` and
# stops if the name is missing.
from .network import forward_batch  # noqa: F401
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


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """(host, port) of "host:port", the port in 0-65535 as ASCII digits."""
    host, _, port = endpoint.rpartition(":")
    digits = port.isascii() and port.isdigit() and len(port) <= 5
    if not host or not digits or int(port) > 65535:
        raise ConfigError(f"endpoint must be host:port with a port in 0-65535, "
                          f"got {endpoint!r}")
    return host, int(port)


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
        parse_endpoint(self.endpoint)

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
    """Raw 10 kHz samples -> feature columns, tick by tick.

    Owns the band-pass, the decimator, the `TickGrid` clock and the feature
    kernel's block sums. Each internal step filters and decimates its samples
    and computes the columns whose windows end inside it and that some tick
    uses, as float64 [channels*14] decoder rows in channel-major order, and
    hands them on once, ascending by window end (`_keep`, which a subclass
    defines). The streaming engine runs one per stretch of gap-free stream
    and decodes the columns as its ticks come due; offline frames run one
    over a whole recording and keep every column, so both see the same
    inputs, in the same precision, at the same tick. Each step also records
    when it started and how long its column work took, for the latency
    report. Single-owner.
    """

    def __init__(self, channels: int, window: FeatureWindowSpec, rate_hz: float):
        self.grid = TickGrid(window, rate_hz)
        self._filter = StreamingBandpass(channels, RAW_SAMPLE_RATE_HZ)
        self._decim = StreamingDecimator(DECIMATION)
        self._sums = BlockSums(channels, self.grid.block)  # the decimated stream
        self._planned = np.empty(0, dtype=np.int64)  # column ends still to fill, ascending
        self._planned_to = 0
        self.raw_count = 0
        self._tick = 0
        self.warmup_skips = 0
        self.step_started_ns = 0  # perf_counter_ns at the start of the latest step
        self.column_ns = 0        # column work of the latest step

    def push(self, block: np.ndarray):
        """Take in a [channels x n] block of raw samples; yields the end
        (decimated sample, exclusive) of each warm tick it completes, in
        order, as soon as the step holding the tick's last sample is done.
        Ticks whose history is still too short are counted in `warmup_skips`."""
        grid = self.grid
        for start in range(0, block.shape[1], _INGEST_CHUNK_RAW):
            self.step_started_ns = time.perf_counter_ns()
            chunk = np.asarray(block[:, start:start + _INGEST_CHUNK_RAW], dtype=np.float64)
            decimated = self._decim.process(self._filter.process(chunk))
            columns_from = time.perf_counter_ns()
            self._fill_columns(decimated)
            self.column_ns = time.perf_counter_ns() - columns_from
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
        """Hand on finished columns: `rows` [ends x channels*14], ascending
        by window end."""
        raise NotImplementedError


class _StreamFront(FrontEnd):
    """The engine's front end: each finished column waits, in the queue of
    its residue class, until the tick that first reads it takes it."""

    def __init__(self, *args):
        super().__init__(*args)
        self._pending: dict[int, list] = {}  # residue -> [(window end, row)], ascending

    def _keep(self, ends: np.ndarray, rows: np.ndarray) -> None:
        step = self.grid.step
        for end, row in zip(ends.tolist(), rows):
            self._pending.setdefault(end % step, []).append((end, row))

    def take(self, end: int) -> tuple[int, np.ndarray]:
        """(window end of the first, [rows x n]) of the columns of `end`'s
        residue class that end by `end` and no earlier tick took: those
        since the class's last tick, one step apart, the last ending at
        `end`."""
        queue = self._pending[end % self.grid.step]
        n = next((i for i, (e, _) in enumerate(queue) if e > end), len(queue))
        taken, queue[:n] = queue[:n], []
        return taken[0][0], np.stack([row for _, row in taken], axis=1)


@dataclass
class _InFlight:
    """The frames of one residue class of tick ends that are being scanned:
    their GRU states, oldest frame (the next to end) first, and the class's
    two newest z-scored columns, which the class's next step reads."""

    last: int          # window end of the newest column in `z`
    z: np.ndarray      # [rows x <= 2]
    h: np.ndarray      # [frames x hidden]


class DecodePipeline:
    """Single-session streaming decoder. Single-owner; feed with ingest().

    A frame's GRU scan starts from zeros at its first column, so it cannot
    be carried from one tick to the next; but every frame in flight reads a
    column at the same moment. Frames share columns when their tick ends
    agree modulo the window step: at 10 and 50 Hz all of them, at 30 Hz
    every third one, at 5.1 Hz none. So each such residue class keeps the
    frames it has in flight, and a tick advances them all by one batched
    step per column that arrived since the class's last tick. Per column, once: the
    z-score and the conv, BN+ReLU and input projection of its interior value
    (both neighbours), plus one edge row for a frame that starts there. Per
    tick: those steps up to the tick's penultimate column, one right-edge
    step for the frame that ends at the tick, and the head and threshold.
    Each output is the same function of the same frame as `forward_batch`
    on it, up to rounding. The steps run lazily at the tick, so batch shapes
    follow the tick grid alone, never the cut of the stream into blocks.
    """

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
        self._scans: dict[int, _InFlight] = {}  # by residue of the tick end
        self.gap_events = 0
        self._lat_feature: list[float] = []
        self._lat_decode: list[float] = []
        self._lat_e2e: list[float] = []

    def _new_front(self) -> _StreamFront:
        """Fresh filter state, history and sample clock."""
        return _StreamFront(self.params.channels, self.params.window, self._rate_hz)

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
        """Source discontinuity: drop history so no frame spans the gap."""
        self.gap_events += 1
        skips = self._front.warmup_skips  # counted over the whole session
        self._front = self._new_front()
        self._front.warmup_skips = skips
        self._scans = {}

    def _predict_at(self, end: int) -> Prediction:
        front = self._front
        t0 = time.perf_counter_ns()
        probs = self._decode(end)
        label = threshold(probs)
        t1 = time.perf_counter_ns()

        pred = Prediction(
            probabilities=probs, label=label, frame_timestamp_s=end / front.grid.fs,
            feature_us=front.column_ns / 1000.0, decode_us=(t1 - t0) / 1000.0,
        )
        front.column_ns = 0  # a step's column work counts at the first tick it completes
        self._lat_feature.append(pred.feature_us)
        self._lat_decode.append(pred.decode_us)
        self._lat_e2e.append((time.perf_counter_ns() - front.step_started_ns) / 1000.0)
        return pred

    def _decode(self, end: int) -> np.ndarray:
        """Probabilities of the frame that ends at `end`: z-score its class's
        new columns, advance the class's frames in flight through them, and
        finish this tick's frame."""
        params, tensors = self.params, self.params.tensors
        grid = self._front.grid
        step, steps = grid.step, params.config.steps
        first, raw = self._front.take(end)
        z = params.norm_stats.apply(raw)                    # [rows x new columns]
        scan = self._scans.get(end % step)
        if scan is not None and first == scan.last + step:
            z = np.concatenate([scan.z, z], axis=1)
        in_flight = scan is not None and len(scan.h) > 0
        # columns lo .. end - step each advance the frames that contain them;
        # a class with none in flight starts with this tick's frame
        lo = scan.last if in_flight else end - (steps - 1) * step
        n = (end - lo) // step
        # conv taps of lo .. end in z; lo's left neighbour is read only by
        # frames in flight, end's right one is the padding (-1)
        at = np.arange(z.shape[1] - 1 - n, z.shape[1])
        taps = np.stack([at - 1, at, at + 1], axis=1)
        taps[-1, 2] = -1
        if not in_flight:
            taps[0, 0] = -1
        starts = [i for i in range(n) if grid.is_tick_end(lo + (i + steps - 1) * step)]
        # the padding is the left edge of a frame that starts at lo with none
        # in flight; every other frame that starts gets its own edge row
        edges = taps[[i for i in starts if i or in_flight]]
        edges[:, 0] = -1
        before = gru_inputs(conv_rows(z, np.concatenate([taps, edges]), params), params)
        xg = before["xg"]

        hidden = params.config.gru_hidden
        h = scan.h if in_flight else np.zeros((0, hidden))
        edge = n + 1  # xg row of the next left edge
        for i in range(n):
            g = xg[i:i + 1]
            if i in starts:
                if len(h):  # the frames in flight read column i, the new one its edge
                    g, edge = xg[[i] * len(h) + [edge]], edge + 1
                h = np.concatenate([h, np.zeros((1, hidden))])
            h = gru_cell(g, h, tensors)[0]
        # the frame that ends here is the oldest in flight, unless it is one
        # column long and starts here
        last, h = (h[:1], h[1:]) if len(h) else (np.zeros((1, hidden)), h)
        last = gru_cell(xg[n:n + 1], last, tensors)[0]
        after = head(last, tensors)
        check_finite(before, last, after)
        self._scans[end % step] = _InFlight(end, z[:, -2:].copy(), h)
        return after["probs"][0]

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

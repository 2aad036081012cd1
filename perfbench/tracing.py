"""Spans recorded around the package's public layer functions.

Inside `with Tracer():` each function is rebound under the name its calling
module imported it by (methods on their class), so the program itself runs
unchanged; leaving the block puts the originals back. A span is (name,
start_ns, end_ns, parent index, detail); spans stay in memory until
`write_spans()`. `layer_metrics()` derives the per-layer figures from them.
"""
from __future__ import annotations

import itertools
import json
import time
import weakref

import numpy as np

from nervedecode import chronometry, dataset, engine, network, sigproc, training, wire


class PipelineIds:
    """Serial number per pipeline object. `id()` is reused once a pipeline
    is freed, which would merge the ingest calls of consecutive trials."""

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()
        self._next = itertools.count()

    def __call__(self, pipe) -> int:
        if pipe not in self._ids:
            self._ids[pipe] = next(self._next)
        return self._ids[pipe]


def ingest_detail(pipe_id: int, block, out) -> list:
    """Pipeline serial, raw samples handed over, raw end sample of each tick
    emitted."""
    return [pipe_id, int(np.shape(block)[1]),
            [round(p.frame_timestamp_s * 10_000) for p in out]]


def _forward_detail(args, kwargs, out):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return [int(np.shape(args[0])[0]), bool(train)]


# (owner, attribute, span name, detail function or None)
_TARGETS = (
    (sigproc.StreamingBandpass, "process", "sigproc.bandpass", None),
    (engine, "window_features", "features.window_features",
     lambda a, k, o: int(np.size(a[1]))),
    (dataset, "window_features", "features.window_features",
     lambda a, k, o: int(np.size(a[1]))),
    (network, "forward_batch", "network.forward_batch", _forward_detail),
    (engine, "forward_batch", "network.forward_batch", _forward_detail),
    (training, "forward_batch", "network.forward_batch", _forward_detail),
    (network, "backward", "network.backward", None),
    (training, "batch_loss_and_grads", "training.batch_loss_and_grads", None),
    (training.Adam, "step", "training.adam_step", None),
    (training, "predict_batch", "training.predict_batch",
     lambda a, k, o: int(np.shape(a[1])[0])),
    (training, "train", "training.train",
     lambda a, k, o: int(np.shape(a[0].x_train)[0]) * len(o[1])),
    (dataset, "session_frames", "dataset.session_frames", None),
    (dataset, "build_training_data", "dataset.build_training_data", None),
    (engine.DecodePipeline, "__init__", "engine.pipeline_init", None),
    (engine.DecodePipeline, "ingest", "engine.ingest", None),
    (wire, "encode_frame", "wire.encode_frame", None),
    (wire.FrameReader, "feed", "wire.feed", lambda a, k, o: len(o)),
    (chronometry, "generate_stream", "synthgen.generate_stream", None),
    (chronometry, "run_matching_session", "chronometry.run_matching_session",
     lambda a, k, o: len(o)),
)


class Tracer:
    """In-memory span recorder for one single-threaded process. `only`
    limits it to the named spans: untraced runs use it that way to time the
    one boundary an end-to-end metric needs."""

    def __init__(self, only=None):
        self.only = only
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self._pipes: list = []
        self._pipe_ids = PipelineIds()
        self.engine_e2e_us = 0.0

    def _wrap(self, name, fn, detail):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if detail is not None:
                spans[idx][4] = detail(args, kwargs, out)
            return out

        return traced

    def _track_pipeline(self, args, kwargs, out) -> None:
        self._collect_reports()
        self._pipes.append(args[0])

    def _collect_reports(self) -> None:
        """Sum the engine's own end_to_end_us of every pipeline seen so far,
        then drop the references so finished pipelines can be freed."""
        for pipe in self._pipes:
            self.engine_e2e_us += float(np.sum(pipe.report().end_to_end_us))
        self._pipes.clear()

    def __enter__(self):
        own = {"engine.pipeline_init": self._track_pipeline,
               "engine.ingest": lambda a, k, o: ingest_detail(self._pipe_ids(a[0]), a[1], o)}
        for owner, attr, name, detail in _TARGETS:
            if self.only is None or name in self.only:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, own.get(name, detail)))
        return self

    def __exit__(self, *exc) -> None:
        self._collect_reports()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def fed_s(self) -> float:
        """Raw signal handed to `ingest`, in seconds."""
        return sum(s[4][1] for s in self.spans if s[0] == "engine.ingest") / 10_000

    def tick_latencies_s(self) -> list:
        """Per emitted tick: return of the emitting `ingest` call minus start
        of the call that delivered the tick's last raw sample."""
        return [(emit[2] - start) / 1e9 for start, emit in tick_deliveries(self.spans)]


def write_spans(spans: list, path) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _self_ns(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def tick_deliveries(spans: list) -> list:
    """(start of the ingest call that delivered the tick's last raw sample,
    the span of the ingest call that emitted it) for every emitted tick."""
    calls: dict = {}
    for s in spans:
        if s[0] == "engine.ingest":
            calls.setdefault(s[4][0], []).append(s)
    out = []
    for seq in calls.values():
        fed, delivered = 0, []
        for s in seq:
            fed += s[4][1]
            delivered.append((fed, s[1]))
            for end_raw in s[4][2]:
                out.append((next(t for n, t in delivered if n >= end_raw), s))
    return out


def layer_metrics(spans: list, engine_e2e_us: float, ops: int) -> dict:
    """Per-layer figures from spans; a layer the workload never calls reads 0.

    `ops` is the operation count the per-operation figures divide by: ticks
    for the streaming workloads, frames extracted for calibrate.
    """
    own = _self_ns(spans)
    by: dict = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total_ns(name, where=lambda i: True):
        return float(sum(dur(i) for i in by.get(name, []) if where(i)))

    def mean_ns(name, where=lambda i: True):
        vals = [dur(i) for i in by.get(name, []) if where(i)]
        return float(np.mean(vals)) if vals else 0.0

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    columns = sum(spans[i][4] for i in by.get("features.window_features", []))
    eval_frames = sum(spans[i][4][0] for i in by.get("network.forward_batch", [])
                      if parent_name(i) == "training.predict_batch")
    trials = sum(spans[i][4] for i in by.get("chronometry.run_matching_session", []))
    train_ids = by.get("training.train", [])
    train_s = total_ns("training.train") / 1e9
    frames_seen = sum(spans[i][4] for i in train_ids)
    ingest = by.get("engine.ingest", [])
    ingest_ns = float(sum(dur(i) for i in ingest))
    waits = [emit[1] - start for start, emit in tick_deliveries(spans)]
    feed_msgs = sum(spans[i][4] for i in by.get("wire.feed", []))

    def per(x, n):
        return x / n if n else 0.0

    return {
        "sigproc.bandpass_us_per_call": mean_ns("sigproc.bandpass") / 1e3,
        "features.columns": per(columns, ops),
        "features.us_per_column": per(total_ns("features.window_features") / 1e3, columns),
        "network.forward_us_per_tick": mean_ns(
            "network.forward_batch", lambda i: parent_name(i) == "engine.ingest") / 1e3,
        "network.forward_train_ms_per_batch": mean_ns(
            "network.forward_batch", lambda i: spans[i][4][1]) / 1e6,
        "network.backward_ms_per_batch": mean_ns("network.backward") / 1e6,
        "network.forward_eval_ms_per_frame": per(total_ns(
            "network.forward_batch",
            lambda i: parent_name(i) == "training.predict_batch") / 1e6, eval_frames),
        "training.adam_ms_per_step": mean_ns("training.adam_step") / 1e6,
        "training.train_self_s": sum(own[i] for i in train_ids) / 1e9,
        "training.frames_per_s": per(frames_seen, train_s),
        "dataset.session_frames_s": total_ns("dataset.session_frames") / 1e9,
        "dataset.build_training_data_s": total_ns("dataset.build_training_data") / 1e9,
        "engine.ingest_self_us_per_call": per(sum(own[i] for i in ingest) / 1e3, len(ingest)),
        "engine.tick_wait_ms": float(np.mean(waits)) / 1e6 if waits else 0.0,
        "engine.pipeline_init_ms": mean_ns("engine.pipeline_init") / 1e6,
        "engine.report_coverage": per(engine_e2e_us * 1e3, ingest_ns),
        "wire.feed_us_per_frame": per(total_ns("wire.feed") / 1e3, feed_msgs),
        "wire.encode_us_per_frame": mean_ns("wire.encode_frame") / 1e3,
        "synthgen.generate_stream_ms_per_trial": per(
            total_ns("synthgen.generate_stream") / 1e6, trials),
        "chronometry.self_ms_per_trial": per(sum(
            own[i] for i in by.get("chronometry.run_matching_session", [])) / 1e6, trials),
    }

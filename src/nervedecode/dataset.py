"""Offline frame extraction: sessions -> decoder input frames for training.

The frames are the streaming engine's own inputs: `engine.FrontEnd` runs over
the whole 10 kHz recording at the frame rate, and each warm tick's
[rows x steps] tensor becomes one frame. The front end hands each feature
column over once, in the float64 the engine computes it in, so a session
keeps one column store, and its frames are that store plus the store
columns of each frame's windows, gathered when indexed (`Frames`), instead
of a dense stack whose neighbours repeat 49 of 50 columns. Frame labels are
the gesture active at the window end time (the current intent).
`concat_frames` lays sessions out in an order fixed by their content, and
`build_training_data` rounds its stats to the float32 a checkpoint keeps.
`evaluate_session` scores a trained model on a session through these frames.
"""
from __future__ import annotations

from dataclasses import dataclass
import hashlib
import math
from typing import ClassVar

import numpy as np

from .engine import FrontEnd
from .errors import ConfigError
from .features import THRESHOLDS, FeatureThresholds, FeatureWindowSpec, NormStats
# Not called here: perfbench's tracer rebinds `dataset.window_features` and
# stops if the name is missing.
from .features import window_features  # noqa: F401
from .gestures import gesture_to_bits
from .metrics import DofMetrics
from .network import ModelParams
from .sigproc import RAW_SAMPLE_RATE_HZ
from .synthgen import LABEL_STEP_MS, SessionData
from .training import TrainingData, evaluate_frames

# Frames are extracted every 20 ms, one per label tick, so five epochs see
# enough optimizer steps to converge at the default learning rate.
DEFAULT_FRAME_RATE_HZ = 50.0


@dataclass(frozen=True, eq=False)
class Frames:
    """Read-only [N x rows x steps] frames over a column store: frame i is
    `store[:, pos[i]]`, gathered when indexed. `frames[key]` gathers
    [k x rows x steps] (one frame: [rows x steps]); `nbytes` is the size of
    the frames it stands for, as an ndarray view's is."""

    store: np.ndarray  # [rows x columns]
    pos: np.ndarray    # [N x steps] store columns, oldest first

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.pos), self.store.shape[0], self.pos.shape[1])

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.store.itemsize

    def __len__(self) -> int:
        return len(self.pos)

    def __getitem__(self, key) -> np.ndarray:
        return np.moveaxis(self.store[:, self.pos[key]], 0, -2)


@dataclass
class FrameSet:
    """Un-normalized frames from one or more sessions.

    `store` holds each feature column once, float64 [rows x columns] in
    window-end order, and `pos` [N x steps] the store column of each frame's
    windows, oldest first. `x` is the `Frames` over them. The normalization
    fit (`build_training_data`) reads the store, not `x`: each column once,
    weighted by how many frame steps of `pos` use it.
    """

    store: np.ndarray      # [rows x columns] float64
    pos: np.ndarray        # [N x steps] store columns
    y: np.ndarray          # [N x 6] float64 bits
    t_ms: np.ndarray       # window end time of each frame
    channels: int
    window: FeatureWindowSpec
    # not a field: perfbench reads `frames.thresholds`
    thresholds: ClassVar[FeatureThresholds] = THRESHOLDS

    @property
    def x(self) -> Frames:
        return Frames(self.store, self.pos)


class _ColumnLog(FrontEnd):
    """A front end that keeps every finished column, as rows in window-end
    order, instead of serving ticks from them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ends: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []

    def _keep(self, ends: np.ndarray, rows: np.ndarray) -> None:
        self.ends.append(ends)
        self.rows.append(rows)


def session_frames(session: SessionData, window: FeatureWindowSpec = FeatureWindowSpec(),
                   frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ) -> FrameSet:
    """Extract decoder frames plus aligned labels from one session: one
    frame per warm tick at frame_rate_hz, equal to the input the streaming
    engine feeds the model at that tick."""
    rec = session.recording
    if rec.sample_rate_hz != RAW_SAMPLE_RATE_HZ:
        raise ConfigError(f"frames are cut from raw {RAW_SAMPLE_RATE_HZ} Hz signal, "
                          f"got {rec.sample_rate_hz}")
    period = RAW_SAMPLE_RATE_HZ / frame_rate_hz if frame_rate_hz > 0 else 0.0  # raw samples
    # at most one frame per window step keeps the frame count within the
    # size of the signal
    if not window.step_samples(RAW_SAMPLE_RATE_HZ) <= period < np.inf:
        raise ConfigError(f"frame rate must be positive and at most one frame per "
                          f"{window.step_ms} ms window step, got {frame_rate_hz} Hz")
    front = _ColumnLog(rec.channels, window, frame_rate_hz)
    ends = np.fromiter(front.push(rec.samples), dtype=np.int64)
    if ends.size == 0:
        raise ConfigError("session too short for a single full frame")
    store = np.ascontiguousarray(np.concatenate(front.rows).T)
    pos = np.searchsorted(np.concatenate(front.ends), front.grid.window_ends(ends[:, None]))
    t_ms = ends * 1000 // front.grid.fs
    labels = np.minimum(t_ms // LABEL_STEP_MS, len(session.labels) - 1)
    y = np.array([gesture_to_bits(session.labels[i]) for i in labels], dtype=np.float64)
    return FrameSet(store, pos, y, t_ms, rec.channels, window)


def evaluate_session(params: ModelParams, session: SessionData,
                     frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ) -> list[DofMetrics]:
    """Per-DOF metrics of a trained model on one session, framed with the
    model's own front end and z-scored with its normalization."""
    frames = session_frames(session, params.window, frame_rate_hz)
    if frames.channels != params.channels:
        raise ConfigError("eval session channel count does not match the model")
    return evaluate_frames(params, Frames(params.norm_stats.apply(frames.store), frames.pos),
                           frames.y)


def _digest(part: FrameSet) -> bytes:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).data
                                   for a in (part.store, part.pos, part.y))).digest()


def concat_frames(parts: list[FrameSet]) -> FrameSet:
    """One frame set over the parts' stores laid side by side, in the order
    of a digest of each part's store, pos and y: the store, the stats fitted
    on it and the frames training shuffles do not depend on the order the
    parts are given in. A single part is returned as it is."""
    if not parts:
        raise ConfigError("no frame sets to concatenate")
    first = parts[0]
    if any((p.channels, p.window) != (first.channels, first.window) for p in parts):
        raise ConfigError("frame sets disagree on channels or window geometry")
    if len(parts) == 1:
        return first
    parts = sorted(parts, key=_digest)
    offsets = np.cumsum([0] + [p.store.shape[1] for p in parts[:-1]])
    return FrameSet(
        np.concatenate([p.store for p in parts], axis=1),
        np.concatenate([p.pos + off for p, off in zip(parts, offsets)]),
        np.concatenate([p.y for p in parts]), np.concatenate([p.t_ms for p in parts]),
        first.channels, first.window,
    )


def split_frames(frames: FrameSet, val_fraction: float) -> tuple[FrameSet, FrameSet]:
    """Chronological split: the tail fraction becomes the validation set.
    Both sides keep the whole store."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    cut = int(round(len(frames.pos) * (1.0 - val_fraction)))
    if cut < 1 or cut >= len(frames.pos):
        raise ConfigError("split leaves an empty train or validation side")
    mk = lambda sl: FrameSet(frames.store, frames.pos[sl], frames.y[sl], frames.t_ms[sl],
                             frames.channels, frames.window)
    return mk(slice(None, cut)), mk(slice(cut, None))


def build_training_data(train_frames: FrameSet, val_frames: FrameSet | None) -> TrainingData:
    """Fit normalization on the training frames only and z-score both
    splits' column stores once; the fit reads each stored column once,
    weighted by how many training frame steps use it. The stats are rounded
    to float32 values, the precision a checkpoint stores them in."""
    store = train_frames.store
    fit = NormStats.fit(store, np.bincount(train_frames.pos.ravel(), minlength=store.shape[1]))
    stats = NormStats(fit.mean.astype(np.float32), fit.std.astype(np.float32))
    x_train = Frames(stats.apply(store), train_frames.pos)
    if val_frames is not None:
        # the sides of a split share one store
        val_store = x_train.store if val_frames.store is store else stats.apply(val_frames.store)
        x_val, y_val = Frames(val_store, val_frames.pos), val_frames.y
    else:
        x_val = np.empty((0,) + x_train.shape[1:])
        y_val = np.empty((0, train_frames.y.shape[1]))
    return TrainingData(
        x_train=x_train, y_train=train_frames.y, x_val=x_val, y_val=y_val,
        stats=stats, channels=train_frames.channels, window=train_frames.window,
    )

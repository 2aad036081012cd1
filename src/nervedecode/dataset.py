"""Offline frame extraction: sessions -> decoder input frames for training.

The frames are the streaming engine's own inputs: `engine.FrontEnd` runs over
the whole 10 kHz recording at the frame rate, and each warm tick's
[rows x steps] tensor becomes one frame. Frame labels are the gesture active
at the window end time (the current intent). `evaluate_session` scores a
trained model on a session through these frames.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import FrontEnd
from .errors import ConfigError
from .features import NUM_FEATURES, THRESHOLDS, FeatureThresholds, FeatureWindowSpec, NormStats
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


@dataclass
class FrameSet:
    """Un-normalized frames from one or more sessions.

    x is stored float32 to keep dense extractions affordable; the network
    casts each batch to float64 on entry.
    """

    x: np.ndarray          # [N x rows x steps] float32
    y: np.ndarray          # [N x 6] float64 bits
    t_ms: np.ndarray       # window end time of each frame
    channels: int
    window: FeatureWindowSpec
    # not a field: perfbench reads `frames.thresholds`
    thresholds: ClassVar[FeatureThresholds] = THRESHOLDS


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
    # at most one frame per window step keeps the frame stack within the
    # size of the signal
    if not window.step_samples(RAW_SAMPLE_RATE_HZ) <= period < np.inf:
        raise ConfigError(f"frame rate must be positive and at most one frame per "
                          f"{window.step_ms} ms window step, got {frame_rate_hz} Hz")
    front = FrontEnd(rec.channels, window, frame_rate_hz)
    grid = front.grid
    n_frames = grid.warm_ticks_due(rec.n_samples).size
    if n_frames == 0:
        raise ConfigError("session too short for a single full frame")

    x = np.empty((n_frames, rec.channels * NUM_FEATURES, window.steps), dtype=np.float32)
    y = np.empty((n_frames, 6))
    t_ms = np.empty(n_frames, dtype=np.int64)
    n_labels = len(session.labels)
    filled = 0
    for i, end in enumerate(front.push(rec.samples)):
        x[i] = front.frame(end, np.float32)
        end_ms = end * 1000 // grid.fs
        y[i] = gesture_to_bits(session.labels[min(end_ms // LABEL_STEP_MS, n_labels - 1)])
        t_ms[i] = end_ms
        filled = i + 1
    # the front end fires exactly the ticks the grid counts as due
    assert filled == n_frames, (filled, n_frames)
    return FrameSet(x, y, t_ms, rec.channels, window)


def evaluate_session(params: ModelParams, session: SessionData,
                     frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ) -> list[DofMetrics]:
    """Per-DOF metrics of a trained model on one session, framed with the
    model's own front end and z-scored with its normalization."""
    frames = session_frames(session, params.window, frame_rate_hz)
    if frames.channels != params.channels:
        raise ConfigError("eval session channel count does not match the model")
    return evaluate_frames(params, params.norm_stats.apply(frames.x), frames.y)


def concat_frames(parts: list[FrameSet]) -> FrameSet:
    if not parts:
        raise ConfigError("no frame sets to concatenate")
    first = parts[0]
    if any((p.channels, p.window) != (first.channels, first.window) for p in parts):
        raise ConfigError("frame sets disagree on channels or window geometry")
    return FrameSet(
        np.concatenate([p.x for p in parts]), np.concatenate([p.y for p in parts]),
        np.concatenate([p.t_ms for p in parts]), first.channels, first.window,
    )


def split_frames(frames: FrameSet, val_fraction: float) -> tuple[FrameSet, FrameSet]:
    """Chronological split: the tail fraction becomes the validation set."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    cut = int(round(frames.x.shape[0] * (1.0 - val_fraction)))
    if cut < 1 or cut >= frames.x.shape[0]:
        raise ConfigError("split leaves an empty train or validation side")
    mk = lambda sl: FrameSet(frames.x[sl], frames.y[sl], frames.t_ms[sl],
                             frames.channels, frames.window)
    return mk(slice(None, cut)), mk(slice(cut, None))


def build_training_data(train_frames: FrameSet, val_frames: FrameSet | None) -> TrainingData:
    """Fit normalization on the training frames only and z-score both splits."""
    stats = NormStats.fit(train_frames.x)
    x_train = stats.apply(train_frames.x)
    if val_frames is not None:
        x_val = stats.apply(val_frames.x)
        y_val = val_frames.y
    else:
        x_val = np.empty((0,) + x_train.shape[1:], dtype=np.float32)
        y_val = np.empty((0, train_frames.y.shape[1]))
    return TrainingData(
        x_train=x_train, y_train=train_frames.y, x_val=x_val, y_val=y_val,
        stats=stats, channels=train_frames.channels, window=train_frames.window,
    )

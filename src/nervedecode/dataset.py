"""Offline frame extraction: sessions -> decoder input frames for training.

The batch path mirrors the streaming engine exactly: filter the continuous
10 kHz stream causally, decimate by 2, compute the feature columns with the
shared kernel, then slice frames wherever a tick would have fired. Both paths
take the clock from `features.TickGrid`: a tick's windows end at its end
sample and at every step before it. Offline ticks must all end on that step
grid, so the frames are strided views over one column grid. Frame labels are
the gesture active at the window end time (the current intent).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import (
    FeatureThresholds, FeatureWindowSpec, NormStats, TickGrid, frame_matrix, window_features,
)
from .gestures import gesture_to_bits
from .sigproc import DECIMATION, StreamingDecimator, bandpass_filter_array
from .synthgen import LABEL_STEP_MS, SessionData
from .training import TrainingData

# Frames are extracted every 20 ms, one per label tick, so five epochs see
# enough optimizer steps to converge at the default learning rate.
DEFAULT_FRAME_RATE_HZ = 50.0
_COLUMN_CHUNK = 1024  # columns per kernel call, to bound its temporaries


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
    thresholds: FeatureThresholds


def session_frames(session: SessionData, window: FeatureWindowSpec = FeatureWindowSpec(),
                   thresholds: FeatureThresholds = FeatureThresholds(),
                   frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ) -> FrameSet:
    """Extract decoder frames plus aligned labels from one session."""
    grid = TickGrid(window, frame_rate_hz, session.recording.sample_rate_hz)
    stride = grid.frame_stride()
    filtered = bandpass_filter_array(
        session.recording.samples.astype(np.float64), grid.fs_raw)
    decimated = StreamingDecimator(DECIMATION).process(filtered)

    tick_ends = grid.warm_tick_ends(0, decimated.shape[1])
    if tick_ends.size == 0:
        raise ConfigError("session too short for a single full frame")
    # Every column end on the step grid from the first frame's oldest window
    # to the last frame's newest; frames are `stride` columns apart on it, so
    # they are one strided view (also when a stride skips columns).
    ends = np.arange(grid.window_ends(int(tick_ends[0]))[0], int(tick_ends[-1]) + 1,
                     grid.step, dtype=np.int64)
    feats = np.concatenate(
        [window_features(decimated, ends[s:s + _COLUMN_CHUNK], grid.win, thresholds)
         for s in range(0, ends.size, _COLUMN_CHUNK)], axis=1)

    n_frames = tick_ends.size
    c_dim, _, f_dim = feats.shape
    view = np.lib.stride_tricks.as_strided(
        feats, shape=(n_frames, c_dim, window.steps, f_dim),
        strides=(stride * feats.strides[1], feats.strides[0],
                 feats.strides[1], feats.strides[2]),
        writeable=False,
    )
    x = frame_matrix(view, np.float32)

    y = np.empty((n_frames, 6))
    t_ms = np.empty(n_frames, dtype=np.int64)
    n_labels = len(session.labels)
    for i, s in enumerate(tick_ends):
        end_ms = int(s) * 1000 // grid.fs
        label_idx = min(end_ms // LABEL_STEP_MS, n_labels - 1)
        y[i] = gesture_to_bits(session.labels[label_idx])
        t_ms[i] = end_ms
    return FrameSet(x, y, t_ms, session.recording.channels, window, thresholds)


def concat_frames(parts: list[FrameSet]) -> FrameSet:
    if not parts:
        raise ConfigError("no frame sets to concatenate")
    first = parts[0]
    if any((p.channels, p.window, p.thresholds) !=
           (first.channels, first.window, first.thresholds) for p in parts):
        raise ConfigError("frame sets disagree on channels, window geometry or thresholds")
    return FrameSet(
        np.concatenate([p.x for p in parts]), np.concatenate([p.y for p in parts]),
        np.concatenate([p.t_ms for p in parts]), first.channels, first.window,
        first.thresholds,
    )


def split_frames(frames: FrameSet, val_fraction: float) -> tuple[FrameSet, FrameSet]:
    """Chronological split: the tail fraction becomes the validation set."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    cut = int(round(frames.x.shape[0] * (1.0 - val_fraction)))
    if cut < 1 or cut >= frames.x.shape[0]:
        raise ConfigError("split leaves an empty train or validation side")
    mk = lambda sl: FrameSet(frames.x[sl], frames.y[sl], frames.t_ms[sl],
                             frames.channels, frames.window, frames.thresholds)
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
        stats=stats, channels=train_frames.channels,
        window=train_frames.window, thresholds=train_frames.thresholds,
    )

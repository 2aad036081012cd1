"""Offline frame extraction: sessions -> decoder input frames for training.

The batch path mirrors the streaming engine exactly: filter the continuous
10 kHz stream causally, decimate by 2, compute the per-window feature columns
on the 20 ms grid with the shared kernel, then slice frames wherever a tick
would have fired. Frame labels are the gesture active at the window end time
(the current intent).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import (
    NUM_FEATURES, FeatureThresholds, FeatureWindowSpec, NormStats, frame_matrix,
    window_features,
)
from .gestures import gesture_to_bits
from .sigproc import BandSpec, bandpass_filter_array
from .synthgen import LABEL_STEP_MS, SessionData
from .training import TrainingData

# Frames are extracted every 20 ms, one per label tick, so five epochs see
# enough optimizer steps to converge at the default learning rate.
DEFAULT_FRAME_RATE_HZ = 50.0
_CACHE_CHUNK = 1024


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


def _window_grid_features(decimated: np.ndarray, win: int, step: int,
                          thresholds: FeatureThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Features of every window on the step grid; chunked to bound memory."""
    n = decimated.shape[1]
    ends = np.arange(win, n + 1, step, dtype=np.int64)
    chunks = []
    for start in range(0, ends.size, _CACHE_CHUNK):
        chunk_ends = ends[start:start + _CACHE_CHUNK]
        chunks.append(window_features(decimated, chunk_ends, win, thresholds))
    feats = np.concatenate(chunks, axis=1) if chunks else \
        np.empty((decimated.shape[0], 0, NUM_FEATURES))
    return ends, feats


def session_frames(session: SessionData, window: FeatureWindowSpec = FeatureWindowSpec(),
                   thresholds: FeatureThresholds = FeatureThresholds(),
                   frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ,
                   band: BandSpec = BandSpec()) -> FrameSet:
    """Extract decoder frames plus aligned labels from one session."""
    fs_raw = session.recording.sample_rate_hz
    fs = fs_raw // 2
    step = window.step_samples(fs)
    win = window.window_samples(fs)
    steps = window.steps
    frame_step = fs / frame_rate_hz
    if abs(frame_step - round(frame_step)) > 1e-9 or int(round(frame_step)) % step != 0:
        raise ConfigError(
            f"frame rate {frame_rate_hz} Hz must land on the {window.step_ms} ms window grid")
    frame_step = int(round(frame_step))

    filtered = bandpass_filter_array(
        session.recording.samples.astype(np.float64), fs_raw, band)
    decimated = filtered[:, ::2]
    n = decimated.shape[1]

    ends, feats = _window_grid_features(decimated, win, step, thresholds)
    first_end = int(ends[0])

    need = window.min_history_samples(fs)
    tick_ends = np.arange(0, n + 1, frame_step, dtype=np.int64)
    tick_ends = tick_ends[tick_ends >= need]
    if tick_ends.size == 0:
        raise ConfigError("session too short for a single full frame")

    n_frames = tick_ends.size
    # Ticks are frame_step apart and frame_step is a whole number of grid
    # steps, so the frames form one strided view over the window grid.
    stride_cols = frame_step // step
    oldest = int(tick_ends[0] - first_end) // step - steps + 1
    c_dim, _, f_dim = feats.shape
    view = np.lib.stride_tricks.as_strided(
        feats[:, oldest:, :],
        shape=(n_frames, c_dim, steps, f_dim),
        strides=(stride_cols * feats.strides[1], feats.strides[0],
                 feats.strides[1], feats.strides[2]),
        writeable=False,
    )
    x = frame_matrix(view, np.float32)

    y = np.empty((n_frames, 6))
    t_ms = np.empty(n_frames, dtype=np.int64)
    n_labels = len(session.labels)
    for i, s in enumerate(tick_ends):
        end_ms = int(s) * 1000 // fs
        label_idx = min(end_ms // LABEL_STEP_MS, n_labels - 1)
        y[i] = gesture_to_bits(session.labels[label_idx])
        t_ms[i] = end_ms
    return FrameSet(x, y, t_ms, session.recording.channels, window, thresholds)


def concat_frames(parts: list[FrameSet]) -> FrameSet:
    if not parts:
        raise ConfigError("no frame sets to concatenate")
    first = parts[0]
    if any(p.channels != first.channels or p.window != first.window for p in parts):
        raise ConfigError("frame sets disagree on channels or window geometry")
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

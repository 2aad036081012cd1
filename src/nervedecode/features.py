"""Sliding-window time-domain feature extraction and decoder input assembly.

14 features are computed per channel per window, in this fixed order:

    ZC    zero crossings: sign changes with |step| above eps_zc
    SSC   slope sign changes: (x[i]-x[i-1])*(x[i]-x[i+1]) >= eps_ssc
    WL    waveform length, sum |dx|
    WA    Wilson amplitude: count |dx| > wamp
    MAB   mean absolute amplitude
    MSQ   mean square
    RMS   sqrt(MSQ)
    V3    cube root of mean |x|^3
    LD    log detector, exp(mean ln(|x| + log_eps))
    DABS  sqrt(sum dx^2 / (n-1))
    MFL   log10(sqrt(sum dx^2) + log_eps); the additive guard keeps the
          value finite on constant windows
    MPR   myopulse percentage rate: fraction of |x| >= mpr
    MAVS  mean-absolute slope: MAB(second half) - MAB(first half)
    WMA   weighted mean absolute: center half weighted 1, outer quarters 0.5

The decoder input is a [channels*14 x steps] matrix whose columns are windows
ending step_ms apart, oldest first; channel-major row order (all 14 features
of channel 0, then channel 1, ...).

The count features compare against fixed thresholds, `THRESHOLDS`: they are
part of the feature definition, not a setting. The checkpoint header records
them, and a checkpoint that names other values is refused.

`window_features` copies every window it is asked for, whatever the spacing
of their ends, into one [channels x windows x samples] block, and all
reductions run along each window's own samples only, so computing a window's
features inside a block of 5 or a block of 5000 produces bit-for-bit
identical values. The front end's column store (`engine.FrontEnd`), which
makes both the streamed inputs and the offline frames, is the kernel's one
caller in the program.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataError, NotReadyError
from .sigproc import DECIMATION, RAW_SAMPLE_RATE_HZ

NUM_FEATURES = 14
FEATURE_NAMES = (
    "ZC", "SSC", "WL", "WA", "MAB", "MSQ", "RMS",
    "V3", "LD", "DABS", "MFL", "MPR", "MAVS", "WMA",
)


@dataclass(frozen=True)
class FeatureThresholds:
    """Comparison thresholds used by the count-type features.

    The values are chosen relative to the synthetic generator's unit-scale
    noise floor. The program uses one instance, `THRESHOLDS`; other values
    serve only `extract_features` as the per-window definition.
    """

    eps_zc: float = 0.0
    eps_ssc: float = 0.0
    wamp: float = 0.05
    mpr: float = 0.05
    log_eps: float = 1e-12

    def as_dict(self) -> dict:
        return {
            "eps_zc": self.eps_zc, "eps_ssc": self.eps_ssc,
            "wamp": self.wamp, "mpr": self.mpr, "log_eps": self.log_eps,
        }


THRESHOLDS = FeatureThresholds()


@dataclass(frozen=True)
class FeatureWindowSpec:
    """Window geometry for the sliding extraction.

    history_s must be an integer multiple of the step so the tensor has a
    whole number of columns; the default 1 s / 20 ms gives 50 steps. Each
    window reaches window_ms further back, so a full frame needs
    history_s + window_ms/1000 seconds of buffered samples (1.1 s at
    defaults).
    """

    window_ms: float = 100.0
    step_ms: float = 20.0
    history_s: float = 1.0

    def __post_init__(self):
        if self.window_ms <= 0 or self.step_ms <= 0 or self.history_s <= 0:
            raise ConfigError("window_ms, step_ms, history_s must all be positive")
        steps = self.history_s * 1000.0 / self.step_ms
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(
                f"history_s/step_ms must be an integer step count, got {steps}")

    @property
    def steps(self) -> int:
        return int(round(self.history_s * 1000.0 / self.step_ms))

    def window_samples(self, sample_rate_hz: float) -> int:
        n = self.window_ms * sample_rate_hz / 1000.0
        if abs(n - round(n)) > 1e-9 or round(n) < 4:
            raise ConfigError(f"window_ms={self.window_ms} at fs={sample_rate_hz} "
                              f"gives a non-integral or too-short window ({n})")
        return int(round(n))

    def step_samples(self, sample_rate_hz: float) -> int:
        n = self.step_ms * sample_rate_hz / 1000.0
        if abs(n - round(n)) > 1e-9:
            raise ConfigError(f"step_ms={self.step_ms} is not a whole number of samples "
                              f"at fs={sample_rate_hz}")
        return int(round(n))

    def min_history_samples(self, sample_rate_hz: float) -> int:
        return (self.steps - 1) * self.step_samples(sample_rate_hz) + self.window_samples(sample_rate_hz)


class TickGrid:
    """The sample clock of the front end, for offline frames and the engine.

    Tick m is due once floor(m * fs_raw / rate_hz) raw samples have arrived,
    fs_raw being `RAW_SAMPLE_RATE_HZ` and rate_hz taken as the exact value of
    its float; its newest window ends there, at decimated sample
    floor(raw / DECIMATION) (exclusive). A tick's `steps` windows end at its
    end sample and at every `step` before it, and it is out of warm-up once
    its end reaches `need`.
    """

    def __init__(self, window: FeatureWindowSpec, rate_hz: float):
        self.window = window
        # the tick period in raw samples as the exact ratio num/den
        period = Fraction(RAW_SAMPLE_RATE_HZ) / Fraction(rate_hz)
        self._num, self._den = period.as_integer_ratio()
        self.fs = RAW_SAMPLE_RATE_HZ // DECIMATION
        self.win = window.window_samples(self.fs)
        self.step = window.step_samples(self.fs)
        self.need = window.min_history_samples(self.fs)

    def tick_end_raw(self, m):
        """Raw samples tick m (an int or an int array) ends at; it is due
        once that many have arrived."""
        if isinstance(m, np.ndarray):
            return (m.astype(object) * self._num // self._den).astype(np.int64)
        return int(m) * self._num // self._den

    def tick_end(self, m):
        """Decimated sample at which tick m's newest window ends (exclusive)."""
        return self.tick_end_raw(m) // DECIMATION

    def window_ends(self, end):
        """The `steps` window ends of a tick that ends at `end`, oldest first;
        a column of tick ends gives one row per tick."""
        return end - self.step * np.arange(self.window.steps - 1, -1, -1, dtype=np.int64)

    def _first_tick_at(self, raw: int) -> int:
        """The first tick that ends at raw sample `raw` or later."""
        return -(-int(raw) * self._den // self._num)

    def warm_tick_ends(self, first_end: int, last_end: int) -> np.ndarray:
        """Ends of the warm ticks that end in [first_end, last_end]."""
        first = self._first_tick_at(max(first_end, self.need) * DECIMATION)
        stop = self._first_tick_at((last_end + 1) * DECIMATION)
        return self.tick_end(np.arange(first, stop, dtype=np.int64))

    def columns_between(self, lo: int, hi: int) -> np.ndarray:
        """Sorted window ends e with lo < e <= hi that some warm tick uses."""
        ends = self.warm_tick_ends(lo + 1, hi + (self.window.steps - 1) * self.step)
        cols = self.window_ends(ends[:, None]).ravel()
        return np.unique(cols[(cols > lo) & (cols <= hi)])


@dataclass(frozen=True)
class NormStats:
    """Per-row z-score statistics, computed on training data only.

    Rows with zero variance get their std clamped to 1 so normalization
    stays defined.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        s = np.asarray(self.std, dtype=np.float64)
        if m.shape != s.shape or m.ndim != 1:
            raise ConfigError(f"mean/std must be matching vectors, got {m.shape} vs {s.shape}")
        if np.any(s <= 0):
            raise ConfigError("NormStats std must be strictly positive")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    @property
    def rows(self) -> int:
        return self.mean.shape[0]

    @staticmethod
    def identity(rows: int) -> "NormStats":
        return NormStats(np.zeros(rows), np.ones(rows))

    @staticmethod
    def fit(x: np.ndarray) -> "NormStats":
        """Pooled per-row mean/std over a [N x rows x T] stack.

        Two passes in float64; the second runs over 512-frame chunks so a
        float32 stack is never widened whole. Each chunk is widened in C
        order, so a strided view of a column store gives the same bits as
        its dense copy; the chunk size fixes the summation order.
        """
        if x.ndim != 3 or x.shape[0] * x.shape[2] == 0:
            raise ConfigError(f"NormStats.fit needs a non-empty [N x rows x T] stack, "
                              f"got {x.shape}")
        mean = x.mean(axis=(0, 2), dtype=np.float64)
        var = np.zeros_like(mean)
        n = x.shape[0] * x.shape[2]
        for start in range(0, x.shape[0], 512):
            chunk = x[start:start + 512].astype(np.float64, order="C")
            var += np.sum(np.square(chunk - mean[None, :, None]), axis=(0, 2))
        std = np.sqrt(var / n)
        std[std <= 0.0] = 1.0
        return NormStats(mean, std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Row-wise z-score of a [rows x T] or [N x rows x T] array,
        computed in x's own dtype: out[..., r, t] = (x[..., r, t] - mean[r]) / std[r]."""
        if x.shape[-2] != self.rows:
            raise ConfigError(f"stats rows {self.rows} != value rows {x.shape[-2]}")
        mean = self.mean.astype(x.dtype, copy=False)[:, None]
        std = self.std.astype(x.dtype, copy=False)[:, None]
        return (x - mean) / std


def _feature_block(x: np.ndarray, thr: FeatureThresholds) -> np.ndarray:
    """Feature kernel over the last axis: [..., n] float64 -> [..., 14].

    Every reduction is per-row over the contiguous last axis, which keeps the
    result independent of how many windows share the call.
    """
    n = x.shape[-1]
    abs_x = np.abs(x)
    dx = np.diff(x, axis=-1)
    abs_dx = np.abs(dx)

    zc = np.count_nonzero((x[..., :-1] * x[..., 1:] < 0.0) & (abs_dx >= thr.eps_zc),
                          axis=-1).astype(np.float64)
    # (x[i]-x[i-1])*(x[i]-x[i+1]) over interior points equals -dx[i-1]*dx[i]
    ssc = np.count_nonzero(-dx[..., :-1] * dx[..., 1:] >= thr.eps_ssc,
                           axis=-1).astype(np.float64)
    wl = np.sum(abs_dx, axis=-1)
    wa = np.count_nonzero(abs_dx > thr.wamp, axis=-1).astype(np.float64)
    mab = np.mean(abs_x, axis=-1)
    msq = np.mean(np.square(x), axis=-1)
    rms = np.sqrt(msq)
    v3 = np.cbrt(np.mean(abs_x ** 3, axis=-1))
    ld = np.exp(np.mean(np.log(abs_x + thr.log_eps), axis=-1))
    sum_dx2 = np.sum(np.square(dx), axis=-1)
    dabs = np.sqrt(sum_dx2 / (n - 1))
    mfl = np.log10(np.sqrt(sum_dx2) + thr.log_eps)
    mpr = np.count_nonzero(abs_x >= thr.mpr, axis=-1) / n
    half = n // 2
    mavs = np.mean(abs_x[..., half:], axis=-1) - np.mean(abs_x[..., :half], axis=-1)
    idx = np.arange(n, dtype=np.float64)
    weights = np.where((idx >= 0.25 * n) & (idx < 0.75 * n), 1.0, 0.5)
    wma = np.sum(abs_x * weights, axis=-1) / n

    return np.stack([zc, ssc, wl, wa, mab, msq, rms, v3, ld, dabs, mfl, mpr, mavs, wma],
                    axis=-1)


def extract_features(window: np.ndarray, thresholds: FeatureThresholds = THRESHOLDS) -> np.ndarray:
    """Features of a single-channel window; returns a length-14 float vector.
    The per-window definition; `thresholds` other than `THRESHOLDS` exist
    only to state properties of the definition."""
    w = np.ascontiguousarray(window, dtype=np.float64)
    if w.ndim != 1:
        raise DataError(f"expected a 1-D window, got shape {w.shape}")
    if w.size < 4:
        raise DataError(f"window too short: {w.size} samples (need >= 4)")
    if not np.all(np.isfinite(w)):
        raise DataError("window contains non-finite samples")
    return _feature_block(w, thresholds)


def window_features(samples: np.ndarray, end_indices: np.ndarray,
                    window_samples: int) -> np.ndarray:
    """Features for many windows of a multichannel signal in one kernel call.

    samples: [channels x n]; each window k covers samples
    [end_indices[k]-window_samples, end_indices[k]). Returns
    [channels x len(end_indices) x 14].
    """
    samples = np.asarray(samples, dtype=np.float64)
    ends = np.asarray(end_indices, dtype=np.int64)
    if samples.ndim != 2:
        raise DataError(f"samples must be [channels x n], got {samples.shape}")
    if ends.size and (ends.min() < window_samples or ends.max() > samples.shape[1]):
        raise NotReadyError(
            f"window ends {ends.min()}..{ends.max()} out of range for {samples.shape[1]} samples")
    windows = np.lib.stride_tricks.sliding_window_view(samples, window_samples, axis=1)
    return _feature_block(windows[:, ends - window_samples], THRESHOLDS)

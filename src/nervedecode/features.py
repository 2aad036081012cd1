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

Every feature is a sum over the window, then a cheap transform: a sum of a
term of each sample, of each adjacent pair or of each triple, and for MAVS
and WMA of |x| over halves and quarters. The kernel (`BlockSums` and
`window_features`) computes each sample's terms once and adds them up per
block of `TickGrid.block` samples; a window then adds its blocks' partial
sums, leaving out at its first blocks the pair and triples that start
before it. A column's values depend on its blocks' sums alone, which depend
only on the samples, so a window computed inside a call of 5 windows or of
5000, or from a stream pushed in any pieces, has bit-for-bit identical
features. `extract_features` is the same kernel over one window, in the
largest blocks that fit it: its counts equal a column's exactly, its other
features to rounding. The front end (`engine.FrontEnd`), which makes the
columns of both the streamed inputs and the offline frames, is the kernel's
one caller in the program.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

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
        # The feature kernel's block: the window, its half, the bounds of its
        # quarters and every window end are whole numbers of blocks. Window
        # ends lie whole steps before a tick end. The tick ends are the
        # multiples of the tick period where that is a whole number of
        # samples; otherwise consecutive ends differ by q and q + 1 samples,
        # and only one-sample blocks fit them all.
        period = Fraction(self._num, self._den * DECIMATION)
        tick = period.numerator if period.denominator == 1 else 1
        n = self.win
        self.block = math.gcd(n, n // 2, -(-n // 4), -(-3 * n // 4), self.step, tick)

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

    def is_tick_end(self, end: int) -> bool:
        """Whether some tick ends at decimated sample `end`: the first tick
        that ends at or after it ends there."""
        return self.tick_end(self._first_tick_at(end * DECIMATION)) == end

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
    def fit(store: np.ndarray, counts: np.ndarray) -> "NormStats":
        """Pooled per-row mean/std of frames over a column store.

        store [rows x columns] holds each column once, and counts[c] is how
        many frame steps use column c, so the stats are those of the
        [N x rows x steps] frames without reading any column twice. Two
        passes in float64 with numpy reductions, not a BLAS product, so the
        bits do not depend on the BLAS thread count.
        """
        w = np.asarray(counts, dtype=np.float64)
        if store.ndim != 2 or w.shape != (store.shape[1],) or np.any(w < 0) or w.sum() == 0:
            raise ConfigError(f"NormStats.fit needs a [rows x columns] store and a count "
                              f"per column, some positive, got {store.shape} and {w.shape}")
        n = w.sum()
        x = store.astype(np.float64)
        mean = np.sum(x * w, axis=1) / n
        x -= mean[:, None]
        np.square(x, out=x)
        x *= w
        std = np.sqrt(np.sum(x, axis=1) / n)
        std[std <= 0.0] = 1.0
        return NormStats(mean, std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Row-wise z-score of a [rows x T] or [N x rows x T] array, in
        float64: out[..., r, t] = (x[..., r, t] - mean[r]) / std[r]."""
        if x.shape[-2] != self.rows:
            raise ConfigError(f"stats rows {self.rows} != value rows {x.shape[-2]}")
        return (x - self.mean[:, None]) / self.std[:, None]


# Rows of the kernel's per-sample terms. Rows 0-4 are terms of the sample
# itself: |x| (MAB, MAVS, WMA), x^2 (MSQ, RMS), |x|^3 (V3), ln(|x| + log_eps)
# (LD) and |x| >= mpr (MPR). Rows 5-8 are terms of the pair that ends at the
# sample: the zero crossing (ZC), |dx| (WL), |dx| > wamp (WA) and dx^2 (DABS,
# MFL). Row 9 is the slope sign change of the triple that ends there (SSC).
_TERMS = 10


def _last_sum(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each in an order fixed by that axis alone:
    `einsum`'s own loop (no BLAS), several times faster than `sum` on the
    short rows of block sums."""
    return np.einsum("...i->...", x)


class BlockSums:
    """The feature kernel's state for one stream of decimated samples:
    partial sums per block of `block` samples, block j holding samples
    [j*block, (j+1)*block).

    Samples go in with `append`, which only queues them. `window_features`
    folds the whole queued blocks into partial sums when it is asked for
    windows, so each sample's terms are computed once, and keeps the blocks
    that a window ending after the last one asked for can still use. Where a
    window needs no block between the kept ones and its own, those blocks are
    skipped. A block's sums depend on its own samples and the two before it
    only, so they do not depend on how the stream was cut into `append`
    calls. Single-owner.
    """

    def __init__(self, channels: int, block: int,
                 thresholds: FeatureThresholds = THRESHOLDS):
        self.block = block
        self.thresholds = thresholds
        self.count = 0  # samples appended
        self.first = 0  # block of the oldest kept partial sums
        self._full = np.empty((channels, _TERMS, 0))
        self._opening = np.empty((channels, 6, 0))
        # two samples before the first queued one (zeros before the stream);
        # only terms that no window uses read the zeros
        self._queue = [np.zeros((channels, 2))]

    def append(self, samples: np.ndarray) -> None:
        self._queue.append(samples)
        self.count += samples.shape[1]

    def _fold(self, start: int) -> None:
        """Fold every whole queued block from block `start` on; queued blocks
        before `start`, and every kept one if there are such, are dropped."""
        g = self.block
        folded = self.first + self._full.shape[2]
        x = np.concatenate(self._queue, axis=1)  # samples from folded*g - 2 on
        if start > folded:
            x = x[:, (start - folded) * g:]
            self.first = start
            self._full, self._opening = self._full[:, :, :0], self._opening[:, :, :0]
        whole = (x.shape[1] - 2) // g * g
        full, opening = self._block_sums(x[:, :whole + 2])
        self._full = np.concatenate([self._full, full], axis=2)
        self._opening = np.concatenate([self._opening, opening], axis=2)
        self._queue = [x[:, whole:].copy()]  # a few samples; frees x

    def _block_sums(self, x: np.ndarray):
        """Partial sums of the blocks of x [channels x 2 + nb*g]: two samples
        of context, then nb whole blocks of g samples. Returns `full`
        [channels x 10 x nb], each block's sums of its samples' terms, and
        `opening` [channels x 6 x nb]: rows 0-4 are the pair and triple sums
        of the block when it opens a window, without the pair and triples
        that start before it; row 5 is the triple sum of the block when it is
        a window's second, without the triple that starts before the window
        (its own first when g is 1)."""
        g, thr = self.block, self.thresholds
        channels, nb = x.shape[0], (x.shape[1] - 2) // g
        s = x[:, 2:]
        d = np.diff(x, axis=1)  # the pair that ends at s[:, k] is d[:, k + 1]
        a = np.abs(s)
        ad = np.abs(d[:, 1:])
        t = np.empty((channels, _TERMS, s.shape[1]))
        t[:, 0] = a
        np.square(s, out=t[:, 1])
        np.multiply(t[:, 1], a, out=t[:, 2])
        np.log(a + thr.log_eps, out=t[:, 3])
        t[:, 4] = a >= thr.mpr
        t[:, 5] = (x[:, 1:-1] * s < 0.0) & (ad >= thr.eps_zc)
        t[:, 6] = ad
        t[:, 7] = ad > thr.wamp
        np.square(d[:, 1:], out=t[:, 8])
        # (x[i]-x[i-1])*(x[i]-x[i+1]) at the centre i equals -dx[i-1]*dx[i]
        t[:, 9] = -d[:, :-1] * d[:, 1:] >= thr.eps_ssc
        t = t.reshape(channels, _TERMS, nb, g)
        opening = np.concatenate([_last_sum(t[:, 5:9, :, 1:]), _last_sum(t[:, 9:, :, 2:]),
                                  _last_sum(t[:, 9:, :, max(0, 2 - g):])], axis=1)
        return _last_sum(t), opening


def window_features(sums: BlockSums, end_indices: np.ndarray,
                    window_samples: int) -> np.ndarray:
    """Features of many windows of the stream behind `sums`, in one kernel call.

    Window k covers samples [end_indices[k]-window_samples, end_indices[k]),
    and its ends, its length, its half and the bounds of its quarters
    (rounded up) must be whole numbers of blocks. A window's 14 features come
    from the sums of its blocks' partial sums, taken with additions only: the
    first block without the pair and triples that start before the window,
    the second without the triple that does so when blocks are one sample
    long. Windows must end after every window of the previous call. Returns
    [channels x len(end_indices) x 14].
    """
    ends = np.asarray(end_indices, dtype=np.int64)
    g, n = sums.block, window_samples
    half, q1, q3 = n // 2, -(-n // 4), -(-3 * n // 4)
    if n % g or half % g or q1 % g or q3 % g or np.any(ends % g):
        raise ConfigError(f"{n}-sample windows ending at multiples of {g} do not fit "
                          f"blocks of {g} samples")
    channels = sums._full.shape[0]
    if ends.size == 0:
        return np.empty((channels, 0, NUM_FEATURES))
    first = (ends - n) // g
    if ends.min() < n or ends.max() > sums.count:
        raise NotReadyError(
            f"window ends {ends.min()}..{ends.max()} out of range for {sums.count} samples")
    sums._fold(int(first.min()))
    if first.min() < sums.first:
        raise NotReadyError(f"window from block {first.min()} reaches before the kept "
                            f"block {sums.first}")
    m = n // g
    rel = first - sums.first
    blocks = sums._full[:, :, rel[:, None] + np.arange(m)]  # [C x 10 x W x m]
    blocks[:, 5:, :, 0] = sums._opening[:, :5, rel]
    blocks[:, 9, :, 1] = sums._opening[:, 5, rel + 1]
    # keep the blocks that a window ending after the last one asked for uses
    drop = int(ends.max()) // g - m + 1 - sums.first
    if drop > 0:
        sums._full, sums._opening = sums._full[:, :, drop:], sums._opening[:, :, drop:]
        sums.first += drop

    total = _last_sum(blocks)  # [C x 10 x W]
    a = blocks[:, 0]
    q1, h, q3 = q1 // g, half // g, q3 // g
    quarter = [_last_sum(a[..., lo:hi]) for lo, hi in ((0, q1), (q1, h), (h, q3), (q3, m))]
    thr = sums.thresholds
    msq = total[:, 1] / n
    sum_dx2 = total[:, 8]
    return np.stack([
        total[:, 5], total[:, 9], total[:, 6], total[:, 7],  # ZC, SSC, WL, WA
        total[:, 0] / n, msq, np.sqrt(msq),                  # MAB, MSQ, RMS
        np.cbrt(total[:, 2] / n), np.exp(total[:, 3] / n),   # V3, LD
        np.sqrt(sum_dx2 / (n - 1)), np.log10(np.sqrt(sum_dx2) + thr.log_eps),  # DABS, MFL
        total[:, 4] / n,                                     # MPR
        (quarter[2] + quarter[3]) / (n - half) - (quarter[0] + quarter[1]) / half,  # MAVS
        (quarter[1] + quarter[2] + 0.5 * (quarter[0] + quarter[3])) / n,           # WMA
    ], axis=-1)


def extract_features(window: np.ndarray, thresholds: FeatureThresholds = THRESHOLDS) -> np.ndarray:
    """Features of a single-channel window; returns a length-14 float vector.
    The per-window definition: the program's kernel over one window, in the
    largest blocks that fit it. `thresholds` other than `THRESHOLDS` exist
    only to state properties of the definition."""
    w = np.ascontiguousarray(window, dtype=np.float64)
    if w.ndim != 1:
        raise DataError(f"expected a 1-D window, got shape {w.shape}")
    n = w.size
    if n < 4:
        raise DataError(f"window too short: {n} samples (need >= 4)")
    if not np.all(np.isfinite(w)):
        raise DataError("window contains non-finite samples")
    sums = BlockSums(1, math.gcd(n, n // 2, -(-n // 4), -(-3 * n // 4)), thresholds)
    sums.append(w[None])
    return window_features(sums, np.array([n]), n)[0, 0]

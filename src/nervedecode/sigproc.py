"""Deterministic DSP frontend: band-pass filtering, decimation, power and SNR.

The acquisition chain is: raw multichannel signal at 10 kHz -> causal
Butterworth band-pass 25-600 Hz -> decimate by 2 to 5 kHz. The band-pass
doubles as the anti-alias filter for the factor-2 decimation, so there is no
separate anti-alias stage.

Signal strength is reported in dB of mean square amplitude; the SNR is the
quotient of the flex and rest dB values (a dimensionless ratio of dB values,
implemented exactly as defined, odd as the units are).
"""
from __future__ import annotations

from dataclasses import dataclass
import struct

import numpy as np
from scipy import signal as sps

from .errors import ConfigError, DataError

RAW_SAMPLE_RATE_HZ = 10_000
DECODE_SAMPLE_RATE_HZ = 5_000
DECIMATION = RAW_SAMPLE_RATE_HZ // DECODE_SAMPLE_RATE_HZ

# Samples discarded before any power/SNR measurement, to let the causal
# filter transient die out.
WARMUP_S = 0.2

MAX_CHANNELS = 16


@dataclass(frozen=True)
class Recording:
    """Multichannel raw signal block; samples is a [channels x n] array.

    Treated as immutable after construction; safe to share between threads.
    """

    sample_rate_hz: int
    samples: np.ndarray
    channel_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        arr = np.asarray(self.samples)
        if arr.ndim != 2:
            raise DataError(f"samples must be [channels x n], got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[0] > MAX_CHANNELS:
            raise DataError(f"channel count must be in 1..{MAX_CHANNELS}, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise DataError("recording must hold at least one sample per channel")
        if not self.channel_ids:
            object.__setattr__(self, "channel_ids", tuple(f"ch{i:02d}" for i in range(arr.shape[0])))
        elif len(self.channel_ids) != arr.shape[0]:
            raise DataError("channel_ids length does not match channel count")
        object.__setattr__(self, "samples", arr)
        arr.setflags(write=False)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class BandSpec:
    """Butterworth band-pass description.

    `order` is the prototype (per-edge) order: order 4 yields an 8-pole
    band-pass realized as 4 cascaded second-order sections, giving >= 24 dB
    one octave outside either edge. A 2-pole-per-edge filter would only reach
    about 12 dB there, short of the 20 dB the chain requires.
    """

    low_hz: float = 25.0
    high_hz: float = 600.0
    order: int = 4

    def __post_init__(self):
        if self.order <= 0 or self.order % 2 != 0:
            raise ConfigError(f"filter order must be a positive even integer, got {self.order}")
        if not (0.0 < self.low_hz < self.high_hz):
            raise ConfigError(f"need 0 < low < high, got low={self.low_hz}, high={self.high_hz}")

    def validate_for(self, sample_rate_hz: float) -> None:
        if self.high_hz >= sample_rate_hz / 2:
            raise ConfigError(
                f"band upper edge {self.high_hz} Hz must stay below Nyquist "
                f"({sample_rate_hz / 2} Hz at fs={sample_rate_hz})"
            )

    def sos(self, sample_rate_hz: float) -> np.ndarray:
        self.validate_for(sample_rate_hz)
        return sps.butter(
            self.order, [self.low_hz, self.high_hz], btype="bandpass",
            fs=sample_rate_hz, output="sos",
        )


@dataclass(frozen=True)
class SnrReport:
    power_flex_db: float
    power_rest_db: float
    snr: float


def bandpass_filter_array(x: np.ndarray, sample_rate_hz: float, band: BandSpec = BandSpec()) -> np.ndarray:
    """Causal band-pass along the last axis, from zero state.

    Output length equals input length and the result is reproducible: there
    is no look-ahead and no per-call hidden state.
    """
    sos = band.sos(sample_rate_hz)
    return sps.sosfilt(sos, np.asarray(x), axis=-1)


class StreamingBandpass:
    """Chunked causal band-pass with carried filter state.

    Feeding a signal in chunks produces bit-identical output to filtering it
    in one call: the underlying recursion is per-sample, and the section
    states are carried across chunk boundaries. Single-owner object, not
    meant to be shared across threads.
    """

    def __init__(self, channels: int, sample_rate_hz: float, band: BandSpec = BandSpec()):
        self._sos = band.sos(sample_rate_hz)
        self._zi = np.zeros((self._sos.shape[0], channels, 2))
        self.channels = channels

    def process(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.channels:
            raise DataError(f"expected [{self.channels} x n] block, got {block.shape}")
        out, self._zi = sps.sosfilt(self._sos, block, axis=-1, zi=self._zi)
        return out


class StreamingDecimator:
    """Factor-k decimation: keep every k-th sample of the stream, starting at
    index 0, whatever the chunking. One call on a whole signal is the offline
    decimation. The caller must band-limit the signal below the new Nyquist;
    the 25-600 Hz band-pass does so for factor 2 at 10 kHz."""

    def __init__(self, factor: int):
        if factor <= 0:
            raise ConfigError(f"decimation factor must be positive, got {factor}")
        self.factor = factor
        self._offset = 0  # index of the next wanted sample within the incoming stream, mod factor

    def process(self, block: np.ndarray) -> np.ndarray:
        n = block.shape[-1]
        out = block[..., self._offset::self.factor]
        self._offset = (self._offset - n) % self.factor
        return out


def signal_power_db(window: np.ndarray) -> float:
    """10*log10 of the mean square amplitude of a sample window.

    An all-zero window returns -inf as a sentinel; `snr` refuses non-finite
    inputs, so the sentinel can never silently propagate into an SNR.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.size < 1:
        raise DataError("power window must hold at least one sample")
    mean_sq = float(np.mean(np.square(w)))
    if mean_sq == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean_sq)


def snr(power_flex_db: float, power_rest_db: float) -> float:
    """Quotient of the two dB values (dimensionless ratio of dB values)."""
    if not (np.isfinite(power_flex_db) and np.isfinite(power_rest_db)):
        raise ConfigError("SNR inputs must be finite dB values")
    if power_rest_db == 0.0:
        raise ConfigError("SNR undefined: rest power is exactly 0 dB")
    return float(power_flex_db) / float(power_rest_db)


def snr_report(flex_window: np.ndarray, rest_window: np.ndarray) -> SnrReport:
    p_flex = signal_power_db(flex_window)
    p_rest = signal_power_db(rest_window)
    return SnrReport(p_flex, p_rest, snr(p_flex, p_rest))


# ---------------------------------------------------------------------------
# Raw recording file format ("NRD1"): little-endian binary.
#   magic "NRD1" | u32 sample_rate_hz | u16 channel_count |
#   u64 samples_per_channel | channel-major float32 data
# ---------------------------------------------------------------------------

NRD1_MAGIC = b"NRD1"
_NRD1_HEADER = struct.Struct("<4sIHQ")


def write_nrd1(rec: Recording) -> bytes:
    data = np.ascontiguousarray(rec.samples, dtype="<f4")
    header = _NRD1_HEADER.pack(NRD1_MAGIC, rec.sample_rate_hz, rec.channels, rec.n_samples)
    return header + data.tobytes()


def read_nrd1(blob: bytes) -> Recording:
    if len(blob) < _NRD1_HEADER.size:
        raise DataError("NRD1 blob truncated before header end")
    magic, rate, channels, n = _NRD1_HEADER.unpack_from(blob, 0)
    if magic != NRD1_MAGIC:
        raise DataError(f"bad NRD1 magic {magic!r}")
    expected = _NRD1_HEADER.size + 4 * channels * n
    if len(blob) != expected:
        raise DataError(f"NRD1 payload length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", count=channels * n, offset=_NRD1_HEADER.size)
    return Recording(rate, data.reshape(channels, n).copy())


def save_nrd1(rec: Recording, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_nrd1(rec))


def load_nrd1(path) -> Recording:
    with open(path, "rb") as fh:
        return read_nrd1(fh.read())

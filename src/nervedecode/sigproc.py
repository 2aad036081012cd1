"""Deterministic DSP frontend: band-pass filtering, decimation, NRD1 files.

The acquisition chain is: raw multichannel signal at 10 kHz -> causal
Butterworth band-pass 25-600 Hz -> decimate by 2 to 5 kHz. The band-pass
doubles as the anti-alias filter for the factor-2 decimation, so there is no
separate anti-alias stage.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import struct

import numpy as np
from scipy import signal as sps

from .errors import ConfigError, DataError

RAW_SAMPLE_RATE_HZ = 10_000
DECODE_SAMPLE_RATE_HZ = 5_000
DECIMATION = RAW_SAMPLE_RATE_HZ // DECODE_SAMPLE_RATE_HZ

MAX_CHANNELS = 16

# Butterworth band-pass edges and prototype (per-edge) order. Order 4 yields
# an 8-pole band-pass realized as 4 cascaded second-order sections, giving
# >= 24 dB one octave outside either edge; a 2-pole-per-edge filter would
# only reach about 12 dB there, short of the 20 dB the chain requires.
BAND_LOW_HZ = 25.0
BAND_HIGH_HZ = 600.0
BAND_ORDER = 4


@dataclass(frozen=True)
class Recording:
    """Multichannel raw signal block; samples is a [channels x n] array.

    Treated as immutable after construction; safe to share between threads.
    """

    sample_rate_hz: int
    samples: np.ndarray

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
        # One NaN or inf would poison the band-pass state and every later frame.
        # The extremes are NaN or infinite if any sample is, and finding them
        # allocates no mask the size of the recording.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise DataError("recording contains non-finite samples")
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


@functools.cache
def _band_design(sample_rate_hz: float) -> np.ndarray:
    """The band-pass as second-order sections, designed once per rate and
    process (≈1 ms each time), read-only."""
    sos = sps.butter(BAND_ORDER, [BAND_LOW_HZ, BAND_HIGH_HZ], btype="bandpass",
                     fs=sample_rate_hz, output="sos")
    sos.flags.writeable = False
    return sos


class StreamingBandpass:
    """Chunked causal band-pass with carried filter state.

    Feeding a signal in chunks produces bit-identical output to filtering it
    in one call: the underlying recursion is per-sample, and the section
    states are carried across chunk boundaries. Single-owner object, not
    meant to be shared across threads.
    """

    def __init__(self, channels: int, sample_rate_hz: float):
        if BAND_HIGH_HZ >= sample_rate_hz / 2:
            raise ConfigError(
                f"band upper edge {BAND_HIGH_HZ} Hz must stay below Nyquist "
                f"({sample_rate_hz / 2} Hz at fs={sample_rate_hz})")
        # scipy's sosfilt refuses a read-only sos, so each filter takes a copy
        self._sos = _band_design(sample_rate_hz).copy()
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
    index 0, whatever the chunking. The caller must band-limit the signal
    below the new Nyquist; the 25-600 Hz band-pass does so for factor 2 at
    10 kHz."""

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
    """Parse NRD1 bytes; every rejection is a DataError."""
    if len(blob) < _NRD1_HEADER.size:
        raise DataError("NRD1 blob truncated before header end")
    magic, rate, channels, n = _NRD1_HEADER.unpack_from(blob, 0)
    if magic != NRD1_MAGIC:
        raise DataError(f"bad NRD1 magic {magic!r}")
    if 0 in (rate, channels, n):
        raise DataError(f"NRD1 header gives {rate} Hz, {channels} channels, {n} samples; "
                        f"each must be positive")
    expected = _NRD1_HEADER.size + 4 * channels * n
    if len(blob) != expected:
        raise DataError(f"NRD1 payload length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", count=channels * n, offset=_NRD1_HEADER.size)
    return Recording(rate, data.reshape(channels, n).copy())


def save_nrd1(rec: Recording, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_nrd1(rec))

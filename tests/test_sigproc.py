import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import signal as sps

from nervedecode.errors import ConfigError, DataError
from nervedecode.sigproc import (
    DECIMATION, DECODE_SAMPLE_RATE_HZ, RAW_SAMPLE_RATE_HZ, Recording,
    StreamingBandpass, StreamingDecimator, read_nrd1, write_nrd1,
)

from oracles import signal_power_db, snr

FS = 5000


def sine(freq_hz, fs=FS, seconds=4.0, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq_hz * t)


def steady_state_amplitude(x, freq_hz, fs=FS):
    """Amplitude of the tone in the second half of the signal, via FFT."""
    tail = x[x.size // 2:]
    spectrum = np.abs(np.fft.rfft(tail)) * 2.0 / tail.size
    idx = int(round(freq_hz * tail.size / fs))
    return spectrum[idx]


def bandpass(x, fs):
    """One call of a fresh `StreamingBandpass` on a [channels x n] signal."""
    return StreamingBandpass(x.shape[0], fs).process(x)


class TestBandpass:
    def test_in_band_tone_passes_within_1db(self):
        out = bandpass(sine(100.0)[None, :], FS)
        gain = steady_state_amplitude(out[0], 100.0)
        assert 10 ** (-1 / 20) < gain < 10 ** (1 / 20)

    def test_stop_band_5hz_attenuated(self):
        # Golden steady-state gain of the implemented filter at 5 Hz,
        # measured by FFT of a long probe and frozen here.
        out = bandpass(sine(5.0, seconds=8.0)[None, :], FS)
        gain = steady_state_amplitude(out[0], 5.0, FS)
        assert gain <= 0.1
        # agrees with the design-level frequency response at 5 Hz to 1e-11
        assert gain == pytest.approx(0.00136902202455, rel=1e-6)

    def test_zero_input_zero_output(self):
        out = bandpass(np.zeros((2, 1000)), FS)
        assert_array_equal(out, np.zeros((2, 1000)))

    def test_output_length_and_rate_preserved(self):
        x = np.random.default_rng(0).normal(size=(3, 2500))
        out = bandpass(x, 10000)
        assert out.shape == x.shape

    @pytest.mark.parametrize("probe_hz,fs", [(12.5, 10000), (1200.0, 10000)])
    def test_attenuation_at_probe_points(self, probe_hz, fs):
        # >= 20 dB at half the low edge and at twice the high edge
        x = sine(probe_hz, fs=fs, seconds=8.0)
        out = bandpass(x[None, :], fs)
        gain = steady_state_amplitude(out[0], probe_hz, fs)
        assert gain < 10 ** (-20 / 20)

    def test_invalid_band_rejected(self):
        for fs in (1000, 1200):  # the 600 Hz upper edge is at or above Nyquist
            with pytest.raises(ConfigError):
                StreamingBandpass(1, fs)

    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2000)
        y = rng.normal(size=2000)
        lhs = bandpass((a * x + b * y)[None, :], FS)
        rhs = a * bandpass(x[None, :], FS) + b * bandpass(y[None, :], FS)
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_streaming_matches_one_shot_bit_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5000))
        sos = sps.butter(4, [25.0, 600.0], btype="bandpass", fs=10000, output="sos")
        whole = sps.sosfilt(sos, x, axis=-1)
        stream = StreamingBandpass(2, 10000)
        parts = [stream.process(x[:, s:s + 700]) for s in range(0, 5000, 700)]
        assert_array_equal(np.concatenate(parts, axis=1), whole)


class TestDecimate:
    """`StreamingDecimator` is the one decimation: the front end feeds it
    chunks, whatever their size."""

    def test_keeps_every_factor_th(self):
        out = StreamingDecimator(DECIMATION).process(np.arange(6, dtype=float)[None, :])
        assert_array_equal(out[0], [0.0, 2.0, 4.0])
        assert RAW_SAMPLE_RATE_HZ // DECIMATION == DECODE_SAMPLE_RATE_HZ

    def test_factor_one_is_identity(self):
        x = np.random.default_rng(1).normal(size=(2, 64))
        assert_array_equal(StreamingDecimator(1).process(x), x)

    def test_length_arithmetic(self):
        x = np.random.default_rng(2).normal(size=(1, 10000))
        assert StreamingDecimator(DECIMATION).process(x).shape == (1, 5000)

    def test_bad_factor(self):
        for factor in (0, -2):
            with pytest.raises(ConfigError):
                StreamingDecimator(factor)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_composition(self, a, b):
        x = np.arange(400, dtype=float)[None, :]
        once = StreamingDecimator(b).process(StreamingDecimator(a).process(x))
        assert_array_equal(once, StreamingDecimator(a * b).process(x))

    def test_streaming_decimator_tracks_parity(self):
        x = np.arange(17, dtype=float)[None, :]
        dec = StreamingDecimator(2)
        parts = [dec.process(x[:, s:s + 3]) for s in range(0, 17, 3)]
        assert_array_equal(np.concatenate(parts, axis=1)[0], x[0, ::2])

    @given(st.integers(1, 4), st.lists(st.integers(0, 60), max_size=12))
    def test_random_chunkings_equal_offline_decimation(self, factor, sizes):
        x = np.random.default_rng(len(sizes)).normal(size=(2, 300))
        cuts = np.cumsum([0] + sizes)
        cuts = np.append(cuts[cuts < x.shape[1]], x.shape[1])
        dec = StreamingDecimator(factor)
        parts = [dec.process(x[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        whole = StreamingDecimator(factor).process(x)
        assert_array_equal(np.concatenate(parts, axis=1), whole)
        assert_array_equal(whole, x[:, ::factor])


class TestPowerAndSnr:
    """The signal-strength and SNR definitions the synthetic generator is
    calibrated to (`tests/test_synthgen.py`), checked by hand arithmetic."""

    def test_constant_one_is_zero_db(self):
        assert signal_power_db(np.ones(37)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_ten_is_twenty_db(self):
        assert signal_power_db(np.full(8, 10.0)) == pytest.approx(20.0, abs=1e-12)

    def test_hand_arithmetic_example(self):
        # V = [3, 4]: mean square 12.5 -> 10 log10(12.5)
        assert signal_power_db(np.array([3.0, 4.0])) == pytest.approx(10.969100130080564, abs=1e-9)

    def test_all_zero_window_is_neg_inf_sentinel(self):
        assert signal_power_db(np.zeros(10)) == float("-inf")

    def test_snr_examples(self):
        assert snr(20.0, 10.0) == pytest.approx(2.0, abs=1e-15)
        assert snr(10.0, 10.0) == pytest.approx(1.0, abs=1e-15)
        flex = signal_power_db(np.array([3.0, 4.0]))
        rest = signal_power_db(np.array([1.0, 1.2]))
        assert snr(flex, rest) == pytest.approx(flex / rest, abs=1e-15)

    def test_snr_rejects_zero_rest_and_sentinel(self):
        with pytest.raises(ValueError):
            snr(10.0, 0.0)
        with pytest.raises(ValueError):
            snr(float("-inf"), 3.0)

    @given(st.integers(0, 2**32 - 1))
    def test_power_invariant_under_permutation_and_sign(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=257) + 0.1
        base = signal_power_db(x)
        assert signal_power_db(rng.permutation(x)) == pytest.approx(base, rel=1e-12)
        assert signal_power_db(-x) == pytest.approx(base, rel=1e-12)

    @given(st.floats(0.1, 60.0))
    def test_snr_of_equal_powers_is_one(self, p):
        assert snr(p, p) == 1.0


class TestRecordingAndFile:
    def test_channel_limit(self):
        with pytest.raises(DataError):
            Recording(10000, np.zeros((17, 10)))

    def test_channel_length_mismatch_impossible_by_shape(self):
        with pytest.raises(DataError):
            Recording(10000, np.zeros(10))  # not 2-D

    def test_nrd1_round_trip_bit_exact(self):
        rng = np.random.default_rng(9)
        rec = Recording(10000, rng.normal(size=(3, 1234)).astype(np.float32))
        blob = write_nrd1(rec)
        back = read_nrd1(blob)
        assert back.sample_rate_hz == 10000
        assert_array_equal(back.samples, rec.samples)
        assert write_nrd1(back) == blob

    def test_nrd1_bad_magic_and_truncation(self):
        rec = Recording(10000, np.zeros((1, 4), dtype=np.float32))
        blob = write_nrd1(rec)
        with pytest.raises(DataError):
            read_nrd1(b"XXXX" + blob[4:])
        with pytest.raises(DataError):
            read_nrd1(blob[:-2])

    @pytest.mark.parametrize("rate,channels,n", [(0, 1, 4), (10000, 0, 4), (10000, 1, 0),
                                                 (10000, 17, 1)],
                             ids=["rate", "channels", "samples", "too-many-channels"])
    def test_nrd1_bad_header_value_is_data_error(self, rate, channels, n):
        blob = struct.pack("<4sIHQ", b"NRD1", rate, channels, n) + bytes(4 * channels * n)
        with pytest.raises(DataError):
            read_nrd1(blob)


_NRD1 = write_nrd1(Recording(10000, np.arange(12, dtype=np.float32).reshape(3, 4)))


def _flip_bit(blob, bit):
    out = bytearray(blob)
    out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


def _nrd1_with(rate, channels, n, payload_extra):
    """A header with these fields over a payload of the length it names,
    give or take `payload_extra` bytes."""
    size = max(4 * channels * n + payload_extra, 0)
    return struct.pack("<4sIHQ", b"NRD1", rate, channels, n) + bytes(size)


class TestNrd1Fuzz:
    @settings(max_examples=300)
    @given(st.one_of(
        st.binary(max_size=120),
        st.builds(lambda cut: _NRD1[:cut], st.integers(0, len(_NRD1))),
        st.builds(_flip_bit, st.just(_NRD1), st.integers(0, 8 * len(_NRD1) - 1)),
        st.builds(_nrd1_with, st.integers(0, 2**32 - 1),
                  st.sampled_from([0, 1, 3, 16, 17, 2**16 - 1]), st.integers(0, 20),
                  st.integers(-4, 4)),
        st.builds(lambda head, body: head + body,
                  st.binary(min_size=18, max_size=18).map(lambda h: b"NRD1" + h[4:]),
                  st.binary(max_size=64)),
    ))
    def test_only_data_error_escapes(self, blob):
        """Truncations, bit flips, random header fields and random bytes:
        `read_nrd1` returns a recording or raises DataError."""
        try:
            rec = read_nrd1(blob)
        except DataError:
            return
        assert write_nrd1(rec) == blob

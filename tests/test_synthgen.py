import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.errors import ConfigError, DataError
from nervedecode.gestures import REST
from nervedecode.sigproc import (
    RAW_SAMPLE_RATE_HZ, signal_power_db, snr,
)
from nervedecode.synthgen import (
    DriftSpec, SessionSpec, apply_drift, generate_session, generate_stream, load_session, make_profile, make_ulnar_profile, save_session,
)

WARMUP = int(0.2 * RAW_SAMPLE_RATE_HZ)


@pytest.fixture(scope="module")
def profile():
    return make_profile()


@pytest.fixture(scope="module")
def spec():
    return SessionSpec(gestures=("100000", "010000"), repetitions=2,
                       hold_s=1.0, rest_s=0.8)


class TestSingleGestureStream:
    """generate_stream over a one-entry schedule, as a matching trial's
    hold or a session segment is made."""

    def test_rest_power_matches_noise_floor(self, profile):
        rec, _, _ = generate_stream(profile, [(REST, 0.8)], seed=1)
        expected = 10.0 * np.log10(profile.noise_floor ** 2)
        for ch in range(profile.channels):
            p = signal_power_db(rec.samples[ch, WARMUP:])
            assert abs(p - expected) <= 1.0

    def test_snr_closes_the_loop_within_15pct(self, profile):
        flex, _, _ = generate_stream(profile, [("100000", 4.0)], seed=2)
        rest, _, _ = generate_stream(profile, [(REST, 4.0)], seed=3)
        for ch in (0, 1):  # gain-1.0 carriers of the thumb
            measured = snr(signal_power_db(flex.samples[ch, WARMUP:]),
                           signal_power_db(rest.samples[ch, WARMUP:]))
            assert abs(measured - profile.snr_db_target) <= 0.15 * profile.snr_db_target

    def test_same_seed_bit_identical(self, profile):
        a, ta, la = generate_stream(profile, [("001000", 1.0)], seed=9)
        b, tb, lb = generate_stream(profile, [("001000", 1.0)], seed=9)
        assert_array_equal(a.samples, b.samples)
        assert_array_equal(ta, tb)
        assert la == lb

    def test_label_stream_is_50hz_and_aligned(self, profile):
        rec, times, labels = generate_stream(profile, [("000100", 1.0)], seed=4)
        assert_array_equal(np.diff(times), np.full(times.size - 1, 20))
        assert set(labels) == {"000100"}
        assert times.size == int(rec.duration_s * 50)

    def test_malformed_gesture_rejected(self, profile):
        with pytest.raises(DataError):
            generate_stream(profile, [("10000", 1.0)], seed=1)
        with pytest.raises(DataError):
            generate_stream(profile, [("10000x", 1.0)], seed=1)

    def test_missing_carrier_rejected(self):
        ulnar = make_ulnar_profile()
        with pytest.raises(DataError):
            generate_stream(ulnar, [("000001", 1.0)], seed=1)  # no wrist channels


class TestEnergyAdditivity:
    def test_two_dof_gesture_superposes_on_shared_channel(self, profile):
        both, _, _ = generate_stream(profile, [("110000", 4.0)], seed=11)
        thumb, _, _ = generate_stream(profile, [("100000", 4.0)], seed=11)
        index, _, _ = generate_stream(profile, [("010000", 4.0)], seed=11)
        ch = 13  # carries both thumb and index
        p_both = np.mean(np.square(both.samples[ch, WARMUP:].astype(np.float64)))
        p_thumb = np.mean(np.square(thumb.samples[ch, WARMUP:].astype(np.float64)))
        p_index = np.mean(np.square(index.samples[ch, WARMUP:].astype(np.float64)))
        assert p_both >= p_thumb
        assert p_both >= p_index

    def test_flex_intervals_have_elevated_rms(self, profile):
        spec = SessionSpec(gestures=("100000",), repetitions=2, hold_s=1.0, rest_s=1.0)
        session = generate_session(profile, spec, seed=21)
        samples = session.recording.samples[0].astype(np.float64)
        labels = np.asarray([lab[0] == "1" for lab in session.labels])
        rms = []
        for flexed in (False, True):
            mask = np.zeros(samples.size, dtype=bool)
            for t, on in zip(session.label_times_ms, labels):
                if on == flexed:
                    at = t * RAW_SAMPLE_RATE_HZ // 1000
                    mask[at:at + 200] = True
            rms.append(np.sqrt(np.mean(np.square(samples[mask]))))
        assert rms[1] > 1.5 * rms[0]


class TestGenerateSession:
    def test_segment_count(self, profile):
        spec = SessionSpec(gestures=("100000", "010000", "001000", "000100",
                                     "000010", "111110", "000001"),
                           repetitions=10, hold_s=0.3, rest_s=0.2)
        session = generate_session(profile, spec, seed=5)
        active = [s for s in session.segments if s.gesture != REST]
        rests = [s for s in session.segments if s.gesture == REST]
        assert len(active) == 70
        assert len(rests) == 70

    def test_different_seeds_same_schema(self, profile, spec):
        a = generate_session(profile, spec, seed=1)
        b = generate_session(profile, spec, seed=2)
        assert [s.gesture for s in a.segments] == [s.gesture for s in b.segments]
        assert a.recording.samples.shape == b.recording.samples.shape
        assert not np.array_equal(a.recording.samples, b.recording.samples)

    def test_segments_tile_the_stream(self, profile, spec):
        session = generate_session(profile, spec, seed=3)
        total = sum(s.n_samples for s in session.segments)
        assert total == session.recording.n_samples
        assert session.segments[0].start_sample == 0

    def test_stream_schedule_concatenation_matches_segments(self, profile):
        schedule = [(REST, 0.5), ("100000", 0.7)]
        rec, times, labels = generate_stream(profile, schedule, seed=8)
        assert rec.n_samples == int(1.2 * RAW_SAMPLE_RATE_HZ)
        switch = int(0.5 * 50)
        assert all(lab == REST for lab in labels[:switch])
        assert all(lab == "100000" for lab in labels[switch:])


class TestDrift:
    def test_zero_days_is_identity(self, profile):
        assert apply_drift(profile, DriftSpec(), 0) is profile

    def test_doubling_days_doubles_deltas(self, profile):
        drift = DriftSpec()
        d1 = apply_drift(profile, drift, 10)
        d2 = apply_drift(profile, drift, 20)
        delta1 = d1.gains - profile.gains
        delta2 = d2.gains - profile.gains
        assert_allclose(delta2, 2.0 * delta1, rtol=1e-12)
        assert (d2.noise_floor - profile.noise_floor) == pytest.approx(
            2.0 * (d1.noise_floor - profile.noise_floor))
        assert (d2.vcap_burst.rate_hz - profile.vcap_burst.rate_hz) == pytest.approx(
            2.0 * (d1.vcap_burst.rate_hz - profile.vcap_burst.rate_hz))

    def test_gains_stay_nonnegative(self, profile):
        drift = DriftSpec(gain_drift_per_day=0.2)
        far = apply_drift(profile, drift, 100)
        assert np.all(far.gains >= 0)

    def test_negative_days_rejected(self, profile):
        with pytest.raises(ConfigError):
            apply_drift(profile, DriftSpec(), -1)


class TestSessionIO:
    def test_round_trip_is_bit_exact(self, tmp_path, profile, spec):
        session = generate_session(profile, spec, seed=13)
        save_session(session, tmp_path / "ds")
        back = load_session(tmp_path / "ds")
        assert_array_equal(back.recording.samples, session.recording.samples)
        assert back.labels == session.labels
        assert_array_equal(back.label_times_ms, session.label_times_ms)
        assert [s.gesture for s in back.segments] == [s.gesture for s in session.segments]
        assert back.manifest["profile_hash"] == profile.hash()

    def test_same_seed_writes_identical_dataset(self, tmp_path, profile, spec):
        for name in ("a", "b"):
            save_session(generate_session(profile, spec, seed=99), tmp_path / name)
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_session(tmp_path)

    def test_ulnar_profile_matches_described_pattern(self):
        ulnar = make_ulnar_profile()
        assert ulnar.channels == 8
        strong = ulnar.gains[3].max(), ulnar.gains[4].max()   # ring, little
        weak = ulnar.gains[0].max(), ulnar.gains[1].max(), ulnar.gains[2].max()
        assert min(strong) > 2 * max(weak)
        assert ulnar.gains[5].max() == 0.0                     # no wrist coverage

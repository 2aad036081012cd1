"""Synthetic nerve-signal generator: the system's verification oracle.

Signals are built at 10 kHz as per-channel Gaussian background noise plus,
for every flexed DOF, Poisson-timed biphasic burst events on the channels
that carry that DOF (one positive and one negative lobe, a windowed single
sine cycle, so the energy lands inside the 25-600 Hz band). Burst amplitude
is calibrated so gain-1.0 channels hit the profile's SNR target, where SNR
is the quotient of flex and rest dB powers measured on the raw signal.

Burst trains are seeded per (segment, DOF, channel), so a two-DOF gesture
contains exactly the superposition of its constituents' trains for the same
seed, and everything is a pure function of (profile, spec, seed).

A session is generated as ONE continuous stream of alternating rest/gesture
segments and then sliced into per-segment files; reloading a session and
concatenating the slices reproduces the stream bit-exactly, transitions
included.
"""
from __future__ import annotations

from dataclasses import dataclass
import hashlib
import json
import pathlib

import numpy as np

from .errors import ConfigError, DataError
from .gestures import NUM_DOF, REST, gesture_to_bits, validate_gesture
from .sigproc import RAW_SAMPLE_RATE_HZ, Recording, read_nrd1, save_nrd1

LABEL_RATE_HZ = 50
LABEL_STEP_MS = 1000 // LABEL_RATE_HZ

_NOISE_TAG = 0xA11CE
_BURST_TAG = 0xB0057


@dataclass(frozen=True)
class BurstSpec:
    """Voluntary burst shape: Poisson rate during flexion, base amplitude for
    gain-1.0 channels, total biphasic width."""

    rate_hz: float = 50.0
    amplitude: float = 1.0
    width_ms: float = 8.0


@dataclass(frozen=True)
class SubjectProfile:
    channels: int
    gains: np.ndarray                     # [6 x channels], DOF energy routing
    vcap_burst: BurstSpec
    noise_floor: float = 2.0
    snr_db_target: float = 2.0

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.float64)
        if g.shape != (NUM_DOF, self.channels):
            raise ConfigError(f"gains must be [{NUM_DOF} x {self.channels}], got {g.shape}")
        if np.any(g < 0):
            raise ConfigError("gains must be non-negative")
        if self.noise_floor <= 0:
            raise ConfigError("noise_floor must be positive")
        object.__setattr__(self, "gains", g)
        g.setflags(write=False)

    def as_dict(self) -> dict:
        return {
            "channels": self.channels,
            "gains": self.gains.tolist(),
            "vcap_burst": {"rate_hz": self.vcap_burst.rate_hz,
                           "amplitude": self.vcap_burst.amplitude,
                           "width_ms": self.vcap_burst.width_ms},
            "noise_floor": self.noise_floor,
            "snr_db_target": self.snr_db_target,
        }

    @staticmethod
    def from_dict(d: dict) -> "SubjectProfile":
        return SubjectProfile(
            channels=d["channels"], gains=np.asarray(d["gains"]),
            vcap_burst=BurstSpec(**d["vcap_burst"]), noise_floor=d["noise_floor"],
            snr_db_target=d["snr_db_target"],
        )

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.as_dict(), sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SessionSpec:
    gestures: tuple
    repetitions: int = 10
    hold_s: float = 2.0
    rest_s: float = 1.5
    session_id: str = "session"
    day_index: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for g in self.gestures:
            validate_gesture(g)
        if self.hold_s <= 0 or self.rest_s <= 0:
            raise ConfigError("hold_s and rest_s must be positive")


@dataclass(frozen=True)
class DriftSpec:
    """Linear per-day parameter drift for multi-month persistence studies.

    The gain term models electrode migration: each channel's coupling both
    scales (irregular deterministic sign pattern) and migrates toward the
    cyclically-next DOF, so a channel that carried thumb bursts gradually
    also carries index bursts. A decoder trained before the drift
    misattributes that energy and degrades, while a decoder retrained on
    drifted data sees an equally clean, merely relabeled mapping and
    recovers. The noise floor shifts additively; burst rates scale. All
    deltas are exactly linear in days.
    """

    gain_drift_per_day: float = 0.010
    baseline_shift_per_day: float = 0.008
    burst_rate_drift_per_day: float = 0.002


def _drift_signs(rows: int, cols: int) -> np.ndarray:
    """Deterministic irregular +/-1 pattern (no per-pair cancellation)."""
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    return np.where(np.sin(1.0 + 3.7 * r + 2.3 * c) >= 0.0, 1.0, -1.0)


def pulse_shape(width_ms: float) -> np.ndarray:
    """Biphasic unit pulse at 10 kHz: one sine cycle under a Hann window."""
    n = max(8, int(round(width_ms * RAW_SAMPLE_RATE_HZ / 1000.0)))
    k = np.arange(n)
    return np.sin(2.0 * np.pi * k / n) * np.hanning(n)


def _calibrated_amplitude(noise_floor: float, snr_db_target: float,
                          burst: BurstSpec) -> float:
    """Base amplitude that makes a gain-1.0 channel's flex power hit the SNR
    target (quotient of dB values) on the raw signal."""
    rest_ms = noise_floor ** 2
    if abs(np.log10(rest_ms)) < 1e-9:
        raise ConfigError("noise_floor of exactly 1.0 makes the rest power 0 dB "
                          "and the SNR target unreachable")
    flex_ms = rest_ms ** snr_db_target
    burst_ms = flex_ms - rest_ms
    if burst_ms <= 0:
        raise ConfigError(f"snr target {snr_db_target} needs flex power above rest power; "
                          f"with noise_floor {noise_floor} it is not")
    pulse = pulse_shape(burst.width_ms)
    energy = float(np.sum(np.square(pulse)))
    # amplitude jitter is U(0.8, 1.2); divide out its second moment
    jitter_ms = (0.8 ** 2 + 0.8 * 1.2 + 1.2 ** 2) / 3.0
    return float(np.sqrt(burst_ms * RAW_SAMPLE_RATE_HZ / (burst.rate_hz * energy * jitter_ms)))


def _calibrated_burst() -> BurstSpec:
    """The default burst shape at the amplitude that meets the default SNR
    target over the default noise floor, as both profiles use it."""
    return BurstSpec(amplitude=_calibrated_amplitude(
        SubjectProfile.noise_floor, SubjectProfile.snr_db_target, BurstSpec()))


def make_profile() -> SubjectProfile:
    """Benchmark 16-channel profile: two dedicated channels per finger DOF,
    three high-gain channels for the wrist, and three mixed channels."""
    gains = np.zeros((NUM_DOF, 16))
    for dof in range(5):
        gains[dof, 2 * dof] = 1.0
        gains[dof, 2 * dof + 1] = 1.0
    gains[5, 10:13] = 1.3
    gains[0, 13] = 0.35
    gains[1, 13] = 0.35
    gains[2, 14] = 0.35
    gains[3, 14] = 0.35
    gains[4, 15] = 0.35
    gains[1, 15] = 0.2
    return SubjectProfile(channels=16, gains=gains, vcap_burst=_calibrated_burst())


def make_ulnar_profile() -> SubjectProfile:
    """8-channel ulnar-only condition: strong ring/little coverage, weak
    thumb/index/middle, no wrist channels."""
    gains = np.zeros((NUM_DOF, 8))
    gains[3, 0] = gains[3, 1] = 1.0          # ring
    gains[4, 2] = gains[4, 3] = 1.0          # little
    gains[0, 4] = 0.25
    gains[1, 5] = 0.25
    gains[2, 6] = 0.25
    gains[3, 7] = 0.5
    gains[4, 7] = 0.5
    return SubjectProfile(channels=8, gains=gains, vcap_burst=_calibrated_burst())


@dataclass(frozen=True)
class SegmentInfo:
    index: int
    gesture: str
    start_sample: int
    n_samples: int


@dataclass
class SessionData:
    recording: Recording                  # continuous 10 kHz stream
    label_times_ms: np.ndarray            # 50 Hz grid
    labels: list                          # gesture string per label tick
    segments: list
    manifest: dict


def _schedule_samples(schedule) -> list[tuple[str, int]]:
    out = []
    for gesture, dur_s in schedule:
        validate_gesture(gesture)
        n = int(round(dur_s * RAW_SAMPLE_RATE_HZ))
        if n <= 0:
            raise ConfigError(f"segment duration {dur_s} too short")
        out.append((gesture, n))
    return out


def generate_stream(profile: SubjectProfile, schedule, seed: int):
    """Continuous multichannel stream for a gesture schedule.

    schedule is a list of (gesture, duration_s); returns
    (Recording float32 @10 kHz, label_times_ms, labels) with labels on the
    50 Hz grid. Bursts may spill a pulse width across entry boundaries, as
    real activity would.
    """
    entries = _schedule_samples(schedule)
    total = sum(n for _, n in entries)
    rng_noise = np.random.default_rng(np.random.SeedSequence([int(seed), _NOISE_TAG]))
    signal = rng_noise.normal(0.0, profile.noise_floor, size=(profile.channels, total))

    pulse = pulse_shape(profile.vcap_burst.width_ms)
    width = pulse.shape[0]
    base_amp = profile.vcap_burst.amplitude
    rate = profile.vcap_burst.rate_hz

    start = 0
    for entry_idx, (gesture, n) in enumerate(entries):
        bits = gesture_to_bits(gesture)
        dur_s = n / RAW_SAMPLE_RATE_HZ
        for dof in range(NUM_DOF):
            if not bits[dof]:
                continue
            carriers = np.nonzero(profile.gains[dof] > 0)[0]
            if carriers.size == 0:
                raise DataError(f"profile has no channel carrying DOF {dof} "
                                f"needed by gesture {gesture}")
            for ch in carriers:
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), _BURST_TAG, entry_idx, dof, int(ch)]))
                count = rng.poisson(rate * dur_s)
                times = np.sort(rng.uniform(0.0, dur_s, size=count))
                jitter = rng.uniform(0.8, 1.2, size=count)
                amp = base_amp * profile.gains[dof, ch]
                row = signal[ch]
                for t, j in zip(times, jitter):
                    at = start + int(t * RAW_SAMPLE_RATE_HZ)
                    stop = min(at + width, total)
                    row[at:stop] += (amp * j) * pulse[:stop - at]
        start += n

    rec = Recording(RAW_SAMPLE_RATE_HZ, signal.astype(np.float32))
    total_ms = total * 1000 // RAW_SAMPLE_RATE_HZ
    label_times = np.arange(0, total_ms, LABEL_STEP_MS, dtype=np.int64)
    bounds = np.cumsum([0] + [n for _, n in entries]) * 1000 // RAW_SAMPLE_RATE_HZ
    labels = []
    for t in label_times:
        idx = int(np.searchsorted(bounds, t, side="right") - 1)
        labels.append(entries[min(idx, len(entries) - 1)][0])
    return rec, label_times, labels


def generate_session(profile: SubjectProfile, spec: SessionSpec, seed: int) -> SessionData:
    """Alternating rest/gesture segments, each gesture repeated spec.repetitions
    times, generated as one continuous stream and sliced into segments."""
    schedule = []
    for _ in range(spec.repetitions):
        for gesture in spec.gestures:
            schedule.append((REST, spec.rest_s))
            schedule.append((gesture, spec.hold_s))
    rec, label_times, labels = generate_stream(profile, schedule, seed)

    segments = []
    start = 0
    for idx, (gesture, dur_s) in enumerate(schedule):
        n = int(round(dur_s * RAW_SAMPLE_RATE_HZ))
        segments.append(SegmentInfo(idx, gesture, start, n))
        start += n

    manifest = {
        "schema_version": 1,
        "profile_hash": profile.hash(),
        "profile": profile.as_dict(),
        "session": {
            "session_id": spec.session_id,
            "day_index": spec.day_index,
            "seed": int(seed),
            "gestures": list(spec.gestures),
            "repetitions": spec.repetitions,
            "hold_s": spec.hold_s,
            "rest_s": spec.rest_s,
        },
        "segments": [
            {"index": s.index, "gesture": s.gesture, "seed": int(seed),
             "day_index": spec.day_index, "start_sample": s.start_sample,
             "n_samples": s.n_samples,
             "file": f"seg_{s.index:04d}.nrd", "labels": f"seg_{s.index:04d}.labels"}
            for s in segments
        ],
    }
    return SessionData(rec, label_times, labels, segments, manifest)


def apply_drift(profile: SubjectProfile, drift: DriftSpec, days: int) -> SubjectProfile:
    """Shift gains, noise floor, and burst rate linearly by days * per-day drift.

    days = 0 is the identity. Gains and rates are floored at zero to keep
    the generator physical; within the default magnitudes the clamp never
    engages over the simulated spans.
    """
    if days < 0:
        raise ConfigError("days must be >= 0")
    if days == 0:
        return profile
    signs = _drift_signs(NUM_DOF, profile.channels)
    base = profile.gains
    # one linear step: signed magnitude change plus migration toward the
    # cyclically-next DOF (roll along the DOF axis)
    direction = signs * base + np.roll(base, 1, axis=0) - base
    gains = np.maximum(0.0, base + drift.gain_drift_per_day * days * direction)
    noise = max(profile.noise_floor * 0.05,
                profile.noise_floor + drift.baseline_shift_per_day * days)
    rate = max(1.0, profile.vcap_burst.rate_hz *
               (1.0 + drift.burst_rate_drift_per_day * days))
    return SubjectProfile(
        channels=profile.channels, gains=gains,
        vcap_burst=BurstSpec(rate, profile.vcap_burst.amplitude, profile.vcap_burst.width_ms),
        noise_floor=noise, snr_db_target=profile.snr_db_target,
    )


# ---------------------------------------------------------------------------
# Dataset directory layout: manifest.json + one NRD1 file and one label file
# per segment. Label files hold "timestamp_ms gesture" rows in session time.
# ---------------------------------------------------------------------------

def save_session(session: SessionData, out_dir) -> None:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(
        json.dumps(session.manifest, indent=2, sort_keys=True) + "\n")
    times = session.label_times_ms
    for seg, meta in zip(session.segments, session.manifest["segments"]):
        rec = Recording(session.recording.sample_rate_hz,
                        session.recording.samples[:, seg.start_sample:seg.start_sample + seg.n_samples].copy())
        save_nrd1(rec, out / meta["file"])
        start_ms = seg.start_sample * 1000 // RAW_SAMPLE_RATE_HZ
        end_ms = (seg.start_sample + seg.n_samples) * 1000 // RAW_SAMPLE_RATE_HZ
        lo, hi = np.searchsorted(times, [start_ms, end_ms])  # the rows within the segment
        rows = [f"{times[i]} {session.labels[i]}" for i in range(lo, hi)]
        (out / meta["labels"]).write_text("\n".join(rows) + "\n")


def _read(path: pathlib.Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_session(in_dir) -> SessionData:
    """Read a session `save_session` wrote. A malformed manifest, segment or
    label file raises DataError, and so do label rows that do not step
    LABEL_STEP_MS from 0 to the end of the recording."""
    src = pathlib.Path(in_dir)
    blob = _read(src / "manifest.json")
    try:
        manifest = json.loads(blob)
        if manifest["schema_version"] != 1:
            raise DataError(f"unsupported dataset schema {manifest['schema_version']}")
        profile = SubjectProfile.from_dict(manifest["profile"])
        metas = [(SegmentInfo(m["index"], m["gesture"], m["start_sample"], m["n_samples"]),
                  src / m["file"], src / m["labels"]) for m in manifest["segments"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {src / 'manifest.json'}: {exc}") from None
    if not metas:
        raise DataError(f"{src / 'manifest.json'} lists no segments")

    chunks, label_times, labels = [], [], []
    for seg, seg_path, label_path in metas:
        rec = read_nrd1(_read(seg_path))
        if (rec.sample_rate_hz, rec.channels, rec.n_samples) != (
                RAW_SAMPLE_RATE_HZ, profile.channels, seg.n_samples):
            raise DataError(
                f"{seg_path.name}: {rec.channels} channels x {rec.n_samples} samples at "
                f"{rec.sample_rate_hz} Hz, manifest says {profile.channels} x "
                f"{seg.n_samples} at {RAW_SAMPLE_RATE_HZ} Hz")
        chunks.append(rec.samples)
        for n, line in enumerate(_read(label_path).decode("utf-8", "replace").splitlines(), 1):
            if not line.strip():
                continue
            try:
                t_ms, gesture = line.split()
                label_times.append(int(t_ms))
            except ValueError:
                raise DataError(f"{label_path}:{n}: want 'time_ms gesture', got {line!r}") from None
            labels.append(validate_gesture(gesture))
    full = Recording(RAW_SAMPLE_RATE_HZ, np.concatenate(chunks, axis=1))
    grid = np.arange(0, full.n_samples * 1000 // RAW_SAMPLE_RATE_HZ, LABEL_STEP_MS)
    if label_times != grid.tolist():
        raise DataError(f"{src}: {len(label_times)} label rows do not step {LABEL_STEP_MS} ms "
                        f"from 0 over the {full.duration_s:g} s recording ({grid.size} rows)")
    return SessionData(full, grid, labels, [seg for seg, _, _ in metas], manifest)

"""Hand-gesture matching task: reaction time and throughput.

Each trial shows a target gesture to a simulated subject who starts at rest,
composes the gesture after a lognormal onset delay (occasionally composing a
wrong one first), and re-attempts every RETRY_S until the decoder output
matches the target on all 6 DOF. Reaction time runs from target-shown to the
first all-DOF match; a trial that misses the cutoff fails. The subject's
timing (onset median and spread, retry period, re-grip rest) is a set of
module constants; only the error rate is a setting.

Targets are drawn uniformly from the non-rest gestures: every trial already
begins at rest, so rest enters the information accounting (two conscious
selections per trial over the rest-plus-others distribution) rather than as
a timed target of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .engine import DecodePipeline, EngineConfig
from .errors import ConfigError, DataError
from .gestures import MATCHING_TARGETS, NUM_DOF, REST, gesture_to_bits
from .metrics import GestureDistribution, info_per_trial, information_throughput
from .network import ModelParams
from .sigproc import RAW_SAMPLE_RATE_HZ
from .synthgen import SubjectProfile, generate_stream

ONSET_MEDIAN_S = 0.55   # median onset delay (sensory + cortical terms)
ONSET_SIGMA_LOG = 0.25  # its lognormal spread
RETRY_S = 0.6           # re-attempt period while the target stays unmatched
REGRIP_S = 0.08         # rest between two attempts


@dataclass(frozen=True)
class MatchingTaskConfig:
    targets: tuple = MATCHING_TARGETS
    cutoff_s: float = 3.0
    prediction_rate_hz: float = 10.0
    trials: int = 200

    def __post_init__(self):
        if self.cutoff_s <= 0:
            raise ConfigError("cutoff_s must be positive")
        if not self.targets or REST not in self.targets:
            raise ConfigError("target set must be non-empty and include rest")
        if len(self.targets) < 2:
            raise ConfigError("need at least one non-rest target")

    @property
    def non_rest_targets(self) -> tuple:
        return tuple(g for g in self.targets if g != REST)

    def distribution(self) -> GestureDistribution:
        return GestureDistribution.rest_plus_uniform(self.non_rest_targets)


@dataclass(frozen=True)
class SimulatedSubject:
    """Stand-in for the human side of the loop: whose signal it is, and the
    chance of initially composing a wrong gesture, corrected at the next
    attempt. Its timing is the module constants."""

    profile: SubjectProfile
    error_rate: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigError("error_rate must be in [0, 1)")


@dataclass
class TrialResult:
    trial: int
    target: str
    success: bool
    reaction_time_s: float | None
    per_dof_match_time_s: list
    frame_times_s: np.ndarray
    probabilities: np.ndarray     # [frames x 6] trace
    labels: list

    def log_record(self) -> dict:
        """Log line content; identical seeds write byte-identical files."""
        return {
            "trial": self.trial,
            "target": self.target,
            "success": bool(self.success),
            "rt_s": None if self.reaction_time_s is None else round(self.reaction_time_s, 6),
            "per_dof_ms": [None if t is None else round(1000.0 * t, 3)
                           for t in self.per_dof_match_time_s],
            "frames": int(self.probabilities.shape[0]),
        }


def _trial_schedule(target: str, wrong: str | None,
                    onset_s: float, pre_roll_s: float, horizon_s: float) -> list:
    """Rest, then attempts every RETRY_S (first may be the wrong gesture),
    with a short re-grip rest between attempts. Attempts stop once less than
    one raw sample of the horizon is left, so no segment rounds to nothing."""
    schedule = [(REST, pre_roll_s + onset_s)]
    elapsed = onset_s
    attempt = 0
    while horizon_s - elapsed >= 1.0 / RAW_SAMPLE_RATE_HZ:
        gesture = wrong if (attempt == 0 and wrong is not None) else target
        hold = min(RETRY_S, horizon_s - elapsed)
        schedule.append((gesture, hold))
        elapsed += hold
        if elapsed < horizon_s:
            schedule.append((REST, REGRIP_S))
            elapsed += REGRIP_S
        attempt += 1
    return schedule


def _per_dof_match_times(labels: list, target: str, success_idx: int,
                         times: np.ndarray) -> list:
    """Time of the earliest frame from which each DOF matches the target
    continuously through the success frame. The frames start at target-shown
    and their times are measured from it."""
    target_bits = gesture_to_bits(target)
    bits = np.stack([gesture_to_bits(lab) for lab in labels])
    out = []
    for dof in range(NUM_DOF):
        start = success_idx
        while start > 0 and bits[start - 1, dof] == target_bits[dof]:
            start -= 1
        out.append(float(times[start]))
    return out


def run_matching_session(params: ModelParams, subject: SimulatedSubject,
                         cfg: MatchingTaskConfig = MatchingTaskConfig(),
                         seed: int = 0) -> list[TrialResult]:
    """Run cfg.trials matching trials; fully determined by the seed."""
    if params.channels != subject.profile.channels:
        raise ConfigError(f"model decodes {params.channels} channels but the subject "
                          f"profile has {subject.profile.channels}")
    engine_cfg = EngineConfig(prediction_rate_hz=cfg.prediction_rate_hz)
    pre_roll = params.window.history_s + params.window.window_ms / 1000.0 + 0.1
    targets = cfg.non_rest_targets
    results: list[TrialResult] = []
    for trial_idx in range(cfg.trials):
        trial_ss = np.random.SeedSequence([int(seed), 0x7121A1, trial_idx])
        rng = np.random.default_rng(trial_ss)
        target = targets[int(rng.integers(len(targets)))]
        onset = float(rng.lognormal(math.log(ONSET_MEDIAN_S), ONSET_SIGMA_LOG))
        wrong = None
        if rng.random() < subject.error_rate and len(targets) > 1:
            others = [g for g in targets if g != target]
            wrong = others[int(rng.integers(len(others)))]
        horizon = cfg.cutoff_s + 0.35
        schedule = _trial_schedule(target, wrong, onset, pre_roll, horizon)
        stream_seed = int(trial_ss.generate_state(1)[0])
        rec, _, _ = generate_stream(subject.profile, schedule, stream_seed)

        pipe = DecodePipeline(params, engine_cfg)
        times: list[float] = []
        probs: list[np.ndarray] = []
        labels: list[str] = []
        success_idx = None
        block = int(0.1 * RAW_SAMPLE_RATE_HZ)
        for start in range(0, rec.n_samples, block):
            for pred in pipe.ingest(rec.samples[:, start:start + block]):
                # 1 us, the wire's timestamp resolution: six 100 ms ticks
                # read 0.6 s, not 0.5999999999999999
                t_rel = round(pred.frame_timestamp_s - pre_roll, 6)
                if t_rel < 0 or t_rel > cfg.cutoff_s:
                    continue
                times.append(t_rel)
                probs.append(pred.probabilities)
                labels.append(pred.label)
                if success_idx is None and pred.label == target:
                    success_idx = len(labels) - 1
            if success_idx is not None:
                break

        times_arr = np.asarray(times)
        probs_arr = np.stack(probs) if probs else np.empty((0, NUM_DOF))
        if success_idx is not None:
            rt = float(times_arr[success_idx])
            per_dof = _per_dof_match_times(labels, target, success_idx, times_arr)
        else:
            rt = None
            per_dof = [None] * NUM_DOF
        results.append(TrialResult(
            trial=trial_idx, target=target, success=success_idx is not None,
            reaction_time_s=rt, per_dof_match_time_s=per_dof,
            frame_times_s=times_arr, probabilities=probs_arr, labels=labels,
        ))
    return results


def reaction_stats(results: list[TrialResult],
                   cfg: MatchingTaskConfig = MatchingTaskConfig()) -> dict:
    """Session summary: success rate, median RT over successes, per-gesture
    breakdown, and the information throughput implied by Shannon accounting."""
    if not results:
        raise DataError("no trials to summarize")
    successes = [r for r in results if r.success]
    rts = sorted(r.reaction_time_s for r in successes)
    success_rate = len(successes) / len(results)
    median_rt = float(np.median(rts)) if rts else None

    per_gesture: dict = {}
    for r in results:
        slot = per_gesture.setdefault(r.target, {"trials": 0, "successes": 0, "rts": []})
        slot["trials"] += 1
        if r.success:
            slot["successes"] += 1
            slot["rts"].append(r.reaction_time_s)
    for g, slot in per_gesture.items():
        slot["success_rate"] = slot["successes"] / slot["trials"]
        slot["median_rt_s"] = float(np.median(slot["rts"])) if slot["rts"] else None
        del slot["rts"]

    bits = info_per_trial(cfg.distribution(), selections_per_trial=2)
    stats = {
        "trials": len(results),
        "successes": len(successes),
        "success_rate": success_rate,
        "median_rt_s": median_rt,
        "median_rt_defined": median_rt is not None,
        "info_per_trial_bits": bits,
        "per_gesture": per_gesture,
    }
    if median_rt is not None:
        stats["throughput"] = information_throughput(success_rate, bits, median_rt)
    return stats


def write_trial_log(results: list[TrialResult], path) -> None:
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r.log_record(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Kernel density estimation of reaction-time distributions.
# ---------------------------------------------------------------------------

def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 min(std, IQR/1.349) n^(-1/5)."""
    x = np.asarray(samples, dtype=np.float64)
    std = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.349) if iqr > 0 else std
    if spread <= 0:
        raise DataError("samples are degenerate; bandwidth undefined")
    return 0.9 * spread * x.size ** (-0.2)


def kde_density(samples, bandwidth: float | None = None,
                grid_lo: float | None = None, grid_hi: float | None = None) -> dict:
    """Gaussian-kernel density on a fixed grid of 512 points.

    The default grid spans the samples plus four bandwidths each side, so the
    curve integrates to 1 on the grid; pass grid_lo/grid_hi to pin it (the
    session reports use [0, cutoff]).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise DataError(f"KDE needs at least 2 samples, got {x.size}")
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(x)
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    lo = grid_lo if grid_lo is not None else float(x.min()) - 4.0 * h
    hi = grid_hi if grid_hi is not None else float(x.max()) + 4.0 * h
    if hi <= lo:
        raise ConfigError(f"empty grid [{lo}, {hi}]")
    grid = np.linspace(lo, hi, 512)
    z = (grid[:, None] - x[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * np.sqrt(2.0 * np.pi))
    return {"grid": grid, "density": density, "bandwidth": h}


def write_density_curve(curve: dict, path) -> None:
    with open(path, "w") as fh:
        for x, y in zip(curve["grid"], curve["density"]):
            fh.write(f"{x:.9g} {y:.9g}\n")

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_array_equal

from nervedecode.chronometry import (
    MatchingTaskConfig, SimulatedSubject, TrialResult, _trial_schedule, kde_density,
    reaction_stats, run_matching_session, silverman_bandwidth, write_trial_log,
)
from nervedecode.dataset import evaluate_session
from nervedecode.errors import ConfigError, DataError
from nervedecode.gestures import REST
from nervedecode.metrics import information_throughput, mean_balanced_accuracy
from nervedecode.sigproc import RAW_SAMPLE_RATE_HZ
from nervedecode.synthgen import (
    DriftSpec, SessionSpec, apply_drift, generate_session, generate_stream,
)
from nervedecode.training import TrainConfig, multi_seed_train

TINY_TARGETS = (REST, "100000", "010000")


@pytest.fixture(scope="module")
def tiny_task_cfg():
    return MatchingTaskConfig(targets=TINY_TARGETS, trials=30)


@pytest.fixture(scope="module")
def tiny_session_results(tiny_trained, tiny_profile, tiny_task_cfg):
    params, _ = tiny_trained
    subject = SimulatedSubject(profile=tiny_profile)
    return run_matching_session(params, subject, tiny_task_cfg, seed=17)


class TestMatchingSession:
    def test_high_success_on_separable_signals(self, tiny_session_results):
        stats = reaction_stats(tiny_session_results, MatchingTaskConfig(targets=TINY_TARGETS))
        assert stats["success_rate"] >= 0.9
        assert 0.3 <= stats["median_rt_s"] <= 1.2

    def test_tight_cutoff_fails_every_trial(self, tiny_trained, tiny_profile):
        params, _ = tiny_trained
        subject = SimulatedSubject(profile=tiny_profile)
        cfg = MatchingTaskConfig(targets=TINY_TARGETS, cutoff_s=0.01, trials=5)
        results = run_matching_session(params, subject, cfg, seed=3)
        assert all(not r.success for r in results)
        assert reaction_stats(results, cfg)["success_rate"] == 0.0

    def test_same_seed_identical_results_and_log(self, tiny_trained, tiny_profile,
                                                 tiny_task_cfg, tmp_path):
        params, _ = tiny_trained
        subject = SimulatedSubject(profile=tiny_profile)
        cfg = MatchingTaskConfig(targets=TINY_TARGETS, trials=8)
        a = run_matching_session(params, subject, cfg, seed=23)
        b = run_matching_session(params, subject, cfg, seed=23)
        assert [r.target for r in a] == [r.target for r in b]
        assert [r.reaction_time_s for r in a] == [r.reaction_time_s for r in b]
        for ra, rb in zip(a, b):
            assert_array_equal(ra.probabilities, rb.probabilities)
        write_trial_log(a, tmp_path / "a.jsonl")
        write_trial_log(b, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_reaction_time_is_max_of_per_dof_times(self, tiny_session_results):
        for r in tiny_session_results:
            if not r.success:
                continue
            assert r.reaction_time_s == pytest.approx(max(r.per_dof_match_time_s))
            assert r.reaction_time_s <= 3.0
            assert all(t <= r.reaction_time_s + 1e-12 for t in r.per_dof_match_time_s)

    def test_success_is_first_occurrence(self, tiny_session_results):
        for r in tiny_session_results:
            if not r.success:
                continue
            hit = [i for i, lab in enumerate(r.labels) if lab == r.target]
            assert hit, "successful trial must contain a matching frame"
            first = hit[0]
            assert r.frame_times_s[first] == pytest.approx(r.reaction_time_s)
            for lab in r.labels[:first]:
                assert lab != r.target

    def test_times_are_whole_microseconds(self, tiny_session_results):
        """Frame and reaction times carry the wire's 1 us resolution, so the
        tick six periods after target-shown reads exactly 0.6 s."""
        for r in tiny_session_results:
            assert np.array_equal(r.frame_times_s, np.round(r.frame_times_s, 6))
            if r.success:
                assert r.reaction_time_s == round(r.reaction_time_s, 6)
        long_trials = [r for r in tiny_session_results if r.frame_times_s.size > 6]
        assert long_trials
        for r in long_trials:
            assert r.frame_times_s[6] == 0.6

    def test_channel_mismatch_rejected(self, tiny_trained):
        from nervedecode.synthgen import make_profile

        params, _ = tiny_trained
        subject = SimulatedSubject(profile=make_profile())  # 16 channels vs 4
        with pytest.raises(ConfigError):
            run_matching_session(params, subject, MatchingTaskConfig(targets=TINY_TARGETS,
                                                                     trials=1), seed=0)

    def test_rest_must_be_in_targets(self):
        with pytest.raises(ConfigError):
            MatchingTaskConfig(targets=("100000", "010000"))


class TestTrialSchedule:
    PRE_ROLL_S = 1.2
    HORIZON_S = 3.35

    @given(st.floats(0.05, 3.4), st.sampled_from([None, "010000"]))
    @example(0.6299962334595061, None)  # left a 3.8 us trailing hold
    def test_every_segment_holds_at_least_one_sample(self, onset, wrong):
        schedule = _trial_schedule("100000", wrong, onset, self.PRE_ROLL_S, self.HORIZON_S)
        one_sample = 1.0 / RAW_SAMPLE_RATE_HZ
        assert all(dur >= one_sample for _, dur in schedule)
        covered = sum(dur for _, dur in schedule) - self.PRE_ROLL_S
        assert covered > self.HORIZON_S - one_sample

    def test_former_sub_sample_schedule_generates(self, tiny_profile):
        schedule = _trial_schedule("100000", None, 0.6299962334595061,
                                   self.PRE_ROLL_S, self.HORIZON_S)
        rec, _, _ = generate_stream(tiny_profile, schedule, 7)
        assert rec.duration_s >= self.PRE_ROLL_S + self.HORIZON_S - 1.0 / RAW_SAMPLE_RATE_HZ


class TestReactionStats:
    def _trial(self, idx, target, rt):
        return TrialResult(trial=idx, target=target, success=rt is not None,
                           reaction_time_s=rt,
                           per_dof_match_time_s=[rt] * 6 if rt is not None else [None] * 6,
                           frame_times_s=np.array([]), probabilities=np.empty((0, 6)),
                           labels=[])

    def test_constant_rts_median(self):
        results = [self._trial(i, "100000", 0.8) for i in range(5)]
        stats = reaction_stats(results, MatchingTaskConfig(targets=TINY_TARGETS))
        assert stats["median_rt_s"] == pytest.approx(0.8)
        assert stats["success_rate"] == 1.0

    def test_failed_trials_excluded_from_median(self):
        results = [self._trial(0, "100000", 0.7), self._trial(1, "100000", 0.8),
                   self._trial(2, "010000", None)]
        stats = reaction_stats(results, MatchingTaskConfig(targets=TINY_TARGETS))
        assert stats["median_rt_s"] == pytest.approx(0.75)
        assert stats["success_rate"] == pytest.approx(2.0 / 3.0)

    def test_zero_successes_flagged(self):
        results = [self._trial(0, "100000", None)]
        stats = reaction_stats(results, MatchingTaskConfig(targets=TINY_TARGETS))
        assert stats["success_rate"] == 0.0
        assert stats["median_rt_s"] is None
        assert not stats["median_rt_defined"]
        assert "throughput" not in stats

    def test_throughput_is_internally_consistent(self, tiny_session_results, tiny_task_cfg):
        stats = reaction_stats(tiny_session_results, tiny_task_cfg)
        want = information_throughput(stats["success_rate"], stats["info_per_trial_bits"],
                                      stats["median_rt_s"])
        assert stats["throughput"] == want

    def test_info_accounting_uses_rest_plus_uniform(self, tiny_task_cfg):
        # rest 0.5 + two gestures at 0.25 each, two selections per trial
        results = [self._trial(0, "100000", 0.5)]
        stats = reaction_stats(results, tiny_task_cfg)
        assert stats["info_per_trial_bits"] == pytest.approx(3.0, abs=1e-12)


def density_peaks(curve: dict) -> list[float]:
    """Grid positions of strict local maxima, strongest first."""
    d = curve["density"]
    idx = [i for i in range(1, d.size - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    idx.sort(key=lambda i: -d[i])
    return [float(curve["grid"][i]) for i in idx]


class TestKde:
    def test_two_samples_bimodal(self):
        curve = kde_density([0.0, 1.0], bandwidth=0.1, grid_lo=-0.5, grid_hi=1.5)
        peaks = density_peaks(curve)
        assert len(peaks) >= 2
        assert min(abs(p - 0.0) for p in peaks[:2]) < 0.02
        assert min(abs(p - 1.0) for p in peaks[:2]) < 0.02

    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=10_000)
        curve = kde_density(samples, grid_lo=-5.0, grid_hi=5.0)
        at_zero = curve["density"][np.argmin(np.abs(curve["grid"]))]
        expected = 1.0 / math.sqrt(2.0 * math.pi)
        assert abs(at_zero - expected) <= 0.05 * expected

    def test_bimodal_mixture_primary_secondary_structure(self):
        rng = np.random.default_rng(9)
        # first-attempt successes near 0.75, second attempts near 1.5
        samples = np.concatenate([rng.normal(0.75, 0.08, 400), rng.normal(1.5, 0.1, 60)])
        curve = kde_density(samples, grid_lo=0.0, grid_hi=3.0)
        peaks = density_peaks(curve)
        assert abs(peaks[0] - 0.75) < 0.15, "primary peak near the first attempt"
        secondary = [p for p in peaks[1:] if abs(p - 1.5) < 0.25]
        assert secondary, f"secondary peak near the retry time, got {peaks[:4]}"

    def test_curve_is_normalized_and_nonnegative(self):
        rng = np.random.default_rng(10)
        samples = rng.uniform(0.4, 1.2, 500)
        curve = kde_density(samples)
        assert np.all(curve["density"] >= 0.0)
        integral = np.trapezoid(curve["density"], curve["grid"])
        assert abs(integral - 1.0) <= 1e-3

    def test_silverman_rule_value(self):
        x = np.array([0.1, 0.2, 0.3, 0.4, 1.0])
        h = silverman_bandwidth(x)
        iqr = np.percentile(x, 75) - np.percentile(x, 25)
        want = 0.9 * min(np.std(x, ddof=1), iqr / 1.349) * 5 ** (-0.2)
        assert h == pytest.approx(want, rel=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            kde_density([0.5])


class TestCrossSession:
    def test_heldout_error_is_small(self, tiny_training_data, tiny_model_cfg):
        # trained on session 0, validated on session 1
        _, _, per_dof = multi_seed_train(tiny_training_data,
                                         TrainConfig(max_epochs=15, seeds=(5,)), tiny_model_cfg)
        assert 1.0 - mean_balanced_accuracy(per_dof) < 0.05
        assert len(per_dof) == 6

    def test_evaluates_a_trained_model(self, tiny_trained, tiny_sessions):
        params, _ = tiny_trained
        per_dof = evaluate_session(params, tiny_sessions[1])
        assert len(per_dof) == 6
        assert 1.0 - mean_balanced_accuracy(per_dof) < 0.05

    def test_heavily_drifted_session_scores_worse(self, tiny_trained, tiny_profile,
                                                  tiny_sessions):
        # the two-gesture decoder has a huge margin, so module-level sanity
        # uses a drift strong enough to sink the burst-to-noise contrast;
        # the graded sweep lives in the acceptance benchmark
        params, _ = tiny_trained
        spec = SessionSpec(gestures=("100000", "010000"), repetitions=4,
                           hold_s=2.4, rest_s=1.2, session_id="drifted", day_index=120)
        heavy = DriftSpec(gain_drift_per_day=0.005, baseline_shift_per_day=0.03,
                          burst_rate_drift_per_day=0.002)
        drifted_profile = apply_drift(tiny_profile, heavy, 120)
        drifted = generate_session(drifted_profile, spec, seed=404)
        base = 1.0 - mean_balanced_accuracy(evaluate_session(params, tiny_sessions[1]))
        far = 1.0 - mean_balanced_accuracy(evaluate_session(params, drifted))
        assert far > base + 0.05

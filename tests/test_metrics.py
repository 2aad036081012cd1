import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_array_equal

from nervedecode.errors import ConfigError, DataError
from nervedecode.metrics import (
    ConfusionCounts, GestureDistribution, balanced_accuracy, confusion,
    info_per_trial, information_throughput, mean_balanced_accuracy,
)

from oracles import scalar_confusion


def counts_1dof(tp, tn, fp, fn):
    return ConfusionCounts(np.array([tp]), np.array([tn]), np.array([fp]), np.array([fn]))


class TestConfusion:
    def test_exact_predictions_have_no_errors(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, size=(50, 6))
        c = confusion(truth, truth)
        assert_array_equal(c.fp, np.zeros(6, dtype=np.int64))
        assert_array_equal(c.fn, np.zeros(6, dtype=np.int64))

    def test_complement_predictions_have_no_hits(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 2, size=(50, 6))
        c = confusion(1 - truth, truth)
        assert_array_equal(c.tp, np.zeros(6, dtype=np.int64))
        assert_array_equal(c.tn, np.zeros(6, dtype=np.int64))

    def test_seeded_pair_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 2, size=(1000, 6))
        truth = rng.integers(0, 2, size=(1000, 6))
        c = confusion(pred, truth)
        want = scalar_confusion(pred.tolist(), truth.tolist())
        for d in range(6):
            assert (c.tp[d], c.tn[d], c.fp[d], c.fn[d]) == tuple(want[d])

    def test_gesture_strings_accepted(self):
        c = confusion(["100000", "000001"], ["100000", "000000"])
        assert c.tp[0] == 1 and c.fp[5] == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion(np.zeros((3, 6)), np.zeros((4, 6)))


class TestBalancedAccuracy:
    def test_perfect_single_counts(self):
        m = balanced_accuracy(counts_1dof(1, 1, 0, 0))[0]
        assert m.bal_acc == 1.0 and m.pred_error == 0.0

    def test_high_sensitivity_specificity_bound(self):
        # TPR 0.946 with TNR 0.999 lands exactly on a 97.25% balanced accuracy
        m = balanced_accuracy(counts_1dof(946, 999, 1, 54))[0]
        assert m.tpr == pytest.approx(0.946, abs=1e-12)
        assert m.tnr == pytest.approx(0.999, abs=1e-12)
        assert m.bal_acc == pytest.approx(0.9725, abs=1e-12)

    def test_all_negative_predictor_scores_half(self):
        m = balanced_accuracy(counts_1dof(0, 10, 0, 10))[0]
        assert m.bal_acc == pytest.approx(0.5, abs=1e-15)

    def test_empty_class_flagged_not_skipped(self):
        out = balanced_accuracy(counts_1dof(0, 10, 0, 0))
        assert len(out) == 1
        assert not out[0].defined
        assert math.isnan(out[0].bal_acc)

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(0, 500), st.integers(0, 500))
    def test_symmetry_under_class_swap(self, tp, tn, fp, fn):
        a = balanced_accuracy(counts_1dof(tp, tn, fp, fn))[0]
        b = balanced_accuracy(counts_1dof(tn, tp, fn, fp))[0]
        assert a.bal_acc == pytest.approx(b.bal_acc, rel=1e-12)

    def test_mean_skips_undefined(self):
        ms = balanced_accuracy(ConfusionCounts(
            np.array([5, 0]), np.array([5, 10]), np.array([0, 0]), np.array([0, 0])))
        assert mean_balanced_accuracy(ms) == pytest.approx(1.0)


class TestInformation:
    def test_rest_plus_eight_is_five_bits(self):
        dist = GestureDistribution.rest_plus_uniform([f"g{i}" for i in range(8)])
        assert info_per_trial(dist, 2) == pytest.approx(5.0, abs=1e-12)

    def test_two_equiprobable_two_selections(self):
        dist = GestureDistribution((("a", 0.5), ("b", 0.5)))
        assert info_per_trial(dist, 2) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_four_one_selection(self):
        dist = GestureDistribution(tuple((f"g{i}", 0.25) for i in range(4)))
        assert info_per_trial(dist, 1) == pytest.approx(2.0, abs=1e-12)

    def test_zero_probability_contributes_nothing(self):
        dist = GestureDistribution((("a", 0.5), ("b", 0.5), ("c", 0.0)))
        assert info_per_trial(dist, 1) == pytest.approx(1.0, abs=1e-12)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GestureDistribution((("a", 0.6), ("b", 0.5)))

    @given(st.integers(2, 9))
    def test_uniform_maximizes_entropy(self, n):
        uniform = GestureDistribution(tuple((f"g{i}", 1.0 / n) for i in range(n)))
        h_uniform = info_per_trial(uniform, 1)
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.ones(n))
        other = GestureDistribution(tuple((f"g{i}", float(v)) for i, v in enumerate(p / p.sum())))
        assert info_per_trial(other, 1) <= h_uniform + 1e-9

    @given(st.integers(1, 6))
    def test_additive_in_selections(self, k):
        dist = GestureDistribution.rest_plus_uniform(["a", "b", "c"])
        assert info_per_trial(dist, k) == pytest.approx(k * info_per_trial(dist, 1), rel=1e-12)


class TestThroughput:
    def test_reference_operating_point(self):
        out = information_throughput(0.992, 5.0, 0.81)
        assert out["bps"] == pytest.approx(6.1234568, abs=1e-6)
        assert abs(out["bps"] - 6.09) <= 0.05
        assert out["bpm"] == 60.0 * out["bps"]

    def test_unit_case(self):
        out = information_throughput(1.0, 5.0, 1.0)
        assert out["bps"] == 5.0 and out["bpm"] == 300.0

    def test_zero_success_zero_throughput(self):
        assert information_throughput(0.0, 5.0, 0.7)["bps"] == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            information_throughput(1.2, 5.0, 1.0)
        with pytest.raises(ConfigError):
            information_throughput(0.5, 5.0, 0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 10.0), st.floats(0.05, 5.0))
    def test_bpm_is_exactly_sixty_bps(self, s, bits, rt):
        out = information_throughput(s, bits, rt)
        assert out["bpm"] == 60.0 * out["bps"]

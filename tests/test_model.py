import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nervedecode.errors import ConfigError, NumericFault
from nervedecode.network import (
    TRAINABLE, ModelConfig, batch_loss_and_grads, forward_batch, init_params, loss,
    threshold,
)

from oracles import finite_difference_grads, forward_single_oracle, im2col_conv

TINY = ModelConfig(input_rows=2 * 14, steps=5, conv_out=8, gru_hidden=8,
                   fc_hidden=8, dropout_rate=0.5)


def tiny_params(seed=0, randomize_bn=True):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    if randomize_bn:
        params.bn_mean = rng.normal(0.0, 0.2, size=TINY.conv_out)
        params.bn_var = rng.uniform(0.5, 1.5, size=TINY.conv_out)
        params.tensors["bn_beta"] = rng.normal(0.0, 0.1, size=TINY.conv_out)
        # non-zero biases so every layer contributes
        for name in ("conv_b", "gru_b", "fc1_b", "fc2_b"):
            params.tensors[name] = rng.normal(0.0, 0.1, size=params.tensors[name].shape)
    return params


class TestForward:
    def test_zero_params_zero_input_gives_half(self):
        params = tiny_params(randomize_bn=False)
        for name in TRAINABLE:
            params.tensors[name] = np.zeros_like(params.tensors[name])
        x = np.zeros((TINY.input_rows, TINY.steps))
        assert_array_equal(forward_batch(x[None], params)[0], np.full(6, 0.5))

    def test_eval_forward_deterministic_bit_identical(self):
        params = tiny_params(1)
        x = np.random.default_rng(2).normal(size=(3, TINY.input_rows, TINY.steps))
        a = forward_batch(x, params, train=False)
        b = forward_batch(x, params, train=False)
        assert_array_equal(a, b)

    def test_matches_straight_line_oracle(self):
        params = tiny_params(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, TINY.input_rows, TINY.steps))
        got = forward_batch(x, params, train=False)
        for i in range(2):
            want = forward_single_oracle(x[i].tolist(), params)
            assert_allclose(got[i], want, rtol=1e-10, atol=1e-12)

    def test_probabilities_strictly_inside_unit_interval(self):
        params = tiny_params(5)
        x = np.random.default_rng(6).normal(size=(4, TINY.input_rows, TINY.steps))
        probs = forward_batch(x, params, train=False)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_shape_mismatch_rejected(self):
        params = tiny_params(7)
        with pytest.raises(ConfigError):
            forward_batch(np.zeros((1, 5, 5)), params, train=False)

    def test_nonfinite_activation_names_layer(self):
        params = tiny_params(8)
        params.tensors["fc2_w"] = params.tensors["fc2_w"] * np.nan
        x = np.random.default_rng(9).normal(size=(1, TINY.input_rows, TINY.steps))
        with pytest.raises(NumericFault, match="layer"):
            forward_batch(x, params, train=False)


class TestLoss:
    def test_all_half_is_ln2(self):
        for target in (np.zeros(6), np.ones(6), np.array([1, 0, 1, 0, 1, 0])):
            assert loss(np.full(6, 0.5), target) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_exact_match_at_clamp_bounds(self):
        probs = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        value = loss(probs, probs)
        assert 0.0 < value < 2e-7

    def test_hand_computed_bce(self):
        p = np.array([0.9, 0.1, 0.5, 0.5, 0.5, 0.5])
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        want = -(math.log(0.9) + math.log(0.9) + 4 * math.log(0.5)) / 6.0
        assert loss(p, y) == pytest.approx(want, rel=1e-12)


class TestGradients:
    def _setup(self, seed=11, batch=4):
        params = tiny_params(seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, TINY.input_rows, TINY.steps))
        y = rng.integers(0, 2, size=(batch, 6)).astype(np.float64)
        keep = 1.0 - TINY.dropout_rate
        mask = (rng.random((batch, TINY.gru_hidden)) < keep) / keep
        return params, x, y, mask

    def test_analytic_matches_finite_differences_every_parameter(self):
        from nervedecode.network import loss as loss_fn

        params, x, y, mask = self._setup()
        _, grads, _ = batch_loss_and_grads(x, y, params, dropout_mask=mask)

        def batch_loss(p):
            probs, _ = forward_batch(x, p, train=True, dropout_mask=mask)
            return loss_fn(probs, y)

        fd = finite_difference_grads(batch_loss, params, TRAINABLE, h=1e-5)
        for name in TRAINABLE:
            a, b = grads[name].ravel(), fd[name].ravel()
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            rel = np.abs(a - b) / scale
            assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"

    def test_duplicated_batch_matches_single_sample(self):
        params, x, y, _ = self._setup(batch=1)
        mask1 = np.ones((1, TINY.gru_hidden))
        _, g_single, _ = batch_loss_and_grads(x, y, params, dropout_mask=mask1)
        x64 = np.repeat(x, 64, axis=0)
        y64 = np.repeat(y, 64, axis=0)
        _, g_dup, _ = batch_loss_and_grads(x64, y64, params,
                                           dropout_mask=np.ones((64, TINY.gru_hidden)))
        for name in TRAINABLE:
            assert_allclose(g_dup[name], g_single[name], rtol=1e-9, atol=1e-12)

    def test_two_identical_half_batches_equal_single_batch(self):
        params, x, y, _ = self._setup(batch=3)
        mask = np.ones((3, TINY.gru_hidden))
        _, g_once, _ = batch_loss_and_grads(x, y, params, dropout_mask=mask)
        xx = np.concatenate([x, x])
        yy = np.concatenate([y, y])
        _, g_twice, _ = batch_loss_and_grads(xx, yy, params,
                                             dropout_mask=np.ones((6, TINY.gru_hidden)))
        for name in TRAINABLE:
            assert_allclose(g_twice[name], g_once[name], rtol=1e-9, atol=1e-12)


class TestThreshold:
    def test_boundary_half_counts_as_flexing(self):
        assert threshold(np.full(6, 0.5)) == "111111"

    def test_single_strong_dof(self):
        assert threshold(np.array([0.9, 0.1, 0.1, 0.1, 0.1, 0.1])) == "100000"

    def test_just_below_and_above(self):
        assert threshold(np.array([0.49, 0.51, 0.49, 0.51, 0.49, 0.51])) == "010101"

    @given(st.lists(st.floats(0.001, 0.999), min_size=6, max_size=6),
           st.sampled_from([1, 3, 5]))
    @example(probs=[0.5] * 5 + [0.4998643054648638], k=5)
    def test_invariant_under_monotone_remap_fixing_half(self, probs, k):
        # The remap p -> 1/2 + 1/2*sign(2p-1)*|2p-1|**(1/k) maps [0, 1] onto
        # itself, fixes 1/2 and pushes other values away from it.  Its inverse,
        # 1/2 + 2**(k-1)*(p-1/2)**k, is not order-preserving in floating point
        # because it rounds a value just below 1/2 to exactly 1/2 (the example).
        probs = np.asarray(probs)
        d = 2.0 * probs - 1.0
        remapped = 0.5 + 0.5 * np.sign(d) * np.abs(d) ** (1.0 / k)
        assert threshold(probs) == threshold(remapped)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError):
            threshold(np.array([0.5, 0.5]))


class TestParameterCount:
    def test_default_config_lands_in_documented_range(self):
        params = init_params(ModelConfig(), np.random.default_rng(0))
        assert 0.5e6 <= params.parameter_count <= 1.7e6

    def test_count_formula(self):
        params = init_params(TINY, np.random.default_rng(0))
        manual = sum(params.tensors[name].size for name in TRAINABLE)
        assert params.parameter_count == manual


class TestShiftedConv:
    @pytest.mark.parametrize("rows", [28, 224])
    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_equals_explicit_im2col(self, rows, steps):
        """The conv as shifted GEMMs over one padded copy of the batch, and
        conv_w's gradient from that copy, equal the im2col formulation."""
        from nervedecode.network import conv_shifted, conv_shifted_grad

        cfg = ModelConfig(input_rows=rows, steps=steps, conv_out=16, gru_hidden=8,
                          fc_hidden=8)
        rng = np.random.default_rng(rows + steps)
        params = init_params(cfg, rng)
        params.tensors["conv_b"] = rng.normal(size=cfg.conv_out)
        x = rng.normal(size=(5, rows, steps))
        dconv = rng.normal(size=(5, steps, cfg.conv_out))
        want_conv, want_grad = im2col_conv(x, params.tensors["conv_w"],
                                           params.tensors["conv_b"], dconv)
        conv, xp = conv_shifted(x, params)
        assert_allclose(conv, want_conv, rtol=0, atol=1e-12)
        assert_allclose(conv_shifted_grad(xp, dconv), want_grad, rtol=0, atol=1e-12)


class TestConvRows:
    """`conv_rows` convolves single store columns between their frame
    neighbours, given as store indices with -1 for a frame's padding."""

    @staticmethod
    def _setup(rows, seed):
        cfg = ModelConfig(input_rows=rows, steps=6, conv_out=16, gru_hidden=8, fc_hidden=8)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        params.tensors["conv_b"] = rng.normal(size=cfg.conv_out)
        z = rng.normal(size=(rows, 40))
        z.flags.writeable = False  # the store is only read
        return params, z, rng

    @staticmethod
    def _want(params, z, pos):
        """im2col conv of the zero-padded frame `z[:, pos]`: [len(pos) x F]."""
        x = z[:, pos][None]
        dconv = np.zeros((1, len(pos), params.config.conv_out))
        return im2col_conv(x, params.tensors["conv_w"], params.tensors["conv_b"], dconv)[0][0]

    @pytest.mark.parametrize("rows", [28, 224])
    def test_interior_and_edge_rows_equal_im2col(self, rows):
        """A frame whose columns lie anywhere in the store, out of order:
        the interior rows read both neighbours, the first and last rows
        read the padding on their outer side."""
        from nervedecode.network import conv_rows

        params, z, rng = self._setup(rows, rows)
        before = z.copy()
        pos = rng.permutation(z.shape[1])[:6]
        padded = np.concatenate([[-1], pos, [-1]])
        taps = np.stack([padded[:-2], padded[1:-1], padded[2:]], axis=1)
        want = self._want(params, z, pos)
        got = conv_rows(z, taps, params)
        assert got.shape == (6, params.config.conv_out)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        # rows in any order, each on its own: left edge, right edge, interior
        for order in ([0], [5], [2, 3], [5, 0, 3]):
            assert_allclose(conv_rows(z, taps[order], params), want[order], rtol=0, atol=1e-12)
        assert_array_equal(z, before)

    def test_one_column_frame_reads_only_padding_beside_it(self):
        from nervedecode.network import conv_rows

        params, z, _ = self._setup(28, 3)
        for c in (0, 17, z.shape[1] - 1):
            got = conv_rows(z, np.array([[-1, c, -1]]), params)
            assert_allclose(got, self._want(params, z, [c]), rtol=0, atol=1e-12)

import json
import pathlib
import platform
import resource
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from nervedecode.checkpoint import load_checkpoint, load_checkpoint_file, save_checkpoint
from nervedecode.errors import CheckpointError, ConfigError, NumericFault
from nervedecode.features import THRESHOLDS
from nervedecode.metrics import mean_balanced_accuracy
from nervedecode.network import ModelConfig, forward_batch, init_params
from nervedecode.training import (
    EVAL_BATCH, TrainConfig, TrainingData, evaluate_frames, keep_step_memory, multi_seed_train,
    predict_batch, train,
)

from oracles import identity_stats


def _resealed(body: bytes) -> bytes:
    """Body plus a valid CRC trailer, so only the parser can reject it."""
    return body + struct.pack("<I", zlib.crc32(body))


def _split(blob: bytes) -> tuple[dict, bytes]:
    """(JSON header, tensor table) of a checkpoint."""
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    return json.loads(blob[10:10 + meta_len]), blob[10 + meta_len:-4]


def _joined(blob: bytes, header: dict, table: bytes) -> bytes:
    meta = json.dumps(header, sort_keys=True).encode()
    return _resealed(blob[:6] + struct.pack("<I", len(meta)) + meta + table)


BENCH_MODEL = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "bench_model.ndm"


def _params_equal(a, b):
    if set(a.tensors) != set(b.tensors):
        return False
    return all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors) and \
        np.array_equal(a.bn_mean, b.bn_mean) and np.array_equal(a.bn_var, b.bn_var)


class TestTrain:
    def test_same_seed_bit_identical(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2)
        a, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        b, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        assert _params_equal(a, b)
        assert save_checkpoint(a) == save_checkpoint(b)

    def test_different_shuffle_seed_changes_results(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2)
        a, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        b, _ = train(tiny_training_data, cfg, seed=8, model_cfg=tiny_model_cfg)
        assert not _params_equal(a, b)

    def test_session_order_does_not_change_results(self, tiny_sessions, tiny_window,
                                                   tiny_model_cfg):
        """Training on the same sessions listed in either order writes the
        same checkpoint bytes: `concat_frames` fixes the store, the stats
        fitted on it and the frame order the shuffle permutes."""
        from nervedecode.dataset import build_training_data, concat_frames, session_frames

        parts = [session_frames(s, tiny_window) for s in tiny_sessions]
        cfg = TrainConfig(max_epochs=2)
        blobs = []
        for order in (parts, parts[::-1]):
            data = build_training_data(concat_frames(order), None)
            params, _ = train(data, cfg, seed=7, model_cfg=tiny_model_cfg)
            blobs.append(save_checkpoint(params))
        assert blobs[0] == blobs[1]

    def test_separable_two_gesture_benchmark(self, tiny_trained, tiny_training_data):
        params, history = tiny_trained
        losses = [rec.loss for rec in history]
        assert all(b < a for a, b in zip(losses, losses[1:])), \
            f"training loss should strictly decrease, got {losses}"
        metrics = evaluate_frames(params, tiny_training_data.x_val, tiny_training_data.y_val)
        acc = mean_balanced_accuracy(metrics)
        assert acc > 0.95, f"held-out mean balanced accuracy {acc:.3f}"

    def test_plateau_fires_after_exactly_two_stalled_epochs(self):
        from nervedecode.training import PlateauSchedule

        sched = PlateauSchedule(1e-4)
        # epoch 0 sets the best; a stalled loss must fire after exactly 2 epochs
        assert sched.observe(1.0) == 1e-4
        assert sched.observe(1.0) == 1e-4
        assert sched.observe(1.0) == pytest.approx(1e-5)
        # counter resets after a drop; two more stalls fire again
        assert sched.observe(1.0) == pytest.approx(1e-5)
        assert sched.observe(1.0) == pytest.approx(1e-6)
        # an improvement resets the stall counter
        assert sched.observe(0.5) == pytest.approx(1e-6)
        assert sched.observe(0.6) == pytest.approx(1e-6)
        assert sched.observe(0.6) == pytest.approx(1e-7)

    def test_plateau_engaged_in_training_loop(self, tiny_training_data, tiny_model_cfg):
        # lr0 = 0 freezes the weights; without dropout and with one batch per
        # epoch the loss is flat, so the recorded schedule must step down.
        from dataclasses import replace

        no_dropout = replace(tiny_model_cfg, dropout_rate=0.0)
        n = tiny_training_data.x_train.shape[0]
        cfg = TrainConfig(lr0=0.0, max_epochs=4, batch_size=n)
        _, history = train(tiny_training_data, cfg, seed=1, model_cfg=no_dropout)
        assert [rec.lr for rec in history] == [0.0, 0.0, 0.0, 0.0]
        losses = [rec.loss for rec in history]
        assert max(losses) - min(losses) < 1e-9, "frozen weights keep the loss flat"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    def test_pinned_heap_keeps_step_pages(self):
        """After `keep_step_memory`, a bench-shape training step reuses the
        pages of the one before it; under glibc's defaults each step
        page-faulted 7,000-8,000 of them back in."""
        from nervedecode.network import batch_loss_and_grads

        keep_step_memory()
        cfg = ModelConfig(input_rows=224, steps=50, conv_out=96, gru_hidden=96, fc_hidden=48)
        rng = np.random.default_rng(0)
        params = init_params(cfg, rng)
        x = rng.standard_normal((64, 224, 50))
        y = (rng.random((64, 6)) < 0.5).astype(np.float64)
        faults = []
        for _ in range(6):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            batch_loss_and_grads(x, y, params, rng=rng)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.median(faults[2:]) < 256, f"page faults per step {faults}"

    def test_empty_dataset_rejected(self, tiny_model_cfg):
        with pytest.raises(ConfigError):
            TrainingData(
                x_train=np.empty((0, tiny_model_cfg.input_rows, tiny_model_cfg.steps)),
                y_train=np.empty((0, 6)), x_val=np.empty((0, 1, 1)),
                y_val=np.empty((0, 6)), stats=identity_stats(tiny_model_cfg.input_rows))


def _per_column_equals_per_frame(params, x):
    """predict_batch (per store column) against forward_batch (per frame)."""
    got = predict_batch(params, x)
    want = forward_batch(x[:], params)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert_array_equal(got >= 0.5, want >= 0.5)


class TestPredictBatch:
    @pytest.mark.parametrize("window_ms", [100.0, 90.0])
    @pytest.mark.parametrize("rate_hz", [5.1, 10.0, 30.0, 50.0])
    def test_per_column_equals_per_frame(self, tiny_sessions, tiny_trained, rate_hz,
                                         window_ms):
        """At every frame rate the frames share store columns differently
        (each step at 50 Hz, none at 5.1 Hz), and a 90 ms window is not a
        whole number of steps; the per-column eval equals the per-frame
        forward pass on each."""
        from dataclasses import replace

        from nervedecode.dataset import Frames, session_frames

        params = tiny_trained[0]
        window = replace(params.window, window_ms=window_ms)
        frames = session_frames(tiny_sessions[1], window, frame_rate_hz=rate_hz)
        assert len(frames.pos) > EVAL_BATCH
        _per_column_equals_per_frame(
            params, Frames(params.norm_stats.apply(frames.store), frames.pos))

    def test_one_column_frames(self, tiny_sessions):
        """With one step of history each frame is one column, padded on both
        sides."""
        from nervedecode.dataset import build_training_data, session_frames
        from nervedecode.features import FeatureWindowSpec

        window = FeatureWindowSpec(window_ms=100.0, step_ms=20.0, history_s=0.02)
        x = build_training_data(session_frames(tiny_sessions[0], window), None).x_train
        assert x.shape[2] == 1
        cfg = ModelConfig(input_rows=x.shape[1], steps=1, conv_out=8, gru_hidden=8,
                          fc_hidden=8)
        _per_column_equals_per_frame(init_params(cfg, np.random.default_rng(3)), x)

    def test_concatenated_and_split_frames(self, tiny_sessions, tiny_window, tiny_trained):
        """Two sessions side by side in one store: no frame reads across the
        seam. A split: both sides read one shared store."""
        from nervedecode.dataset import (
            build_training_data, concat_frames, session_frames, split_frames,
        )

        params = tiny_trained[0]
        parts = [session_frames(s, tiny_window) for s in tiny_sessions]
        _per_column_equals_per_frame(
            params, build_training_data(concat_frames(parts), None).x_train)
        data = build_training_data(*split_frames(parts[0], 0.3))
        assert data.x_train.store is data.x_val.store
        _per_column_equals_per_frame(params, data.x_train)
        _per_column_equals_per_frame(params, data.x_val)

    def test_plain_array_and_empty_input(self, tiny_training_data, tiny_trained):
        params = tiny_trained[0]
        x = tiny_training_data.x_val[:2 * EVAL_BATCH + 5]
        assert isinstance(x, np.ndarray)
        _per_column_equals_per_frame(params, x)
        assert predict_batch(params, x[:0]).shape == (0, 6)
        from nervedecode.dataset import Frames

        val = tiny_training_data.x_val
        assert predict_batch(params, Frames(val.store, val.pos[:0])).shape == (0, 6)

    def test_non_finite_column_names_its_layer(self, tiny_training_data, tiny_trained):
        """A NaN in one store column: the eval fails with NumericFault naming
        the same first non-finite layer as the per-frame forward pass."""
        from nervedecode.dataset import Frames

        params = tiny_trained[0]
        val = tiny_training_data.x_val
        store = val.store.copy()
        store[:, val.pos[EVAL_BATCH + 3, 7]] = np.nan
        x = Frames(store, val.pos)
        with pytest.raises(NumericFault) as per_column:
            predict_batch(params, x)
        with pytest.raises(NumericFault) as per_frame:
            forward_batch(x[:], params)
        assert str(per_column.value) == str(per_frame.value) == \
            "non-finite activation in layer 'conv'"


class TestMultiSeed:
    def test_single_seed_identical_to_train(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2, seeds=(7,))
        best, _, _ = multi_seed_train(tiny_training_data, cfg, tiny_model_cfg)
        alone, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        assert _params_equal(best, alone)

    def test_selects_argmax_over_candidates(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2, seeds=(1, 2, 3))
        best, summaries, metrics = multi_seed_train(tiny_training_data, cfg, tiny_model_cfg)
        best_acc = best.metadata["val_mean_bal_acc"]
        assert all(best_acc >= s["val_mean_bal_acc"] for s in summaries)
        winner = max(summaries, key=lambda s: (s["val_mean_bal_acc"], -s["seed"]))
        assert best.metadata["seed"] == winner["seed"]
        # the returned metrics are the selected model's, as a fresh evaluation gives
        again = evaluate_frames(best, tiny_training_data.x_val, tiny_training_data.y_val)
        assert [m.as_dict() for m in metrics] == [m.as_dict() for m in again]
        assert mean_balanced_accuracy(metrics) == best_acc

    def test_selected_at_least_single_seed_median(self, tiny_training_data, tiny_model_cfg):
        cfg10 = TrainConfig(max_epochs=2, seeds=tuple(range(1, 11)))
        best, summaries, _ = multi_seed_train(tiny_training_data, cfg10, tiny_model_cfg)
        accs = sorted(s["val_mean_bal_acc"] for s in summaries)
        median = 0.5 * (accs[4] + accs[5])
        assert best.metadata["val_mean_bal_acc"] >= median


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tiny_trained):
        params, _ = tiny_trained
        blob = save_checkpoint(params)
        back = load_checkpoint(blob)
        assert save_checkpoint(back) == blob

    def test_corrupted_checksum_rejected(self, tiny_trained):
        params, _ = tiny_trained
        blob = bytearray(save_checkpoint(params))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(bytes(blob))

    def test_flipped_payload_byte_rejected(self, tiny_trained):
        params, _ = tiny_trained
        blob = bytearray(save_checkpoint(params))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CheckpointError):
            load_checkpoint(bytes(blob))

    def test_truncation_rejected(self, tiny_trained):
        params, _ = tiny_trained
        blob = save_checkpoint(params)
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[: len(blob) // 2])

    def test_bad_magic_and_version(self, tiny_trained):
        params, _ = tiny_trained
        blob = save_checkpoint(params)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(b"XXXX" + blob[4:])
        bad_version = bytearray(blob)
        bad_version[4] = 99
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bytes(bad_version))

    def test_missing_header_key_rejected(self, tiny_trained):
        blob = save_checkpoint(tiny_trained[0])
        header, table = _split(blob)
        del header["channels"]
        with pytest.raises(CheckpointError, match="channels"):
            load_checkpoint(_joined(blob, header, table))

    def test_unknown_config_key_rejected(self, tiny_trained):
        blob = save_checkpoint(tiny_trained[0])
        header, table = _split(blob)
        header["config"]["bogus"] = 1
        with pytest.raises(CheckpointError):
            load_checkpoint(_joined(blob, header, table))

    def test_bad_tensor_name_rejected(self, tiny_trained):
        blob = save_checkpoint(tiny_trained[0])
        header, table = _split(blob)
        (name_len,) = struct.unpack_from("<H", table, 2)
        table = table[:4] + b"\xff" * name_len + table[4 + name_len:]
        with pytest.raises(CheckpointError):
            load_checkpoint(_joined(blob, header, table))

    @pytest.mark.parametrize("tensor", [
        struct.pack("<H", 0xFFFF) + b"x",  # the name runs into the checksum
        struct.pack("<H", 1) + b"x" + struct.pack("<B3I", 255, 2, 2, 2),  # 255 dims, 3 given
    ], ids=["name", "shape"])
    def test_table_running_past_the_end_rejected(self, tiny_trained, tensor):
        blob = save_checkpoint(tiny_trained[0])
        header, _ = _split(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(_joined(blob, header, struct.pack("<H", 1) + tensor))

    def test_other_feature_thresholds_refused(self, tiny_trained):
        """A model trained on other count thresholds computed other features
        than the program does, so it cannot be served."""
        blob = save_checkpoint(tiny_trained[0])
        header, table = _split(blob)
        assert header["thresholds"] == THRESHOLDS.as_dict()
        header["thresholds"]["wamp"] = 0.5
        with pytest.raises(CheckpointError, match="thresholds"):
            load_checkpoint(_joined(blob, header, table))

    def test_bench_model_loads(self):
        params = load_checkpoint_file(BENCH_MODEL)
        assert save_checkpoint(params) == BENCH_MODEL.read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("outputs", 5), ("outputs", 7), ("conv_kernel", 5), ("conv_kernel", 3.0)])
    def test_fixed_model_settings_refused_unless_constant(self, key, value):
        """The header records the conv kernel (3) and the output count (6);
        a model built with others is not one the program can run."""
        blob = BENCH_MODEL.read_bytes()
        header, table = _split(blob)
        assert (header["config"]["conv_kernel"], header["config"]["outputs"]) == (3, 6)
        header["config"][key] = value
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(_joined(blob, header, table))

    @pytest.mark.parametrize("edit", [
        lambda p: p.tensors.update(fc1_w=p.tensors["fc1_w"][:, :40]),
        lambda p: p.tensors.pop("gru_b"),
        lambda p: p.tensors.update(extra=np.zeros(3)),
        lambda p: setattr(p, "bn_var", p.bn_var[:-1]),
        lambda p: setattr(p, "norm_stats", identity_stats(223)),
    ], ids=["fc1_w-96x40", "no-gru_b", "extra", "bn_var-95", "norm-223"])
    def test_tensors_must_match_the_config(self, edit):
        """A re-saved bench model whose tensor table is not the one its config
        describes is refused at load, not at the first forward pass."""
        params = load_checkpoint_file(BENCH_MODEL)
        params.fingerprint = None  # saving would run the edited network
        assert load_checkpoint(save_checkpoint(params)).config == params.config
        edit(params)
        with pytest.raises(CheckpointError, match="tensors do not match"):
            load_checkpoint(save_checkpoint(params))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["NaN", "inf", "-inf"])
    def test_non_finite_tensor_refused(self, value):
        """A weight that is NaN or infinite would make every prediction a
        NumericFault; the loader refuses it."""
        params = load_checkpoint_file(BENCH_MODEL)
        params.fingerprint = None  # saving would run the broken network
        params.tensors["fc2_b"][0] = value
        with pytest.raises(CheckpointError, match="fc2_b"):
            load_checkpoint(save_checkpoint(params))

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 16.0, 0, True],
                             ids=["Infinity", "NaN", "float", "zero", "bool"])
    def test_channel_count_must_be_a_positive_int(self, value):
        blob = BENCH_MODEL.read_bytes()
        header, table = _split(blob)
        header["channels"] = value
        with pytest.raises(CheckpointError):
            load_checkpoint(_joined(blob, header, table))

    def test_deeply_nested_header_rejected(self):
        blob = BENCH_MODEL.read_bytes()
        _, table = _split(blob)
        meta = b'{"metadata": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        with pytest.raises(CheckpointError):
            load_checkpoint(_resealed(blob[:6] + struct.pack("<I", len(meta)) + meta + table))

    def test_fingerprint_reproduced_after_reload(self, tiny_trained):
        params, _ = tiny_trained
        back = load_checkpoint(save_checkpoint(params))
        assert back.fingerprint is not None
        probs = forward_batch(back.fingerprint["inputs"].astype(np.float64), back,
                              train=False)
        np.testing.assert_allclose(probs, back.fingerprint["probs"].astype(np.float64),
                                   atol=1e-10)

    def test_metadata_and_frontend_survive(self, tiny_trained):
        params, _ = tiny_trained
        back = load_checkpoint(save_checkpoint(params))
        assert back.metadata["seed"] == params.metadata["seed"]
        assert back.window == params.window
        assert back.channels == params.channels
        assert back.config == params.config
        assert_array_equal(back.norm_stats.mean, params.norm_stats.mean.astype(np.float32))


def _small_checkpoint() -> bytes:
    """A checkpoint of a few hundred bytes, so that mutations reach every part."""
    params = init_params(ModelConfig(input_rows=14, steps=3, conv_out=2, gru_hidden=2,
                                     fc_hidden=2), np.random.default_rng(0))
    params.norm_stats = identity_stats(14)
    params.channels = 1
    params.fingerprint = {"inputs": np.zeros((1, 14, 3), dtype=np.float32)}
    return save_checkpoint(params)


_CKPT = _small_checkpoint()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8)


def _flip_bit(blob, bit):
    out = bytearray(blob)
    out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


def _mutate_body(lo, hi, insert):
    """Splice `insert` over body[lo:hi] and write a CRC that matches, so the
    bytes reach the body parser."""
    body = _CKPT[:-4]
    lo, hi = sorted((lo % (len(body) + 1), hi % (len(body) + 1)))
    return _resealed(body[:lo] + insert + body[hi:])


def _rewrite_header(path, value):
    """Set one header entry (a top-level key, or one inside a sub-dict) to
    any JSON value, under a matching CRC."""
    header, table = _split(_CKPT)
    key, _, sub = path.partition(".")
    if sub:
        header[key][sub] = value
    else:
        header[key] = value
    return _joined(_CKPT, header, table)


_HEADER = _split(_CKPT)[0]
_HEADER_PATHS = sorted(list(_HEADER) + [f"{k}.{s}" for k, v in _HEADER.items()
                                        if isinstance(v, dict) for s in v])


class TestCheckpointFuzz:
    @settings(max_examples=300)
    @given(st.one_of(
        st.binary(max_size=300),
        st.builds(lambda body: _resealed(b"NDM1\x01\x00" + body), st.binary(max_size=300)),
        st.builds(lambda cut: _CKPT[:cut], st.integers(0, len(_CKPT))),
        st.builds(_flip_bit, st.just(_CKPT), st.integers(0, 8 * len(_CKPT) - 1)),
        st.builds(lambda bit: _resealed(_flip_bit(_CKPT[:-4], bit)),
                  st.integers(0, 8 * (len(_CKPT) - 4) - 1)),
        st.builds(_mutate_body, st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                  st.binary(max_size=32)),
        st.builds(_rewrite_header, st.sampled_from(_HEADER_PATHS), _JSON),
    ))
    def test_only_checkpoint_error_escapes(self, blob):
        """Truncations, bit flips, bodies rewritten under a corrected CRC,
        header values replaced by any JSON and random bytes: `load_checkpoint`
        returns parameters or raises CheckpointError."""
        try:
            load_checkpoint(blob)
        except CheckpointError:
            pass

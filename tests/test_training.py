import json
import struct
import zlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from nervedecode.checkpoint import load_checkpoint, save_checkpoint
from nervedecode.errors import CheckpointError, ConfigError
from nervedecode.metrics import mean_balanced_accuracy
from nervedecode.network import forward_batch
from nervedecode.training import (
    TrainConfig, TrainingData, evaluate_frames, multi_seed_train, train,
)


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

    def test_frame_order_does_not_change_results(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2)
        data = tiny_training_data
        perm = np.random.default_rng(0).permutation(data.x_train.shape[0])
        shuffled = TrainingData(
            x_train=data.x_train[perm], y_train=data.y_train[perm],
            x_val=data.x_val, y_val=data.y_val, stats=data.stats,
            channels=data.channels, window=data.window, thresholds=data.thresholds)
        a, _ = train(data, cfg, seed=7, model_cfg=tiny_model_cfg)
        b, _ = train(shuffled, cfg, seed=7, model_cfg=tiny_model_cfg)
        assert _params_equal(a, b)

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

        sched = PlateauSchedule(1e-4, patience=2, factor=10.0)
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
        cfg = TrainConfig(lr0=0.0, max_epochs=4, plateau_epochs=2, batch_size=n)
        _, history = train(tiny_training_data, cfg, seed=1, model_cfg=no_dropout)
        assert [rec.lr for rec in history] == [0.0, 0.0, 0.0, 0.0]
        losses = [rec.loss for rec in history]
        assert max(losses) - min(losses) < 1e-9, "frozen weights keep the loss flat"

    def test_empty_dataset_rejected(self, tiny_model_cfg):
        from nervedecode.features import NormStats

        with pytest.raises(ConfigError):
            TrainingData(
                x_train=np.empty((0, tiny_model_cfg.input_rows, tiny_model_cfg.steps)),
                y_train=np.empty((0, 6)), x_val=np.empty((0, 1, 1)),
                y_val=np.empty((0, 6)), stats=NormStats.identity(tiny_model_cfg.input_rows))


class TestMultiSeed:
    def test_single_seed_identical_to_train(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2, seeds=(7,))
        best, _ = multi_seed_train(tiny_training_data, cfg, tiny_model_cfg)
        alone, _ = train(tiny_training_data, cfg, seed=7, model_cfg=tiny_model_cfg)
        assert _params_equal(best, alone)

    def test_selects_argmax_over_candidates(self, tiny_training_data, tiny_model_cfg):
        cfg = TrainConfig(max_epochs=2, seeds=(1, 2, 3))
        best, summaries = multi_seed_train(tiny_training_data, cfg, tiny_model_cfg)
        best_acc = best.metadata["val_mean_bal_acc"]
        assert all(best_acc >= s["val_mean_bal_acc"] for s in summaries)
        winner = max(summaries, key=lambda s: (s["val_mean_bal_acc"], -s["seed"]))
        assert best.metadata["seed"] == winner["seed"]

    def test_selected_at_least_single_seed_median(self, tiny_training_data, tiny_model_cfg):
        cfg10 = TrainConfig(max_epochs=2, seeds=tuple(range(1, 11)))
        best, summaries = multi_seed_train(tiny_training_data, cfg10, tiny_model_cfg)
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
        assert back.thresholds == params.thresholds
        assert back.channels == params.channels
        assert back.config == params.config
        assert_array_equal(back.norm_stats.mean, params.norm_stats.mean.astype(np.float32))

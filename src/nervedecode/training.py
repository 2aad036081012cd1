"""Adam training with plateau LR schedule and multi-seed restart selection.

The optimizer is Adam with decoupled L2 weight decay (applied in the update
step, not the loss). The learning rate is divided by LR_DROP_FACTOR whenever
the epoch training loss fails to improve for PLATEAU_EPOCHS consecutive
epochs. These hyperparameters (the Adam betas, the weight decay and the
plateau rule) are module constants; `TrainConfig` holds only what a caller
sets: batch size, initial learning rate, epoch count and seeds. All
randomness (init, shuffling, dropout) derives from the single seed passed to
`train`, so identical seeds give bit-identical checkpoints. Each epoch
shuffles the frames in the order they are given; `dataset.concat_frames`
fixes that order, and the store the normalization is fitted on, whatever
order the sessions are listed in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import FeatureWindowSpec, NormStats
from .gestures import NUM_DOF
from .metrics import DofMetrics, balanced_accuracy, confusion, mean_balanced_accuracy
from .network import (
    TRAINABLE, BN_MOMENTUM, ModelConfig, ModelParams,
    batch_loss_and_grads, forward_batch, init_params,
)

ADAM_BETA1 = 0.99
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-5
PLATEAU_EPOCHS = 2
LR_DROP_FACTOR = 10.0
FINGERPRINT_FRAMES = 4
# Frames per eval forward pass: the batch's float64 copy, im2col and
# activations set the peak memory of evaluation.
EVAL_BATCH = 64


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lr0: float = 1e-4
    max_epochs: int = 5
    seeds: tuple = (1,)

    def __post_init__(self):
        if self.lr0 < 0.0:
            raise ConfigError("lr0 must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")


@dataclass
class TrainingData:
    """Normalized frames ready for the optimizer.

    x_* are [N x rows x steps] frames, already z-scored with `stats`: arrays,
    or from `dataset.build_training_data` `dataset.Frames` over a float64
    column store z-scored once, so they are only read: a training batch is
    the gather `x_train[idx]`. y_* are [N x NUM_DOF] float64 bit labels.
    """

    x_train: np.ndarray  # or dataset.Frames
    y_train: np.ndarray
    x_val: np.ndarray    # or dataset.Frames
    y_val: np.ndarray
    stats: NormStats
    channels: int = 16
    window: FeatureWindowSpec = FeatureWindowSpec()

    def __post_init__(self):
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ConfigError("x_train/y_train length mismatch")
        if self.x_train.shape[0] < 1:
            raise ConfigError("training set is empty")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    lr: float


class PlateauSchedule:
    """Divide the LR by LR_DROP_FACTOR after PLATEAU_EPOCHS consecutive
    epochs without a strict training-loss improvement."""

    def __init__(self, lr0: float):
        self.lr = lr0
        self._best = np.inf
        self._stall = 0

    def observe(self, epoch_loss: float) -> float:
        """Record one epoch's training loss; returns the LR for the next epoch."""
        if epoch_loss < self._best:
            self._best = epoch_loss
            self._stall = 0
        else:
            self._stall += 1
            if self._stall >= PLATEAU_EPOCHS:
                self.lr /= LR_DROP_FACTOR
                self._stall = 0
        return self.lr


class Adam:
    """Adam with decoupled weight decay, applied uniformly to every tensor."""

    def __init__(self, params: ModelParams):
        self.m = {k: np.zeros_like(params.tensors[k]) for k in TRAINABLE}
        self.v = {k: np.zeros_like(params.tensors[k]) for k in TRAINABLE}
        self.t = 0

    def step(self, params: ModelParams, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name in TRAINABLE:
            m = self.m[name]
            v = self.v[name]
            g = grads[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            theta = params.tensors[name]
            theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            theta -= lr * WEIGHT_DECAY * theta


def train(data: TrainingData, cfg: TrainConfig, seed: int,
          model_cfg: ModelConfig | None = None) -> tuple[ModelParams, list[EpochRecord]]:
    """Train one model from one seed; returns (params, per-epoch history)."""
    n = data.x_train.shape[0]
    if model_cfg is None:
        model_cfg = ModelConfig(input_rows=data.x_train.shape[1], steps=data.x_train.shape[2])
    if model_cfg.input_rows != data.x_train.shape[1] or model_cfg.steps != data.x_train.shape[2]:
        raise ConfigError(f"model config {model_cfg.input_rows}x{model_cfg.steps} does not "
                          f"match frames {data.x_train.shape[1]}x{data.x_train.shape[2]}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = init_params(model_cfg, rng)
    params.norm_stats = data.stats
    params.channels = data.channels
    params.window = data.window
    opt = Adam(params)

    schedule = PlateauSchedule(cfg.lr0)
    history: list[EpochRecord] = []
    for epoch in range(cfg.max_epochs):
        lr = schedule.lr
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            value, grads, cache = batch_loss_and_grads(data.x_train[idx], data.y_train[idx],
                                                       params, rng=rng)
            params.bn_mean = (1.0 - BN_MOMENTUM) * params.bn_mean + BN_MOMENTUM * cache["mu"]
            params.bn_var = (1.0 - BN_MOMENTUM) * params.bn_var + BN_MOMENTUM * cache["var"]
            opt.step(params, grads, lr)
            total += value * len(idx)
        epoch_loss = total / n
        history.append(EpochRecord(epoch, epoch_loss, lr))
        schedule.observe(epoch_loss)

    params.metadata = {
        "seed": int(seed),
        "epochs": cfg.max_epochs,
        "final_loss": history[-1].loss,
        "lr_schedule": [rec.lr for rec in history],
    }
    fp_source = data.x_val if data.x_val.shape[0] >= 1 else data.x_train
    params.fingerprint = {
        "inputs": fp_source[:FINGERPRINT_FRAMES].astype(np.float32),
    }
    return params, history


def predict_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities for a stack of normalized frames, EVAL_BATCH
    frames per forward pass."""
    outs = []
    for start in range(0, x.shape[0], EVAL_BATCH):
        outs.append(forward_batch(x[start:start + EVAL_BATCH], params, train=False))
    return np.concatenate(outs, axis=0) if outs else np.empty((0, NUM_DOF))


def evaluate_frames(params: ModelParams, x: np.ndarray, y: np.ndarray) -> list[DofMetrics]:
    """Per-DOF metrics of thresholded predictions against bit labels."""
    probs = predict_batch(params, x)
    pred_bits = (probs >= 0.5).astype(np.uint8)
    return balanced_accuracy(confusion(pred_bits, y.astype(np.uint8)))


def multi_seed_train(data: TrainingData, cfg: TrainConfig,
                     model_cfg: ModelConfig | None = None):
    """Train one model per seed and keep the one with the best mean balanced
    accuracy across DOFs on the validation split; ties go to the lowest seed.

    Returns (best_params, per-seed summary list, the selected seed's per-DOF
    validation metrics).
    """
    if data.x_val.shape[0] < 1:
        raise ConfigError("multi-seed selection needs a validation split")
    best = None
    summaries = []
    for seed in cfg.seeds:
        params, history = train(data, cfg, seed, model_cfg)
        metrics = evaluate_frames(params, data.x_val, data.y_val)
        acc = mean_balanced_accuracy(metrics)
        summaries.append({
            "seed": int(seed),
            "val_mean_bal_acc": acc,
            "final_loss": history[-1].loss,
            "history": [(rec.epoch, rec.loss, rec.lr) for rec in history],
        })
        if best is None or acc > best[0] or (acc == best[0] and seed < best[1]):
            best = (acc, seed, params, metrics)
    acc, _, best_params, best_metrics = best
    best_params.metadata["selected_from_seeds"] = [int(s) for s in cfg.seeds]
    best_params.metadata["val_mean_bal_acc"] = acc
    return best_params, summaries, best_metrics

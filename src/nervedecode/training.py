"""Adam training with plateau LR schedule and multi-seed restart selection.

The optimizer is Adam with decoupled L2 weight decay (applied in the update
step, not the loss). The learning rate is divided by lr_drop_factor whenever
the epoch training loss fails to improve for plateau_epochs consecutive
epochs. All randomness (init, shuffling, dropout) derives from the single
seed passed to `train`, so identical seeds give bit-identical checkpoints.

Before the first epoch the frame order is canonicalized by a content digest,
which makes training independent of the order the caller assembled the
dataset in; only the shuffle seed changes the batch composition.
"""
from __future__ import annotations

from dataclasses import dataclass
import hashlib

import numpy as np

from .errors import ConfigError
from .features import FeatureThresholds, FeatureWindowSpec, NormStats
from .metrics import DofMetrics, balanced_accuracy, confusion, mean_balanced_accuracy
from .network import (
    TRAINABLE, BN_MOMENTUM, ModelConfig, ModelParams,
    batch_loss_and_grads, forward_batch, init_params,
)

ADAM_EPS = 1e-8
FINGERPRINT_FRAMES = 4


@dataclass(frozen=True)
class TrainConfig:
    beta1: float = 0.99
    beta2: float = 0.999
    weight_decay: float = 1e-5
    batch_size: int = 64
    lr0: float = 1e-4
    max_epochs: int = 5
    plateau_epochs: int = 2
    lr_drop_factor: float = 10.0
    seeds: tuple = (1,)

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in (0, 1)")
        if self.lr0 < 0.0:
            raise ConfigError("lr0 must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1 or self.plateau_epochs < 1:
            raise ConfigError("batch_size, max_epochs, plateau_epochs must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")


@dataclass
class TrainingData:
    """Normalized frames ready for the optimizer.

    x_* are [N x rows x steps], already z-scored with `stats` and stored
    float32 (the network casts each batch to float64 on entry); y_* are
    [N x outputs] float64 bit labels.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    stats: NormStats
    channels: int = 16
    window: FeatureWindowSpec = FeatureWindowSpec()
    thresholds: FeatureThresholds = FeatureThresholds()

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
    """Divide the LR by `factor` after `patience` consecutive epochs without
    a strict training-loss improvement."""

    def __init__(self, lr0: float, patience: int, factor: float):
        self.lr = lr0
        self.patience = patience
        self.factor = factor
        self._best = np.inf
        self._stall = 0

    def observe(self, epoch_loss: float) -> float:
        """Record one epoch's training loss; returns the LR for the next epoch."""
        if epoch_loss < self._best:
            self._best = epoch_loss
            self._stall = 0
        else:
            self._stall += 1
            if self._stall >= self.patience:
                self.lr /= self.factor
                self._stall = 0
        return self.lr


class Adam:
    """Adam with decoupled weight decay, applied uniformly to every tensor."""

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {k: np.zeros_like(params.tensors[k]) for k in TRAINABLE}
        self.v = {k: np.zeros_like(params.tensors[k]) for k in TRAINABLE}
        self.t = 0

    def step(self, params: ModelParams, grads: dict, lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name in TRAINABLE:
            m = self.m[name]
            v = self.v[name]
            g = grads[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * np.square(g)
            theta = params.tensors[name]
            theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            theta -= lr * cfg.weight_decay * theta


def _canonical_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sort frames by a digest of their bytes so dataset assembly order cannot
    leak into the result; stable for duplicate frames."""
    keys = b"".join(
        hashlib.sha256(x[i].tobytes() + y[i].tobytes()).digest()[:8]
        for i in range(x.shape[0])
    )
    return np.argsort(np.frombuffer(keys, dtype=">u8"), kind="stable")


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
    params.thresholds = data.thresholds
    opt = Adam(params, cfg)

    order = _canonical_order(data.x_train, data.y_train)
    x = data.x_train[order]
    y = data.y_train[order]

    schedule = PlateauSchedule(cfg.lr0, cfg.plateau_epochs, cfg.lr_drop_factor)
    history: list[EpochRecord] = []
    for epoch in range(cfg.max_epochs):
        lr = schedule.lr
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            value, grads, cache = batch_loss_and_grads(x[idx], y[idx], params, rng=rng)
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


def predict_batch(params: ModelParams, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Eval-mode probabilities for a stack of normalized frames."""
    outs = []
    for start in range(0, x.shape[0], batch_size):
        outs.append(forward_batch(x[start:start + batch_size], params, train=False))
    return np.concatenate(outs, axis=0) if outs else np.empty((0, params.config.outputs))


def evaluate_frames(params: ModelParams, x: np.ndarray, y: np.ndarray) -> list[DofMetrics]:
    """Per-DOF metrics of thresholded predictions against bit labels."""
    probs = predict_batch(params, x)
    pred_bits = (probs >= 0.5).astype(np.uint8)
    return balanced_accuracy(confusion(pred_bits, y.astype(np.uint8)))


def multi_seed_train(data: TrainingData, cfg: TrainConfig,
                     model_cfg: ModelConfig | None = None):
    """Train one model per seed and keep the one with the best mean balanced
    accuracy across DOFs on the validation split; ties go to the lowest seed.

    Returns (best_params, per-seed summary list).
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
            best = (acc, seed, params)
    best_params = best[2]
    best_params.metadata["selected_from_seeds"] = [int(s) for s in cfg.seeds]
    best_params.metadata["val_mean_bal_acc"] = best[0]
    return best_params, summaries

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

`train` pins glibc's heap thresholds for the whole process
(`keep_step_memory`): a training step makes and frees some 50 MB of arrays,
and under glibc's moving defaults it page-faulted part of that back in on
every step, more or less of it from one run to the next.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import FeatureWindowSpec, NormStats
from .gestures import NUM_DOF
from .metrics import DofMetrics, balanced_accuracy, confusion, mean_balanced_accuracy
from .network import (
    TRAINABLE, BN_MOMENTUM, CONV_KERNEL, ModelConfig, ModelParams,
    batch_loss_and_grads, check_finite, conv_rows, gru_cell, gru_inputs, head, init_params,
)
# Not called here: perfbench's tracer rebinds `training.forward_batch` and
# stops if the name is missing.
from .network import forward_batch  # noqa: F401

ADAM_BETA1 = 0.99
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-5
PLATEAU_EPOCHS = 2
LR_DROP_FACTOR = 10.0
FINGERPRINT_FRAMES = 4
# glibc's mallopt parameter numbers. `keep_step_memory` pins the mmap
# threshold at the ceiling of glibc's own dynamic one on 64-bit hosts, and
# the trim threshold at twice it, where glibc's dynamic rule puts them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
STEP_MMAP_THRESHOLD = 32 << 20
# Frames per eval chunk: the conv rows of the columns a chunk reads, and its
# GRU states, set the peak memory of evaluation.
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


def keep_step_memory() -> None:
    """Keep a training step's arrays in the heap from one batch to the next.

    glibc serves blocks above its mmap threshold from fresh mappings and
    returns the heap's top to the kernel once more than its trim threshold
    lies free there. Both thresholds follow the sizes the process has freed
    so far, so the ~50 MB a bench-shape step makes and frees was partly
    handed back after each step and page-faulted in again on the next:
    1,100-2,000 faults per step, depending on what ran before. Pinned, a
    step reuses its pages (~80 faults). Process-wide and lasting; a no-op
    where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, STEP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * STEP_MMAP_THRESHOLD)


def train(data: TrainingData, cfg: TrainConfig, seed: int,
          model_cfg: ModelConfig | None = None) -> tuple[ModelParams, list[EpochRecord]]:
    """Train one model from one seed; returns (params, per-epoch history).
    Pins the process's heap thresholds first (`keep_step_memory`)."""
    n = data.x_train.shape[0]
    if model_cfg is None:
        model_cfg = ModelConfig(input_rows=data.x_train.shape[1], steps=data.x_train.shape[2])
    if model_cfg.input_rows != data.x_train.shape[1] or model_cfg.steps != data.x_train.shape[2]:
        raise ConfigError(f"model config {model_cfg.input_rows}x{model_cfg.steps} does not "
                          f"match frames {data.x_train.shape[1]}x{data.x_train.shape[2]}")

    keep_step_memory()
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


def predict_batch(params: ModelParams, x) -> np.ndarray:
    """Eval-mode probabilities for normalized frames: a `dataset.Frames`, or
    an [N x rows x steps] array, read as a store of its own columns.

    The engine's per-column form over the store, EVAL_BATCH frames at a
    time: each distinct conv row a chunk reads, a store column between its
    frame neighbours (`pos[:, t - 1]` and `pos[:, t + 1]`, not the store's
    adjacent columns) or at a frame's zero-padded edge, goes through the
    conv, batch norm, ReLU and input projection once, and one batched GRU
    step per column advances the chunk's frames. Equal to `forward_batch`
    on the frames up to rounding."""
    cfg = params.config
    if len(x.shape) != 3 or tuple(x.shape[1:]) != (cfg.input_rows, cfg.steps):
        raise ConfigError(f"input shape {tuple(x.shape)} != "
                          f"[N x {cfg.input_rows} x {cfg.steps}]")
    outs = []
    for start in range(0, x.shape[0], EVAL_BATCH):
        if hasattr(x, "store"):
            store, pos = x.store, x.pos[start:start + EVAL_BATCH]
        else:
            chunk = np.asarray(x[start:start + EVAL_BATCH], dtype=np.float64)
            store = chunk.transpose(1, 0, 2).reshape(cfg.input_rows, -1)
            pos = np.arange(store.shape[1]).reshape(len(chunk), cfg.steps)
        outs.append(_predict_columns(params, store, pos))
    return np.concatenate(outs, axis=0) if outs else np.empty((0, NUM_DOF))


def _predict_columns(params: ModelParams, store: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities of the frames `store[:, pos[i]]`."""
    b, t = pos.shape
    pad = (CONV_KERNEL - 1) // 2
    padded = np.pad(pos, ((0, 0), (pad, pad)), constant_values=-1)  # -1: the zero padding
    # the store column each conv tap of each step reads; equal triples share a
    # row, keyed by their columns' ranks to sort as np.unique(axis=0) would
    reads = np.stack([padded[:, k:k + t] for k in range(CONV_KERNEL)], axis=-1)
    reads = reads.reshape(-1, CONV_KERNEL)
    read, rank = np.unique(reads, return_inverse=True)
    key = np.ravel_multi_index(rank.reshape(reads.shape).T, (len(read),) * CONV_KERNEL)
    _, first, at = np.unique(key, return_index=True, return_inverse=True)
    at = at.reshape(b, t)
    before = gru_inputs(conv_rows(store, reads[first], params), params)
    xg = before["xg"]
    h = np.zeros((b, params.config.gru_hidden))
    for step in range(t):
        h = gru_cell(xg[at[:, step]], h, params.tensors)[0]
    after = head(h, params.tensors)
    check_finite(before, h, after)
    return after["probs"]


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

"""From-scratch conv + GRU multi-label classifier (numpy, float64).

Architecture, applied to a [rows x steps] feature tensor:

    temporal 1-D convolution (rows -> conv_out, kernel 3, stride 1,
    same padding) -> batch norm -> ReLU -> single-layer GRU scanned over
    the steps -> last hidden state -> dropout (train only) -> linear ->
    ReLU -> linear -> sigmoid, one output per DOF.

GRU gates, with the candidate reset applied to the hidden state before its
matrix multiply:

    z = sigmoid(x Wz + h Uz + bz)          (update: keeps the old state)
    r = sigmoid(x Wr + h Ur + br)
    c = tanh(x Wc + (r * h) Uc + bc)
    h' = z * h + (1 - z) * c

Training mode uses batch statistics for batch norm and samples a dropout
mask; eval mode uses the running statistics and no dropout, so eval forward
is a pure function of (input, params). `backward` returns exact gradients of
the mean batch loss for every trainable tensor, including backprop through
time across all steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigError, NumericFault
from .features import NUM_FEATURES, THRESHOLDS, FeatureThresholds, FeatureWindowSpec, NormStats
from .gestures import NUM_DOF, bits_to_gesture

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
PROB_CLAMP = 1e-7

TRAINABLE = (
    "conv_w", "conv_b", "bn_gamma", "bn_beta",
    "gru_wx", "gru_uh_zr", "gru_uh_c", "gru_b",
    "fc1_w", "fc1_b", "fc2_w", "fc2_b",
)


# Kernel width of the temporal convolution (odd, for same padding). The output
# count is `NUM_DOF`: thresholding, the wire's six probabilities and the
# confusion counts all assume one output per degree of freedom.
CONV_KERNEL = 3


@dataclass(frozen=True)
class ModelConfig:
    input_rows: int = 16 * NUM_FEATURES
    steps: int = 50
    conv_out: int = 256
    gru_hidden: int = 256
    fc_hidden: int = 64
    dropout_rate: float = 0.5

    def __post_init__(self):
        for name in ("input_rows", "steps", "conv_out", "gru_hidden", "fc_hidden"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def tensor_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Shape of every trainable tensor, in `TRAINABLE` order."""
    f, h, fc, r = config.conv_out, config.gru_hidden, config.fc_hidden, config.input_rows
    return {
        "conv_w": (f, r, CONV_KERNEL), "conv_b": (f,), "bn_gamma": (f,), "bn_beta": (f,),
        "gru_wx": (f, 3 * h), "gru_uh_zr": (h, 2 * h), "gru_uh_c": (h, h), "gru_b": (3 * h,),
        "fc1_w": (h, fc), "fc1_b": (fc,), "fc2_w": (fc, NUM_DOF), "fc2_b": (NUM_DOF,),
    }


@dataclass
class ModelParams:
    """All weights plus the front end they were trained on: channel count,
    window geometry and normalization (the feature thresholds are fixed)."""

    config: ModelConfig
    tensors: dict
    bn_mean: np.ndarray
    bn_var: np.ndarray
    norm_stats: NormStats | None = None
    window: FeatureWindowSpec = FeatureWindowSpec()
    channels: int = 16
    metadata: dict = field(default_factory=dict)
    fingerprint: dict | None = None
    # not a field: perfbench reads `params.thresholds`
    thresholds: ClassVar[FeatureThresholds] = THRESHOLDS

    @property
    def parameter_count(self) -> int:
        return int(sum(self.tensors[name].size for name in TRAINABLE))

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            bn_mean=self.bn_mean.copy(), bn_var=self.bn_var.copy(),
            norm_stats=self.norm_stats, window=self.window, channels=self.channels,
            metadata=dict(self.metadata),
            fingerprint=None if self.fingerprint is None else dict(self.fingerprint),
        )


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Uniform fan-in initialization for weight matrices, zero biases,
    batch-norm scale 1 / shift 0. Consumption order is fixed so a seed fully
    determines the result."""
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name == "bn_gamma":
            tensors[name] = np.ones(shape)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            # a conv filter sees rows x kernel inputs; a matrix's rows are its inputs
            fan_in = shape[1] * shape[2] if name == "conv_w" else shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    f = config.conv_out
    return ModelParams(config=config, tensors=tensors,
                       bn_mean=np.zeros(f), bn_var=np.ones(f))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # stable in both tails and a single ufunc pass
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericFault(f"non-finite activation in layer '{name}'")


def _conv_cols(x: np.ndarray, kernel: int) -> np.ndarray:
    """im2col for the temporal conv: [B, R, T] -> [B, T, R*kernel]."""
    b, r, t = x.shape
    pad = (kernel - 1) // 2
    xp = np.zeros((b, r, t + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + t] = x
    slabs = [xp[:, :, k:k + t] for k in range(kernel)]       # each [B, R, T]
    cols = np.stack(slabs, axis=2)                           # [B, R, K, T]
    return np.ascontiguousarray(cols.transpose(0, 3, 1, 2).reshape(b, t, r * kernel))


def forward_batch(x: np.ndarray, params: ModelParams, train: bool = False,
                  dropout_mask: np.ndarray | None = None,
                  rng: np.random.Generator | None = None):
    """Run the network on a [B x rows x steps] batch; returns probabilities
    [B x NUM_DOF], plus the backward cache in train mode.

    Train mode normalizes with batch statistics and applies dropout (mask
    sampled from `rng` unless one is passed in); eval mode is deterministic.
    """
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.input_rows or x.shape[2] != cfg.steps:
        raise ConfigError(f"input shape {x.shape} != [B x {cfg.input_rows} x {cfg.steps}]")
    p = params.tensors
    b, _, t = x.shape
    h_dim = cfg.gru_hidden

    cols = _conv_cols(x, CONV_KERNEL)
    w2 = p["conv_w"].reshape(cfg.conv_out, -1)
    conv = cols @ w2.T + p["conv_b"]                         # [B, T, F]

    if train:
        mu = conv.mean(axis=(0, 1))
        var = conv.var(axis=(0, 1))
    else:
        mu, var = params.bn_mean, params.bn_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    yhat = (conv - mu) * inv_std
    bn_out = p["bn_gamma"] * yhat + p["bn_beta"]
    relu1 = np.maximum(bn_out, 0.0)                          # [B, T, F]

    xg = relu1 @ p["gru_wx"] + p["gru_b"]                    # [B, T, 3H]
    h = np.zeros((b, h_dim))
    uh_zr, uh_c = p["gru_uh_zr"], p["gru_uh_c"]
    steps_cache = [] if train else None
    for step in range(t):
        g = xg[:, step, :]
        zr = sigmoid(g[:, :2 * h_dim] + h @ uh_zr)
        z, r = zr[:, :h_dim], zr[:, h_dim:]
        rh = r * h
        c = np.tanh(g[:, 2 * h_dim:] + rh @ uh_c)
        if steps_cache is not None:
            steps_cache.append((h, z, r, c))
        h = z * h + (1.0 - z) * c

    if train and cfg.dropout_rate > 0.0:
        if dropout_mask is None:
            if rng is None:
                raise ConfigError("train-mode forward needs a dropout mask or rng")
            keep = 1.0 - cfg.dropout_rate
            dropout_mask = (rng.random((b, h_dim)) < keep) / keep
        h_drop = h * dropout_mask
    else:
        dropout_mask = None
        h_drop = h

    a1 = h_drop @ p["fc1_w"] + p["fc1_b"]
    relu2 = np.maximum(a1, 0.0)
    logits = relu2 @ p["fc2_w"] + p["fc2_b"]
    probs = sigmoid(logits)
    if not np.all(np.isfinite(probs)):
        # trace the fault to the first offending layer
        for name, arr in (("conv", conv), ("batch_norm", bn_out), ("gru_input", xg),
                          ("gru_hidden", h), ("fc1", a1), ("logits", logits),
                          ("sigmoid", probs)):
            _check_finite(name, arr)

    if not train:
        return probs
    cache = {
        "x": x, "cols": cols, "conv": conv, "mu": mu, "var": var, "inv_std": inv_std,
        "yhat": yhat, "bn_out": bn_out, "relu1": relu1, "xg": xg,
        "steps": steps_cache, "h_last": h, "dropout_mask": dropout_mask,
        "h_drop": h_drop, "a1": a1, "relu2": relu2, "logits": logits, "probs": probs,
    }
    return probs, cache


def loss(probabilities: np.ndarray, target_bits: np.ndarray) -> float:
    """Mean over DOF of the per-DOF binary cross-entropy.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs; the L2
    term lives in the optimizer, not here.
    """
    p = np.clip(np.asarray(probabilities, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(target_bits, dtype=np.float64)
    if p.shape != y.shape:
        raise ConfigError(f"probabilities/target shape mismatch: {p.shape} vs {y.shape}")
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _dlogits(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the clamped mean BCE w.r.t. the logits.

    Inside the clamp bounds this is (p - y) / (outputs * batch); where the
    probability is clamped the loss is locally flat in it, so the gradient
    is zero there.
    """
    b, d = probs.shape
    in_bounds = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    return np.where(in_bounds, probs - targets, 0.0) / (d * b)


def backward(cache: dict, targets: np.ndarray, params: ModelParams) -> dict:
    """Exact gradients of the mean batch loss for every trainable tensor,
    from the cache of a train-mode `forward_batch`."""
    cfg = params.config
    p = params.tensors
    probs = cache["probs"]
    y = np.asarray(targets, dtype=np.float64)
    b, t, f = cache["conv"].shape
    h_dim = cfg.gru_hidden

    dlogits = _dlogits(probs, y)
    grads = {}
    grads["fc2_w"] = cache["relu2"].T @ dlogits
    grads["fc2_b"] = dlogits.sum(axis=0)
    da1 = (dlogits @ p["fc2_w"].T) * (cache["a1"] > 0.0)
    grads["fc1_w"] = cache["h_drop"].T @ da1
    grads["fc1_b"] = da1.sum(axis=0)
    dh = da1 @ p["fc1_w"].T
    if cache["dropout_mask"] is not None:
        dh = dh * cache["dropout_mask"]

    uh_zr, uh_c = p["gru_uh_zr"], p["gru_uh_c"]
    d_uh_zr = np.zeros_like(uh_zr)
    d_uh_c = np.zeros_like(uh_c)
    dxg = np.zeros_like(cache["xg"])
    for step in range(t - 1, -1, -1):
        h_prev, z, r, c = cache["steps"][step]
        dz = dh * (h_prev - c)
        dc = dh * (1.0 - z)
        dh_prev = dh * z
        dac = dc * (1.0 - c * c)
        dxg[:, step, 2 * h_dim:] = dac
        d_rh = dac @ uh_c.T
        d_uh_c += (r * h_prev).T @ dac
        dr = d_rh * h_prev
        dh_prev += d_rh * r
        dxg[:, step, :h_dim] = dz * z * (1.0 - z)
        dxg[:, step, h_dim:2 * h_dim] = dr * r * (1.0 - r)
        dazr = dxg[:, step, :2 * h_dim]
        dh_prev += dazr @ uh_zr.T
        d_uh_zr += h_prev.T @ dazr
        dh = dh_prev
    grads["gru_uh_zr"] = d_uh_zr
    grads["gru_uh_c"] = d_uh_c
    grads["gru_b"] = dxg.sum(axis=(0, 1))
    relu1_flat = cache["relu1"].reshape(b * t, f)
    dxg_flat = dxg.reshape(b * t, -1)
    grads["gru_wx"] = relu1_flat.T @ dxg_flat
    drelu1 = (dxg @ p["gru_wx"].T) * (cache["bn_out"] > 0.0)

    # batch-norm backward through the batch statistics
    gamma = p["bn_gamma"]
    yhat, inv_std = cache["yhat"], cache["inv_std"]
    n = b * t
    grads["bn_gamma"] = np.sum(drelu1 * yhat, axis=(0, 1))
    grads["bn_beta"] = np.sum(drelu1, axis=(0, 1))
    dyhat = drelu1 * gamma
    centered = cache["conv"] - cache["mu"]
    dvar = np.sum(dyhat * centered, axis=(0, 1)) * (-0.5) * inv_std ** 3
    dmu = np.sum(dyhat, axis=(0, 1)) * (-inv_std) + dvar * np.sum(-2.0 * centered, axis=(0, 1)) / n
    dconv = dyhat * inv_std + dvar * 2.0 * centered / n + dmu / n

    grads["conv_b"] = dconv.sum(axis=(0, 1))
    dconv_flat = dconv.reshape(b * t, f)
    cols_flat = cache["cols"].reshape(b * t, -1)
    grads["conv_w"] = (dconv_flat.T @ cols_flat).reshape(p["conv_w"].shape)

    for name in TRAINABLE:
        if not np.all(np.isfinite(grads[name])):
            raise NumericFault(f"non-finite gradient for '{name}'")
    return grads


def batch_loss_and_grads(x: np.ndarray, targets: np.ndarray, params: ModelParams,
                         dropout_mask: np.ndarray | None = None,
                         rng: np.random.Generator | None = None):
    """Train-mode forward + backward; returns (loss, grads, cache)."""
    probs, cache = forward_batch(x, params, train=True, dropout_mask=dropout_mask, rng=rng)
    value = loss(probs, targets)
    grads = backward(cache, targets, params)
    return value, grads, cache


def threshold(probabilities: np.ndarray) -> str:
    """DOF d flexes iff its probability is >= 0.5 (boundary counts as flexing)."""
    probs = np.asarray(probabilities)
    if probs.shape != (NUM_DOF,):
        raise ConfigError(f"expected {NUM_DOF} probabilities, got shape {probs.shape}")
    return bits_to_gesture((probs >= 0.5).astype(np.uint8))


@dataclass(frozen=True)
class Prediction:
    """One decoder output frame."""

    probabilities: np.ndarray
    label: str
    frame_timestamp_s: float
    feature_us: float = 0.0
    decode_us: float = 0.0

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

The layers are functions that `forward_batch`, the streaming engine's
per-column decode (`engine.DecodePipeline`) and the offline per-column eval
(`training.predict_batch`) share: a conv, `gru_inputs` (batch norm, ReLU and
the GRU input projection of the conv output), `gru_cell` (one GRU step of a
batch) and `head`; `check_finite` traces a non-finite output to its layer
for all three. The conv has two forms:

- `conv_shifted`, for whole frames: `forward_batch` (training, and a
  checkpoint's fingerprint) convolves a batch as CONV_KERNEL shifted GEMMs
  over one zero-padded, time-major copy of it, and `backward` forms
  `conv_w`'s gradient from the same copy (`conv_shifted_grad`), so a
  training step neither builds nor keeps an im2col of its frames.
- `conv_rows`, for single columns, the one builder of im2col rows: the
  engine, once per tick on its new columns, and `predict_batch`, once per
  store column a chunk of frames reads, pass a column store and neighbour
  taps (a column and its two frame neighbours, -1 for the zero padding),
  for one GEMM against `conv_w` in its stored layout. As CONV_KERNEL tap
  products the strided slices of `conv_w` would be copied, or run through
  numpy's non-BLAS loop, at twice the time.

The engine then runs `gru_cell` once per column over the frames in flight,
`predict_batch` once per step over a chunk's frames.
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


def conv_rows(z: np.ndarray, taps: np.ndarray, params: ModelParams) -> np.ndarray:
    """Temporal conv at single columns of a column store `z` [rows x m]:
    output row i convolves the columns `taps[i]` (left neighbour, column,
    right neighbour; -1 for a frame's zero padding) against `conv_w` in its
    stored layout, as one GEMM over the gathered im2col rows: [n x conv_out].
    Reads only the tapped columns of `z`."""
    p = params.tensors
    cols = z[:, taps]                          # [rows, n, CONV_KERNEL]
    cols[:, taps < 0] = 0.0
    cols = cols.transpose(1, 0, 2).reshape(len(taps), -1)
    return cols @ p["conv_w"].reshape(params.config.conv_out, -1).T + p["conv_b"]


def conv_shifted(x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Temporal conv of a [B, R, T] batch as CONV_KERNEL shifted GEMMs over
    one zero-padded, time-major copy `xp` of it, flattened to
    [B*(T + 2*pad), R]. Output row i sums padded rows i .. i + kernel - 1
    against their taps, so each of a frame's T rows reads only that frame;
    the 2*pad rows after them straddle two frames and are skipped. Returns
    (conv [B, T, conv_out], a view; `xp`, for `conv_shifted_grad`)."""
    b, r, t = x.shape
    pad = (CONV_KERNEL - 1) // 2
    xp = np.zeros((b, t + 2 * pad, r))
    xp[:, pad:pad + t] = x.transpose(0, 2, 1)
    xp = xp.reshape(-1, r)
    taps = np.ascontiguousarray(params.tensors["conv_w"].transpose(2, 1, 0))  # [K, R, F]
    n = len(xp) - (CONV_KERNEL - 1)
    out = np.zeros((len(xp), params.config.conv_out))
    np.matmul(xp[:n], taps[0], out=out[:n])
    for k in range(1, CONV_KERNEL):
        out[:n] += xp[k:k + n] @ taps[k]
    out += params.tensors["conv_b"]
    return out.reshape(b, t + 2 * pad, -1)[:, :t], xp


def conv_shifted_grad(xp: np.ndarray, dconv: np.ndarray) -> np.ndarray:
    """`conv_w`'s gradient [F, R, kernel] from `conv_shifted`'s padded copy
    `xp` and the gradient of its output [B, T, F]: the shifted GEMMs
    transposed, tap k pairing output row i with padded row i + k; the rows
    that straddle two frames carry no gradient."""
    b, t, f = dconv.shape
    n = len(xp) - (CONV_KERNEL - 1)
    dpad = np.zeros((b, len(xp) // b, f))
    dpad[:, :t] = dconv
    dpad = dpad.reshape(-1, f)[:n].T
    return np.stack([dpad @ xp[k:k + n] for k in range(CONV_KERNEL)], axis=2)


def gru_inputs(conv: np.ndarray, params: ModelParams, train: bool = False) -> dict:
    """Batch norm, ReLU and GRU input projection of the conv output [..., F]
    (`conv_rows` or `conv_shifted`): the layers between the conv and the
    scan, as a dict of the arrays the backward cache keeps, "xg" [..., 3H]
    the scan's input. Train mode normalizes with the statistics of these
    rows, eval mode with the running ones."""
    p = params.tensors
    if train:
        axes = tuple(range(conv.ndim - 1))
        mu, var = conv.mean(axis=axes), conv.var(axis=axes)
    else:
        mu, var = params.bn_mean, params.bn_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    yhat = (conv - mu) * inv_std
    bn_out = p["bn_gamma"] * yhat + p["bn_beta"]
    relu1 = np.maximum(bn_out, 0.0)
    xg = relu1 @ p["gru_wx"] + p["gru_b"]
    return {"conv": conv, "mu": mu, "var": var, "inv_std": inv_std, "yhat": yhat,
            "bn_out": bn_out, "relu1": relu1, "xg": xg}


def gru_cell(g: np.ndarray, h: np.ndarray, tensors: dict):
    """One GRU step of a batch: input projections g [B or 1, 3H] (bias
    included) and states h [B, H] -> (h', z, r, c)."""
    h_dim = h.shape[1]
    zr = sigmoid(g[:, :2 * h_dim] + h @ tensors["gru_uh_zr"])
    z, r = zr[:, :h_dim], zr[:, h_dim:]
    c = np.tanh(g[:, 2 * h_dim:] + (r * h) @ tensors["gru_uh_c"])
    return z * h + (1.0 - z) * c, z, r, c


def head(h: np.ndarray, tensors: dict) -> dict:
    """Linear -> ReLU -> linear -> sigmoid on final states [B, H]; "probs" is
    [B, NUM_DOF]."""
    a1 = h @ tensors["fc1_w"] + tensors["fc1_b"]
    relu2 = np.maximum(a1, 0.0)
    logits = relu2 @ tensors["fc2_w"] + tensors["fc2_b"]
    return {"a1": a1, "relu2": relu2, "logits": logits, "probs": sigmoid(logits)}


def check_finite(before: dict, h: np.ndarray, after: dict) -> None:
    """If the probabilities are not all finite, raise NumericFault naming
    the first layer that holds a non-finite value: `gru_inputs`' layers, the
    final states, then `head`'s."""
    if not np.all(np.isfinite(after["probs"])):
        for name, arr in (("conv", before["conv"]), ("batch_norm", before["bn_out"]),
                          ("gru_input", before["xg"]), ("gru_hidden", h),
                          ("fc1", after["a1"]), ("logits", after["logits"]),
                          ("sigmoid", after["probs"])):
            if not np.all(np.isfinite(arr)):
                raise NumericFault(f"non-finite activation in layer '{name}'")


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

    conv, xp = conv_shifted(x, params)
    before = gru_inputs(conv, params, train)                 # xg [B, T, 3H]
    xg = before["xg"]
    h = np.zeros((b, h_dim))
    steps_cache = [] if train else None
    for step in range(t):
        h_next, z, r, c = gru_cell(xg[:, step, :], h, p)
        if steps_cache is not None:
            steps_cache.append((h, z, r, c))
        h = h_next

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

    after = head(h_drop, p)
    check_finite(before, h, after)
    if not train:
        return after["probs"]
    cache = {"xp": xp, **before, "steps": steps_cache, "h_last": h,
             "dropout_mask": dropout_mask, "h_drop": h_drop, **after}
    return after["probs"], cache


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
    grads["conv_w"] = conv_shifted_grad(cache["xp"], dconv)

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

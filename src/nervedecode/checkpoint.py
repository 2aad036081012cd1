"""Checkpoint serialization ("NDM1"): little-endian binary, CRC32 trailer.

Layout:

    magic "NDM1" | u16 version | u32 json_len | UTF-8 JSON header |
    u16 tensor_count | tensors | u32 CRC32 of all preceding bytes

    tensor := u16 name_len | name UTF-8 | u8 ndim | u32 dim_0.. | f32 data

The JSON header carries the model config, channel count, window spec,
feature thresholds, and training metadata (seed, epochs, final loss). The
thresholds are the constant `features.THRESHOLDS`, and the config's
`conv_kernel` and `outputs` are the constants `network.CONV_KERNEL` and
`gestures.NUM_DOF`: a header that names other values describes another
model and is refused, as is a tensor table whose names or shapes do not
match the config (`network.tensor_shapes`) or that holds a NaN or
infinite value. All tensors are stored as
little-endian float32 with explicit shape headers, so weights are quantized
on save; the fingerprint probabilities stored alongside are computed from
the quantized weights, which makes a reload reproduce them exactly. save ->
load -> save is byte-identical.
"""
from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .features import THRESHOLDS, FeatureWindowSpec, NormStats
from .gestures import NUM_DOF
from .network import CONV_KERNEL, ModelConfig, ModelParams, forward_batch, tensor_shapes

MAGIC = b"NDM1"
VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


def _quantized(params: ModelParams) -> ModelParams:
    q = params.copy()
    for name, arr in q.tensors.items():
        q.tensors[name] = arr.astype(np.float32).astype(np.float64)
    q.bn_mean = q.bn_mean.astype(np.float32).astype(np.float64)
    q.bn_var = q.bn_var.astype(np.float32).astype(np.float64)
    if q.norm_stats is not None:
        q.norm_stats = NormStats(
            q.norm_stats.mean.astype(np.float32).astype(np.float64),
            q.norm_stats.std.astype(np.float32).astype(np.float64),
        )
    q.fingerprint = params.fingerprint
    return q


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f4")
    head = _U16.pack(len(name)) + name.encode("utf-8") + _U8.pack(data.ndim)
    head += b"".join(_U32.pack(d) for d in data.shape)
    return head + data.tobytes()


def save_checkpoint(params: ModelParams) -> bytes:
    q = _quantized(params)
    header = {
        "config": {**params.config.as_dict(), "conv_kernel": CONV_KERNEL, "outputs": NUM_DOF},
        "channels": params.channels,
        "window": {"window_ms": params.window.window_ms,
                   "step_ms": params.window.step_ms,
                   "history_s": params.window.history_s},
        "thresholds": THRESHOLDS.as_dict(),
        "metadata": params.metadata,
    }
    tensors: list[tuple[str, np.ndarray]] = []
    for name in sorted(q.tensors):
        tensors.append((name, q.tensors[name]))
    tensors.append(("bn_mean", q.bn_mean))
    tensors.append(("bn_var", q.bn_var))
    if q.norm_stats is not None:
        tensors.append(("norm_mean", q.norm_stats.mean))
        tensors.append(("norm_std", q.norm_stats.std))
    if params.fingerprint is not None and "inputs" in params.fingerprint:
        fp_in = np.asarray(params.fingerprint["inputs"], dtype=np.float32)
        fp_probs = forward_batch(fp_in.astype(np.float64), q, train=False)
        tensors.append(("fingerprint_inputs", fp_in))
        tensors.append(("fingerprint_probs", fp_probs.astype(np.float32)))

    body = MAGIC + _U16.pack(VERSION)
    meta = json.dumps(header, sort_keys=True).encode("utf-8")
    body += _U32.pack(len(meta)) + meta
    body += _U16.pack(len(tensors))
    for name, arr in tensors:
        body += _pack_tensor(name, arr)
    return body + _U32.pack(zlib.crc32(body))


def load_checkpoint(blob: bytes) -> ModelParams:
    """Parse NDM1 bytes; every rejection, malformed body included, is a CheckpointError."""
    if len(blob) < 10:
        raise CheckpointError("checkpoint truncated before header")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {blob[:4]!r}")
    (version,) = _U16.unpack_from(blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    stored_crc = _U32.unpack_from(blob, len(blob) - 4)[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError("checkpoint checksum mismatch")
    try:
        return _parse_body(blob)
    except CheckpointError:
        raise
    # OverflowError: a header number such as Infinity where an int belongs;
    # RecursionError: JSON nested too deep to parse
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            struct.error) as exc:
        raise CheckpointError(f"malformed checkpoint body: {exc!r}") from exc


def _parse_body(blob: bytes) -> ModelParams:
    off = 6
    (meta_len,) = _U32.unpack_from(blob, off)
    off += 4
    header = json.loads(blob[off:off + meta_len].decode("utf-8"))
    off += meta_len
    (count,) = _U16.unpack_from(blob, off)
    off += 2

    tensors: dict[str, np.ndarray] = {}
    end = len(blob) - 4
    for _ in range(count):
        if off + 2 > end:
            raise CheckpointError("checkpoint truncated inside tensor table")
        (name_len,) = _U16.unpack_from(blob, off)
        off += 2
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = _U8.unpack_from(blob, off)
        off += 1
        shape = []
        for _ in range(ndim):
            (d,) = _U32.unpack_from(blob, off)
            shape.append(d)
            off += 4
        size = math.prod(shape)
        nbytes = 4 * size
        if off + nbytes > end:
            raise CheckpointError(f"checkpoint truncated inside tensor '{name}'")
        data = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
        # the extremes are NaN or infinite if any value is; no mask is built
        if size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise CheckpointError(f"tensor '{name}' holds NaN or infinite values")
        tensors[name] = data.astype(np.float64)
        off += nbytes
    if off != end:
        raise CheckpointError(f"{end - off} unexpected trailing bytes before checksum")

    channels = header["channels"]
    if type(channels) is not int or channels < 1:
        raise CheckpointError(f"channel count {channels!r} is not a positive integer")
    if header["thresholds"] != THRESHOLDS.as_dict():
        raise CheckpointError(f"checkpoint features use thresholds {header['thresholds']}, "
                              f"not {THRESHOLDS.as_dict()}")
    config = _model_config(header["config"])
    _check_tensors(tensors, config)
    window = FeatureWindowSpec(**header["window"])
    stats = None
    if "norm_mean" in tensors:
        stats = NormStats(tensors.pop("norm_mean"), tensors.pop("norm_std"))
    fingerprint = None
    if "fingerprint_inputs" in tensors:
        fingerprint = {
            "inputs": tensors.pop("fingerprint_inputs").astype(np.float32),
            "probs": tensors.pop("fingerprint_probs").astype(np.float32),
        }
    bn_mean = tensors.pop("bn_mean")
    bn_var = tensors.pop("bn_var")
    return ModelParams(
        config=config, tensors=tensors, bn_mean=bn_mean, bn_var=bn_var,
        norm_stats=stats, window=window,
        channels=channels, metadata=header["metadata"],
        fingerprint=fingerprint,
    )


def _model_config(stored) -> ModelConfig:
    """The header's config, which also records the two fixed settings."""
    if type(stored) is not dict:
        raise CheckpointError(f"model config {stored!r} is not an object")
    fields = dict(stored)
    for key, fixed in (("conv_kernel", CONV_KERNEL), ("outputs", NUM_DOF)):
        value = fields.pop(key)
        if type(value) is not int or value != fixed:
            raise CheckpointError(f"checkpoint model has {key} {value!r}, not {fixed}")
    return ModelConfig(**fields)


def _check_tensors(tensors: dict, config: ModelConfig) -> None:
    """Refuse a tensor table that is not the one `config` describes. The
    normalization and fingerprint tensors are optional, each pair whole."""
    f, rows = config.conv_out, config.input_rows
    want = {**tensor_shapes(config), "bn_mean": (f,), "bn_var": (f,)}
    if "norm_mean" in tensors or "norm_std" in tensors:
        want.update(norm_mean=(rows,), norm_std=(rows,))
    fp = tensors.get("fingerprint_inputs", tensors.get("fingerprint_probs"))
    if fp is not None:
        n = fp.shape[0] if fp.ndim else -1
        want.update(fingerprint_inputs=(n, rows, config.steps), fingerprint_probs=(n, NUM_DOF))
    missing = sorted(want.keys() - tensors.keys())
    extra = sorted(tensors.keys() - want.keys())
    wrong = [f"{name} {tensors[name].shape} != {shape}" for name, shape in want.items()
             if name in tensors and tensors[name].shape != shape]
    if missing or extra or wrong:
        raise CheckpointError(f"tensors do not match the model config: missing {missing}, "
                              f"unexpected {extra}, wrong shape {wrong}")


def save_checkpoint_file(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_checkpoint(params))


def load_checkpoint_file(path) -> ModelParams:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())

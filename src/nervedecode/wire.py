"""Framed wire protocol for streaming samples in and predictions out.

Every frame is little-endian:

    u16 magic = 0x4E44 | u8 version = 1 | u8 type | u32 payload_len |
    payload | u32 CRC32 over everything from the magic through the payload

Frame types and payloads:

    0x01 sample-block  u64 first_sample_index | u16 channel_count |
                       u16 samples_per_channel | f32 data, channel-major
    0x02 prediction    u64 timestamp_us | 6 x f32 probabilities |
                       u8 bitmask (bit 0 = thumb ... bit 5 = wrist) |
                       u32 feature_us | u32 decode_us
    0x03 retired       (was engine-config text, which no program sent and
                       the service ignored); refused as an unknown type
    0x04 latency       u64 timestamp_us | u32 frames | u32 warmup_skips |
                       u32 gap_events | u32 dropped |
                       3 x (u32 p50, u32 p95, u32 max) for feature, decode,
                       end-to-end, all in microseconds; the service sends
                       every prediction, so dropped is always 0
    0x05 error         u32 code | UTF-8 message, sent before closing a
                       session that failed: 1 malformed frame, 2 bad
                       input or configuration, 3 non-finite value in the
                       network

Retiring 0x03 left the bytes of every other frame as they were, so the
version stays 1.
"""
from __future__ import annotations

from dataclasses import dataclass
import struct
import zlib

import numpy as np

from .errors import FrameError

MAGIC = 0x4E44
VERSION = 1

TYPE_SAMPLE_BLOCK = 0x01
TYPE_PREDICTION = 0x02
TYPE_LATENCY = 0x04
TYPE_ERROR = 0x05

_HEADER = struct.Struct("<HBBI")
_CRC = struct.Struct("<I")
_SAMPLE_HEAD = struct.Struct("<QHH")
_PREDICTION = struct.Struct("<Q6fBII")
_LATENCY = struct.Struct("<QIIII9I")
_ERROR_HEAD = struct.Struct("<I")

MAX_PAYLOAD = 1 << 24


@dataclass(frozen=True)
class SampleBlockMsg:
    first_sample_index: int
    samples: np.ndarray        # [channels x n] float32


@dataclass(frozen=True)
class PredictionMsg:
    timestamp_us: int
    probabilities: tuple
    mask: int
    feature_us: int
    decode_us: int


@dataclass(frozen=True)
class LatencyMsg:
    timestamp_us: int
    frames: int
    warmup_skips: int
    gap_events: int
    dropped: int
    feature_p50_us: int
    feature_p95_us: int
    feature_max_us: int
    decode_p50_us: int
    decode_p95_us: int
    decode_max_us: int
    end_to_end_p50_us: int
    end_to_end_p95_us: int
    end_to_end_max_us: int


@dataclass(frozen=True)
class ErrorMsg:
    code: int
    message: str


def _payload(msg) -> tuple[int, bytes]:
    if isinstance(msg, SampleBlockMsg):
        data = np.ascontiguousarray(msg.samples, dtype="<f4")
        head = _SAMPLE_HEAD.pack(msg.first_sample_index, data.shape[0], data.shape[1])
        return TYPE_SAMPLE_BLOCK, head + data.tobytes()
    if isinstance(msg, PredictionMsg):
        return TYPE_PREDICTION, _PREDICTION.pack(
            msg.timestamp_us, *[float(p) for p in msg.probabilities],
            msg.mask, msg.feature_us, msg.decode_us)
    if isinstance(msg, LatencyMsg):
        return TYPE_LATENCY, _LATENCY.pack(
            msg.timestamp_us, msg.frames, msg.warmup_skips, msg.gap_events, msg.dropped,
            msg.feature_p50_us, msg.feature_p95_us, msg.feature_max_us,
            msg.decode_p50_us, msg.decode_p95_us, msg.decode_max_us,
            msg.end_to_end_p50_us, msg.end_to_end_p95_us, msg.end_to_end_max_us)
    if isinstance(msg, ErrorMsg):
        return TYPE_ERROR, _ERROR_HEAD.pack(msg.code) + msg.message.encode("utf-8")
    raise FrameError(f"cannot encode message of type {type(msg).__name__}")


def encode_frame(msg) -> bytes:
    ftype, payload = _payload(msg)
    head = _HEADER.pack(MAGIC, VERSION, ftype, len(payload))
    return head + payload + _CRC.pack(zlib.crc32(head + payload))


def _parse_payload(ftype: int, payload: bytes, offset: int):
    if ftype == TYPE_SAMPLE_BLOCK:
        if len(payload) < _SAMPLE_HEAD.size:
            raise FrameError("sample block payload too short", offset)
        first, channels, n = _SAMPLE_HEAD.unpack_from(payload, 0)
        expect = _SAMPLE_HEAD.size + 4 * channels * n
        if len(payload) != expect:
            raise FrameError(f"sample block length {len(payload)} != {expect}", offset)
        data = np.frombuffer(payload, dtype="<f4", count=channels * n,
                             offset=_SAMPLE_HEAD.size).reshape(channels, n)
        return SampleBlockMsg(first, data.copy())
    if ftype == TYPE_PREDICTION:
        if len(payload) != _PREDICTION.size:
            raise FrameError(f"prediction payload must be {_PREDICTION.size} bytes", offset)
        vals = _PREDICTION.unpack(payload)
        return PredictionMsg(vals[0], tuple(vals[1:7]), vals[7], vals[8], vals[9])
    if ftype == TYPE_LATENCY:
        if len(payload) != _LATENCY.size:
            raise FrameError(f"latency payload must be {_LATENCY.size} bytes", offset)
        return LatencyMsg(*_LATENCY.unpack(payload))
    if ftype == TYPE_ERROR:
        if len(payload) < _ERROR_HEAD.size:
            raise FrameError("error payload too short", offset)
        (code,) = _ERROR_HEAD.unpack_from(payload, 0)
        return ErrorMsg(code, payload[_ERROR_HEAD.size:].decode("utf-8", errors="replace"))
    raise FrameError(f"unknown frame type 0x{ftype:02x}", offset)


def _read_header(buf, offset: int) -> tuple[int, int]:
    """Check the header at the start of buf (at least _HEADER.size bytes);
    returns the frame type and the size of the whole frame it announces."""
    magic, version, ftype, length = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FrameError(f"bad magic 0x{magic:04x}", offset)
    if version != VERSION:
        raise FrameError(f"unsupported protocol version {version}", offset + 2)
    if length > MAX_PAYLOAD:
        raise FrameError(f"payload length {length} exceeds limit", offset + 4)
    return ftype, _HEADER.size + length + _CRC.size


def decode_frame(blob: bytes, offset: int = 0):
    """Decode one frame from blob; returns (message, bytes_consumed)."""
    if len(blob) < _HEADER.size:
        raise FrameError("frame shorter than header", offset)
    ftype, total = _read_header(blob, offset)
    if len(blob) < total:
        raise FrameError("frame truncated", offset)
    end = total - _CRC.size
    (crc,) = _CRC.unpack_from(blob, end)
    if zlib.crc32(blob[:end]) != crc:
        raise FrameError("frame CRC mismatch", offset + end)
    return _parse_payload(ftype, blob[_HEADER.size:end], offset), total


class FrameReader:
    """Incremental frame parser for a byte stream.

    feed() returns the messages completed by the new bytes; a malformed
    frame raises FrameError carrying the absolute stream offset.
    """

    def __init__(self):
        self._buf = bytearray()
        self._offset = 0

    def feed(self, data: bytes) -> list:
        self._buf.extend(data)
        out = []
        while len(self._buf) >= _HEADER.size:
            _, total = _read_header(self._buf, self._offset)
            if len(self._buf) < total:
                break
            msg, consumed = decode_frame(bytes(self._buf[:total]), self._offset)
            out.append(msg)
            del self._buf[:consumed]
            self._offset += consumed
        return out

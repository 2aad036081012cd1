import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from nervedecode.errors import FrameError
from nervedecode.wire import (
    ErrorMsg, FrameReader, LatencyMsg, PredictionMsg, SampleBlockMsg,
    decode_frame, encode_frame,
)


def roundtrip(msg):
    decoded, consumed = decode_frame(encode_frame(msg))
    assert consumed == len(encode_frame(msg))
    return decoded


class TestRoundTrips:
    def test_sample_block(self):
        samples = np.arange(12, dtype=np.float32).reshape(3, 4)
        back = roundtrip(SampleBlockMsg(first_sample_index=7, samples=samples))
        assert back.first_sample_index == 7
        assert_array_equal(back.samples, samples)

    def test_prediction(self):
        msg = PredictionMsg(timestamp_us=123456, probabilities=(0.5, 0.25, 0.0, 1.0, 0.75, 0.125),
                            mask=0b100101, feature_us=250, decode_us=4100)
        assert roundtrip(msg) == msg

    def test_latency(self):
        msg = LatencyMsg(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
        assert roundtrip(msg) == msg

    def test_error(self):
        assert roundtrip(ErrorMsg(3, "bad frame")).message == "bad frame"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 32))
    def test_sample_block_fuzz(self, seed, channels, n):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(channels, n)).astype(np.float32)
        back = roundtrip(SampleBlockMsg(int(seed), samples))
        assert_array_equal(back.samples, samples)


class TestGoldenBytes:
    def test_prediction_frame_layout_is_bit_exact(self):
        """Assemble the expected frame field by field from the documented
        layout, independently of the encoder."""
        msg = PredictionMsg(timestamp_us=1_000_000,
                            probabilities=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                            mask=0x01, feature_us=250, decode_us=5000)
        payload = struct.pack("<Q", 1_000_000)
        payload += struct.pack("<f", 1.0) + struct.pack("<f", 0.0) * 5
        payload += struct.pack("<B", 0x01)
        payload += struct.pack("<I", 250) + struct.pack("<I", 5000)
        head = struct.pack("<H", 0x4E44) + struct.pack("<B", 1) + struct.pack("<B", 0x02)
        head += struct.pack("<I", len(payload))
        golden = head + payload + struct.pack("<I", zlib.crc32(head + payload))
        assert encode_frame(msg) == golden
        # frozen hex of the same frame, reviewed against the layout by hand
        assert golden.hex() == (
            "444e010229000000"                  # magic 0x4E44 LE, v1, type 2, len 41
            "40420f0000000000"                  # timestamp 1_000_000
            "0000803f" + "00000000" * 5 +       # probabilities [1,0,0,0,0,0]
            "01"                                # mask 0x01 (thumb)
            "fa000000" "88130000"               # feature_us 250, decode_us 5000
            "df7efab6"                          # crc32 of header + payload
        )

    def test_header_magic_bytes_are_44_4e(self):
        frame = encode_frame(ErrorMsg(0, ""))
        assert frame[:2] == b"\x44\x4e"


class TestRejection:
    def test_flipped_crc_byte_rejected(self):
        frame = bytearray(encode_frame(ErrorMsg(1, "x = 1")))
        frame[-1] ^= 0x01
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(frame))

    def test_flipped_payload_byte_rejected(self):
        frame = bytearray(encode_frame(ErrorMsg(1, "x = 1")))
        frame[10] ^= 0x01
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(frame))

    def test_bad_magic_reports_offset(self):
        frame = b"\x00\x00" + encode_frame(ErrorMsg(0, ""))[2:]
        with pytest.raises(FrameError) as err:
            decode_frame(frame, offset=32)
        assert err.value.offset == 32

    def test_bad_version(self):
        frame = bytearray(encode_frame(ErrorMsg(0, "")))
        frame[2] = 9
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(frame))

    def test_unknown_type(self):
        """0x7F was never assigned; 0x03 (engine-config text) is retired."""
        for ftype, payload in ((0x7F, b""), (0x03, b"rate_hz = 10\n")):
            head = struct.pack("<HBBI", 0x4E44, 1, ftype, len(payload))
            frame = head + payload + struct.pack("<I", zlib.crc32(head + payload))
            with pytest.raises(FrameError, match="unknown frame type"):
                decode_frame(frame)
            with pytest.raises(FrameError, match="unknown frame type"):
                FrameReader().feed(frame)

    def test_truncated_frame(self):
        frame = encode_frame(ErrorMsg(1, "rate = 10"))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(frame[:-3])


class TestFrameReader:
    def test_reassembles_split_frames(self):
        msgs = [ErrorMsg(1, "a = 1"), PredictionMsg(1, (0.5,) * 6, 0, 1, 2),
                ErrorMsg(9, "x")]
        stream = b"".join(encode_frame(m) for m in msgs)
        reader = FrameReader()
        got = []
        for i in range(0, len(stream), 7):
            got.extend(reader.feed(stream[i:i + 7]))
        assert got == msgs

    def test_error_offset_is_absolute(self):
        reader = FrameReader()
        good = encode_frame(ErrorMsg(0, "ok"))
        reader.feed(good)
        with pytest.raises(FrameError) as err:
            reader.feed(b"\xff" * 12)
        assert err.value.offset == len(good)


_VALID_FRAMES = [encode_frame(m) for m in (
    SampleBlockMsg(9, np.arange(6, dtype=np.float32).reshape(2, 3)),
    PredictionMsg(1, (0.5,) * 6, 0b11, 250, 4100),
    LatencyMsg(*range(1, 15)),
    ErrorMsg(2, "bad"),
)]


def _truncate(frame, cut):
    return frame[:cut % len(frame)]


def _flip_bit(frame, bit):
    out = bytearray(frame)
    out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


def _mutate_payload(frame, ftype, lo, hi, insert):
    """Splice `insert` over payload[lo:hi], set the type, and write a header
    length and CRC that match, so the frame reaches the payload parser."""
    payload = frame[8:-4]
    lo, hi = sorted((lo % (len(payload) + 1), hi % (len(payload) + 1)))
    payload = payload[:lo] + insert + payload[hi:]
    head = struct.pack("<HBBI", 0x4E44, 1, ftype, len(payload))
    return head + payload + struct.pack("<I", zlib.crc32(head + payload))


_FRAME = st.sampled_from(_VALID_FRAMES)
_MALFORMED = st.one_of(
    st.binary(max_size=300),
    st.builds(_truncate, _FRAME, st.integers(0, 1 << 16)),
    st.builds(_flip_bit, _FRAME, st.integers(0, 1 << 16)),
    st.builds(_mutate_payload, _FRAME, st.integers(0, 7), st.integers(0, 1 << 16),
              st.integers(0, 1 << 16), st.binary(max_size=64)),
)


class TestParserFuzz:
    @settings(max_examples=400)
    @given(_MALFORMED, st.lists(st.integers(1, 64), max_size=6))
    def test_only_frame_error_escapes(self, blob, pieces):
        """Truncations, bit flips, payloads rewritten under a valid CRC and
        random bytes: both parsers return messages or raise FrameError."""
        try:
            decode_frame(blob)
        except FrameError:
            pass
        reader = FrameReader()
        try:
            start = 0
            for size in pieces + [len(blob)]:
                reader.feed(blob[start:start + size])
                start += size
        except FrameError:
            pass

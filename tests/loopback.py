"""Loopback client for the socket service, used by the tests that serve.

It streams a recording as sample-block frames, half-closes, and collects the
prediction frames and the closing latency frame.
"""
import socket

import numpy as np

from nervedecode import wire
from nervedecode.engine import parse_endpoint, replay_blocks
from nervedecode.errors import FrameError


def decode_over_socket(recording, endpoint: str, block_samples: int = 4096,
                       timeout_s: float = 30.0):
    """Stream a recording, collect predictions + the final latency frame.
    Returns (list of PredictionMsg, LatencyMsg | None)."""
    host, port = parse_endpoint(endpoint)
    reader = wire.FrameReader()
    preds: list[wire.PredictionMsg] = []
    latency = None
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        first = 0
        for block in replay_blocks(recording, block_samples):
            sock.sendall(wire.encode_frame(
                wire.SampleBlockMsg(first, np.ascontiguousarray(block, dtype=np.float32))))
            first += block.shape[1]
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(timeout_s)
        while True:
            try:
                data = sock.recv(1 << 16)
            except socket.timeout:
                break
            if not data:
                break
            for msg in reader.feed(data):
                if isinstance(msg, wire.PredictionMsg):
                    preds.append(msg)
                elif isinstance(msg, wire.LatencyMsg):
                    latency = msg
                elif isinstance(msg, wire.ErrorMsg):
                    raise FrameError(f"server error {msg.code}: {msg.message}")
    return preds, latency

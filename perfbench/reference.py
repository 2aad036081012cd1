"""Reference decoder in plain numpy/scipy, written from the method's definitions.

It shares no code with `nervedecode`: the band-pass is designed here, the 14
features are computed one window at a time from their textbook formulas, and
the network is evaluated with explicit per-tap convolution and a plain GRU
loop. The benchmark's checks compare the program's outputs against it at
sampled ticks and frames; README.md gives the tolerances and why they hold.

Only the trained numbers come from the program: weights, batch-norm running
statistics, normalization statistics and feature thresholds are read from the
loaded `ModelParams` object as plain arrays and floats.
"""
from __future__ import annotations

import numpy as np
from scipy import signal

RAW_HZ = 10_000
DECIMATION = 2
BAND_HZ = (25.0, 600.0)
BAND_ORDER = 4          # per edge: an 8-pole band-pass
WINDOW_MS = 100.0
STEP_MS = 20.0
BN_EPS = 1e-5


def bandpass_decimated(raw: np.ndarray) -> np.ndarray:
    """Causal Butterworth band-pass from zero state over the whole prefix,
    then every second sample starting at index 0."""
    sos = signal.butter(BAND_ORDER, BAND_HZ, btype="bandpass", fs=RAW_HZ, output="sos")
    return signal.sosfilt(sos, np.asarray(raw, dtype=np.float64), axis=-1)[:, ::DECIMATION]


def window_feature_vector(x: np.ndarray, thr) -> np.ndarray:
    """The 14 features of one single-channel window, in the program's order."""
    n = x.size
    dx = x[1:] - x[:-1]
    ax = np.abs(x)
    zc = np.count_nonzero((x[:-1] * x[1:] < 0.0) & (np.abs(dx) >= thr.eps_zc))
    ssc = np.count_nonzero((x[1:-1] - x[:-2]) * (x[1:-1] - x[2:]) >= thr.eps_ssc)
    wl = np.sum(np.abs(dx))
    wa = np.count_nonzero(np.abs(dx) > thr.wamp)
    mab = np.sum(ax) / n
    msq = np.sum(x * x) / n
    rms = np.sqrt(msq)
    v3 = np.cbrt(np.sum(ax ** 3) / n)
    ld = np.exp(np.sum(np.log(ax + thr.log_eps)) / n)
    dabs = np.sqrt(np.sum(dx * dx) / (n - 1))
    mfl = np.log10(np.sqrt(np.sum(dx * dx)) + thr.log_eps)
    mpr = np.count_nonzero(ax >= thr.mpr) / n
    half = n // 2
    mavs = np.sum(ax[half:]) / (n - half) - np.sum(ax[:half]) / half
    centre = slice(int(np.ceil(0.25 * n)), int(np.ceil(0.75 * n)))
    wma = (0.5 * np.sum(ax) + 0.5 * np.sum(ax[centre])) / n
    return np.array([zc, ssc, wl, wa, mab, msq, rms, v3, ld, dabs, mfl, mpr, mavs, wma],
                    dtype=np.float64)


def frame_features(decimated: np.ndarray, end: int, steps: int, thr,
                   fs: int = RAW_HZ // DECIMATION) -> np.ndarray:
    """[channels*14 x steps] input for the frame whose newest window ends at
    decimated sample `end` (exclusive); rows are channel-major."""
    win = int(round(WINDOW_MS * fs / 1000.0))
    step = int(round(STEP_MS * fs / 1000.0))
    channels = decimated.shape[0]
    out = np.empty((channels * 14, steps))
    for t in range(steps):
        e = end - (steps - 1 - t) * step
        for c in range(channels):
            out[c * 14:(c + 1) * 14, t] = window_feature_vector(decimated[c, e - win:e], thr)
    return out


def network_probabilities(z: np.ndarray, params) -> np.ndarray:
    """Eval-mode conv -> BN -> ReLU -> GRU -> FC -> ReLU -> FC -> sigmoid on
    one z-scored [rows x steps] input."""
    p = params.tensors
    w = p["conv_w"]                                   # [F, R, K]
    k = w.shape[2]
    pad = (k - 1) // 2
    steps = z.shape[1]
    zp = np.pad(z, ((0, 0), (pad, pad)))
    conv = sum(w[:, :, j] @ zp[:, j:j + steps] for j in range(k)) + p["conv_b"][:, None]
    bn = (conv - params.bn_mean[:, None]) / np.sqrt(params.bn_var[:, None] + BN_EPS)
    act = np.maximum(p["bn_gamma"][:, None] * bn + p["bn_beta"][:, None], 0.0)  # [F, T]

    hid = p["gru_uh_c"].shape[0]
    wz, wr, wc = (p["gru_wx"][:, i * hid:(i + 1) * hid] for i in range(3))
    uz, ur = p["gru_uh_zr"][:, :hid], p["gru_uh_zr"][:, hid:]
    bz, br, bc = (p["gru_b"][i * hid:(i + 1) * hid] for i in range(3))
    h = np.zeros(hid)
    for t in range(steps):
        x = act[:, t]
        zt = 1.0 / (1.0 + np.exp(-(x @ wz + h @ uz + bz)))
        rt = 1.0 / (1.0 + np.exp(-(x @ wr + h @ ur + br)))
        ct = np.tanh(x @ wc + (rt * h) @ p["gru_uh_c"] + bc)
        h = zt * h + (1.0 - zt) * ct
    a1 = np.maximum(h @ p["fc1_w"] + p["fc1_b"], 0.0)
    return 1.0 / (1.0 + np.exp(-(a1 @ p["fc2_w"] + p["fc2_b"])))


def tick_probabilities(raw: np.ndarray, tick_end_raw: int, params) -> np.ndarray:
    """Probabilities for the tick whose history ends at raw sample
    `tick_end_raw` (exclusive), computed from the raw prefix alone."""
    decimated = bandpass_decimated(raw[:, :tick_end_raw])
    end = tick_end_raw // DECIMATION
    steps = params.config.steps
    feats = frame_features(decimated, end, steps, params.thresholds)
    stats = params.norm_stats
    z = (feats - stats.mean[:, None]) / stats.std[:, None]
    return network_probabilities(z, params)

"""Independent straight-line oracles the test suite checks the library against.

Everything here is deliberately written as plain loops over Python floats,
with no shared code with the package beyond two shape constants: brute-force
feature extraction, a single-example network forward pass, central finite
differences, scalar reference implementations of the metric formulas, and
the signal-strength and SNR definitions the synthetic generator is
calibrated to. `im2col_conv` loops only over steps and taps, and leaves the
sums to one numpy product, so it runs at the training shape. `identity_stats`
is the one helper that builds a package object: the z-score that leaves
every value as it is.
"""
import math

import numpy as np

from nervedecode.features import NormStats
from nervedecode.gestures import NUM_DOF
from nervedecode.network import CONV_KERNEL


def identity_stats(rows):
    """NormStats that z-score to the input itself: mean 0, std 1 per row."""
    return NormStats(np.zeros(rows), np.ones(rows))


def brute_features(window, thr):
    """All 14 features of one window, by definition, in the library's order."""
    x = [float(v) for v in window]
    n = len(x)

    zc = 0
    for i in range(n - 1):
        if x[i] * x[i + 1] < 0 and abs(x[i] - x[i + 1]) >= thr.eps_zc:
            zc += 1
    ssc = 0
    for i in range(1, n - 1):
        if (x[i] - x[i - 1]) * (x[i] - x[i + 1]) >= thr.eps_ssc:
            ssc += 1
    wl = 0.0
    wa = 0
    sum_d2 = 0.0
    for i in range(n - 1):
        d = x[i + 1] - x[i]
        wl += abs(d)
        if abs(d) > thr.wamp:
            wa += 1
        sum_d2 += d * d
    mab = sum(abs(v) for v in x) / n
    msq = sum(v * v for v in x) / n
    rms = math.sqrt(msq)
    v3 = (sum(abs(v) ** 3 for v in x) / n) ** (1.0 / 3.0)
    ld = math.exp(sum(math.log(abs(v) + thr.log_eps) for v in x) / n)
    dabs = math.sqrt(sum_d2 / (n - 1))
    mfl = math.log10(math.sqrt(sum_d2) + thr.log_eps)
    mpr = sum(1 for v in x if abs(v) >= thr.mpr) / n
    half = n // 2
    first = sum(abs(v) for v in x[:half]) / half
    second = sum(abs(v) for v in x[half:]) / (n - half)
    mavs = second - first
    wma = 0.0
    for i, v in enumerate(x):
        w = 1.0 if 0.25 * n <= i < 0.75 * n else 0.5
        wma += w * abs(v)
    wma /= n
    return [zc, ssc, wl, wa, mab, msq, rms, v3, ld, dabs, mfl, mpr, mavs, wma]


def signal_power_db(window):
    """10*log10 of the mean square amplitude of a sample window; an all-zero
    window gives -inf."""
    x = [float(v) for v in window]
    if not x:
        raise ValueError("power window must hold at least one sample")
    mean_sq = sum(v * v for v in x) / len(x)
    return 10.0 * math.log10(mean_sq) if mean_sq > 0.0 else float("-inf")


def snr(power_flex_db, power_rest_db):
    """Quotient of the flex and rest dB values: a dimensionless ratio of dB
    values, defined exactly so, odd as the units are."""
    if not (math.isfinite(power_flex_db) and math.isfinite(power_rest_db)):
        raise ValueError("SNR inputs must be finite dB values")
    if power_rest_db == 0.0:
        raise ValueError("SNR undefined: rest power is exactly 0 dB")
    return power_flex_db / power_rest_db


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def forward_single_oracle(x, params, bn_eps=1e-5):
    """Eval-mode forward pass for one [rows x steps] example, as scalar loops.

    `x` is a nested list [rows][steps]; params tensors are read as nested
    lists too, so no numpy semantics leak in.
    """
    cfg = params.config
    t_len = cfg.steps
    rows = cfg.input_rows
    f_dim = cfg.conv_out
    h_dim = cfg.gru_hidden
    k = CONV_KERNEL
    pad = (k - 1) // 2
    p = {name: arr.tolist() for name, arr in params.tensors.items()}
    bn_mean = params.bn_mean.tolist()
    bn_var = params.bn_var.tolist()

    conv = [[0.0] * f_dim for _ in range(t_len)]
    for t in range(t_len):
        for f in range(f_dim):
            acc = p["conv_b"][f]
            for r in range(rows):
                for kk in range(k):
                    src = t + kk - pad
                    if 0 <= src < t_len:
                        acc += p["conv_w"][f][r][kk] * x[r][src]
            conv[t][f] = acc

    relu1 = [[0.0] * f_dim for _ in range(t_len)]
    for t in range(t_len):
        for f in range(f_dim):
            v = (conv[t][f] - bn_mean[f]) / math.sqrt(bn_var[f] + bn_eps)
            v = p["bn_gamma"][f] * v + p["bn_beta"][f]
            relu1[t][f] = v if v > 0 else 0.0

    h = [0.0] * h_dim
    for t in range(t_len):
        z = [0.0] * h_dim
        r = [0.0] * h_dim
        for j in range(h_dim):
            az = p["gru_b"][j]
            ar = p["gru_b"][h_dim + j]
            for i in range(f_dim):
                az += relu1[t][i] * p["gru_wx"][i][j]
                ar += relu1[t][i] * p["gru_wx"][i][h_dim + j]
            for i in range(h_dim):
                az += h[i] * p["gru_uh_zr"][i][j]
                ar += h[i] * p["gru_uh_zr"][i][h_dim + j]
            z[j] = _sigmoid(az)
            r[j] = _sigmoid(ar)
        c = [0.0] * h_dim
        for j in range(h_dim):
            ac = p["gru_b"][2 * h_dim + j]
            for i in range(f_dim):
                ac += relu1[t][i] * p["gru_wx"][i][2 * h_dim + j]
            for i in range(h_dim):
                ac += (r[i] * h[i]) * p["gru_uh_c"][i][j]
            c[j] = math.tanh(ac)
        h = [z[j] * h[j] + (1.0 - z[j]) * c[j] for j in range(h_dim)]

    a1 = []
    for j in range(cfg.fc_hidden):
        acc = p["fc1_b"][j]
        for i in range(h_dim):
            acc += h[i] * p["fc1_w"][i][j]
        a1.append(acc if acc > 0 else 0.0)
    out = []
    for j in range(NUM_DOF):
        acc = p["fc2_b"][j]
        for i in range(cfg.fc_hidden):
            acc += a1[i] * p["fc2_w"][i][j]
        out.append(_sigmoid(acc))
    return out


def im2col_conv(x, conv_w, conv_b, dconv):
    """(conv [B, T, F], conv_w's gradient [F, R, K]) of a [B, R, T] batch by
    an explicit im2col: row (b, t) holds x[b, r, t + k - pad] at r*K + k,
    zero where t + k - pad falls outside the frame; `dconv` [B, T, F] is the
    gradient of the conv output."""
    b, r, t = x.shape
    f, _, k_len = conv_w.shape
    pad = (k_len - 1) // 2
    cols = np.zeros((b, t, r, k_len))
    for step in range(t):
        for k in range(k_len):
            src = step + k - pad
            if 0 <= src < t:
                cols[:, step, :, k] = x[:, :, src]
    cols = cols.reshape(b * t, r * k_len)
    conv = cols @ conv_w.reshape(f, -1).T + conv_b
    grad = (dconv.reshape(b * t, f).T @ cols).reshape(f, r, k_len)
    return conv.reshape(b, t, f), grad


def finite_difference_grads(loss_fn, params, names, h=1e-5):
    """Central finite differences of loss_fn(params) for each named tensor."""
    grads = {}
    for name in names:
        theta = params.tensors[name]
        grad = theta.copy()
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn(params)
            flat[i] = keep - h
            down = loss_fn(params)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def scalar_confusion(pred_bits, true_bits):
    """Per-DOF TP/TN/FP/FN via an explicit loop."""
    dof = len(pred_bits[0])
    counts = [[0, 0, 0, 0] for _ in range(dof)]
    for p_row, t_row in zip(pred_bits, true_bits):
        for d in range(dof):
            p, t = int(p_row[d]), int(t_row[d])
            if p == 1 and t == 1:
                counts[d][0] += 1
            elif p == 0 and t == 0:
                counts[d][1] += 1
            elif p == 1 and t == 0:
                counts[d][2] += 1
            else:
                counts[d][3] += 1
    return counts


def two_pass_stats(matrices):
    """Pooled per-row mean/std over a list of [rows x T] matrices."""
    rows = len(matrices[0])
    total = sum(len(m[0]) for m in matrices)
    means = []
    stds = []
    for r in range(rows):
        s = 0.0
        for m in matrices:
            s += sum(m[r])
        mu = s / total
        v = 0.0
        for m in matrices:
            v += sum((val - mu) ** 2 for val in m[r])
        std = math.sqrt(v / total)
        means.append(mu)
        stds.append(std if std > 0 else 1.0)
    return means, stds

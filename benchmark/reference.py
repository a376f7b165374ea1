"""Independent plain-numpy reference for the benchmark's correctness checks.

Written apart from ``hafformer.tensor``, ``hafformer.mixers`` and
``hafformer.model``: no graph, no shared helpers, and different algorithms
where there is a choice (the projection is one GEMM plus a shift-add, a
merge is a reshape plus one GEMM, the depthwise convolution is a
sliding-window contraction). It covers the configuration the benchmark
runs: MSDW token mixers, GEGLU channel mixers, residual channel sublayers.

Parameters are read from a ``{name: ndarray}`` mapping that uses the
program's parameter names.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LN_EPS = 1e-5
GELU_C0 = math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def fit_length(x: np.ndarray, frames: int) -> np.ndarray:
    """Keep the first ``frames`` rows, zero-filling any missing tail, as float64."""
    out = np.zeros((frames, x.shape[1]))
    n = min(frames, x.shape[0])
    out[:n] = x[:n]
    return out


def layer_norm(x, gamma, beta):
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + LN_EPS) * gamma + beta


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C0 * (x + GELU_C1 * x**3)))


def projection(x, w, b):
    """Same-padded conv of (L, Cin) by (d, Cin, k): one GEMM, then shift-add the taps."""
    d, cin, k = w.shape
    L = x.shape[0]
    taps = x @ w.transpose(1, 2, 0).reshape(cin, k * d)  # taps[i, t*d + o]
    y = np.empty((L, d))
    y[:] = b
    half = k // 2
    for t in range(k):
        shift = t - half  # output row i reads input row i + shift
        lo, hi = max(0, -shift), min(L, L - shift)
        y[lo:hi] += taps[lo + shift : hi + shift, t * d : (t + 1) * d]
    return y


def merge(x, w, b):
    """Kernel = stride = f conv without padding: reshape frames into groups of f."""
    d_out, d_in, f = w.shape
    groups = x.shape[0] // f
    return x[: groups * f].reshape(groups, f * d_in) @ w.transpose(2, 1, 0).reshape(f * d_in, d_out) + b


def depthwise_same(x, w):
    """Per-channel same-padded correlation of (L, d) with (d, 1, k)."""
    k = w.shape[2]
    padded = np.pad(x, ((k // 2, k // 2), (0, 0)))
    windows = sliding_window_view(padded, k, axis=0)  # (L, d, k)
    return np.einsum("ldk,dk->ld", windows, w[:, 0, :])


def msdw_sublayer(x, p, prefix):
    z = layer_norm(x, p[f"{prefix}.token_norm.gamma"], p[f"{prefix}.token_norm.beta"])
    wide = depthwise_same(z, p[f"{prefix}.token.depthwise7"])
    narrow = z * p[f"{prefix}.token.depthwise1"][:, 0, 0]
    return gelu(wide + narrow) + x


def geglu_sublayer(x, p, prefix):
    z = layer_norm(x, p[f"{prefix}.channel_norm.gamma"], p[f"{prefix}.channel_norm.beta"])
    gate = gelu(z @ p[f"{prefix}.channel.w1"] + p[f"{prefix}.channel.b1"])
    value = z @ p[f"{prefix}.channel.w2"] + p[f"{prefix}.channel.b2"]
    return (gate * value) @ p[f"{prefix}.channel.w3"] + p[f"{prefix}.channel.b3"] + x


def logits(params, cfg, features) -> np.ndarray:
    """Class logits of one record, shape (classes,); pads or truncates to ``cfg.seq_len``."""
    if cfg.token_mixer.value != "msdw" or cfg.channel_mixer.value != "geglu" or not cfg.channel_residual:
        raise ValueError("the reference covers MSDW + GEGLU with residual channel sublayers only")
    p = params
    h = projection(fit_length(features, cfg.seq_len), p["projection.weight"], p["projection.bias"])
    for s, depth in enumerate(cfg.stage_depths):
        h = merge(h, p[f"stage{s}.merge.weight"], p[f"stage{s}.merge.bias"])
        for b in range(depth):
            h = geglu_sublayer(msdw_sublayer(h, p, f"stage{s}.block{b}"), p, f"stage{s}.block{b}")
    pooled = layer_norm(h, p["final_norm.gamma"], p["final_norm.beta"]).mean(axis=0)
    hidden = gelu(pooled @ p["head.fc1.weight"] + p["head.fc1.bias"])
    return hidden @ p["head.fc2.weight"] + p["head.fc2.bias"]


def cross_entropy(z: np.ndarray, label: int) -> float:
    top = z.max()
    return float(top + math.log(np.exp(z - top).sum()) - z[label])


def mean_loss(params, cfg, records) -> float:
    """Mean cross-entropy over ``(features, label)`` pairs."""
    return sum(cross_entropy(logits(params, cfg, x), y) for x, y in records) / len(records)


def adamw(theta, grad, m, v, t, lr, weight_decay):
    """One AdamW update; returns (theta, m, v). Decay is decoupled and skips 1-D tensors."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
    step = (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    if theta.ndim >= 2:
        step = step + weight_decay * theta
    return theta - lr * step, m, v


def metrics(labels, predictions, classes: int):
    """Accuracy, macro-F1 (an absent class scores 0) and confusion[true][pred]."""
    confusion = np.zeros((classes, classes), dtype=int)
    for y, p in zip(labels, predictions):
        confusion[y, p] += 1
    f1 = []
    for c in range(classes):
        tp = confusion[c, c]
        wrong = confusion[:, c].sum() + confusion[c, :].sum() - 2 * tp
        f1.append(2.0 * tp / (2 * tp + wrong) if tp + wrong else 0.0)
    return float(np.trace(confusion)) / len(labels), sum(f1) / classes, confusion.tolist()

"""Independent straight-line forward pass used as a duplicate-implementation
oracle. Deliberately avoids the package's graph machinery: plain numpy with
np.convolve for temporal convolutions and explicit loops for attention.
"""

import math

import numpy as np

DW_KERNEL = 7
POOL_KERNEL = 3
LN_EPS = 1e-5


def ref_layer_norm(x, gamma, beta, eps=LN_EPS):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def ref_gelu(x):
    c0 = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c0 * (x + 0.044715 * x**3)))


def ref_conv1d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Correlation via np.convolve per (out-channel, tap-source) pair."""
    L, cin = x.shape
    cout, cpg, k = w.shape
    xp = np.pad(x, ((padding, padding), (0, 0)))
    lout = (L + 2 * padding - k) // stride + 1
    opg = cout // groups
    y = np.zeros((lout, cout))
    for oc in range(cout):
        gi = oc // opg
        acc = np.zeros(xp.shape[0] - k + 1)
        for icg in range(cpg):
            ic = gi * cpg + icg
            # correlation = convolution with the flipped kernel
            acc += np.convolve(xp[:, ic], w[oc, icg, ::-1], mode="valid")
        y[:, oc] = acc[:: stride][:lout]
    if bias is not None:
        y = y + bias
    return y


def ref_avg_pool_time(x, k=POOL_KERNEL):
    L = x.shape[0]
    h = k // 2
    out = np.zeros_like(x)
    for i in range(L):
        lo, hi = max(0, i - h), min(L, i + h + 1)
        out[i] = x[lo:hi].mean(axis=0)
    return out


def ref_avg_pool_channels(x, k=POOL_KERNEL):
    return ref_avg_pool_time(x.T, k).T


def ref_attention(x, p):
    """Loop-based single-head scaled dot-product attention."""
    L, d = x.shape
    q = x @ p["wq"] + p["bq"]
    kk = x @ p["wk"] + p["bk"]
    v = x @ p["wv"] + p["bv"]
    out = np.zeros((L, d))
    for i in range(L):
        scores = np.array([q[i] @ kk[j] for j in range(L)]) / math.sqrt(d)
        scores = scores - scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        out[i] = sum(weights[j] * v[j] for j in range(L))
    return out @ p["wo"] + p["bo"]


def ref_token_mix(kind, p, gamma, beta, x):
    z = ref_layer_norm(x, gamma, beta)
    if kind == "self_attention":
        out = ref_attention(z, p)
    elif kind == "pool":
        out = ref_avg_pool_time(z)
    elif kind == "identity":
        out = z
    elif kind == "isc":
        hidden = ref_gelu(z @ p["expand"])
        hidden = ref_gelu(
            ref_conv1d(hidden, p["depthwise"], padding=DW_KERNEL // 2, groups=hidden.shape[1])
        )
        out = hidden @ p["project"]
    elif kind == "dw":
        out = ref_conv1d(z, p["depthwise"], padding=DW_KERNEL // 2, groups=z.shape[1])
    elif kind == "msdw":
        wide = ref_conv1d(z, p["depthwise7"], padding=DW_KERNEL // 2, groups=z.shape[1])
        narrow = ref_conv1d(z, p["depthwise1"], padding=0, groups=z.shape[1])
        out = ref_gelu(wide + narrow)
    else:
        raise ValueError(kind)
    return out + x


def ref_channel_mix(kind, p, gamma, beta, x, residual=True):
    z = ref_layer_norm(x, gamma, beta)
    if kind == "ffn":
        out = ref_gelu(z @ p["w_in"] + p["b_in"]) @ p["w_out"] + p["b_out"]
    elif kind == "geglu":
        out = (ref_gelu(z @ p["w1"] + p["b1"]) * (z @ p["w2"] + p["b2"])) @ p["w3"] + p["b3"]
    elif kind == "pool":
        out = ref_avg_pool_channels(z)
    elif kind == "identity":
        out = z
    else:
        raise ValueError(kind)
    return out + x if residual else out


def ref_forward(model, x):
    """Full straight-line forward over a built model's parameter arrays."""
    cfg = model.cfg
    store = model.params

    def arr(name):
        return np.asarray(store[name].value, dtype=np.float64)

    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < cfg.seq_len:  # a short record: zero frames up to seq_len
        x = np.pad(x, ((0, cfg.seq_len - x.shape[0]), (0, 0)))
    h = ref_conv1d(
        x,
        arr("projection.weight"),
        arr("projection.bias"),
        padding=cfg.proj_kernel // 2,
    )
    for s, (factor, depth) in enumerate(zip(cfg.stage_factors, cfg.stage_depths)):
        h = ref_conv1d(
            h, arr(f"stage{s}.merge.weight"), arr(f"stage{s}.merge.bias"), stride=factor
        )
        for b in range(depth):
            prefix = f"stage{s}.block{b}"
            tparams = {
                key.rsplit(".", 1)[1]: arr(key)
                for key in store
                if key.startswith(f"{prefix}.token.")
            }
            cparams = {
                key.rsplit(".", 1)[1]: arr(key)
                for key in store
                if key.startswith(f"{prefix}.channel.")
            }
            h = ref_token_mix(
                cfg.token_mixer.value,
                tparams,
                arr(f"{prefix}.token_norm.gamma"),
                arr(f"{prefix}.token_norm.beta"),
                h,
            )
            h = ref_channel_mix(
                cfg.channel_mixer.value,
                cparams,
                arr(f"{prefix}.channel_norm.gamma"),
                arr(f"{prefix}.channel_norm.beta"),
                h,
                residual=cfg.channel_residual,
            )
    h = ref_layer_norm(h, arr("final_norm.gamma"), arr("final_norm.beta"))
    pooled = h.mean(axis=0, keepdims=True)
    hidden = ref_gelu(pooled @ arr("head.fc1.weight") + arr("head.fc1.bias"))
    return hidden @ arr("head.fc2.weight") + arr("head.fc2.bias")

"""Token and channel mixers plus the block that composes one of each.

Every mixer is a pre-norm residual sublayer: Y = Mix(LN(X)) + X. Token
mixers act along the frame axis (-2), channel mixers along the feature
axis (-1); a leading batch axis passes through. The MSDW and GEGLU
sublayers are one graph node each (``tensor.msdw_sublayer``,
``tensor.geglu_sublayer``); the others are built from primitives.
Parameter bundles are plain name -> Tensor mappings whose layouts, a
block's included, are declared here and nowhere else.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from enum import Enum

import numpy as np

from .errors import ConfigError
from .tensor import (
    POOL_KERNEL,
    Tensor,
    add,
    add_bias,
    avg_pool_channels,
    avg_pool_time,
    depthwise_conv1d,
    gelu,
    geglu_sublayer,
    layer_norm,
    matmul,
    msdw_sublayer,
    scale,
    softmax_rows,
    transpose,
)

DW_KERNEL = 7  # the pool mixers' window is POOL_KERNEL, imported from tensor
ISC_EXPANSION = 2
GEGLU_EXPANSION = 2
FFN_EXPANSION = 4


class TokenMixerKind(str, Enum):
    SELF_ATTENTION = "self_attention"
    POOL = "pool"
    IDENTITY = "identity"
    ISC = "isc"
    DW = "dw"
    MSDW = "msdw"


class ChannelMixerKind(str, Enum):
    FFN = "ffn"
    POOL = "pool"
    IDENTITY = "identity"
    GEGLU = "geglu"


ALL_MIXER_COMBOS: list[tuple[TokenMixerKind, ChannelMixerKind]] = [
    (tk, ck) for tk in TokenMixerKind for ck in ChannelMixerKind
]

# token mixers whose depthwise kernel dominates very short sequences
CONV_TOKEN_KINDS = (TokenMixerKind.ISC, TokenMixerKind.DW, TokenMixerKind.MSDW)


def token_param_shapes(kind: TokenMixerKind, d: int) -> dict[str, tuple[int, ...]]:
    """Parameter layout of a token mixer at width ``d`` (insertion order fixed).

    Linear (FC) weights carry biases; mixer convolutions are bias-free.
    """
    if kind == TokenMixerKind.SELF_ATTENTION:
        return {
            "wq": (d, d), "bq": (d,),
            "wk": (d, d), "bk": (d,),
            "wv": (d, d), "bv": (d,),
            "wo": (d, d), "bo": (d,),
        }
    if kind == TokenMixerKind.ISC:
        hidden = ISC_EXPANSION * d
        return {
            "expand": (d, hidden),
            "depthwise": (hidden, 1, DW_KERNEL),
            "project": (hidden, d),
        }
    if kind == TokenMixerKind.DW:
        return {"depthwise": (d, 1, DW_KERNEL)}
    if kind == TokenMixerKind.MSDW:
        return {"depthwise7": (d, 1, DW_KERNEL), "depthwise1": (d, 1, 1)}
    if kind in (TokenMixerKind.POOL, TokenMixerKind.IDENTITY):
        return {}
    raise ConfigError(f"unknown token mixer kind: {kind}")


def channel_param_shapes(kind: ChannelMixerKind, d: int) -> dict[str, tuple[int, ...]]:
    """Parameter layout of a channel mixer at width ``d``."""
    if kind == ChannelMixerKind.FFN:
        hidden = FFN_EXPANSION * d
        return {
            "w_in": (d, hidden), "b_in": (hidden,),
            "w_out": (hidden, d), "b_out": (d,),
        }
    if kind == ChannelMixerKind.GEGLU:
        hidden = GEGLU_EXPANSION * d
        return {
            "w1": (d, hidden), "b1": (hidden,),
            "w2": (d, hidden), "b2": (hidden,),
            "w3": (hidden, d), "b3": (d,),
        }
    if kind in (ChannelMixerKind.POOL, ChannelMixerKind.IDENTITY):
        return {}
    raise ConfigError(f"unknown channel mixer kind: {kind}")


def block_param_shapes(
    token_kind: TokenMixerKind, channel_kind: ChannelMixerKind, d: int
) -> dict[str, tuple[int, ...]]:
    """Parameter layout of one block at width ``d``: each norm's affine before
    its mixer's bundle, token sublayer first (insertion order fixed)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for sub, bundle in (
        ("token", token_param_shapes(token_kind, d)),
        ("channel", channel_param_shapes(channel_kind, d)),
    ):
        shapes[f"{sub}_norm.gamma"] = (d,)
        shapes[f"{sub}_norm.beta"] = (d,)
        shapes.update({f"{sub}.{name}": shape for name, shape in bundle.items()})
    return shapes


def token_mix(
    kind: TokenMixerKind,
    params: dict[str, Tensor],
    gamma: Tensor,
    beta: Tensor,
    x: Tensor,
) -> Tensor:
    """Pre-norm residual token sublayer: Mix(LN(x)) + x along the frame axis."""
    if kind == TokenMixerKind.MSDW:
        return msdw_sublayer(x, gamma, beta, params["depthwise7"], params["depthwise1"])
    z = layer_norm(x, gamma, beta)
    if kind == TokenMixerKind.SELF_ATTENTION:
        d = x.value.shape[-1]
        q = add_bias(matmul(z, params["wq"]), params["bq"])
        k = add_bias(matmul(z, params["wk"]), params["bk"])
        v = add_bias(matmul(z, params["wv"]), params["bv"])
        attn = softmax_rows(scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d)))
        out = add_bias(matmul(matmul(attn, v), params["wo"]), params["bo"])
    elif kind == TokenMixerKind.POOL:
        out = avg_pool_time(z)
    elif kind == TokenMixerKind.IDENTITY:
        out = z
    elif kind == TokenMixerKind.ISC:
        hidden = gelu(matmul(z, params["expand"]))
        hidden = gelu(depthwise_conv1d(hidden, params["depthwise"]))
        out = matmul(hidden, params["project"])
    elif kind == TokenMixerKind.DW:
        out = depthwise_conv1d(z, params["depthwise"])
    else:
        raise ConfigError(f"unknown token mixer kind: {kind}")
    return add(out, x)


def channel_mix(
    kind: ChannelMixerKind,
    params: dict[str, Tensor],
    gamma: Tensor,
    beta: Tensor,
    x: Tensor,
    residual: bool = True,
) -> Tensor:
    """Pre-norm channel sublayer: Mix(LN(x)) (+ x) along the feature axis."""
    if kind == ChannelMixerKind.GEGLU:
        weights = (params[n] for n in ("w1", "b1", "w2", "b2", "w3", "b3"))
        return geglu_sublayer(x, gamma, beta, *weights, residual)
    z = layer_norm(x, gamma, beta)
    if kind == ChannelMixerKind.FFN:
        hidden = gelu(add_bias(matmul(z, params["w_in"]), params["b_in"]))
        out = add_bias(matmul(hidden, params["w_out"]), params["b_out"])
    elif kind == ChannelMixerKind.POOL:
        out = avg_pool_channels(z)
    elif kind == ChannelMixerKind.IDENTITY:
        out = z
    else:
        raise ConfigError(f"unknown channel mixer kind: {kind}")
    return add(out, x) if residual else out


def afformer_block(
    token_kind: TokenMixerKind,
    channel_kind: ChannelMixerKind,
    params: Mapping[str, Tensor],
    x: Tensor,
    channel_residual: bool = True,
) -> Tensor:
    """Token sublayer followed by channel sublayer; shape preserving.

    ``params`` holds the block's tensors under the names of ``block_param_shapes``.
    """
    if token_kind in CONV_TOKEN_KINDS and x.value.shape[-2] < DW_KERNEL:
        warnings.warn(
            f"block input has {x.value.shape[-2]} frames, below the depthwise kernel "
            f"{DW_KERNEL}; zero padding dominates the receptive field",
            RuntimeWarning,
            stacklevel=2,
        )

    def bundle(sub: str) -> dict[str, Tensor]:
        return {name[len(sub) :]: t for name, t in params.items() if name.startswith(sub)}

    h = token_mix(token_kind, bundle("token."), params["token_norm.gamma"], params["token_norm.beta"], x)
    gamma, beta = params["channel_norm.gamma"], params["channel_norm.beta"]
    return channel_mix(channel_kind, bundle("channel."), gamma, beta, h, residual=channel_residual)


def random_block_params(
    token_kind: TokenMixerKind,
    channel_kind: ChannelMixerKind,
    d: int,
    rng: np.random.Generator,
) -> dict[str, Tensor]:
    """Random leaf parameters for one block, in ``block_param_shapes`` order;
    verification-harness helper. Draws the token bundle, the channel bundle,
    then each norm's gamma and beta, token first."""
    shapes = block_param_shapes(token_kind, channel_kind, d)
    drawn = {n: Tensor(0.4 * rng.standard_normal(s)) for n, s in shapes.items() if "_norm." not in n}
    for name in (n for n in shapes if "_norm." in n):
        noise = 0.1 * rng.standard_normal(d)
        drawn[name] = Tensor(1.0 + noise if name.endswith(".gamma") else noise)
    return {n: drawn[n] for n in shapes}

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafformer import analysis, mixers
from hafformer.mixers import (
    ALL_MIXER_COMBOS,
    ChannelMixerKind,
    TokenMixerKind,
    afformer_block,
    block_param_shapes,
    channel_mix,
    channel_param_shapes,
    random_block_params,
    token_mix,
    token_param_shapes,
)
from hafformer.tensor import (
    Tensor,
    add,
    add_bias,
    depthwise_conv1d,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mul,
    sum_all,
)

from oracle_forward import ref_attention


def zero_block_params(tk, ck, d):
    return {
        n: Tensor(np.ones(s) if n.endswith(".gamma") else np.zeros(s))
        for n, s in block_param_shapes(tk, ck, d).items()
    }


def unit_norms(d):
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


# ---------------------------------------------------------------------------
# token mixers


def test_msdw_zero_weights_is_identity(rng):
    x = rng.standard_normal((12, 8))
    params = {n: Tensor(np.zeros(s)) for n, s in token_param_shapes(TokenMixerKind.MSDW, 8).items()}
    gamma, beta = unit_norms(8)
    out = token_mix(TokenMixerKind.MSDW, params, gamma, beta, Tensor(x))
    assert np.array_equal(out.value, x)


SUBLAYER_SHAPES = dict(argvalues=[(16, 8), (3, 16, 8), (2, 5, 8)], ids=["one", "batch", "short"])


def assert_same_node(rng, shape, shapes, fused, composed):
    """``fused`` and ``composed``, each called as ``(params, x)``, give the same
    output, input gradient and parameter gradients, to 1e-12 relative."""
    d = shape[-1]
    x = rng.standard_normal(shape)
    g = rng.standard_normal(shape)
    values = {"gamma": 1.0 + 0.1 * rng.standard_normal(d), "beta": 0.1 * rng.standard_normal(d)}
    values.update((n, rng.standard_normal(s)) for n, s in shapes.items())

    def run(mix):
        params = {n: Tensor(v) for n, v in values.items()}
        xt = Tensor(x)
        out = mix(params, xt)
        out.backward(g)
        return [out.value, xt.grad, *(t.grad for t in params.values())]

    for got, want in zip(run(fused), run(composed), strict=True):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", **SUBLAYER_SHAPES)
def test_msdw_folded_kernel_matches_the_two_branch_form(rng, shape):
    """The MSDW node, one conv with the k=1 kernel added to the k=7 centre
    tap: the same output and gradients as the primitives with two convs."""

    def two_branch(p, xt):
        z = layer_norm(xt, p["gamma"], p["beta"])
        wide = depthwise_conv1d(z, p["depthwise7"])
        narrow = depthwise_conv1d(z, p["depthwise1"])
        return add(gelu(add(wide, narrow)), xt)

    def fused(p, xt):
        return token_mix(TokenMixerKind.MSDW, p, p["gamma"], p["beta"], xt)

    assert_same_node(rng, shape, token_param_shapes(TokenMixerKind.MSDW, shape[-1]), fused, two_branch)


@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no_residual"])
@pytest.mark.parametrize("shape", **SUBLAYER_SHAPES)
def test_geglu_node_matches_the_primitive_form(rng, shape, residual):
    """The GEGLU node: the same output and gradients as the primitives it
    replaces, a node per matmul, bias, GELU, product and residual."""

    def primitives(p, xt):
        z = layer_norm(xt, p["gamma"], p["beta"])
        gate = gelu(add_bias(matmul(z, p["w1"]), p["b1"]))
        value = add_bias(matmul(z, p["w2"]), p["b2"])
        out = add_bias(matmul(mul(gate, value), p["w3"]), p["b3"])
        return add(out, xt) if residual else out

    def fused(p, xt):
        return channel_mix(ChannelMixerKind.GEGLU, p, p["gamma"], p["beta"], xt, residual=residual)

    shapes = channel_param_shapes(ChannelMixerKind.GEGLU, shape[-1])
    assert_same_node(rng, shape, shapes, fused, primitives)


def test_a_block_graph_holds_only_what_its_backward_reads(rng):
    """An MSDW + GEGLU block's graph keeps, per sublayer, x̂, each row's 1/σ,
    the pre-activations, the tanh of the GELU and its output: at most 14
    input-sized arrays, where a node per primitive kept about 25."""
    tk, ck = TokenMixerKind.MSDW, ChannelMixerKind.GEGLU
    bp = random_block_params(tk, ck, 8, rng)
    x = Tensor(rng.standard_normal((4, 256, 8)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = afformer_block(tk, ck, bp, x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.value.shape == x.value.shape
    assert (held - before) / x.value.nbytes <= 14


def test_pool_token_mixer_on_time_constant_input(rng):
    # one value per channel, constant over time: pooling preserves the
    # normalized rows exactly, so Y = LN(X) + X
    row = rng.standard_normal(8)
    x = np.tile(row, (10, 1))
    gamma, beta = unit_norms(8)
    out = token_mix(TokenMixerKind.POOL, {}, gamma, beta, Tensor(x))
    ln = layer_norm(Tensor(x), gamma, beta).value
    assert out.value == pytest.approx(x + ln, abs=1e-12)


def test_pool_token_mixer_constant_matrix_is_identity():
    x = np.full((9, 8), 3.25)
    gamma, beta = unit_norms(8)
    out = token_mix(TokenMixerKind.POOL, {}, gamma, beta, Tensor(x))
    assert out.value == pytest.approx(x, abs=1e-12)


def test_self_attention_matches_loop_oracle(rng):
    d = 8
    shapes = token_param_shapes(TokenMixerKind.SELF_ATTENTION, d)
    params = {n: Tensor(rng.standard_normal(s)) for n, s in shapes.items()}
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(d))
    beta = Tensor(0.1 * rng.standard_normal(d))
    x = rng.standard_normal((4, d))
    out = token_mix(TokenMixerKind.SELF_ATTENTION, params, gamma, beta, Tensor(x))
    z = layer_norm(Tensor(x), gamma, beta).value
    expect = ref_attention(z, {n: t.value for n, t in params.items()}) + x
    assert np.max(np.abs(out.value - expect)) < 1e-10


# ---------------------------------------------------------------------------
# channel mixers


def test_geglu_zero_gate_is_identity(rng):
    d = 8
    shapes = channel_param_shapes(ChannelMixerKind.GEGLU, d)
    params = {n: Tensor(rng.standard_normal(s)) for n, s in shapes.items()}
    params["w1"] = Tensor(np.zeros(shapes["w1"]))
    params["b1"] = Tensor(np.zeros(shapes["b1"]))
    params["b3"] = Tensor(np.zeros(shapes["b3"]))
    gamma, beta = unit_norms(d)
    x = rng.standard_normal((5, d))
    out = channel_mix(ChannelMixerKind.GEGLU, params, gamma, beta, Tensor(x))
    assert np.array_equal(out.value, x)


def test_ffn_zero_weights_is_identity(rng):
    d = 8
    params = {n: Tensor(np.zeros(s)) for n, s in channel_param_shapes(ChannelMixerKind.FFN, d).items()}
    gamma, beta = unit_norms(d)
    x = rng.standard_normal((5, d))
    out = channel_mix(ChannelMixerKind.FFN, params, gamma, beta, Tensor(x))
    assert np.array_equal(out.value, x)


def loop_gelu(v):
    return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def test_geglu_matches_elementwise_loop_oracle(rng):
    d = 8
    shapes = channel_param_shapes(ChannelMixerKind.GEGLU, d)
    params = {n: Tensor(rng.standard_normal(s)) for n, s in shapes.items()}
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(d))
    beta = Tensor(0.1 * rng.standard_normal(d))
    x = rng.standard_normal((2, d))
    out = channel_mix(ChannelMixerKind.GEGLU, params, gamma, beta, Tensor(x))

    p = {n: t.value for n, t in params.items()}
    z = layer_norm(Tensor(x), gamma, beta).value
    hidden = p["w1"].shape[1]
    expect = np.zeros_like(x)
    for i in range(2):
        gate = [
            loop_gelu(sum(z[i, a] * p["w1"][a, j] for a in range(d)) + p["b1"][j])
            for j in range(hidden)
        ]
        val = [
            sum(z[i, a] * p["w2"][a, j] for a in range(d)) + p["b2"][j]
            for j in range(hidden)
        ]
        prod = [gate[j] * val[j] for j in range(hidden)]
        for c in range(d):
            expect[i, c] = sum(prod[j] * p["w3"][j, c] for j in range(hidden)) + p["b3"][c] + x[i, c]
    assert np.max(np.abs(out.value - expect)) < 1e-10


def test_channel_residual_flag(rng):
    d = 8
    params = {n: Tensor(np.zeros(s)) for n, s in channel_param_shapes(ChannelMixerKind.FFN, d).items()}
    gamma, beta = unit_norms(d)
    x = rng.standard_normal((5, d))
    out = channel_mix(ChannelMixerKind.FFN, params, gamma, beta, Tensor(x), residual=False)
    assert out.value == pytest.approx(np.zeros((5, d)))


# ---------------------------------------------------------------------------
# composed block


def test_identity_identity_block_on_constant_rows():
    x = np.tile(np.array([[4.0]]), (6, 8))  # constant rows normalize to zero
    bp = zero_block_params(TokenMixerKind.IDENTITY, ChannelMixerKind.IDENTITY, 8)
    out = afformer_block(TokenMixerKind.IDENTITY, ChannelMixerKind.IDENTITY, bp, Tensor(x))
    assert out.value == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("tk,ck", ALL_MIXER_COMBOS)
def test_zero_parameter_block_is_exact_identity(tk, ck, rng):
    """Every mixer whose output path is linear in some zeroed tensor
    collapses to the residual; Pool/Identity need constant rows instead."""
    d = 8
    bp = zero_block_params(tk, ck, d)
    if tk == TokenMixerKind.POOL or tk == TokenMixerKind.IDENTITY or ck in (
        ChannelMixerKind.POOL,
        ChannelMixerKind.IDENTITY,
    ):
        x = np.full((10, d), 2.5)  # rows normalize to exactly zero
        out = afformer_block(tk, ck, bp, Tensor(x))
        assert out.value == pytest.approx(x, abs=1e-12)
    else:
        x = rng.standard_normal((10, d))
        out = afformer_block(tk, ck, bp, Tensor(x))
        assert np.array_equal(out.value, x)


@settings(max_examples=15, deadline=None)
@given(frames=st.integers(1, 33), seed=st.integers(0, 2**31))
def test_shape_preservation_all_combos(frames, seed):
    rng = np.random.default_rng(seed)
    d = 8
    x = Tensor(rng.standard_normal((frames, d)))
    import warnings as w

    for tk, ck in ALL_MIXER_COMBOS:
        bp = random_block_params(tk, ck, d, rng)
        with w.catch_warnings():
            w.simplefilter("ignore", RuntimeWarning)
            out = afformer_block(tk, ck, bp, x)
        assert out.value.shape == (frames, d)


def test_short_sequence_warning(rng):
    bp = random_block_params(TokenMixerKind.MSDW, ChannelMixerKind.IDENTITY, 8, rng)
    x = Tensor(rng.standard_normal((4, 8)))
    with pytest.warns(RuntimeWarning, match="depthwise kernel"):
        afformer_block(TokenMixerKind.MSDW, ChannelMixerKind.IDENTITY, bp, x)


@pytest.mark.parametrize("tk,ck", ALL_MIXER_COMBOS)
def test_block_gradients_all_combos(tk, ck):
    rng = np.random.default_rng(hash((tk.value, ck.value)) % 2**31)
    bp = random_block_params(tk, ck, 8, rng)
    x = Tensor(rng.standard_normal((16, 8)))

    def f():
        return sum_all(afformer_block(tk, ck, bp, x))

    assert grad_check(f, [x, *bp.values()]) < 1e-4


@pytest.mark.parametrize("tk,ck", ALL_MIXER_COMBOS)
def test_block_on_a_batch_matches_each_sequence_alone(tk, ck):
    """A (B, L, d) batch gives each sequence's output and input gradient, and
    the sum of the per-sequence parameter gradients."""
    rng = np.random.default_rng(7)
    bp = random_block_params(tk, ck, 8, rng)
    xs = rng.standard_normal((3, 16, 8))
    seeds = rng.standard_normal((3, 16, 8))

    def run(x, seed):
        for t in list(bp.values()):
            t.grad = None
        xt = Tensor(x)
        out = afformer_block(tk, ck, bp, xt)
        out.backward(seed)
        return out.value, xt.grad, [t.grad for t in list(bp.values())]

    out, x_grad, grads = run(xs, seeds)
    alone = [run(x, seed) for x, seed in zip(xs, seeds)]
    assert np.max(np.abs(out - np.stack([a[0] for a in alone]))) <= 1e-12 * np.max(np.abs(out))
    assert np.max(np.abs(x_grad - np.stack([a[1] for a in alone]))) <= 1e-12 * np.max(np.abs(x_grad))
    totals = [sum(a[2][i] for a in alone) for i in range(len(grads))]
    scale = max(np.max(np.abs(t)) for t in totals)  # attention's bk gradient is zero up to rounding
    for i, (grad, total) in enumerate(zip(grads, totals)):
        assert np.max(np.abs(grad - total)) <= 1e-12 * scale, i


@pytest.mark.parametrize(
    "tk,ck,total",
    [
        (TokenMixerKind.MSDW, ChannelMixerKind.GEGLU, -80.00808656279177),
        (TokenMixerKind.SELF_ATTENTION, ChannelMixerKind.FFN, -21.03607646511756),
    ],
)
def test_random_block_params_draw_order_is_pinned(tk, ck, total):
    """The harness's random blocks draw the token bundle, the channel bundle,
    then the token and channel norm affines; tests seeded by them rely on it."""
    params = random_block_params(tk, ck, 8, np.random.default_rng(0))
    x = Tensor(np.sin(np.arange(128.0)).reshape(16, 8))
    assert afformer_block(tk, ck, params, x).value.sum() == pytest.approx(total, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# parameter accounting parity


@pytest.mark.parametrize("kind", list(TokenMixerKind))
def test_token_param_layout_matches_closed_form(kind):
    for d in (4, 8, 16):
        shapes = token_param_shapes(kind, d)
        assert sum(math.prod(s) for s in shapes.values()) == analysis.token_mixer_param_count(kind, d)


@pytest.mark.parametrize("kind", list(ChannelMixerKind))
def test_channel_param_layout_matches_closed_form(kind):
    for d in (4, 8, 16):
        shapes = channel_param_shapes(kind, d)
        assert sum(math.prod(s) for s in shapes.values()) == analysis.channel_mixer_param_count(kind, d)


def test_pool_and_identity_mixers_have_no_parameters():
    for kind in (TokenMixerKind.POOL, TokenMixerKind.IDENTITY):
        assert token_param_shapes(kind, 8) == {}
        assert analysis.token_mixer_param_count(kind, 8) == 0
        assert analysis.token_mixer_macs(kind, 8, 800) == 0
    for kind in (ChannelMixerKind.POOL, ChannelMixerKind.IDENTITY):
        assert channel_param_shapes(kind, 8) == {}
        assert analysis.channel_mixer_param_count(kind, 8) == 0
        assert analysis.channel_mixer_macs(kind, 8, 800) == 0


def test_per_block_costs_at_reference_width():
    d = 8
    assert analysis.token_mixer_param_count(TokenMixerKind.SELF_ATTENTION, d) == 288
    assert analysis.token_mixer_param_count(TokenMixerKind.ISC, d) == 368
    assert analysis.token_mixer_param_count(TokenMixerKind.DW, d) == 56
    assert analysis.token_mixer_param_count(TokenMixerKind.MSDW, d) == 64
    assert analysis.channel_mixer_param_count(ChannelMixerKind.FFN, d) == 552
    assert analysis.channel_mixer_param_count(ChannelMixerKind.GEGLU, d) == 424
    # per-frame MAC rates
    assert analysis.token_mixer_macs(TokenMixerKind.ISC, d, 1) == 368
    assert analysis.token_mixer_macs(TokenMixerKind.DW, d, 1) == 56
    assert analysis.token_mixer_macs(TokenMixerKind.MSDW, d, 1) == 64
    assert analysis.channel_mixer_macs(ChannelMixerKind.FFN, d, 1) == 512
    assert analysis.channel_mixer_macs(ChannelMixerKind.GEGLU, d, 1) == 384
    L = 800
    assert analysis.token_mixer_macs(TokenMixerKind.SELF_ATTENTION, d, L) == 4 * L * 64 + 2 * L * L * 8

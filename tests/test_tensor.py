import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafformer.errors import NumericError, ShapeError
from hafformer.tensor import (
    Tensor,
    add,
    add_bias,
    avg_pool_channels,
    avg_pool_time,
    conv1d,
    cross_entropy,
    depthwise_conv1d,
    geglu_sublayer,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mean_pool_time,
    msdw_sublayer,
    mul,
    scale,
    softmax_rows,
    sum_all,
    transpose,
)


def brute_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def brute_conv1d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Sliding-window correlation with explicit loops."""
    L, cin = x.shape
    cout, cpg, k = w.shape
    xp = np.pad(x, ((padding, padding), (0, 0)))
    lout = (L + 2 * padding - k) // stride + 1
    opg = cout // groups
    y = np.zeros((lout, cout))
    for o in range(lout):
        for oc in range(cout):
            gi = oc // opg
            acc = 0.0
            for t in range(k):
                for icg in range(cpg):
                    acc += xp[o * stride + t, gi * cpg + icg] * w[oc, icg, t]
            y[o, oc] = acc
    if bias is not None:
        y = y + bias
    return y


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = np.arange(6.0).reshape(3, 2)
    out = matmul(Tensor(np.eye(3)), Tensor(b))
    assert np.array_equal(out.value, b)


def test_matmul_scalar_case():
    out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.value == pytest.approx(np.array([[6.0]]))


def test_matmul_matches_triple_loop(rng):
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    out = matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.value - brute_matmul(a, b))) < 1e-12


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# depthwise_conv1d and conv1d


def test_conv1d_depthwise_identity_kernel(rng):
    x = rng.standard_normal((10, 4))
    out = depthwise_conv1d(Tensor(x), Tensor(np.ones((4, 1, 1))))
    assert np.array_equal(out.value, x)


def test_conv1d_depthwise_constant_boundary():
    c = 1.5
    x = np.full((8, 3), c)
    out = depthwise_conv1d(Tensor(x), Tensor(np.ones((3, 1, 3))))
    assert out.value[1:-1] == pytest.approx(np.full((6, 3), 3 * c))
    assert out.value[0] == pytest.approx(np.full(3, 2 * c))
    assert out.value[-1] == pytest.approx(np.full(3, 2 * c))


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("L", [1, 2, 6, 7, 200])
def test_depthwise_conv1d_matches_brute_force_on_a_batch(rng, L, k):
    # L < k: the stages of a 64-frame h4 model reach 2 frames
    x = rng.standard_normal((3, L, 5))
    w = rng.standard_normal((5, 1, k))
    out = depthwise_conv1d(Tensor(x), Tensor(w))
    expect = np.stack([brute_conv1d(seq, w, padding=k // 2, groups=5) for seq in x])
    assert out.value.shape == x.shape
    assert np.max(np.abs(out.value - expect)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 2, 3), (5, 1, 3), (4, 1, 2)])
def test_depthwise_conv1d_rejects_a_weight_that_is_not_c_1_k_odd(shape):
    with pytest.raises(ShapeError, match="depthwise_conv1d"):
        depthwise_conv1d(Tensor(np.zeros((8, 4))), Tensor(np.zeros(shape)))


MSDW_SHAPES = [(4,), (4,), (4, 1, 7), (4, 1, 1)]  # gamma, beta, w7, w1
GEGLU_SHAPES = [(4,), (4,), (4, 6), (6,), (4, 6), (6,), (6, 4), (4,)]  # gamma ... b3


@pytest.mark.parametrize(
    "node,shapes,i,bad",
    [
        (msdw_sublayer, MSDW_SHAPES, 0, (5,)),
        (msdw_sublayer, MSDW_SHAPES, 2, (4, 1, 6)),
        (msdw_sublayer, MSDW_SHAPES, 3, (4, 1, 3)),
        (geglu_sublayer, GEGLU_SHAPES, 2, (6, 4)),
        (geglu_sublayer, GEGLU_SHAPES, 5, (4,)),
        (geglu_sublayer, GEGLU_SHAPES, 6, (6, 5)),
    ],
)
def test_fused_sublayers_reject_parameters_that_do_not_fit(node, shapes, i, bad):
    params = [Tensor(np.zeros(bad if j == i else s)) for j, s in enumerate(shapes)]
    residual = (True,) if node is geglu_sublayer else ()
    with pytest.raises(ShapeError, match=node.__name__):
        node(Tensor(np.zeros((8, 4))), *params, *residual)


def identity_merge(c):
    """A merge of factor 1 that passes its ``c`` channels through: the fold
    with it is the projection alone."""
    return Tensor(np.eye(c)[:, :, None]), Tensor(np.zeros(c))


# (L, k, stride, padding) of the two dense convs on a whole input: the
# projection (stride 1, same padding; followed by an identity merge) and the
# merge (stride k, no padding)
@pytest.mark.parametrize("L,k,stride,padding", [(3200, 3, 1, 1), (3200, 4, 4, 0), (16, 3, 1, 1), (16, 4, 4, 0)])
def test_conv1d_merge_shape_and_values(rng, L, k, stride, padding):
    x = rng.standard_normal((L, 6))
    w = rng.standard_normal((5, 6, k))
    b = rng.standard_normal(5)
    if stride == 1:
        out = conv1d([x], Tensor(w), Tensor(b), merge=identity_merge(5)).value[0]
    else:
        out = conv1d(Tensor(x), Tensor(w), Tensor(b)).value
    assert out.shape == ((L + 2 * padding - k) // stride + 1, 5)
    expect = brute_conv1d(x, w, b, stride=stride, padding=padding)
    assert np.max(np.abs(out - expect)) < 1e-12


@pytest.mark.parametrize("L,s", [(12, 3), (3200, 4), (10, 2), (7, 7), (5, 1)])
def test_conv1d_stride_equals_kernel_exact_downsample(rng, L, s):
    x = rng.standard_normal((L, 6))
    w = rng.standard_normal((5, 6, s))
    b = rng.standard_normal(5)
    out = conv1d(Tensor(x), Tensor(w), Tensor(b))
    assert out.value.shape == (L // s, 5)
    assert np.max(np.abs(out.value - brute_conv1d(x, w, b, stride=s))) < 1e-12


def test_conv1d_merge_of_a_batch_merges_each_sequence(rng):
    x = rng.standard_normal((3, 12, 6))
    w, b = Tensor(rng.standard_normal((5, 6, 4))), Tensor(rng.standard_normal(5))
    out = conv1d(Tensor(x), w, b).value
    assert out.shape == (3, 3, 5)
    for seq, got in zip(x, out):
        assert np.max(np.abs(got - conv1d(Tensor(seq), w, b).value)) < 1e-12


def test_conv1d_merge_rejects_uneven_frames_and_a_length():
    w, b = Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match="13 frames"):
        conv1d(Tensor(np.zeros((13, 2))), w, b)
    with pytest.raises(ShapeError, match="length"):
        conv1d(Tensor(np.zeros((12, 2))), w, b, length=12)
    with pytest.raises(ShapeError, match="merge"):
        conv1d(Tensor(np.zeros((12, 2))), w, b, merge=(w, b))


MERGE_FACTORS = (1, 2, 4, 5)  # the stage-0 merge factors the folded projection is checked with


def _projection_cases():
    """(L, k, stride, padding, rows): the projection's stride 1 and same
    padding, given records of 1, L//2, L-1 and L rows of L frames (and of
    3 rows, fewer than a merge group of 4 or 5, at L = 20), and records of
    3200 frames that span more than one cast block."""
    for L in (2, 16, 20):
        for k in (1, 3, 5):
            for rows in sorted({1, L // 2, L - 1, L} | ({3} if L == 20 else set())):
                yield L, k, 1, k // 2, rows
    for k in (1, 3, 5):
        for rows in (129, 300, 1999):
            yield 3200, k, 1, k // 2, rows


def brute_projection_dw(records, g, k):
    """The projection's weight gradient as a sum over each record's windows,
    zero-extended to the length of ``g`` and zero-padded by k//2 at each end."""
    L = g.shape[1]
    dw = np.zeros((g.shape[2], records[0].shape[1], k))
    for record, g_b in zip(records, g):
        padded = np.zeros((L + k - 1, record.shape[1]))
        padded[k // 2 : k // 2 + record.shape[0]] = record
        for t in range(k):
            dw[:, :, t] += g_b.T @ padded[t : t + L]
    return dw


def brute_merge_dx(g, mw):
    """The merge's input gradient: output row j of ``g`` (B, L/f, Cout) sends
    ``g[j] @ M_m`` to input row f*j + m."""
    f = mw.shape[2]
    gy = np.zeros((g.shape[0], g.shape[1] * f, mw.shape[1]))
    for m in range(f):
        gy[:, m::f] = g @ mw[:, :, m]
    return gy


def brute_folded_grads(records, y, g, w, mw):
    """The four gradients of the projection (``w``) followed by the merge
    (``mw``), from the projection's brute-force outputs ``y`` (B, L, d) and
    the upstream gradient ``g`` of the merge's output, each composed by hand."""
    f = mw.shape[2]
    gy = brute_merge_dx(g, mw)
    dmw = np.stack([sum(g_b.T @ y_b[m::f] for g_b, y_b in zip(g, y)) for m in range(f)], axis=2)
    return brute_projection_dw(records, gy, w.shape[2]), gy.sum(axis=(0, 1)), dmw, g.sum(axis=(0, 1))


def assert_close(got, expect, rel=1e-12):
    assert np.max(np.abs(got - expect)) <= rel * np.max(np.abs(expect))


@pytest.mark.parametrize("L,k,stride,padding,rows", [(3200, 3, 1, 1, 3200), *_projection_cases()])
def test_conv1d_length_matches_the_zero_extended_input(rng, L, k, stride, padding, rows):
    """The folded projection and merge against a brute-force projection of
    the zero-extended records followed by a brute-force merge, for every
    merge factor that divides L: the output and all four gradients."""
    # a float64 record of ``rows`` rows and a float32 one of the rest, in one call
    records = [rng.standard_normal((rows, 6)), rng.standard_normal((L - rows + 1, 6)).astype(np.float32)]
    w = rng.standard_normal((5, 6, k))
    b = rng.standard_normal(5)
    y = np.stack([
        brute_conv1d(np.concatenate([r, np.zeros((L - r.shape[0], 6))]), w, b, stride=stride, padding=padding)
        for r in records
    ])
    for f in (f for f in MERGE_FACTORS if L % f == 0):
        mw, mb = rng.standard_normal((4, 5, f)), rng.standard_normal(4)
        params = [Tensor(v) for v in (w, b, mw, mb)]
        out = conv1d(records, *params[:2], length=L, merge=params[2:])
        assert out.value.shape == (2, L // f, 4)
        assert_close(out.value, np.stack([brute_conv1d(y_b, mw, mb, stride=f) for y_b in y]))
        g = rng.standard_normal((2, L // f, 4))
        out.backward(g)
        for param, expect in zip(params, brute_folded_grads(records, y, g, w, mw)):
            assert_close(param.grad, expect)


def test_conv1d_projection_weight_gradient_at_the_paper_width(rng):
    L = 3200
    records = [rng.standard_normal((1999, 1024), dtype=np.float32)]
    w, b = rng.standard_normal((8, 1024, 3)), rng.standard_normal(8)
    mw, mb = rng.standard_normal((8, 8, 4)), rng.standard_normal(8)
    params = [Tensor(v) for v in (w, b, mw, mb)]
    g = rng.standard_normal((1, L // 4, 8))
    conv1d(records, *params[:2], length=L, merge=params[2:]).backward(g)
    padded = np.zeros((L + 2, 1024))
    padded[1:2000] = records[0]
    y = sum(padded[t : t + L] @ w[:, :, t].T for t in range(3)) + b
    for param, expect in zip(params, brute_folded_grads(records, y[None], g, w, mw)):
        assert_close(param.grad, expect)


def test_conv1d_length_shorter_than_the_rows_is_rejected():
    with pytest.raises(ShapeError, match="length 3"):
        conv1d([np.zeros((4, 2))], Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(2)), length=3,
               merge=identity_merge(2))


def test_conv1d_projection_rejects_an_even_kernel():
    with pytest.raises(ShapeError, match="k odd"):
        conv1d([np.zeros((4, 2))], Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)), merge=identity_merge(2))


def test_conv1d_projection_rejects_a_missing_or_unfitting_merge():
    records, w, b = [np.zeros((4, 2))], Tensor(np.zeros((3, 2, 3))), Tensor(np.zeros(3))
    with pytest.raises(ShapeError, match="takes the merge"):
        conv1d(records, w, b)
    with pytest.raises(ShapeError, match="does not follow 3"):
        conv1d(records, w, b, merge=identity_merge(2))
    with pytest.raises(ShapeError, match="multiple of the merge's 3"):
        conv1d(records, w, b, merge=(Tensor(np.zeros((3, 3, 3))), Tensor(np.zeros(3))))


def test_conv1d_dense_forward_makes_no_copy_of_the_input(rng):
    x = rng.standard_normal((3200, 1024), dtype=np.float32)
    w = Tensor(rng.standard_normal((8, 1024, 3)))
    b = Tensor(np.zeros(8))
    merge = Tensor(rng.standard_normal((8, 8, 4))), Tensor(np.zeros(8))
    tracemalloc.start()
    try:
        conv1d([x], w, b, merge=merge).backward()  # the weight gradient casts the record again
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_collapses_to_beta():
    x = np.full((3, 5), 7.0)
    out = layer_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert out.value == pytest.approx(np.zeros((3, 5)))


def test_layer_norm_standardizes_rows(rng):
    x = rng.standard_normal((6, 16)) * 3 + 1
    out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).value
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-4  # eps-limited


def test_layer_norm_is_exact_on_rows_far_from_zero(rng):
    # unit-scale noise on an offset of 1e8: E[x^2] - mean^2 loses every digit
    x = 1e8 + rng.standard_normal((64, 16))
    z = x - 1e8  # exact: the noise as stored
    zc = z - z.mean(axis=1, keepdims=True)
    expect = zc / np.sqrt((zc * zc).mean(axis=1, keepdims=True) + 1e-5)
    out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).value
    assert np.max(np.abs(out - expect)) < 1e-6


def test_layer_norm_zero_gamma_gives_beta(rng):
    x = rng.standard_normal((4, 6))
    beta = rng.standard_normal(6)
    out = layer_norm(Tensor(x), Tensor(np.zeros(6)), Tensor(beta))
    assert out.value == pytest.approx(np.tile(beta, (4, 1)))


# ---------------------------------------------------------------------------
# gelu


def test_gelu_zero():
    assert gelu(Tensor([[0.0]])).value[0, 0] == 0.0


def test_gelu_at_one_matches_formula():
    got = gelu(Tensor([[1.0]])).value[0, 0]
    expected = 0.5 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
    assert abs(got - 0.84119) < 1e-4
    assert abs(got - expected) < 1e-12


def test_gelu_asymptote():
    assert abs(gelu(Tensor([[10.0]])).value[0, 0] - 10.0) < 1e-6


def test_gelu_matches_closed_form_on_a_grid():
    xs = np.concatenate([np.linspace(-12.0, 12.0, 24001), [-1e3, 1e3]])
    got = gelu(Tensor(xs[None, :])).value[0]
    c0, c1 = math.sqrt(2.0 / math.pi), 0.044715
    ref = np.array([0.5 * x * (1.0 + math.tanh(c0 * (x + c1 * x**3))) for x in xs.tolist()])
    # relative to |x|: in the negative tail 1 + tanh cancels, so no
    # evaluation of this formula is accurate relative to the output there
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(xs))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_zero_row():
    out = softmax_rows(Tensor(np.zeros((1, 4))))
    assert out.value == pytest.approx(np.full((1, 4), 0.25))


def test_softmax_shift_invariance(rng):
    x = rng.standard_normal((5, 7))
    shifted = x + rng.standard_normal((5, 1))
    a = softmax_rows(Tensor(x)).value
    b = softmax_rows(Tensor(shifted)).value
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 0.0]])).value
    assert np.isfinite(out).all()
    assert out == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 20), cols=st.integers(1, 20))
def test_softmax_rows_sum_to_one(seed, rows, cols):
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 5
    out = softmax_rows(Tensor(x)).value
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    assert (out >= 0).all() and (out <= 1).all()


# ---------------------------------------------------------------------------
# pooling


def test_mean_pool_constant():
    out = mean_pool_time(Tensor(np.full((9, 4), 2.5)))
    assert out.value == pytest.approx(np.full((1, 4), 2.5))


def test_mean_pool_two_rows():
    x = np.stack([np.zeros(4), np.full(4, 2.0)])
    assert mean_pool_time(Tensor(x)).value == pytest.approx(np.ones((1, 4)))


def test_mean_pool_matches_brute_force(rng):
    x = rng.standard_normal((200, 8))
    expect = np.array([[sum(x[i, c] for i in range(200)) / 200 for c in range(8)]])
    assert np.max(np.abs(mean_pool_time(Tensor(x)).value - expect)) < 1e-12


def test_avg_pool_time_preserves_constant_sequences():
    x = np.tile(np.arange(4.0), (9, 1))
    out = avg_pool_time(Tensor(x))
    assert out.value == pytest.approx(x)


def test_avg_pool_time_boundary_counts(rng):
    x = rng.standard_normal((5, 2))
    out = avg_pool_time(Tensor(x)).value
    assert out[0] == pytest.approx(x[:2].mean(axis=0))
    assert out[2] == pytest.approx(x[1:4].mean(axis=0))
    assert out[4] == pytest.approx(x[3:].mean(axis=0))


def test_avg_pool_channels_is_time_pool_of_transpose(rng):
    x = rng.standard_normal((6, 9))
    a = avg_pool_channels(Tensor(x)).value
    b = avg_pool_time(Tensor(x.T)).value.T
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# determinism


def test_primitives_are_bit_deterministic(rng):
    x = rng.standard_normal((32, 8))
    w = rng.standard_normal((8, 1, 7))
    for op in (
        lambda: matmul(Tensor(x), Tensor(x.T)).value,
        lambda: depthwise_conv1d(Tensor(x), Tensor(w)).value,
        lambda: layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).value,
        lambda: gelu(Tensor(x)).value,
        lambda: softmax_rows(Tensor(x)).value,
    ):
        assert np.array_equal(op(), op())


GEGLU_AT_8 = [(8,), (8,), (8, 16), (16,), (8, 16), (16,), (16, 8), (8,)]  # gamma ... b3


def op_cases(frames: int) -> dict:
    """Every primitive, both fused sublayers and both ``conv1d`` forms on
    sequences of ``frames`` frames of 8 channels, as
    name: (op, shapes of its operands after the batch axis, shapes of its parameters)."""
    seq = (frames, 8)
    return {
        "add": (add, [seq, seq], []),
        "add_bias": (add_bias, [seq], [(8,)]),
        "mul": (mul, [seq, seq], []),
        "scale": (lambda x: scale(x, 1.7), [seq], []),
        "transpose": (transpose, [seq], []),
        "sum_all": (sum_all, [seq], []),
        "gelu": (gelu, [seq], []),
        "layer_norm": (layer_norm, [seq], [(8,), (8,)]),
        "softmax_rows": (softmax_rows, [seq], []),
        "matmul_weight": (matmul, [seq], [(8, 16)]),
        "matmul_pairwise": (matmul, [seq, (8, frames)], []),
        "avg_pool_time": (avg_pool_time, [seq], []),
        "avg_pool_channels": (avg_pool_channels, [seq], []),
        "mean_pool_time": (mean_pool_time, [seq], []),
        "cross_entropy": (lambda z: cross_entropy(z, np.arange(z.value.shape[0])), [(9,)], []),
        "depthwise_conv1d": (depthwise_conv1d, [seq], [(8, 1, 7)]),
        "conv1d_merge": (conv1d, [seq], [(5, 8, 4), (5,)]),
        "conv1d_projection": (
            lambda x, w, b, m, mb: conv1d(list(x.value), w, b, merge=(m, mb)),
            [seq],
            [(5, 8, 3), (5,), (4, 5, 4), (4,)],
        ),
        "msdw_sublayer": (msdw_sublayer, [seq], [(8,), (8,), (8, 1, 7), (8, 1, 1)]),
        "geglu_sublayer": (lambda *t: geglu_sublayer(*t, True), [seq], GEGLU_AT_8),
        "geglu_sublayer_no_residual": (lambda *t: geglu_sublayer(*t, False), [seq], GEGLU_AT_8),
    }


LAYOUT_CASES = op_cases(64)  # more than 8 terms in every frame-axis sum


def _laid_out(v, layout):
    """``v``'s values in another memory layout: ``transposed`` is a view of a
    copy whose last two axes are swapped, ``fortran`` a Fortran-ordered copy."""
    if layout == "transposed":
        return np.swapaxes(np.swapaxes(v, -1, -2).copy(), -1, -2)
    return np.asfortranarray(v)


@pytest.mark.parametrize("layout,batch", [("transposed", 1), ("fortran", 3)])
@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_results_do_not_depend_on_memory_layout(rng, name, layout, batch):
    """Each op gives the same bits, value and every gradient, on C-ordered
    operands and upstream gradient as on the same values in another layout."""
    op, operand_shapes, param_shapes = LAYOUT_CASES[name]
    operands = [rng.standard_normal((batch, *s)) for s in operand_shapes]
    params = [rng.standard_normal(s) for s in param_shapes]
    seed = None

    def run(arrange):
        nonlocal seed
        leaves = [Tensor(arrange(v)) for v in operands] + [Tensor(p.copy()) for p in params]
        out = op(*leaves)
        seed = rng.standard_normal(out.value.shape) if seed is None else seed
        out.backward(arrange(seed))
        assert all(t.grad is None or t.grad.shape == t.value.shape for t in leaves)
        return [out.value] + [t.grad for t in leaves]

    want = run(np.ascontiguousarray)
    got = run(lambda v: _laid_out(v, layout))
    for i, (w, g) in enumerate(zip(want, got)):
        if w is None or g is None:
            assert w is g, i
        else:
            assert np.ascontiguousarray(w).tobytes() == np.ascontiguousarray(g).tobytes(), i


def op_results(frames: int, batch: int) -> dict[str, np.ndarray]:
    """``"<op>.<i>"``: the value (i = 0) and each leaf's gradient (i > 0) of
    every case of ``op_cases(frames)`` at ``batch`` sequences, from fixed draws."""
    rng = np.random.default_rng(2604)
    results = {}
    for name, (op, operand_shapes, param_shapes) in op_cases(frames).items():
        leaves = [Tensor(rng.standard_normal((batch, *s))) for s in operand_shapes]
        leaves += [Tensor(rng.standard_normal(s)) for s in param_shapes]
        out = op(*leaves)
        out.backward(rng.standard_normal(out.value.shape))
        for i, v in enumerate([out.value] + [t.grad for t in leaves]):
            if v is not None:  # the projection reads its records as arrays
                results[f"{name}.{i}"] = v
    return results


THREAD_OPS = """
import sys

import hafformer
import numpy as np

sys.path.insert(0, sys.argv[2])
from test_tensor import op_results

np.savez(sys.argv[1], **op_results(800, 8))
"""


@pytest.fixture(scope="module")
def results_at_one_and_two_threads(tmp_path_factory):
    """``op_results(800, 8)`` from a subprocess at one BLAS thread and from
    one at two: batch-8 activations of 800 rows, large enough that OpenBLAS
    splits their GEMMs and GEMVs over threads."""
    caps = ("HAFF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, **dict.fromkeys(caps, threads))
        path = tmp_path_factory.mktemp("threads") / f"ops{threads}.npz"
        here = str(Path(__file__).resolve().parent)
        subprocess.run([sys.executable, "-c", THREAD_OPS, str(path), here], env=env, check=True)
        runs.append(dict(np.load(path)))
    return runs


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_results_do_not_depend_on_the_blas_thread_count(results_at_one_and_two_threads, name):
    """Each op gives the same bits, value and every gradient, with one BLAS
    thread as with two."""
    one, two = results_at_one_and_two_threads
    keys = sorted(k for k in one if k.rpartition(".")[0] == name)
    assert keys and keys == sorted(k for k in two if k.rpartition(".")[0] == name)
    for key in keys:
        assert one[key].tobytes() == two[key].tobytes(), key


# ---------------------------------------------------------------------------
# gradients


def test_grad_check_constant_function():
    theta = Tensor(np.ones((2, 2)))
    const = Tensor([[3.0]])
    assert grad_check(lambda: const, [theta]) == 0.0


def test_grad_check_linear_closed_form(rng):
    b = rng.standard_normal((4, 3))
    theta = Tensor(rng.standard_normal((2, 4)))

    def f():
        return sum_all(matmul(theta, Tensor(b)))

    err = grad_check(f, [theta])
    assert err < 1e-8
    # analytic gradient of sum(theta @ b): each row is the row sums of b^T
    closed_form = np.tile(b.sum(axis=1), (2, 1))
    f()
    theta.grad = None
    loss = f()
    loss.backward()
    assert theta.grad == pytest.approx(closed_form, abs=1e-12)


def test_grad_check_msdw_geglu_block(rng):
    from hafformer import mixers

    bp = mixers.random_block_params(
        mixers.TokenMixerKind.MSDW, mixers.ChannelMixerKind.GEGLU, 8, rng
    )
    x = Tensor(rng.standard_normal((16, 8)))

    def f():
        return sum_all(
            mixers.afformer_block(
                mixers.TokenMixerKind.MSDW, mixers.ChannelMixerKind.GEGLU, bp, x
            )
        )

    assert grad_check(f, list(bp.values())) < 1e-4


def test_grad_check_rejects_non_finite_loss():
    theta = Tensor(np.ones((1, 1)))
    with pytest.raises(NumericError):
        grad_check(lambda: Tensor([[np.inf]]), [theta])


# (L, k) merges, (L, k, rows, f) projections of records of ``rows`` and L rows
# folded with a merge of factor f, and (L, k) depthwise convs, L < k
# included, for the gradient checks
MERGE_GRID = [(16, 4), (12, 3), (10, 2), (7, 7), (5, 1)]
PROJECTION_GRID = [(16, 3, 8, 4), (16, 5, 15, 2), (10, 1, 4, 5), (2, 5, 1, 1), (4, 3, 1, 4)]
DEPTHWISE_GRID = [(1, 7), (2, 3), (6, 7), (7, 1)]


def _loss_builders(rng, rows):
    """One scalar loss per primitive over an input of ``rows`` frames, paired
    with the leaves besides the input whose gradients are checked too."""
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(8))
    beta = Tensor(0.1 * rng.standard_normal(8))
    w_dw = Tensor(rng.standard_normal((8, 1, 7)))
    m = Tensor(rng.standard_normal((8, 8)))
    bias8 = Tensor(rng.standard_normal(8))
    head = Tensor(rng.standard_normal((8, 2)))
    builders = {
        "matmul": lambda x: sum_all(gelu(matmul(x, m))),
        "conv_depthwise": lambda x: sum_all(depthwise_conv1d(x, w_dw)),
        "layer_norm": lambda x: sum_all(mul(layer_norm(x, gamma, beta), x)),
        "gelu": lambda x: sum_all(gelu(x)),
        "softmax": lambda x: sum_all(mul(softmax_rows(x), x)),
        "mean_pool": lambda x: sum_all(gelu(mean_pool_time(x))),
        "avg_pool_time": lambda x: sum_all(mul(avg_pool_time(x), x)),
        "avg_pool_channels": lambda x: sum_all(mul(avg_pool_channels(x), x)),
        "add_scale_transpose": lambda x: sum_all(add(scale(x, 1.7), transpose(transpose(x)))),
        "add_bias": lambda x: sum_all(gelu(add_bias(matmul(x, m), bias8))),
        "cross_entropy": lambda x: cross_entropy(matmul(mean_pool_time(x), head), 1),
    }
    builders = {name: (build, []) for name, build in builders.items()}
    # a fixed linear map lifts the input to L frames (B sequences of them for
    # a 3-D lift); gelu makes the upstream gradient differ per output entry
    for L, k in MERGE_GRID:
        lift = Tensor(rng.standard_normal((2, L, rows)) / math.sqrt(rows))
        w = Tensor(rng.standard_normal((5, 8, k)) / math.sqrt(8 * k))
        bias = Tensor(rng.standard_normal(5))

        def merge(x, lift=lift, w=w, bias=bias):
            return sum_all(gelu(conv1d(matmul(lift, x), w, bias)))

        builders[f"merge_L{L}_k{k}"] = (merge, [w, bias])
    for L, k, real, f in PROJECTION_GRID:
        # records of its own: the projection takes no gradient with respect
        # to its input, and grad_check perturbs ``x`` in place
        records = [rng.standard_normal((real, 8)), rng.standard_normal((L, 8)).astype(np.float32)]
        w = Tensor(rng.standard_normal((5, 8, k)) / math.sqrt(8 * k))
        bias = Tensor(rng.standard_normal(5))
        merge = [Tensor(rng.standard_normal((4, 5, f)) / math.sqrt(5 * f)), Tensor(rng.standard_normal(4))]

        def projection(x, records=records, w=w, bias=bias, merge=merge, L=L):
            return sum_all(gelu(conv1d(records, w, bias, length=L, merge=merge)))

        builders[f"projection_L{L}_k{k}_rows{real}_f{f}"] = (projection, [w, bias, *merge])
    for L, k in DEPTHWISE_GRID:
        lift = Tensor(rng.standard_normal((2, L, rows)) / math.sqrt(rows))
        w = Tensor(rng.standard_normal((8, 1, k)))

        def depthwise(x, lift=lift, w=w):
            return sum_all(gelu(depthwise_conv1d(matmul(lift, x), w)))

        builders[f"depthwise_L{L}_k{k}"] = (depthwise, [w])
    # the fused sublayers, with every leaf checked; fewer rows than the
    # kernel width leave MSDW's outer taps clipped
    norm = [Tensor(1.0 + 0.1 * rng.standard_normal(8)), Tensor(0.1 * rng.standard_normal(8))]
    msdw = [*norm, *(Tensor(0.5 * rng.standard_normal((8, 1, k))) for k in (7, 1))]
    builders["msdw_sublayer"] = (lambda x: sum_all(mul(msdw_sublayer(x, *msdw), x)), msdw)
    geglu_shapes = ((8, 16), (16,), (8, 16), (16,), (16, 8), (8,))  # w1, b1, w2, b2, w3, b3
    geglu = [*norm, *(Tensor(0.5 * rng.standard_normal(s)) for s in geglu_shapes)]
    for residual in (True, False):

        def sublayer(x, residual=residual):
            return sum_all(mul(geglu_sublayer(x, *geglu, residual), x))

        builders[f"geglu_sublayer_residual_{residual}"] = (sublayer, geglu)
    return builders


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(2, 32))
def test_primitive_gradients_match_finite_differences(seed, rows):
    rng = np.random.default_rng(seed)
    for name, (build, params) in _loss_builders(rng, rows).items():
        x = Tensor(rng.standard_normal((rows, 8)))
        err = grad_check(lambda: build(x), [x, *params])
        assert err < 1e-4, f"{name}: {err}"


def test_parameter_gradients_of_conv_and_norm(rng):
    x = Tensor(rng.standard_normal((12, 8)))
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(8))
    beta = Tensor(0.1 * rng.standard_normal(8))
    w = Tensor(rng.standard_normal((8, 8, 3)))
    b = Tensor(rng.standard_normal(8))

    def f():
        return sum_all(gelu(conv1d(layer_norm(x, gamma, beta), w, b)))

    assert grad_check(f, [gamma, beta, w, b]) < 1e-4


def test_backward_accumulates_across_samples(rng):
    theta = Tensor(rng.standard_normal((3, 3)))
    xs = [rng.standard_normal((3, 3)) for _ in range(2)]

    def loss_on(x):
        return sum_all(matmul(Tensor(x), theta))

    theta.grad = None
    for x in xs:
        loss_on(x).backward(0.5)
    combined = theta.grad.copy()

    theta.grad = None
    loss_on(xs[0]).backward()
    first = theta.grad.copy()
    theta.grad = None
    loss_on(xs[1]).backward()
    second = theta.grad.copy()
    assert combined == pytest.approx(0.5 * first + 0.5 * second, abs=1e-12)


@pytest.mark.parametrize("extra", [-1, 1])
def test_backward_rejects_a_node_that_returns_the_wrong_number_of_gradients(extra):
    """A node's backward returns one gradient per parent; one too few or one
    too many is an error, not a parent silently left without its gradient."""
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
    out = Tensor(a.value + b.value, (a, b), lambda g: (g,) * (2 + extra))
    with pytest.raises(ValueError):
        out.backward()

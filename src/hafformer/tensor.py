"""Reverse-mode autodiff over frame matrices, one sequence or a mini-batch.

Activations are float64 arrays, (frames, channels) for one sequence or
(batch, frames, channels) for a mini-batch, so one graph carries a whole
batch. Ops act on the channel axis (-1) or the frame axis (-2) and treat a
leading batch axis as independent sequences; a linear weight is shared by
every row, so its product is one GEMM over the whole batch. Parameters may
be 1-D (biases, norm affines), 2-D (linear weights) or 3-D (conv kernels); a
gradient always has the shape of its value. Each op returns a new graph
node carrying one backward callable that maps the node's upstream gradient
to one gradient per parent, in parent order; ``Tensor.backward`` visits
every node exactly once in reverse topological order, parents in
declaration order, so gradient accumulation is bit-deterministic, and it
frees each interior node as soon as its backward has run. No op mutates its
inputs. Every sum runs over C-ordered operands (``_rows`` copies any
other), so each value and gradient depends on its operands' values, never
on their memory layout. The projection with the merge after it, and the
MSDW and GEGLU sublayers, are fused nodes; the formulas they share with the
primitives (the layer norm's statistics, affine and backward, GELU, the
depthwise taps) are array helpers that both call. A node keeps only what its
backward cannot cheaply rebuild: every layer norm keeps each row's mean and
1/σ and rebuilds x̂ from its input's value, which the graph holds anyway.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

GELU_TANH_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_TANH_C1 = 0.044715
LN_EPS = 1e-5  # added to the variance in every layer norm
POOL_KERNEL = 3  # window of the sliding-mean pools
FD_STEP = 1e-5  # central-difference step of grad_check
CAST_BLOCK_ROWS = 128  # rows of a float32 record cast to float64 at a time by the projection


class Tensor:
    """One node of the computation graph.

    Leaves (``parents == ()``) are parameters or data; interior nodes hold
    the value produced by an op plus its backward ``vjp``, which maps an
    upstream gradient to one gradient per parent, in parent order, and which
    ``backward`` calls once. A leaf's ``grad`` accumulates across backward
    calls until it is reset to None.
    """

    __slots__ = ("value", "grad", "parents", "vjps")

    def __init__(self, value, parents=(), vjp=None):
        arr = np.asarray(value)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.value = arr
        self.grad = None
        self.parents = tuple(parents)
        # a 1-tuple, () for a leaf: benchmark/tracing.py times a node by wrapping each entry
        self.vjps = () if vjp is None else (vjp,)

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into the ``grad`` of every leaf, consuming the graph.

        ``seed`` is the upstream gradient of ``self`` (scalar or an array of
        the same shape, default ones). Leaf grads persist across calls, so
        graphs built one after another can accumulate into them. A node's
        backward must return exactly one gradient per parent (else
        ValueError). Once it has run, the node drops its ``grad``, ``vjps``
        and ``parents``, so the activations its backward saved are freed
        while the walk goes on; a graph can be walked once.
        """
        if seed is None:
            seed = np.ones_like(self.value)
        else:
            seed_arr = np.asarray(seed, dtype=self.value.dtype)
            if seed_arr.shape == ():
                seed_arr = np.full_like(self.value, float(seed_arr))
            elif seed_arr.shape != self.value.shape:
                raise ShapeError(
                    f"backward seed shape {seed_arr.shape} != value shape {self.value.shape}"
                )
            seed = seed_arr
        order = _topo_order(self)
        self.grad = seed if self.grad is None else self.grad + seed
        while order:
            node = order.pop()  # the list holds no spent node, so it can be freed
            if not node.parents:
                continue
            for parent, contrib in zip(node.parents, node.vjps[0](node.grad), strict=True):
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
            node.grad = None
            node.vjps = node.parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, leaf={not self.parents})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order DFS (parents appended before consumers), declaration order."""
    order: list[Tensor] = []
    seen = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, it = stack[-1]
        pushed = False
        for parent in it:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent.parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def _require_frames(t: Tensor, op: str) -> None:
    if t.value.ndim not in (2, 3):
        raise ShapeError(
            f"{op}: expected a (frames, channels) or (batch, frames, channels) operand, "
            f"got shape {t.value.shape}"
        )


def _rows(v: np.ndarray) -> np.ndarray:
    """``v`` as one C-ordered matrix of channel rows: (every leading index,
    channels), a view of a C-ordered ``v`` and a copy of any other. BLAS then
    sees one layout whatever the layout of ``v``, so it sums in one order."""
    return np.ascontiguousarray(v).reshape(-1, v.shape[-1])


def _row_mean(v: np.ndarray) -> np.ndarray:
    """Mean over the channel axis, kept as an axis of one.

    A product with a ones column (one GEMV) rather than ``mean(axis=-1)``:
    numpy's reduction over 8 channels is about ten times slower.
    """
    c = v.shape[-1]
    return (_rows(v) @ np.ones(c) / c).reshape(v.shape[:-1] + (1,))


def _col_sum(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the channel axis (a bias gradient), as one GEMV."""
    rows = _rows(g)
    return np.ones(rows.shape[0]) @ rows


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    return Tensor(a.value + b.value, (a, b), lambda g: (g, g))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias addition: (..., C) + (C,)."""
    _require_frames(x, "add_bias")
    if bias.value.shape != (x.value.shape[-1],):
        raise ShapeError(
            f"add_bias: bias shape {bias.value.shape} does not match columns of {x.value.shape}"
        )
    return Tensor(x.value + bias.value, (x, bias), lambda g: (g, _col_sum(g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    av, bv = a.value, b.value
    return Tensor(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(x.value * c, (x,), lambda g: (g * c,))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    _require_frames(x, "transpose")
    return Tensor(np.swapaxes(x.value, -1, -2), (x,), lambda g: (np.swapaxes(g, -1, -2),))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, in C order, as a 1x1 matrix (scalar loss helper)."""
    v = x.value
    return Tensor([[np.ascontiguousarray(v).sum()]], (x,), lambda g: (np.full_like(v, g[0, 0]),))


def _gelu_tanh(v: np.ndarray) -> np.ndarray:
    """The tanh of the tanh-form GELU: tanh(c0*(v + c1*v^3)).

    The cube is ``v * v * v``: numpy sends ``v**3`` to libm ``pow``, which
    made the whole kernel about four times slower on the model's 800x16
    blocks.
    """
    return np.tanh(GELU_TANH_C0 * (v + GELU_TANH_C1 * (v * v * v)))


def _gelu_slope(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d GELU(v) / dv, given ``t = _gelu_tanh(v)``: 0.5*(1 + t) + 0.5*v*(1 - t*t)*du
    with du = c0*(1 + 3*c1*v*v), each product and sum in that order, run in
    place in three temporaries."""
    du = v * (3.0 * GELU_TANH_C1)
    du *= v
    du += 1.0
    du *= GELU_TANH_C0
    out = t * t
    np.subtract(1.0, out, out=out)
    term = v * 0.5
    term *= out
    term *= du
    np.add(1.0, t, out=out)
    out *= 0.5
    out += term
    return out


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU: 0.5*x*(1 + tanh(c0*(x + c1*x^3)))."""
    v = x.value
    t = _gelu_tanh(v)
    return Tensor(0.5 * v * (1.0 + t), (x,), lambda g: (g * _gelu_slope(v, t),))


# ---------------------------------------------------------------------------
# normalization / attention helpers


def _ln_stats(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row standardization across channels: x̂, each row's mean μ and 1/σ.

    Two-pass: each row is centred once and the variance is the mean square
    of the centred row, which x̂ reuses. E[x^2] - mean^2 would lose every
    digit on rows far from zero. A node keeps μ and 1/σ, not x̂: its
    backward rebuilds x̂ with ``_ln_xhat`` from the input it already holds.
    """
    mu = _row_mean(v)
    xc = v - mu
    ivar = 1.0 / np.sqrt(_row_mean(xc * xc) + LN_EPS)
    return xc * ivar, mu, ivar


def _ln_xhat(v: np.ndarray, mu: np.ndarray, ivar: np.ndarray) -> np.ndarray:
    """x̂ = (v - μ)·(1/σ), bit for bit the x̂ of ``_ln_stats``."""
    return (v - mu) * ivar


def _tiled(c: np.ndarray, rows: int) -> np.ndarray:
    """``c`` (..., C) repeated over ``rows`` rows, as a contiguous (..., rows, C).

    A per-channel operand: numpy multiplies (8, 800, 8) by (8,) at about half
    the rate it multiplies it by the same vector tiled to (800, 8). The
    products are the same bits, and every reduction after them reads its
    operand through ``_rows``, so their layout cannot move a bit either.
    """
    return np.repeat(c[..., None, :], rows, axis=-2)


def _ln_grads(dz: np.ndarray, xhat: np.ndarray, ivar: np.ndarray, gamma: np.ndarray) -> tuple:
    """(dx, dγ, dβ) of z = x̂·γ + β, x̂ a layer norm of x, from dz = dL/dz.

    ``dz`` is read, never written: it may be an upstream gradient that
    ``add`` hands another parent too.
    """
    dgamma, dbeta = _col_sum(dz * xhat), _col_sum(dz)
    gg = dz * _tiled(gamma, dz.shape[-2])
    return ivar * (gg - _row_mean(gg) - xhat * _row_mean(gg * xhat)), dgamma, dbeta


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """z = x̂·γ + β, with γ and β tiled over the rows of ``xhat``."""
    L = xhat.shape[-2]
    z = xhat * _tiled(gamma, L)
    z += _tiled(beta, L)
    return z


def _check_affine(op: str, x: Tensor, gamma: Tensor, beta: Tensor) -> None:
    _require_frames(x, op)
    cols = x.value.shape[-1]
    if gamma.value.shape != (cols,) or beta.value.shape != (cols,):
        raise ShapeError(
            f"{op}: affine shapes {gamma.value.shape}/{beta.value.shape} "
            f"do not match {cols} channels"
        )


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row standardization across channels, then affine gamma/beta.

    The node keeps each row's μ and 1/σ; its backward rebuilds x̂ from the
    value of ``x``.
    """
    _check_affine("layer_norm", x, gamma, beta)
    xv = x.value
    xhat, mu, ivar = _ln_stats(xv)

    def grads(g):
        return _ln_grads(g, _ln_xhat(xv, mu, ivar), ivar, gamma.value)

    return Tensor(_affine(xhat, gamma.value, beta.value), (x, gamma, beta), grads)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable per-row softmax (max subtraction), summing C-ordered rows."""
    _require_frames(x, "softmax_rows")
    v = np.ascontiguousarray(x.value)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def dx(g):
        dot = (np.ascontiguousarray(g) * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, (x,), dx)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes.

    A 2-D ``b`` (a weight) multiplies every row of ``a``, whatever its
    leading axes: one GEMM over all of them. Otherwise ``a`` and ``b`` have
    the same leading axes and are multiplied pair by pair.
    """
    _require_frames(a, "matmul")
    _require_frames(b, "matmul")
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {av.shape} x {bv.shape}")
    if bv.ndim == 2:
        a2 = _rows(av)

        def grads(g):
            g2 = _rows(g)
            return (g2 @ bv.T).reshape(av.shape), a2.T @ g2

        out = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[1:])
        return Tensor(out, (a, b), grads)
    if av.shape[:-2] != bv.shape[:-2]:
        raise ShapeError(f"matmul: leading axes differ, {av.shape} x {bv.shape}")
    return Tensor(
        _pairwise(av, bv),
        (a, b),
        lambda g: (_pairwise(g, np.swapaxes(bv, -1, -2)), _pairwise(np.swapaxes(av, -1, -2), g)),
    )


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` pair by pair over C-ordered operands: OpenBLAS sums some
    shapes in another order when an operand is transposed."""
    return np.ascontiguousarray(a) @ np.ascontiguousarray(b)


# ---------------------------------------------------------------------------
# temporal / channel pooling


def _window_sums(v: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded sliding sums along the frame axis with radius ``half`` + true counts."""
    L = v.shape[-2]
    csum = np.zeros(v.shape[:-2] + (L + 1, v.shape[-1]), dtype=v.dtype)
    np.cumsum(v, axis=-2, out=csum[..., 1:, :])
    idx = np.arange(L)
    hi = np.minimum(idx + half + 1, L)
    lo = np.maximum(idx - half, 0)
    return csum[..., hi, :] - csum[..., lo, :], (hi - lo).astype(v.dtype)


def avg_pool_time(x: Tensor) -> Tensor:
    """Sliding mean of ``POOL_KERNEL`` frames along the frame axis, stride 1, same padding.

    Boundary windows are normalized by the number of in-range frames, so
    constant sequences are preserved exactly.
    """
    _require_frames(x, "avg_pool_time")
    half = POOL_KERNEL // 2
    sums, counts = _window_sums(x.value, half)
    out = sums / counts[:, None]

    def dx(g):
        return (_window_sums(g / counts[:, None], half)[0],)

    return Tensor(out, (x,), dx)


def avg_pool_channels(x: Tensor) -> Tensor:
    """Sliding mean along the channel axis: ``avg_pool_time`` of the transpose."""
    return transpose(avg_pool_time(transpose(x)))


def mean_pool_time(x: Tensor) -> Tensor:
    """Per-channel temporal mean, summed in C order: (L, C) -> (1, C), (B, L, C) -> (B, C)."""
    _require_frames(x, "mean_pool_time")
    v = x.value
    L, C = v.shape[-2:]
    out = np.ascontiguousarray(v).mean(axis=-2).reshape(-1, C)

    def dx(g):
        return (np.repeat((g / L).reshape(v.shape[:-2] + (1, C)), L, axis=-2),)

    return Tensor(out, (x,), dx)


# ---------------------------------------------------------------------------
# temporal convolution


def _tap_slices(L: int, k: int):
    """Per tap ``t`` of a same-padded kernel of odd width ``k`` over ``L``
    frames, the output rows and input rows it pairs, skipping padding.

    Output row ``i`` reads input row ``i + t - k // 2``; the pairs whose input
    row lies inside ``[0, L)`` are ``out[i_lo:i_hi]`` and ``inp[r_lo:r_hi]``.
    Taps that reach no input row are left out.
    """
    p = k // 2
    taps = []
    for t in range(k):
        i_lo, i_hi = max(0, p - t), min(L, L + p - t)
        if i_hi > i_lo:
            taps.append((t, slice(i_lo, i_hi), slice(i_lo + t - p, i_hi + t - p)))
    return taps


def _depthwise(v: np.ndarray, w: np.ndarray, taps) -> np.ndarray:
    """Depthwise correlation of ``v`` (..., L, C) with ``w`` (C, 1, k) over
    ``taps``, each tap tiled over the L rows once (``_tiled``). With the
    kernel and ``taps`` reversed it is its own adjoint, dX: tap k - 1 - t of
    ``_tap_slices`` is tap t with its rows swapped."""
    wt = _tiled(w[:, 0, :].T, v.shape[-2])
    y = np.zeros(v.shape, dtype=v.dtype)
    for t, out_rows, in_rows in taps:
        y[..., out_rows, :] += v[..., in_rows, :] * wt[t, in_rows]
    return y


def _depthwise_dw(g: np.ndarray, v: np.ndarray, w: np.ndarray, taps) -> np.ndarray:
    gw = np.zeros_like(w)
    for t, out_rows, in_rows in taps:
        gw[:, 0, t] = _col_sum(g[..., out_rows, :] * v[..., in_rows, :])
    return gw


def _check_depthwise(op: str, w: np.ndarray, C: int) -> None:
    if w.ndim != 3 or w.shape[:2] != (C, 1) or w.shape[2] % 2 == 0:
        raise ShapeError(f"{op}: weight {w.shape} is not ({C}, 1, k), k odd")


def depthwise_conv1d(x: Tensor, weight: Tensor) -> Tensor:
    """Same-padded depthwise convolution along the frame axis, stride 1, no bias.

    ``x`` is (L, C) or (B, L, C) and ``weight`` is (C, 1, k), k odd: channel c
    of the output is channel c of ``x`` correlated with ``weight[c, 0]``, with
    zeros beyond either end, so the output has the shape of ``x``. One scaled
    add per tap over the whole batch, for the output, dX and dW alike.
    """
    _require_frames(x, "depthwise_conv1d")
    xv, w = x.value, weight.value
    L, C = xv.shape[-2:]
    _check_depthwise("depthwise_conv1d", w, C)
    taps = _tap_slices(L, w.shape[2])
    return Tensor(
        _depthwise(xv, w, taps),
        (x, weight),
        lambda g: (_depthwise(g, w[:, :, ::-1], taps[::-1]), _depthwise_dw(g, xv, w, taps)),
    )


def _phase_plan(k: int, f: int) -> list[list[tuple[int, int]]]:
    """Per row phase q of the folded conv (width k + f - 1, stride f, offset
    -k//2), the (u, e) of each tap u that a row of phase q meets.

    Tap u of output row j reads input row f*j + u - k//2 = f*(j + e) + q, so
    it takes row j + e of the phase-q rows, with (e, q) = divmod(u - k//2, f).
    """
    plan: list[list[tuple[int, int]]] = [[] for _ in range(f)]
    for u in range(k + f - 1):
        e, q = divmod(u - k // 2, f)
        plan[q].append((u, e))
    return plan


def _phase_slices(rows: int, groups: int, f: int, cout: int, plan):
    """Per phase q of ``plan``, for a record of ``rows`` real rows and
    ``groups`` output rows: the number of real rows of phase q, and (columns
    of tap u in C_q, output rows, phase-q rows) for each tap u of phase q
    that reaches one of them, output row j taking phase row j + e."""
    out = []
    for q, taps in enumerate(plan):
        n_q = (rows - q + f - 1) // f
        pairs = []
        for i, (_, e) in enumerate(taps):
            j_lo, j_hi = max(0, -e), min(groups, n_q - e)
            if j_hi > j_lo:
                pairs.append((slice(i * cout, (i + 1) * cout), slice(j_lo, j_hi), slice(j_lo + e, j_hi + e)))
        out.append((n_q, pairs))
    return out


def _fold_terms(plan, k: int, f: int, cout: int):
    """(q, columns of tap u in C_q, t, m) for each product W_t^T M_m^T, t + m = u,
    that the folded tap C_u sums."""
    for q, taps in enumerate(plan):
        for i, (u, _) in enumerate(taps):
            for t in range(max(0, u - f + 1), min(k, u + 1)):
                yield q, slice(i * cout, (i + 1) * cout), t, u - t


def _projection_merge(seqs, weight: Tensor, bias: Tensor, merge, length: int) -> Tensor:
    """The list branch of ``conv1d``: projection and merge folded into one node."""
    w, b = weight.value, bias.value
    mw, mb = (t.value for t in merge)
    d, cin, k = w.shape
    if mw.ndim != 3 or mw.shape[1] != d or mb.shape != (mw.shape[0],):
        raise ShapeError(f"conv1d: merge {mw.shape}/{mb.shape} does not follow {d} projected channels")
    cout, _, f = mw.shape
    if length % f:
        raise ShapeError(f"conv1d: length {length} is not a multiple of the merge's {f}")
    groups = length // f
    plan = _phase_plan(k, f)
    slices = [_phase_slices(s.shape[0], groups, f, cout, plan) for s in seqs]
    n = max(1, CAST_BLOCK_ROWS // f) * f  # a whole number of merge groups per cast block
    block = (min(n, max(s.shape[0] for s in seqs)), cin)  # the float64 buffer of one cast block

    def cast_blocks(s, buf):
        """Each block of ``s`` cast into ``buf``, as (its first group, its rows of each phase)."""
        for lo in range(0, s.shape[0], n):
            xb = buf[: min(n, s.shape[0] - lo)]
            xb[:] = s[lo : lo + n]
            yield lo // f, [xb[q::f] for q in range(f)]

    cq = [np.zeros((cin, len(taps) * cout)) for taps in plan]
    for q, cols, t, m in _fold_terms(plan, k, f, cout):
        cq[q][:, cols] += w[:, :, t].T @ mw[:, :, m].T
    buf = np.empty(block)
    z = np.zeros((len(seqs), groups, cout))
    for z_b, s, slices_b in zip(z, seqs, slices):
        p = [np.empty((n_q, c.shape[1])) for (n_q, _), c in zip(slices_b, cq)]
        for g0, xq in cast_blocks(s, buf):
            for p_q, x_q, c_q in zip(p, xq, cq):
                np.matmul(x_q, c_q, out=p_q[g0 : g0 + x_q.shape[0]])
        for p_q, (_, pairs) in zip(p, slices_b):
            for cols, out_rows, in_rows in pairs:
                z_b[out_rows] += p_q[in_rows, cols]
    z += mw.sum(axis=2) @ b + mb

    def grads(g):
        buf = np.empty(block)
        dcq = [np.zeros((cin, len(taps) * cout)) for taps in plan]
        for g_b, s, slices_b in zip(g, seqs, slices):
            gq = [np.zeros((n_q, c.shape[1])) for (n_q, _), c in zip(slices_b, dcq)]
            for g_q, (_, pairs) in zip(gq, slices_b):
                for cols, out_rows, in_rows in pairs:
                    g_q[in_rows, cols] = g_b[out_rows]
            for g0, xq in cast_blocks(s, buf):
                for dc_q, x_q, g_q in zip(dcq, xq, gq):
                    dc_q += x_q.T @ g_q[g0 : g0 + x_q.shape[0]]
        gsum = _col_sum(g)
        dw, dm = np.zeros_like(w), np.zeros_like(mw)
        for q, cols, t, m in _fold_terms(plan, k, f, cout):
            dc_u = dcq[q][:, cols]
            dw[:, :, t] += (dc_u @ mw[:, :, m]).T
            dm[:, :, m] += (w[:, :, t] @ dc_u).T
        dm += np.outer(gsum, b)[:, :, None]
        return dw, gsum @ mw.sum(axis=2), dm, gsum

    return Tensor(z, (weight, bias, *merge), grads)


def conv1d(
    x, weight: Tensor, bias: Tensor, *, length: int | None = None, merge: tuple[Tensor, Tensor] | None = None
) -> Tensor:
    """The model's two dense convolutions along the frame axis, each with a
    bias; ``weight`` is (Cout, Cin, k) and the kind of ``x`` picks the conv.

    A list of B records (rows_b, Cin) of any float dtype is the projection
    followed by the merge ``merge = (M, b_m)`` that comes after it, as one
    node. The projection is same-padded (k odd), stride 1, over ``length``
    frames (default: the most rows given) of which each record holds the
    first rows, the rest being zero; the merge M (Cout', Cout, f) has stride
    f, no padding, and ``length`` must be a multiple of f. A stride-f merge
    of a linear conv is one linear conv, of width k + f - 1 and stride f,
    with taps ``C_u = sum over t + m = u of W_t^T M_m^T`` (W_t = weight[:, :,
    t], M_m = M[:, :, m]) and bias ``b @ sum_m M_m^T + b_m``, so output row j
    is ``sum_u x[f*j + u - k//2] @ C_u`` plus that bias: half the
    projection's MACs for the paper's k = 3, f = 4. The output is (B,
    length/f, Cout'); no gradient flows to the records.

    Each record's real rows are cast to float64 ``CAST_BLOCK_ROWS`` at a time
    (rounded down to whole merge groups), into one block buffer that each
    pass allocates and reuses for every block. A block's rows of phase q = row
    mod f take one GEMM ``X_q @ C_q``, with ``C_q`` the taps that phase
    meets, stacked; output row j then adds row j + e of that product for
    each tap (see ``_phase_plan``), and taps that reach no real row add
    nothing. The backward pass scatters each record's upstream gradient into
    ``G_q`` by the same index map, casts the blocks again and sums ``dC_q =
    X_q^T @ G_q``; the gradients of the projection and the merge follow from
    small products of each dC_u with W_t and M_m. The node
    keeps the records, its four parameters and the index map: the folded
    taps are recomputed. No padded copy of a record is made and no float64
    copy of more than one block exists at a time, so the cast holds about
    1 MB.

    A Tensor (L, Cin) or (B, L, Cin), L a multiple of k, is a merge: stride
    k, no padding, so every input row meets one tap. Each sequence reshapes
    to ``X_r`` (L/k, k*Cin); the output is one GEMM ``X_r @ W_r`` with
    ``W_r`` the weight as (k*Cin, Cout), ``dX = g @ W_r.T`` reshaped back and
    ``dW = X_r.T @ g``.
    """
    w = weight.value
    if w.ndim != 3:
        raise ShapeError(f"conv1d: weight must be 3-D (Cout, Cin, k), got {w.shape}")
    cout, wcin, k = w.shape
    if bias.value.shape != (cout,):
        raise ShapeError(f"conv1d: bias shape {bias.value.shape} != ({cout},)")

    if isinstance(x, (list, tuple)):
        seqs = [np.asarray(r) for r in x]
        if not seqs or any(r.ndim != 2 or r.shape[1] != seqs[0].shape[1] for r in seqs):
            raise ShapeError("conv1d: expected a non-empty list of (rows, channels) records of one width")
        L, cin = max(r.shape[0] for r in seqs), seqs[0].shape[1]
        length = L if length is None else length
        if length < L:
            raise ShapeError(f"conv1d: length {length} is shorter than the {L} rows given")
        if wcin != cin or k % 2 == 0:
            raise ShapeError(f"conv1d: weight {w.shape} is not (Cout, {cin}, k), k odd")
        if merge is None:
            raise ShapeError("conv1d: a list of records takes the merge that follows the projection")
        return _projection_merge(seqs, weight, bias, merge, length)

    _require_frames(x, "conv1d")
    xv = x.value
    L, cin = xv.shape[-2:]
    if length is not None or merge is not None:
        raise ShapeError("conv1d: length and merge apply to a list of records only")
    if wcin != cin or L % k:
        raise ShapeError(f"conv1d: merge weight {w.shape} does not fit {L} frames of width {cin}")
    w_r = w.transpose(2, 1, 0).reshape(k * cin, cout)
    x_r = xv.reshape(-1, k * cin)
    y = (x_r @ w_r).reshape(xv.shape[:-2] + (L // k, cout)) + bias.value

    def grads(g):
        g2 = _rows(g)
        dw = (x_r.T @ g2).reshape(k, cin, cout).transpose(2, 1, 0)
        return (g2 @ w_r.T).reshape(xv.shape), dw, _col_sum(g)

    return Tensor(y, (x, weight, bias), grads)


# ---------------------------------------------------------------------------
# fused sublayers: one node each, keeping only what their backward reads


def msdw_sublayer(x: Tensor, gamma: Tensor, beta: Tensor, w7: Tensor, w1: Tensor) -> Tensor:
    """The MSDW token sublayer as one node: GELU(depthwise(LN(x))) + x.

    The conv is same-padded along the frame axis with ``w7`` (C, 1, k), k odd,
    plus the one-tap kernel ``w1`` (C, 1, 1) at its centre tap: the k=1 branch
    reads the same rows as the centre tap, so the two branches are one conv.
    The node keeps each row's μ and 1/σ, the pre-activation a = depthwise(z)
    and the GELU's tanh of a, which a transcendental or the conv made; its
    backward rebuilds x̂ from the value of ``x`` and z = x̂·γ + β from x̂.
    """
    _check_affine("msdw_sublayer", x, gamma, beta)
    xv, gv, bv = x.value, gamma.value, beta.value
    L, C = xv.shape[-2:]
    _check_depthwise("msdw_sublayer", w7.value, C)
    if w1.value.shape != (C, 1, 1):
        raise ShapeError(f"msdw_sublayer: one-tap weight {w1.value.shape} is not ({C}, 1, 1)")
    c = w7.value.shape[2] // 2
    kernel = w7.value.copy()
    kernel[:, :, c] += w1.value[:, :, 0]
    taps = _tap_slices(L, kernel.shape[2])
    xhat, mu, ivar = _ln_stats(xv)
    a = _depthwise(_affine(xhat, gv, bv), kernel, taps)
    del xhat
    t = _gelu_tanh(a)
    out = 0.5 * a * (1.0 + t) + xv

    def grads(g):
        da = g * _gelu_slope(a, t)
        xhat = _ln_xhat(xv, mu, ivar)
        dk = _depthwise_dw(da, _affine(xhat, gv, bv), kernel, taps)
        dx, dgamma, dbeta = _ln_grads(_depthwise(da, kernel[:, :, ::-1], taps[::-1]), xhat, ivar, gv)
        dx += g
        return dx, dgamma, dbeta, dk, dk[:, :, c : c + 1].copy()

    return Tensor(out, (x, gamma, beta, w7, w1), grads)


def geglu_sublayer(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    w3: Tensor,
    b3: Tensor,
    residual: bool,
) -> Tensor:
    """The GEGLU channel sublayer as one node: with z = LN(x),
    (GELU(z·w1 + b1) ⊙ (z·w2 + b2))·w3 + b3, plus x if ``residual``.

    ``w1`` and ``w2`` are (C, H), ``w3`` is (H, C). The node keeps each row's
    μ and 1/σ and the GELU's tanh of u1 = z·w1 + b1; its backward rebuilds x̂
    from the value of ``x``, then z, u1 and u2 = z·w2 + b2 with the forward's
    own two GEMMs, and the gated product from them. Each projection is its
    own GEMM: on OpenBLAS 0.3.31 (one thread, x86-64) a (6400, 8) x (8, 32)
    product took about 140 us against 30 us for an (8, 16) one, and its
    halves would be strided views, slower for every elementwise op after
    them.
    """
    _check_affine("geglu_sublayer", x, gamma, beta)
    xv, gv, bv = x.value, gamma.value, beta.value
    C = xv.shape[-1]
    H = w1.value.shape[-1]
    shapes = [t.value.shape for t in (w1, b1, w2, b2, w3, b3)]
    if shapes != [(C, H), (H,), (C, H), (H,), (H, C), (C,)]:
        raise ShapeError(f"geglu_sublayer: weights {shapes} do not fit {C} channels")
    w1v, w2v, w3v = w1.value, w2.value, w3.value

    def projections(xhat):
        """z (rows, C) from x̂, and u1 and u2."""
        z2 = _rows(_affine(xhat, gv, bv))
        return z2, z2 @ w1v + b1.value, z2 @ w2v + b2.value

    xhat, mu, ivar = _ln_stats(xv)
    _, u1, u2 = projections(xhat)
    del xhat
    t = _gelu_tanh(u1)
    out = ((0.5 * u1 * (1.0 + t) * u2) @ w3v).reshape(xv.shape) + b3.value
    if residual:
        out += xv

    def grads(g):
        g2 = _rows(g)
        xhat = _ln_xhat(xv, mu, ivar)
        z2, u1, u2 = projections(xhat)
        gate = 0.5 * u1
        gate *= 1.0 + t
        dw3 = (gate * u2).T @ g2
        dp = g2 @ w3v.T
        du2 = dp * gate
        del gate
        du1 = dp
        du1 *= u2
        del u2
        du1 *= _gelu_slope(u1, t)
        del u1
        dw1, dw2 = z2.T @ du1, z2.T @ du2
        del z2
        dz = du1 @ w1v.T
        dz += du2 @ w2v.T
        dx, dgamma, dbeta = _ln_grads(dz.reshape(xv.shape), xhat, ivar, gv)
        if residual:
            dx += g
        return dx, dgamma, dbeta, dw1, _col_sum(du1), dw2, _col_sum(du2), dw3, _col_sum(g2)

    return Tensor(out, (x, gamma, beta, w1, b1, w2, b2, w3, b3), grads)


# ---------------------------------------------------------------------------
# losses and verification


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(logits)[label], stable via max subtraction.

    ``logits`` is (B, classes) and ``labels`` holds one class per row (an
    int when B is 1); the output is 1x1. Backward is (softmax - onehot) / B.
    """
    _require_frames(logits, "cross_entropy")
    z = logits.value
    labels = np.atleast_1d(np.asarray(labels))
    if z.ndim != 2 or labels.shape != z.shape[:1]:
        raise ShapeError(
            f"cross_entropy: expected (B, classes) logits and B labels, got {z.shape} and {labels.shape}"
        )
    rows, n = z.shape
    labels = labels.astype(np.intp)
    outside = labels[(labels < 0) | (labels >= n)]
    if outside.size:
        raise ValueError(f"label {outside[0]} out of range for {n} classes")
    picked = np.arange(rows), labels
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1, keepdims=True)
    loss = ((m + np.log(total))[:, 0] - z[picked]).sum() / rows
    p = e / total

    def dz(g):
        d = p.copy()
        d[picked] -= 1.0
        return (d * (float(g.reshape(-1)[0]) / rows),)

    return Tensor([[loss]], (logits,), dz)


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` must rebuild its graph from the current values of ``params`` on
    every call and return a scalar (1x1) Tensor. Returns the max over every
    coordinate of ``params`` of |g_ad - g_fd| / max(1, |g_ad|, |g_fd|), with
    differences taken at a step of ``FD_STEP``.
    """
    params = list(params)
    loss = f()
    if loss.value.size != 1:
        raise ShapeError(f"grad_check: loss must be scalar, got shape {loss.value.shape}")
    if not np.isfinite(loss.value).all():
        raise NumericError("grad_check: non-finite loss at the base point")
    for p in params:
        p.grad = None
    loss.backward()
    grads = [
        np.zeros_like(p.value) if p.grad is None else np.array(p.grad, dtype=np.float64)
        for p in params
    ]

    worst = 0.0
    for p, ga in zip(params, grads):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + FD_STEP
            fp = float(f().value.reshape(-1)[0])
            flat[ci] = orig - FD_STEP
            fm = float(f().value.reshape(-1)[0])
            flat[ci] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError(f"grad_check: non-finite loss at perturbed coordinate {ci}")
            fd = (fp - fm) / (2.0 * FD_STEP)
            ad = float(gflat[ci])
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            if err > worst:
                worst = err
    return worst

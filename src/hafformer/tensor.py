"""Reverse-mode autodiff over dense 2-D frame matrices.

Activations are (frames x channels) float64 arrays; ``Model.forward`` casts
its float32 input once. Parameters may be 1-D (biases, norm affines) or 3-D
(conv kernels); a gradient always has the shape of its value. Each primitive
returns a new graph node carrying one vector-Jacobian closure per parent;
``Tensor.backward`` visits every node exactly once in reverse topological
order, parents in declaration order, so gradient accumulation is
bit-deterministic. No primitive mutates its inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

GELU_TANH_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_TANH_C1 = 0.044715
LN_EPS = 1e-5  # added to the variance in every layer norm


class Tensor:
    """One node of the computation graph.

    Leaves (``parents == ()``) are parameters or data; interior nodes hold
    the values produced by a primitive plus the closures that map an
    upstream gradient to each parent's gradient. ``grad`` accumulates
    across backward calls until it is reset to None (this is how per-sample
    gradients are summed over a batch).
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=None):
        arr = np.asarray(value)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.value = arr
        self.grad = None
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        if requires_grad is None:
            requires_grad = True if not self.parents else any(
                p.requires_grad for p in self.parents
            )
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def backward(self, seed=None):
        """Accumulate d(self)/d(node) into ``grad`` over the whole graph.

        ``seed`` is the upstream gradient of ``self`` (scalar or an array of
        the same shape, default ones). One call per freshly built graph;
        leaf grads persist across calls so batches can accumulate.
        """
        if not self.requires_grad:
            return
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
        for node in reversed(order):
            g = node.grad
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.requires_grad:
                    continue
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib

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
            if id(parent) not in seen and parent.requires_grad:
                seen.add(id(parent))
                stack.append((parent, iter(parent.parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def _require_2d(t: Tensor, op: str) -> None:
    if t.value.ndim != 2:
        raise ShapeError(f"{op}: expected 2-D operand, got shape {t.value.shape}")


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    return Tensor(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias addition: (L, C) + (C,)."""
    _require_2d(x, "add_bias")
    if bias.value.shape != (x.value.shape[1],):
        raise ShapeError(
            f"add_bias: bias shape {bias.value.shape} does not match columns of {x.value.shape}"
        )
    return Tensor(x.value + bias.value, (x, bias), (lambda g: g, lambda g: g.sum(axis=0)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    av, bv = a.value, b.value
    return Tensor(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(x.value * c, (x,), (lambda g: g * c,))


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    return Tensor(x.value.T, (x,), (lambda g: g.T,))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries as a 1x1 matrix (scalar loss helper)."""
    v = x.value
    return Tensor([[v.sum()]], (x,), (lambda g: np.full_like(v, g[0, 0]),))


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU: 0.5*x*(1 + tanh(c0*(x + c1*x^3))).

    The cube is ``v * v * v``: numpy sends ``v**3`` to libm ``pow``, which
    made the whole kernel about four times slower on the model's 800x16
    blocks.
    """
    v = x.value
    u = GELU_TANH_C0 * (v + GELU_TANH_C1 * (v * v * v))
    t = np.tanh(u)
    out = 0.5 * v * (1.0 + t)

    def dx(g):
        du = GELU_TANH_C0 * (1.0 + 3.0 * GELU_TANH_C1 * v * v)
        return g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)

    return Tensor(out, (x,), (dx,))


# ---------------------------------------------------------------------------
# normalization / attention helpers


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row standardization across channels, then affine gamma/beta.

    Two-pass: each row is centred once and the variance is the mean square
    of the centred row, which ``xhat`` reuses. E[x^2] - mean^2 would lose
    every digit on rows far from zero.
    """
    _require_2d(x, "layer_norm")
    cols = x.value.shape[1]
    if gamma.value.shape != (cols,) or beta.value.shape != (cols,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.value.shape}/{beta.value.shape} "
            f"do not match {cols} channels"
        )
    v = x.value
    xc = v - v.mean(axis=1, keepdims=True)
    ivar = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + LN_EPS)
    xhat = xc * ivar
    out = xhat * gamma.value + beta.value

    def dx(g):
        gg = g * gamma.value
        # d xhat -> d x with mean/variance coupling folded in
        return ivar * (
            gg
            - gg.mean(axis=1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=1, keepdims=True)
        )

    return Tensor(
        out,
        (x, gamma, beta),
        (dx, lambda g: (g * xhat).sum(axis=0), lambda g: g.sum(axis=0)),
    )


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable per-row softmax (max subtraction)."""
    _require_2d(x, "softmax_rows")
    v = x.value
    e = np.exp(v - v.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def dx(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return out * (g - dot)

    return Tensor(out, (x,), (dx,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    return Tensor(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


# ---------------------------------------------------------------------------
# temporal / channel pooling


def _window_sums(v: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded sliding sums over rows with radius ``half`` + true counts."""
    L = v.shape[0]
    csum = np.zeros((L + 1,) + v.shape[1:], dtype=v.dtype)
    np.cumsum(v, axis=0, out=csum[1:])
    idx = np.arange(L)
    hi = np.minimum(idx + half + 1, L)
    lo = np.maximum(idx - half, 0)
    return csum[hi] - csum[lo], (hi - lo).astype(v.dtype)


def _check_pool_kernel(k: int, op: str) -> int:
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"{op}: kernel must be odd and >= 1, got {k}")
    return k // 2


def avg_pool_time(x: Tensor, k: int = 3) -> Tensor:
    """Sliding mean along the frame axis, stride 1, same padding.

    Boundary windows are normalized by the number of in-range frames, so
    constant sequences are preserved exactly.
    """
    _require_2d(x, "avg_pool_time")
    half = _check_pool_kernel(k, "avg_pool_time")
    sums, counts = _window_sums(x.value, half)
    out = sums / counts[:, None]

    def dx(g):
        return _window_sums(g / counts[:, None], half)[0]

    return Tensor(out, (x,), (dx,))


def avg_pool_channels(x: Tensor, k: int = 3) -> Tensor:
    """Sliding mean along the channel axis, stride 1, same padding."""
    _require_2d(x, "avg_pool_channels")
    half = _check_pool_kernel(k, "avg_pool_channels")
    sums, counts = _window_sums(x.value.T, half)
    out = (sums / counts[:, None]).T

    def dx(g):
        return _window_sums(g.T / counts[:, None], half)[0].T

    return Tensor(out, (x,), (dx,))


def mean_pool_time(x: Tensor) -> Tensor:
    """Per-channel temporal mean, (L, C) -> (1, C)."""
    _require_2d(x, "mean_pool_time")
    L = x.value.shape[0]
    out = x.value.mean(axis=0, keepdims=True)

    def dx(g):
        return np.repeat(g / L, L, axis=0)

    return Tensor(out, (x,), (dx,))


# ---------------------------------------------------------------------------
# temporal convolution


def _tap_slices(L: int, lout: int, k: int, stride: int, padding: int):
    """Per tap ``t``, the output rows and input rows it pairs, skipping padding.

    Output row ``i`` reads input row ``i*stride + t - padding``; the pairs
    whose input row lies inside ``[0, L)`` are ``out[i_lo:i_hi]`` and
    ``inp[r_lo:r_hi:stride]``. Taps that reach no input row are left out.
    """
    taps = []
    for t in range(k):
        i_lo = max(0, -((t - padding) // stride))  # ceil((padding - t) / stride)
        i_hi = min(lout, (L - 1 - t + padding) // stride + 1)
        if i_hi > i_lo:
            r_lo = i_lo * stride + t - padding
            r_hi = (i_hi - 1) * stride + t - padding + 1
            taps.append((t, slice(i_lo, i_hi), slice(r_lo, r_hi, stride)))
    return taps


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    length: int | None = None,
) -> Tensor:
    """Temporal convolution along the frame axis with zero padding.

    ``x`` is (rows, Cin) and holds the first rows of an input of ``length``
    frames (default: ``rows``) whose other rows are zero; ``weight`` is
    (Cout, Cin/groups, k). The output has floor((length + 2p - k)/s) + 1
    frames, and the gradient with respect to ``x`` has the rows of ``x``:
    the zero tail is never materialized, and no product is taken with it.
    Two groupings are supported: dense (groups == 1) and depthwise
    (groups == Cin == Cout, one input channel per group); any other
    grouping raises ``ConfigError``.

    Dense merge (k == stride, no padding; the model's downsampling): every
    input row meets exactly one tap, so the first lout*k rows reshape to
    ``X_r`` (lout, k*Cin) and the output is one GEMM ``X_r @ W_r`` with
    ``W_r`` the weight laid out as (k*Cin, Cout); ``dX = g @ W_r.T``
    reshaped back (trailing frames that no window reaches get zeros) and
    ``dW = X_r.T @ g``. Nothing is computed for taps that are not used.
    Taken only when ``length`` is the rows of ``x``.

    Other dense convs (the projection): one GEMM of the input against all
    taps at once, ``P.T = W_cat.T @ X.T`` with ``W_cat.T`` the weight laid
    out as (k*Cout, Cin), then a strided shift-add: output row i sums
    ``P[i*s + t - p, tap t]`` over the taps t whose input row is one of the
    rows of ``x``; output rows that reach none of them are the bias. For
    the skinny float64 projection (Cin = 1024, k*Cout = 24) this
    orientation of the GEMM is the faster one. The backward pass scatters
    the upstream gradient once into ``G_cat`` (rows, k*Cout) with the
    same index map, then ``dW = G_cat.T @ X`` (again the faster
    orientation) and ``dX = G_cat @ W_cat.T``. No padded copy of the input
    is made. Depthwise: the same index map, one scaled add per tap.
    """
    _require_2d(x, "conv1d")
    w = weight.value
    if w.ndim != 3:
        raise ShapeError(f"conv1d: weight must be 3-D (Cout, Cin/groups, k), got {w.shape}")
    L, cin = x.value.shape
    length = L if length is None else length
    if length < L:
        raise ShapeError(f"conv1d: length {length} is shorter than the {L} rows given")
    cout, cpg, k = w.shape
    if stride < 1:
        raise ConfigError(f"conv1d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"conv1d: padding must be >= 0, got {padding}")
    depthwise = groups != 1
    if depthwise and not groups == cin == cout:
        raise ConfigError(
            f"conv1d: groups={groups} with channels {cin} -> {cout}; only dense "
            "(groups=1) and depthwise (groups=Cin=Cout) convolutions are supported"
        )
    if cpg != cin // groups:
        raise ShapeError(
            f"conv1d: weight {w.shape} does not match {cin} input channels with groups={groups}"
        )
    if k > length + 2 * padding:
        raise ConfigError(f"conv1d: kernel {k} exceeds padded length {length + 2 * padding}")
    if bias is not None and bias.value.shape != (cout,):
        raise ShapeError(f"conv1d: bias shape {bias.value.shape} != ({cout},)")

    xv = x.value
    lout = (length + 2 * padding - k) // stride + 1
    taps = _tap_slices(L, lout, k, stride, padding)

    if depthwise:
        y = np.zeros((lout, cout), dtype=xv.dtype)
        for t, out_rows, in_rows in taps:
            y[out_rows] += xv[in_rows] * w[:, 0, t]

        def dx(g):
            gx = np.zeros_like(xv)
            for t, out_rows, in_rows in taps:
                gx[in_rows] += g[out_rows] * w[:, 0, t]
            return gx

        def dw(g):
            gw = np.zeros_like(w)
            for t, out_rows, in_rows in taps:
                gw[:, 0, t] = (g[out_rows] * xv[in_rows]).sum(axis=0)
            return gw

    elif k == stride and padding == 0 and length == L:
        n = lout * k
        w_r = w.transpose(2, 1, 0).reshape(k * cin, cout)
        x_r = xv[:n].reshape(lout, k * cin)
        y = x_r @ w_r

        def dx(g):
            gx = (g @ w_r.T).reshape(n, cin)
            if n < L:
                gx = np.concatenate([gx, np.zeros((L - n, cin), dtype=gx.dtype)])
            return gx

        def dw(g):
            return (x_r.T @ g).reshape(k, cin, cout).transpose(2, 1, 0)

    else:
        w_cat_t = w.transpose(2, 0, 1).reshape(k * cout, cin)
        p_t = (w_cat_t @ xv.T).reshape(k, cout, L)
        y = np.zeros((lout, cout), dtype=xv.dtype)
        for t, out_rows, in_rows in taps:
            y[out_rows] += p_t[t, :, in_rows].T

        def scatter(g):
            g_cat = np.zeros((L, k, cout), dtype=g.dtype)
            for t, out_rows, in_rows in taps:
                g_cat[in_rows, t] = g[out_rows]
            return g_cat.reshape(L, k * cout)

        def dx(g):
            return scatter(g) @ w_cat_t

        def dw(g):
            # (k*Cout, Cin) -> (Cout, Cin, k); G_cat.T @ X is the faster orientation
            return (scatter(g).T @ xv).reshape(k, cout, cin).transpose(1, 2, 0)

    if bias is not None:
        y = y + bias.value

    if bias is None:
        return Tensor(y, (x, weight), (dx, dw))
    return Tensor(y, (x, weight, bias), (dx, dw, lambda g: g.sum(axis=0)))


# ---------------------------------------------------------------------------
# losses and verification


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], stable via max subtraction; 1x1 output.

    Backward is softmax - onehot.
    """
    _require_2d(logits, "cross_entropy")
    if logits.value.shape[0] != 1:
        raise ShapeError(f"cross_entropy: expected a 1xN row, got {logits.value.shape}")
    n = logits.value.shape[1]
    label = int(label)
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} classes")
    z = logits.value[0]
    m = z.max()
    e = np.exp(z - m)
    total = e.sum()
    loss = (m + np.log(total)) - z[label]
    p = e / total

    def dz(g):
        d = p.copy()
        d[label] -= 1.0
        return float(g.reshape(-1)[0]) * d[None, :]

    return Tensor([[loss]], (logits,), (dz,))


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    coord_limit: int | None = None,
    seed: int = 0,
) -> float:
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` must rebuild its graph from the current values of ``params`` on
    every call and return a scalar (1x1) Tensor. Returns the max over
    checked coordinates of |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    ``coord_limit`` optionally caps coordinates per tensor (deterministic
    subsample) for large models.
    """
    if h <= 0:
        raise ConfigError(f"grad_check: step must be positive, got {h}")
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

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, grads):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        if coord_limit is not None and flat.size > coord_limit:
            coords = sorted(rng.choice(flat.size, size=coord_limit, replace=False).tolist())
        else:
            coords = range(flat.size)
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + h
            fp = float(f().value.reshape(-1)[0])
            flat[ci] = orig - h
            fm = float(f().value.reshape(-1)[0])
            flat[ci] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError(f"grad_check: non-finite loss at perturbed coordinate {ci}")
            fd = (fp - fm) / (2.0 * h)
            ad = float(gflat[ci])
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            if err > worst:
                worst = err
    return worst

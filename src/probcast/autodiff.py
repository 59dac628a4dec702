"""Reverse-mode automatic differentiation over numpy arrays.

Deliberately minimal: exactly the operations the forecast network needs.
A Tensor holds its ndarray and, when a gradient can flow to it, a small
graph node: the gradient slot, the dtype, the parents' nodes and a
vector-Jacobian closure. A node links to its parents' nodes, never to their
tensors, and each closure captures only the arrays its vjp reads, so an op
output is freed as soon as no name and no closure holds it. backward() walks
the nodes once in reverse topological order; each interior node (one made
by an op) drops its gradient, its closure and its parent links once its vjp
has run. Only leaves (parameters and inputs) keep .grad, and a second
backward on the same graph raises.

Inside ``with no_grad():`` ops record no node at all, so inference builds no
graph and each intermediate dies once the next op has read it.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

PROB_FLOOR = 1e-12  # probability floor applied before logs in the CE loss
LAYER_NORM_EPS = 1e-5  # added to each sample's variance in layer_norm


class _Mode(threading.local):
    recording = True  # False inside no_grad() on this thread: ops give outputs no node


_mode = _Mode()


@contextlib.contextmanager
def no_grad():
    """Ops this thread runs inside record no graph; backward on their outputs raises."""
    previous, _mode.recording = _mode.recording, False
    try:
        yield
    finally:
        _mode.recording = previous


class _Node:
    """What backward needs of one tensor; its array stays with the Tensor."""

    __slots__ = ("grad", "dtype", "parents", "vjp", "consumed")

    def __init__(self, dtype, parents, vjp):
        self.grad = None
        self.dtype = dtype
        self.parents = parents  # parents' nodes, None for a constant parent
        self.vjp = vjp
        self.consumed = False


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        parents = tuple(p._node for p in _parents) if _mode.recording else ()
        if requires_grad or any(n is not None for n in parents):
            self._node = _Node(self.data.dtype, parents, _vjp if parents else None)
        else:
            self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise RuntimeError("this tensor records no gradient")

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node.parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, fn):
        if self._node is None:
            raise RuntimeError("this tensor records no graph")
        self._node.vjp = fn

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, " \
               f"requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf's .grad.

        Interior nodes end with grad None and no parents: each drops both
        as soon as its vjp has passed the gradient on.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        root = self._node
        if root is None:
            raise RuntimeError("backward on a tensor with no graph: it was made "
                               "under no_grad() or from constants only")
        if root.consumed:
            raise RuntimeError("backward already called on this graph; re-run forward")

        topo: list[_Node] = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

        root.grad = np.ones_like(self.data)
        while topo:  # popped, so a spent node is freed unless a tensor holds it
            node = topo.pop()
            if node.vjp is not None:
                if node.grad is not None:
                    _accumulate(node.parents, node.vjp(node.grad))
                node.grad = None
                node.parents = ()
                node.vjp = None
            node.consumed = True


def _accumulate(parents, grads):
    """Add each vjp output into its parent node's .grad (a new array, never in place).

    A function of its own, so no spent gradient outlives the call in a loop
    variable while the next vjp runs.
    """
    for parent, g in zip(parents, grads):
        if g is None or parent is None:
            continue
        if g.dtype != parent.dtype:
            g = g.astype(parent.dtype)
        if parent.grad is None:
            parent.grad = g
        else:
            parent.grad = parent.grad + g


def _into(op, a: np.ndarray, b) -> np.ndarray:
    """op(a, b), written into a when that keeps op's result dtype.

    For a temporary a of the broadcast shape, the values are op(a, b)'s bit
    for bit; only the second full-size array is saved.
    """
    if a.dtype == np.result_type(a, b):
        return op(a, b, out=a)
    return op(a, b)


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (the skip connection)."""
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch {x.data.shape} vs {y.data.shape}")
    return Tensor(x.data + y.data, _parents=(x, y), _vjp=lambda g: (g, g))


def square(x: Tensor) -> Tensor:
    xd = x.data
    return Tensor(xd ** 2, _parents=(x,), _vjp=lambda g: (2.0 * xd * g,))


def tensor_sum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(dtype=np.float64))
    shape = x.data.shape
    return Tensor(out, _parents=(x,),
                  _vjp=lambda g: (np.broadcast_to(g, shape).copy(),))


def _slope_times(pos: np.ndarray, alpha: float, v: np.ndarray) -> np.ndarray:
    """v * {1 where pos, alpha elsewhere}, bit for bit np.where(pos, v, alpha*v).

    A multiply by the slope instead of a per-element select: v*1 is v and
    v*alpha is alpha*v exactly (±0, ±inf, NaN and subnormals included), and
    the slope array itself becomes the result, so no second temporary is made.
    """
    slope = np.multiply(~pos, np.asarray(alpha, dtype=np.result_type(v, alpha)))
    slope += pos
    slope *= v
    return slope


def leaky_relu(x: Tensor, alpha: float = 0.3) -> Tensor:
    """y = x for x >= 0 else alpha*x; the slope at exactly 0 is 1."""
    pos = x.data >= 0
    return Tensor(_slope_times(pos, alpha, x.data), _parents=(x,),
                  _vjp=lambda g: (_slope_times(pos, alpha, g),))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); rate 0 is identity.

    The graph keeps the bool keep mask; the vjp rebuilds the scaled mask
    from it, with the same values as the forward's. The uniforms are drawn
    one leading-axis sample at a time into one reused buffer: the same
    values, in the same order, as one draw of the whole shape.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("enabled dropout needs an rng stream")
    keep = np.empty(x.data.shape, dtype=bool)
    rows = keep.reshape(len(keep) if keep.ndim > 1 else 1, -1)  # a view, one sample a row
    u = np.empty(rows.shape[1])  # one sample's f64 uniforms, in whole-array draw order
    for row in rows:
        np.greater_equal(rng.random(out=u), rate, out=row)
    dt = x.data.dtype
    scale = np.asarray(1.0 / (1.0 - rate), dtype=dt)
    out = keep.astype(dt)
    out *= scale
    out *= x.data  # (keep * scale) * x: the same products as x * (keep * scale)
    return Tensor(out, _parents=(x,), _vjp=lambda g: (g * (keep.astype(dt) * scale),))


def _pad_periodic(x: np.ndarray, p: int) -> np.ndarray:
    """Wrap-pad the longitude axis, zero-pad the latitude axis of (B,C,H,W).

    conv2d pads one sample at a time into this layout; the batched form is
    kept as the reference whose adjoint _fold_periodic is.
    """
    if p == 0:
        return x
    xw = np.concatenate([x[..., -p:], x, x[..., :p]], axis=-1)
    zeros = np.zeros(xw.shape[:2] + (p, xw.shape[3]), dtype=x.dtype)
    return np.concatenate([zeros, xw, zeros], axis=2)


def _fold_periodic(xpad: np.ndarray, p: int) -> np.ndarray:
    """Adjoint of _pad_periodic: add the wrapped columns back, drop the latitude pad."""
    H, W = xpad.shape[-2] - 2 * p, xpad.shape[-1] - 2 * p
    x = xpad[..., p:p + H, p:p + W].copy()
    x[..., :p] += xpad[..., p:p + H, p + W:]
    x[..., W - p:] += xpad[..., p:p + H, :p]
    return x


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-size 2-D convolution, periodic in longitude and zero-padded in latitude.

    x: (B, C_in, H, W); w: (C_out, C_in, k, k) with k odd; b: (C_out,).
    """
    B, C, H, W = x.data.shape
    C_out, C_in, k, k2 = w.data.shape
    if k != k2 or k % 2 == 0:
        raise ValueError("kernel must be square with odd size")
    if C_in != C:
        raise ValueError(f"channel mismatch: input {C}, kernel expects {C_in}")
    p = k // 2
    if p > W:
        raise ValueError("kernel too wide for the longitude dimension")

    # im2col one sample at a time: each sample is padded into one reused
    # (C, H+2p, W+2p) buffer, whose latitude border stays zero, and its
    # (C*k*k, H*W) columns are copied into one reused buffer, so no batch-sized
    # padded input or column tensor is built or kept in the graph; the backward
    # forms dw and dx from the same samples. Per sample, every matmul, einsum
    # and col2im makes the same BLAS call and the same float adds, in the same
    # order, as their batched forms.
    xd, w_shape, needs_dx = x.data, w.data.shape, x.requires_grad

    def sample_columns():
        xpad = np.zeros((C, H + 2 * p, W + 2 * p), dtype=xd.dtype)
        rows = xpad[:, p:p + H]
        win = np.lib.stride_tricks.sliding_window_view(xpad, (k, k), axis=(1, 2))
        win = win.transpose(0, 3, 4, 1, 2)  # (C, k, k, H, W), a strided view
        buf = np.empty((C * k * k, H * W), dtype=xd.dtype)
        buf5 = buf.reshape(C, k, k, H, W)
        for i in range(B):
            rows[..., p:p + W] = xd[i]
            rows[..., :p] = rows[..., W:W + p]  # wrap in longitude
            rows[..., p + W:] = rows[..., p:2 * p]
            np.copyto(buf5, win)
            yield i, buf

    w2 = w.data.reshape(C_out, C * k * k)
    out = np.empty((B, C_out, H * W), dtype=np.result_type(w2, xd))
    for i, cols in sample_columns():
        np.matmul(w2, cols, out=out[i])
    out = _into(np.add, out, b.data[:, None]).reshape(B, C_out, H, W)

    def vjp(g):
        gflat = g.reshape(B, C_out, H * W)
        dw = np.zeros((C_out, C * k * k), dtype=np.result_type(gflat, xd))
        dx = np.empty(xd.shape, dtype=xd.dtype) if needs_dx else None
        d6 = np.empty((C, k, k, H, W), dtype=np.result_type(w2, gflat))
        dxpad = np.empty((C, H + 2 * p, W + 2 * p), dtype=xd.dtype)
        col2im = [(dxpad[:, di:di + H, dj:dj + W], d6[:, di, dj])  # views, sliced once per call
                  for di in range(k) for dj in range(k)]
        for i, cols in sample_columns():
            dw += np.einsum("ij,kj->ik", gflat[i], cols)
            if dx is not None:
                np.matmul(w2.T, gflat[i], out=d6.reshape(C * k * k, H * W))
                dxpad.fill(0)
                for window, dcol in col2im:
                    window += dcol
                dx[i] = _fold_periodic(dxpad, p)
        return dx, dw.reshape(w_shape), gflat.sum(axis=(0, 2))

    return Tensor(out, _parents=(x, w, b), _vjp=vjp)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map for row features: (M, F) @ (F, U) + (U,)."""
    xd, wd, needs_dx = x.data, w.data, x.requires_grad
    out = _into(np.add, xd @ wd, b.data)

    def vjp(g):
        dx = g @ wd.T if needs_dx else None
        return dx, xd.T @ g, g.sum(axis=0)

    return Tensor(out, _parents=(x, w, b), _vjp=vjp)


def softmax_array(z: np.ndarray, axis: int = 1, out=None) -> np.ndarray:
    """Stable softmax of a plain array, computed in one array (out when given).

    out may be z itself. Along the last axis, for rows of at most 16, the max
    is an np.maximum fold over the columns: numpy reduces the last axis one row
    at a time, 2-12 times slower than the fold for rows of ten bins. The fold
    makes one strided pass per column, so for longer rows (the paper's 100
    bins) z.max is the faster one, as it is along an outer axis, where it
    already folds contiguous lanes. The fold can differ from z.max only in the
    sign of a zero max, and exp(±0) = 1 either way.
    """
    if axis in (-1, z.ndim - 1) and z.shape[-1] <= 16:
        zmax = z[..., :1].copy()
        for j in range(1, z.shape[-1]):
            np.maximum(zmax, z[..., j:j + 1], out=zmax)
    else:
        zmax = z.max(axis=axis, keepdims=True)
    e = np.subtract(z, zmax, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable softmax along one axis."""
    probs = softmax_array(x.data, axis)

    def vjp(g):
        inner = (g * probs).sum(axis=axis, keepdims=True)
        return (probs * (g - inner),)

    return Tensor(probs, _parents=(x,), _vjp=vjp)


def sparse_categorical_cross_entropy(probs: Tensor, true_bins: np.ndarray) -> Tensor:
    """Mean of -log p(true bin), with p floored at PROB_FLOOR before the log.

    Bins lie on axis 1 of probs; true_bins has probs' shape without that axis.
    """
    bin_axis = 1
    bins = np.asarray(true_bins)
    pd = probs.data  # the vjp reads its dtype and layout; softmax's vjp keeps it anyway
    n_bins = pd.shape[bin_axis]
    if bins.min() < 0 or bins.max() >= n_bins:
        raise ValueError(f"bin index out of range [0, {n_bins})")
    take = np.expand_dims(bins, bin_axis)
    p_true = np.take_along_axis(pd, take, axis=bin_axis)
    floored = np.maximum(p_true, PROB_FLOOR)
    n = p_true.size
    loss = np.asarray(-np.log(floored, dtype=np.float64).sum() / n)

    def vjp(g):
        local = np.where(p_true >= PROB_FLOOR, -1.0 / floored, 0.0) * (float(g) / n)
        dprobs = np.zeros_like(pd)
        np.put_along_axis(dprobs, take, local.astype(pd.dtype), axis=bin_axis)
        return (dprobs,)

    return Tensor(loss, _parents=(probs,), _vjp=vjp)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared difference against a constant target."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if pred.data.shape != t.shape:
        raise ValueError(f"mse shape mismatch {pred.data.shape} vs {t.shape}")
    diff = pred.data - t
    n = diff.size
    loss = np.asarray((diff.astype(np.float64) ** 2).sum() / n)
    return Tensor(loss, _parents=(pred,),
                  _vjp=lambda g: ((2.0 * float(g) / n) * diff,))


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, mu: np.ndarray,
               var: np.ndarray, eps: float, stat_axes: tuple | None) -> Tensor:
    """(x - mu) / sqrt(var + eps), then scale/shift per channel of (B, C, H, W).

    mu and var are x's statistics over stat_axes, which the backward pass
    differentiates through, or constants when stat_axes is None. Two
    full-size arrays are made: x-hat, which the vjp keeps, and the output.
    """
    inv = 1.0 / np.sqrt(var + eps)
    xhat = _into(np.multiply, x.data - mu, inv)
    ga = gamma.data.reshape(1, -1, 1, 1)
    out = _into(np.add, ga * xhat, beta.data.reshape(1, -1, 1, 1))
    needs_dx = x.requires_grad

    def vjp(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dx = None
        if needs_dx:
            dxhat = g * ga
            if stat_axes is None:
                dx = dxhat * inv
            else:
                term = (dxhat - dxhat.mean(axis=stat_axes, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=stat_axes, keepdims=True))
                dx = inv * term
        return dx, dgamma, dbeta

    return Tensor(out, _parents=(x, gamma, beta), _vjp=vjp)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray,
               var: np.ndarray, eps: float = 1e-5, stats_from_batch: bool = True) -> Tensor:
    """Per-channel normalization of (B, C, H, W).

    With stats_from_batch the supplied mean/var must be the batch statistics
    of x (the backward pass differentiates through them); otherwise they are
    treated as constants (inference with running statistics).
    """
    return _normalize(x, gamma, beta, mean.reshape(1, -1, 1, 1),
                      var.reshape(1, -1, 1, 1), eps,
                      (0, 2, 3) if stats_from_batch else None)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each sample over (C, H, W), then scale/shift per channel."""
    axes = (1, 2, 3)
    return _normalize(x, gamma, beta, x.data.mean(axis=axes, keepdims=True),
                      x.data.var(axis=axes, keepdims=True), LAYER_NORM_EPS, axes)

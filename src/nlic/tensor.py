"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Covers exactly the operator set the codec networks need: 2-D (transposed,
masked) convolutions, a handful of elementwise nonlinearities, grouped
channel softmax, reductions and shape plumbing. A dynamic graph is recorded
per forward pass; ``backward()`` on a scalar loss walks it once in reverse
topological order and then releases it, so a second backward without a new
forward raises.

Each op hands ``_make`` one edge per input: the input and its
vector-Jacobian product (VJP), a function from the output's gradient to
that input's gradient before unbroadcasting. ``_make`` keeps only the
edges whose input requires grad, so no gradient is ever computed for a
constant. ``Tensor.backward`` alone unbroadcasts and accumulates.

Inside ``no_grad()`` ops record no graph: outputs have ``requires_grad``
False and no parents, so inference runs the same ops as training without
keeping the VJPs and their inputs alive.

Tensors are treated as immutable once created. A graph and its tensors are
confined to a single thread; independent graphs may run concurrently.
``no_grad`` is a context variable, so entering it in one thread (or asyncio
task) leaves recording on in every other.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from .errors import ConfigError, ContractViolation

LEAKY_SLOPE = 0.2
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# False inside no_grad(); read by _make
_grad_enabled = contextvars.ContextVar("nlic_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph for ops run in this context (thread or asyncio task).

    Outputs carry the same data as with recording on, but requires_grad is
    False and they keep no parents or backward closure. Nests, and restores
    the previous state on exit.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    `data` is row-major and never mutated after construction; `grad` is
    allocated lazily by `backward()` for tensors with `requires_grad`.
    An op's output keeps in `_parents` the inputs that require grad, and in
    `_backward` their VJPs, aligned with `_parents`; a leaf, a constant and
    any output under `no_grad` have `_parents == ()` and `_backward` None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_released")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._released = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Populate grads of all requires_grad leaves reachable from this scalar.

        Op records are released as they are used, so a second backward()
        through the same recorded graph raises. A root without op records
        (a leaf, or a result of inputs that need no grad) has nothing to
        release: backward() on it again sets its grad to one again.
        """
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        if self._released:
            raise ContractViolation("backward() called twice on the same graph")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            # a leaf has no op record and stays usable in later graphs
            if not node._parents:
                continue
            for parent, vjp in zip(node._parents, node._backward):
                g = _unbroadcast(vjp(node.grad), parent.data.shape)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g
            # release the op record so a stale second backward is refused
            node._backward = None
            node._parents = ()
            node._released = True


def _topo_order(root: Tensor):
    """Topologically ordered op records of the graph below `root`.

    Iterative DFS; each node is visited exactly once (the graph is acyclic
    by construction since tensors are immutable).
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._released:
            raise ContractViolation("graph was already consumed by a prior backward()")
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, *edges) -> Tensor:
    """Output tensor of an op; each edge is (input, vjp). Records the edges
    whose input requires grad, unless recording is off."""
    out = Tensor(data)
    if _grad_enabled.get():
        edges = [(t, vjp) for t, vjp in edges if t.requires_grad]
        if edges:
            out.requires_grad = True
            out._parents, out._backward = zip(*edges)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.data / b.data, (a, lambda g: g / b.data),
                 (b, lambda g: -g * a.data / (b.data * b.data)))


def leaky_relu(t: Tensor) -> Tensor:
    """Leaky ReLU with the fixed negative slope 0.2."""
    t = _as_tensor(t)
    data = np.where(t.data >= 0, t.data, LEAKY_SLOPE * t.data)
    return _make(data, (t, lambda g: g * np.where(t.data >= 0, 1.0, LEAKY_SLOPE)))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in the stable two-sided form."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = _logistic(t.data)
    return _make(data, (t, lambda g: g * data * (1.0 - data)))


def tanh(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.tanh(t.data)
    return _make(data, (t, lambda g: g * (1.0 - data * data)))


def exp(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.exp(t.data)
    return _make(data, (t, lambda g: g * data))


def log(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    return _make(np.log(t.data), (t, lambda g: g / t.data))


def softplus(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    return _make(np.logaddexp(0.0, t.data), (t, lambda g: g * _logistic(t.data)))


def square(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    return _make(t.data * t.data, (t, lambda g: g * 2.0 * t.data))


def normal_cdf(t: Tensor) -> Tensor:
    """Standard normal cumulative Phi(x); backward is the normal pdf."""
    t = _as_tensor(t)
    return _make(ndtr(t.data),
                 (t, lambda g: g * _INV_SQRT_2PI * np.exp(-0.5 * t.data * t.data)))


def clamp_min(t: Tensor, bound: float) -> Tensor:
    """max(t, bound) with a one-sided gradient.

    Below the bound the gradient only passes when it points back above the
    bound (g < 0 under minimization), so clipped values can recover instead
    of going silent.
    """
    t = _as_tensor(t)
    return _make(np.maximum(t.data, bound), (t, lambda g: g * ((t.data >= bound) | (g < 0))))


# ---------------------------------------------------------------------------
# reductions, shape ops
# ---------------------------------------------------------------------------


def reduce_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, t.data.shape)

    return _make(t.data.sum(axis=axis, keepdims=keepdims), (t, vjp))


def mean(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size
    return _make(np.asarray(t.data.mean()), (t, lambda g: np.broadcast_to(g / n, t.data.shape)))


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    return _make(t.data.reshape(shape), (t, lambda g: g.reshape(t.data.shape)))


def transpose(t: Tensor, axes) -> Tensor:
    t = _as_tensor(t)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(np.ascontiguousarray(t.data.transpose(axes)),
                 (t, lambda g: g.transpose(inverse)))


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    edges, lo = [], 0
    for t in tensors:
        idx = [slice(None)] * data.ndim
        idx[axis] = slice(lo, lo + t.data.shape[axis])
        edges.append((t, lambda g, idx=tuple(idx): g[idx]))
        lo += t.data.shape[axis]
    return _make(data, *edges)


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    t = _as_tensor(t)
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        buf = np.zeros_like(t.data)
        buf[idx] = g
        return buf

    return _make(np.ascontiguousarray(t.data[idx]), (t, vjp))


def softmax_channel_groups(t: Tensor, groups: int) -> Tensor:
    """Softmax over groups of `groups` consecutive channels of a 4-D tensor.

    Channel count must divide by `groups`; within each group of K channels
    the outputs are positive and sum to one at every spatial location.
    """
    t = _as_tensor(t)
    if t.data.ndim != 4:
        raise ContractViolation(f"softmax_channel_groups: need 4-D input, got {t.data.ndim}-D")
    b, c, h, w = t.data.shape
    if c % groups != 0:
        raise ConfigError(f"channel count {c} not divisible by {groups} groups")
    x = t.data.reshape(b, c // groups, groups, h, w)
    x = x - x.max(axis=2, keepdims=True)  # shift-invariant, keeps exp bounded
    e = np.exp(x)
    y = e / e.sum(axis=2, keepdims=True)

    def vjp(g):
        gg = g.reshape(b, c // groups, groups, h, w)
        dot = (gg * y).sum(axis=2, keepdims=True)
        return (y * (gg - dot)).reshape(b, c, h, w)

    return _make(y.reshape(b, c, h, w), (t, vjp))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _windows(x: np.ndarray, kernel, stride: int, pad: int) -> np.ndarray:
    """[B,C,OH,OW,kh,kw] window view of [B,C,H,W] zero-padded by pad."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, kernel, axis=(2, 3))[:, :, ::stride, ::stride]


def _correlate(win: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contiguous [B,Co,OH,OW] products of windows [B,C,OH,OW,kh,kw] with
    w [Co,C,kh,kw]."""
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # [B,OH,OW,Co]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _scatter(g: np.ndarray, w: np.ndarray, stride: int, pad: int, out_hw) -> np.ndarray:
    """Adjoint of _correlate: every location of g [B,Co,H,W] adds its value
    times w [Co,C,kh,kw] into the kh x kw patch it was correlated from, on a
    canvas padded by pad; returns the [B,C,*out_hw] interior of the canvas."""
    bsz, _, h, w_in = g.shape
    kh, kw = w.shape[2:]
    oh, ow = out_hw
    full = np.zeros((bsz, w.shape[1], oh + 2 * pad, ow + 2 * pad))
    tmp = np.tensordot(g, w, axes=([1], [0]))  # [B,H,W,C,kh,kw]
    for u in range(kh):
        for v in range(kw):
            full[:, :, u:u + stride * (h - 1) + 1:stride,
                 v:v + stride * (w_in - 1) + 1:stride] += \
                tmp[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    return full[:, :, pad:pad + oh, pad:pad + ow]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] plus bias.

    kh, kw must be odd; output spatial size floor((H+2p-k)/s)+1 must be >= 1.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4:
        raise ContractViolation(f"conv2d: input must be 4-D, got {x.data.ndim}-D")
    if w.data.ndim != 4:
        raise ContractViolation(f"conv2d: weight must be 4-D, got {w.data.ndim}-D")
    co, ci, kh, kw = w.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractViolation(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if x.data.shape[1] != ci:
        raise ContractViolation(
            f"conv2d: input channels {x.data.shape[1]} != weight Cin {ci}")
    if b.data.shape != (co,):
        raise ContractViolation(f"conv2d: bias shape {b.data.shape} != ({co},)")
    h, w_in = x.data.shape[2], x.data.shape[3]
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ContractViolation(f"conv2d: empty output {oh}x{ow} for input {h}x{w_in}")

    # bias and weight VJPs run first, so their temporaries are freed before
    # the input gradient is allocated; input first took about twice the page
    # faults per training step
    win = _windows(x.data, (kh, kw), stride, pad)
    return _make(_correlate(win, w.data) + b.data[None, :, None, None],
                 (b, lambda g: g.sum(axis=(0, 2, 3))),
                 (w, lambda g: np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))),
                 (x, lambda g: _scatter(g, w.data, stride, pad, (h, w_in))))


def conv2d_transposed(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Transposed convolution (gradient-of-conv2d semantics).

    Weight layout [Cin,Cout,kh,kw]; output spatial size (H-1)*stride - 2*pad + kh.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ContractViolation("conv2d_transposed: input and weight must be 4-D")
    ci, co, kh, kw = w.data.shape
    if x.data.shape[1] != ci:
        raise ContractViolation(
            f"conv2d_transposed: input channels {x.data.shape[1]} != weight Cin {ci}")
    if b.data.shape != (co,):
        raise ContractViolation(f"conv2d_transposed: bias shape {b.data.shape} != ({co},)")
    h, w_in = x.data.shape[2], x.data.shape[3]
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (w_in - 1) * stride - 2 * pad + kw
    if oh < 1 or ow < 1:
        raise ContractViolation(f"conv2d_transposed: empty output {oh}x{ow}")

    def g_windows(g):  # [B,Co,H,W,kh,kw]
        return _windows(g, (kh, kw), stride, pad)

    data = _scatter(x.data, w.data, stride, pad, (oh, ow)) + b.data[None, :, None, None]
    return _make(data, (b, lambda g: g.sum(axis=(0, 2, 3))),
                 (w, lambda g: np.tensordot(x.data, g_windows(g), axes=([0, 2, 3], [0, 2, 3]))),
                 (x, lambda g: _correlate(g_windows(g), w.data)))


def causal_mask(kernel: int) -> np.ndarray:
    """Mask type A: zero at the raster center and everywhere after it."""
    if kernel not in (5, 7):
        raise ConfigError(f"masked conv kernel must be 5 or 7, got {kernel}")
    mask = np.zeros((kernel, kernel))
    half = kernel // 2
    mask[:half, :] = 1.0
    mask[half, :half] = 1.0
    return mask


def masked_conv2d(x: Tensor, w: Tensor, b: Tensor, kernel: int) -> Tensor:
    """Strictly causal (mask type A) convolution, stride 1, pad kernel//2:
    conv2d with the weight multiplied by causal_mask(kernel).

    The mask zeroes the center tap and every raster-later tap in both the
    forward and backward pass, so masked weights never receive gradient and
    output (i,j) depends only on raster-earlier inputs.
    """
    mask = causal_mask(kernel)
    w = _as_tensor(w)
    if w.data.shape[2:] != (kernel, kernel):
        raise ContractViolation(
            f"masked_conv2d: weight spatial dims {w.data.shape[2:]} != ({kernel},{kernel})")
    return conv2d(x, mul(w, mask), b, 1, kernel // 2)

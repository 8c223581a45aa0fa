"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Covers exactly the operator set the codec networks need: 2-D (transposed,
masked) convolutions, a handful of elementwise nonlinearities, grouped
channel softmax, reductions and shape plumbing. A dynamic graph is recorded
per forward pass; ``backward()`` on a scalar loss walks it once in reverse
topological order and then releases it, so a second backward without a new
forward raises.

Inside ``no_grad()`` ops record no graph: outputs have ``requires_grad``
False and no parents, so inference runs the same ops as training without
keeping the backward closures and their inputs alive.

Tensors are treated as immutable once created. A graph and its tensors are
confined to a single thread; independent graphs may run concurrently.
``no_grad`` is a context variable, so entering it in one thread (or asyncio
task) leaves recording on in every other. ``set_debug_checks`` is not: it
sets one process-global flag that every thread reads.
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

# When enabled, every op asserts its output is finite and log guards its
# domain. Costs a pass over the data, so off by default.
_debug_checks = False

# False inside no_grad(); read by _make
_grad_enabled = contextvars.ContextVar("nlic_grad_enabled", default=True)


def set_debug_checks(enabled: bool) -> None:
    """Switch the finite-output and log-domain checks of every op on or off.

    The flag is process-global: it applies at once to ops in all threads,
    unlike no_grad, which is scoped to the current context.
    """
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


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


def _check_finite(data: np.ndarray, op_name: str) -> None:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise ContractViolation(f"{op_name}: non-finite values in output")


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    `data` is row-major and never mutated after construction; `grad` is
    allocated lazily by `backward()` for tensors with `requires_grad`.
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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

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
            fn = node._backward
            if fn is not None:
                fn(node.grad)
            # release op records so a stale second backward is refused; a
            # leaf has none and stays usable in later graphs
            if node._parents:
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


def _make(data: np.ndarray, parents, backward_fn, op_name: str) -> Tensor:
    _check_finite(data, op_name)
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward, "div")


def leaky_relu(t: Tensor) -> Tensor:
    """Leaky ReLU with the fixed negative slope 0.2."""
    t = _as_tensor(t)
    data = np.where(t.data >= 0, t.data, LEAKY_SLOPE * t.data)

    def backward(g):
        _accum(t, g * np.where(t.data >= 0, 1.0, LEAKY_SLOPE))

    return _make(data, (t,), backward, "leaky_relu")


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in the stable two-sided form."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = _logistic(t.data)

    def backward(g):
        _accum(t, g * data * (1.0 - data))

    return _make(data, (t,), backward, "sigmoid")


def tanh(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.tanh(t.data)

    def backward(g):
        _accum(t, g * (1.0 - data * data))

    return _make(data, (t,), backward, "tanh")


def exp(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.exp(t.data)

    def backward(g):
        _accum(t, g * data)

    return _make(data, (t,), backward, "exp")


def log(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    if _debug_checks and np.any(t.data <= 0):
        raise ContractViolation("log: non-positive input")
    data = np.log(t.data)

    def backward(g):
        _accum(t, g / t.data)

    return _make(data, (t,), backward, "log")


def softplus(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.logaddexp(0.0, t.data)

    def backward(g):
        _accum(t, g * _logistic(t.data))

    return _make(data, (t,), backward, "softplus")


def square(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = t.data * t.data

    def backward(g):
        _accum(t, g * 2.0 * t.data)

    return _make(data, (t,), backward, "square")


def normal_cdf(t: Tensor) -> Tensor:
    """Standard normal cumulative Phi(x); backward is the normal pdf."""
    t = _as_tensor(t)
    data = ndtr(t.data)

    def backward(g):
        _accum(t, g * _INV_SQRT_2PI * np.exp(-0.5 * t.data * t.data))

    return _make(data, (t,), backward, "normal_cdf")


def clamp_min(t: Tensor, bound: float) -> Tensor:
    """max(t, bound) with a one-sided gradient.

    Below the bound the gradient only passes when it points back above the
    bound (g < 0 under minimization), so clipped values can recover instead
    of going silent.
    """
    t = _as_tensor(t)
    data = np.maximum(t.data, bound)

    def backward(g):
        pass_through = (t.data >= bound) | (g < 0)
        _accum(t, g * pass_through)

    return _make(data, (t,), backward, "clamp_min")


# ---------------------------------------------------------------------------
# reductions, shape ops
# ---------------------------------------------------------------------------


def reduce_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    data = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(t, np.broadcast_to(g, t.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(t, np.broadcast_to(g, t.data.shape).copy())

    return _make(data, (t,), backward, "sum")


def mean(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size
    data = np.asarray(t.data.mean())

    def backward(g):
        _accum(t, np.broadcast_to(g / n, t.data.shape).copy())

    return _make(data, (t,), backward, "mean")


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    data = t.data.reshape(shape)

    def backward(g):
        _accum(t, g.reshape(t.data.shape))

    return _make(data, (t,), backward, "reshape")


def transpose(t: Tensor, axes) -> Tensor:
    t = _as_tensor(t)
    axes = tuple(axes)
    data = np.ascontiguousarray(t.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accum(t, g.transpose(inverse))

    return _make(data, (t,), backward, "transpose")


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(data, tuple(tensors), backward, "concat")


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    t = _as_tensor(t)
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = np.ascontiguousarray(t.data[idx])

    def backward(g):
        buf = np.zeros_like(t.data)
        buf[idx] = g
        _accum(t, buf)

    return _make(data, (t,), backward, "narrow")


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
    data = y.reshape(b, c, h, w)

    def backward(g):
        gg = g.reshape(b, c // groups, groups, h, w)
        dot = (gg * y).sum(axis=2, keepdims=True)
        _accum(t, (y * (gg - dot)).reshape(b, c, h, w))

    return _make(data, (t,), backward, "softmax_channel_groups")


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    # [B,C,Hp,Wp] -> [B,C,OH,OW,kh,kw]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _conv_input_grad(g: np.ndarray, w: np.ndarray, x_padded_shape, stride: int, pad: int):
    """Scatter conv output-grad back to the (unpadded) input."""
    b, co, oh, ow = g.shape
    _, ci, kh, kw = w.shape
    gp = np.zeros(x_padded_shape, dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            # [B,OH,OW,Ci]
            tmp = np.tensordot(g, w[:, :, u, v], axes=([1], [0]))
            gp[:, :, u:u + stride * (oh - 1) + 1:stride,
               v:v + stride * (ow - 1) + 1:stride] += tmp.transpose(0, 3, 1, 2)
    if pad:
        return gp[:, :, pad:gp.shape[2] - pad, pad:gp.shape[3] - pad]
    return gp


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

    xp = _pad_hw(x.data, pad)
    win = _windows(xp, kh, kw, stride)
    out = np.tensordot(win, w.data, axes=([1, 4, 5], [1, 2, 3]))  # [B,OH,OW,Co]
    data = np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b.data[None, :, None, None]

    def backward(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        _accum(w, np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3])))
        _accum(x, _conv_input_grad(g, w.data, xp.shape, stride, pad))

    return _make(data, (x, w, b), backward, "conv2d")


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
    bsz, _, h, w_in = x.data.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (w_in - 1) * stride - 2 * pad + kw
    if oh < 1 or ow < 1:
        raise ContractViolation(f"conv2d_transposed: empty output {oh}x{ow}")

    full = np.zeros((bsz, co, (h - 1) * stride + kh, (w_in - 1) * stride + kw))
    tmp = np.tensordot(x.data, w.data, axes=([1], [0]))  # [B,H,W,Co,kh,kw]
    for u in range(kh):
        for v in range(kw):
            full[:, :, u:u + stride * (h - 1) + 1:stride,
                 v:v + stride * (w_in - 1) + 1:stride] += \
                tmp[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    data = full[:, :, pad:pad + oh, pad:pad + ow] + b.data[None, :, None, None]
    data = np.ascontiguousarray(data)

    def backward(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        gp = _pad_hw(g, pad)
        gwin = _windows(gp, kh, kw, stride)  # [B,Co,H,W,kh,kw]
        _accum(w, np.tensordot(x.data, gwin, axes=([0, 2, 3], [0, 2, 3])))
        _accum(x, np.ascontiguousarray(
            np.tensordot(gwin, w.data, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)))

    return _make(data, (x, w, b), backward, "conv2d_transposed")


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
    """Strictly causal (mask type A) convolution, stride 1, pad kernel//2.

    The mask zeroes the center tap and every raster-later tap in both the
    forward and backward pass, so masked weights never receive gradient and
    output (i,j) depends only on raster-earlier inputs.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    mask = causal_mask(kernel)
    if w.data.shape[2:] != (kernel, kernel):
        raise ContractViolation(
            f"masked_conv2d: weight spatial dims {w.data.shape[2:]} != ({kernel},{kernel})")
    co, ci, kh, kw = w.data.shape
    pad = kernel // 2
    w_eff = w.data * mask

    xp = _pad_hw(x.data, pad)
    win = _windows(xp, kh, kw, 1)
    out = np.tensordot(win, w_eff, axes=([1, 4, 5], [1, 2, 3]))
    data = np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + b.data[None, :, None, None]

    def backward(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
        _accum(w, gw * mask)
        _accum(x, _conv_input_grad(g, w_eff, xp.shape, 1, pad))

    return _make(data, (x, w, b), backward, "masked_conv2d")

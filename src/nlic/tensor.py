"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Covers exactly the operator set the codec networks need: a handful of
elementwise nonlinearities, a last-axis softmax, reductions, shape plumbing
and one convolution with one contract: ``conv2d`` (odd square kernel, zero
padding k//2, stride 1 or 2, output ceil(H/s) x ceil(W/s)), which refuses
an empty input. Activations are channel-last, [B, H, W, C]; the one conv
weight layout is [Cout, Cin, k, k]. Every op is a primitive with its own
VJP; the layers are built over them: the context models' mask-A conv over
``conv2d``, ``mul`` and ``causal_mask``, and the sub-pixel upsampler over
``conv2d`` and the layout op ``depth_to_space``, which moves four channel
groups into a 2x2 block of pixels. The loss ops ``sub``, ``div``,
``normal_cdf``, ``log`` and ``reduce_sum`` serve the rate,
``network.log_masses``. A dynamic graph is recorded per
forward pass; ``backward()`` on a scalar loss walks it once in reverse
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

``ndtr`` is scipy's ufunc, loaded from the compiled module that defines it
rather than through ``scipy.special``, whose import is most of a process's
start-up; ``entropy`` takes it from here. Never pass ``where=`` to
``ndtr``: with a scattered mask it segfaults or corrupts the heap on scipy
1.17.1, so mask by gathering the values first. A test walks every nlic
module and fails on such a call.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sys
from importlib import machinery, util

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation


def _load_ndtr():
    """scipy.special.ndtr, loaded from the compiled module that defines it;
    imports scipy.special only if that module cannot be found or loaded."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    scipy = None if module is not None else util.find_spec("scipy")
    spec = scipy and machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "special"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is not None:
        try:
            module = sys.modules[name] = util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            module = None
    ufunc = getattr(module, "ndtr", None)
    if isinstance(ufunc, np.ufunc) and ufunc.__name__ == "ndtr":
        return ufunc
    if spec is not None:
        sys.modules.pop(name, None)
    from scipy.special import ndtr
    return ndtr


ndtr = _load_ndtr()

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


def log(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    return _make(np.log(t.data), (t, lambda g: g / t.data))


def softplus(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    return _make(np.logaddexp(0.0, t.data), (t, lambda g: g * _logistic(t.data)))


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


def reduce_sum(t: Tensor, axis=None) -> Tensor:
    t = _as_tensor(t)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, t.data.shape)

    return _make(t.data.sum(axis=axis), (t, vjp))


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    return _make(t.data.reshape(shape), (t, lambda g: g.reshape(t.data.shape)))


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


def select(t: Tensor, i: int, axis: int) -> Tensor:
    """Entry i along `axis`, with that axis dropped, as a C-contiguous copy."""
    t = _as_tensor(t)

    def vjp(g):
        buf = np.zeros_like(t.data)
        np.moveaxis(buf, axis, 0)[i] = g
        return buf

    return _make(np.ascontiguousarray(np.moveaxis(t.data, axis, 0)[i]), (t, vjp))


def depth_to_space(t: Tensor) -> Tensor:
    """[B, H, W, 4C] -> [B, 2H, 2W, C]: channels (2i + j)C to (2i + j + 1)C - 1
    of pixel (h, w) become pixel (2h + i, 2w + j), as a C-contiguous copy.
    The VJP is the inverse reshape."""
    t = _as_tensor(t)
    if t.data.ndim != 4:
        raise ContractViolation(f"depth_to_space: input must be 4-D, got {t.data.ndim}-D")
    b, h, w, c4 = t.data.shape
    if c4 % 4:
        raise ContractViolation(f"depth_to_space: channels {c4} not a multiple of 4")
    c = c4 // 4
    data = (t.data.reshape(b, h, w, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
            .reshape(b, 2 * h, 2 * w, c))
    return _make(data, (t, lambda g: g.reshape(b, h, 2, w, 2, c)
                        .transpose(0, 1, 3, 2, 4, 5).reshape(b, h, w, c4)))


def softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis: the outputs along it are positive and
    sum to one."""
    t = _as_tensor(t)
    # shift-invariant, keeps exp bounded
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return _make(y, (t, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _scatter(g: np.ndarray, w: np.ndarray, stride: int, pad: int, out_hw) -> np.ndarray:
    """Adjoint of conv2d's correlation: every location of g [B,H,W,Co] adds
    its value times w [Co,C,kh,kw] into the kh x kw patch it was correlated
    from, on a canvas padded by pad; returns the [B,*out_hw,C] interior."""
    bsz, h, w_in, _ = g.shape
    kh, kw = w.shape[2:]
    oh, ow = out_hw
    full = np.zeros((bsz, oh + 2 * pad, ow + 2 * pad, w.shape[1]))
    tmp = np.tensordot(g, w, axes=([3], [0]))  # [B,H,W,C,kh,kw]
    for u in range(kh):
        for v in range(kw):
            full[:, u:u + stride * (h - 1) + 1:stride,
                 v:v + stride * (w_in - 1) + 1:stride] += tmp[..., u, v]
    return full[:, pad:pad + oh, pad:pad + ow]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Cross-correlation of [B,H,W,Cin] with [Cout,Cin,k,k] plus bias.

    k must be odd; the input is zero-padded by k//2, so the output is
    ceil(H/stride) x ceil(W/stride), and H, W must be >= 1.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 4:
        raise ContractViolation(f"conv2d: input must be 4-D, got {x.data.ndim}-D")
    if w.data.ndim != 4:
        raise ContractViolation(f"conv2d: weight must be 4-D, got {w.data.ndim}-D")
    co, ci, kh, kw = w.data.shape
    if kh != kw or kh % 2 == 0:
        raise ContractViolation(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if x.data.shape[3] != ci:
        raise ContractViolation(
            f"conv2d: input channels {x.data.shape[3]} != weight Cin {ci}")
    if b.data.shape != (co,):
        raise ContractViolation(f"conv2d: bias shape {b.data.shape} != ({co},)")
    h, w_in = x.data.shape[1:3]
    if h < 1 or w_in < 1:
        raise ContractViolation(f"conv2d: empty input {h}x{w_in}")

    # win is the [B,OH,OW,Cin,k,k] window view of the zero-padded input.
    # Bias and weight VJPs run first, so their temporaries are freed before
    # the input gradient is allocated; input first took about twice the page
    # faults per training step
    pad = kh // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x.data
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return _make(np.tensordot(win, w.data, axes=([3, 4, 5], [1, 2, 3])) + b.data,
                 (b, lambda g: g.sum(axis=(0, 1, 2))),
                 (w, lambda g: np.tensordot(g, win, axes=([0, 1, 2], [0, 1, 2]))),
                 (x, lambda g: _scatter(g, w.data, stride, pad, (h, w_in))))


def causal_mask(kernel: int) -> np.ndarray:
    """Mask type A: zero at the raster center and everywhere after it."""
    if kernel not in (5, 7):
        raise ContractViolation(f"masked conv kernel must be 5 or 7, got {kernel}")
    mask = np.zeros((kernel, kernel))
    half = kernel // 2
    mask[:half, :] = 1.0
    mask[half, :half] = 1.0
    return mask


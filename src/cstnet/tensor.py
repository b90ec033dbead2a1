"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a contiguous numpy array.  An op result that needs a
gradient also gets a data-free graph ``Node`` holding only the ``OpRecord``
that describes how it was produced; consumers' records link to that node, not
to the tensor.  So the graph keeps an op's output array only where a backward
rule saved it: dropping a tensor frees its array even while its node lives
on.  References run one way, tensor -> node -> record -> input nodes, so a
graph is freed by reference counting as soon as its loss is dropped.  Calling
``backward()`` on a scalar result walks the recorded graph once in reverse
topological order and accumulates gradients into the ``grad`` buffers of the
``requires_grad`` leaves.  The op set is exactly what the network needs:
elementwise arithmetic with singleton-extent broadcasting, (batched) matmul,
softmax/log-softmax, 2d convolution, adaptive average pooling, batch
normalization, reductions, shape manipulation, frame gathering and
per-descriptor standardization.

All forward math runs on numpy; every backward rule lives here and is checked
against central finite differences (see ``gradcheck``).  Activations are
contiguous NCHW.  The layer kernels pick the memory order numpy is fast in:
a 1x1 convolution is a channel matmul on (N, C, H*W); any other convolution
is im2col from an NHWC-padded copy, so each column fills from contiguous
(kw, C) runs, and one GEMM, and its input gradient is added back tap by tap;
batch norm works on the (N, C*H*W) view; adaptive pooling is one matmul with
a cached, read-only bin-averaging matrix for every bin layout.  A convolution
saves only its input and weight arrays, which the graph mostly holds anyway
(the preceding ReLU's output, the clips); its backward re-forms the im2col
columns, or the strided 1x1 slice, from the input, so a backward holds one
convolution's columns at a time.
Graphs are single-threaded: one forward+backward pass owns its graph exclusively.
Tensors without gradient state are immutable by convention and safe to share.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_node_ids = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (e.g. for evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class OpRecord:
    """How a tensor was produced: op kind, inputs, saved values.

    ``inputs`` holds, per op input, the input's data-free ``Node`` if it is
    itself a recorded op result, and otherwise the leaf ``Tensor``
    (parameters, constants, clips), whose ``grad`` the engine writes.
    ``backward_fn(grad, saved)`` returns one gradient array (or None) per
    input; it must consume only its own ``saved`` values.  Each returned
    array is either freshly allocated for that input or a view of ``grad``
    itself (``add`` passes ``grad`` through, ``reshape`` views it), so the
    engine copies before it sums into one that may share ``grad``'s memory.
    """

    __slots__ = ("op_kind", "inputs", "saved", "backward_fn")

    def __init__(self, op_kind: str, inputs: tuple, saved: tuple, backward_fn: Callable):
        self.op_kind = op_kind
        self.inputs = inputs
        self.saved = saved
        self.backward_fn = backward_fn


class Node:
    """The graph's handle on one recorded op result: its record and id, no data."""

    __slots__ = ("op", "node_id")
    requires_grad = True

    def __init__(self, op: OpRecord, node_id: int):
        self.op = op
        self.node_id = node_id


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node", "node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None
        self.node_id = next(_node_ids)

    @property
    def op(self) -> Optional[OpRecord]:
        """The record of the op that produced this tensor; None for a leaf."""
        return None if self.node is None else self.node.op

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- gradient bookkeeping ------------------------------------------------
    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar onto all requires_grad leaves.

        Walks from this tensor's ``Node`` (or from itself, for a leaf) through
        the records' inputs: data-free nodes of op results and leaf tensors.
        Visits each graph node exactly once, in reverse topological order, and
        frees no saved value, so repeated calls without ``zero_grad``
        accumulate additively.
        """
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

        # Iterative depth-first topological sort over grad-requiring nodes.
        start = self if self.node is None else self.node
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple] = [(start, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node.op is not None:
                for parent in node.op.inputs:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        flowing: dict[int, np.ndarray] = {id(start): np.ones_like(self.data)}
        # keys whose stored gradient may be (a view of) a rule's upstream g,
        # which other keys can hold too; the first sum into one is out of place
        borrowed: set[int] = set()
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node.op is None:
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
                continue
            in_grads = node.op.backward_fn(g, node.op.saved)
            for parent, ig in zip(node.op.inputs, in_grads):
                if ig is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key not in flowing:
                    flowing[key] = ig
                    if np.may_share_memory(ig, g):
                        borrowed.add(key)
                elif key in borrowed:
                    stored = flowing[key]
                    flowing[key] = np.add(stored, ig, out=np.empty_like(stored))
                    borrowed.discard(key)
                else:
                    flowing[key] += ig

    # -- operator sugar --------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def permute(self, *axes):
        return permute(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def constant(data, dtype=None) -> Tensor:
    """A non-differentiable tensor (masks, targets, wrapped inputs)."""
    return Tensor(data, requires_grad=False, dtype=dtype)


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------

def _result(op_kind: str, inputs: tuple, out_data: np.ndarray, backward_fn, saved: tuple = ()) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node_id = next(_node_ids)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        links = tuple(t if t.node is None else t.node for t in inputs)
        out.node = Node(OpRecord(op_kind, links, saved, backward_fn), out.node_id)
    else:
        out.requires_grad = False
        out.node = None
    return out


def _as_pair(a, b, op_kind: str) -> tuple[Tensor, Tensor]:
    if not isinstance(a, Tensor):
        a = constant(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = constant(np.asarray(b, dtype=a.data.dtype))
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op_kind}: cannot broadcast shapes {a.shape} and {b.shape}") from None
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape`` (singleton extents only)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_pair(a, b, "add")

    def bw(g, saved):
        sa, sb = saved
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result("add", (a, b), a.data + b.data, bw, (a.shape, b.shape))


def sub(a, b) -> Tensor:
    a, b = _as_pair(a, b, "sub")

    def bw(g, saved):
        sa, sb = saved
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _result("sub", (a, b), a.data - b.data, bw, (a.shape, b.shape))


def mul(a, b) -> Tensor:
    a, b = _as_pair(a, b, "mul")

    def bw(g, saved):
        ad, bd = saved
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _result("mul", (a, b), a.data * b.data, bw, (a.data, b.data))


def div(a, b) -> Tensor:
    a, b = _as_pair(a, b, "div")

    def bw(g, saved):
        ad, bd = saved
        return _unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)

    return _result("div", (a, b), a.data / b.data, bw, (a.data, b.data))


def neg(a: Tensor) -> Tensor:
    return _result("neg", (a,), -a.data, lambda g, s: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant."""
    s = float(s)
    return _result("scale", (a,), a.data * s, lambda g, saved: (g * saved[0],), (s,))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    # saves its output, not its input: out > 0 exactly where a > 0 (NaN and
    # -0 included), so an input that nothing else saves is freed
    out = np.maximum(a.data, 0)

    def bw(g, saved):
        return (g * (saved[0] > 0),)

    return _result("relu", (a,), out, bw, (out,))


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: exp never overflows
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1, e) / (1 + e)

    def bw(g, saved):
        y = saved[0]
        return (g * y * (1.0 - y),)

    return _result("sigmoid", (a,), out, bw, (out,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _result("exp", (a,), out, lambda g, s: (g * s[0],), (out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericError("log requires strictly positive input")
    return _result("log", (a,), np.log(a.data), lambda g, s: (g / s[0],), (a.data,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise NumericError("sqrt requires non-negative input")
    out = np.sqrt(a.data)

    def bw(g, saved):
        y = saved[0]
        return (g / (2.0 * np.maximum(y, 1e-300)),)

    return _result("sqrt", (a,), out, bw, (out,))


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stabilized softmax along ``axis``; slices sum to 1."""
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {x.shape}")
    if np.isnan(x).any():
        raise NumericError("softmax received NaN input")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g, saved):
        y, ax = saved
        return (y * (g - (g * y).sum(axis=ax, keepdims=True)),)

    return _result("softmax", (a,), out, bw, (out, axis))


def log_softmax(a: Tensor, axis: int) -> Tensor:
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"log_softmax: axis {axis} invalid for shape {x.shape}")
    if np.isnan(x).any():
        raise NumericError("log_softmax received NaN input")
    shifted = x - x.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g, saved):
        y, ax = saved
        return (g - np.exp(y) * g.sum(axis=ax, keepdims=True),)

    return _result("log_softmax", (a,), out, bw, (out, axis))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def bw(g, saved):
        shape, axs, kd = saved
        if not kd:
            for ax in sorted(axs):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).copy(),)

    return _result("sum", (a,), out, bw, (a.shape, axes, keepdims))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    n = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bw(g, saved):
        shape, axs, kd, count = saved
        if not kd:
            for ax in sorted(axs):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _result("mean", (a,), out, bw, (a.shape, axes, keepdims, n))


def _reduce_arg(op_kind: str, arg_fn, a: Tensor, axis: int, keepdims: bool) -> Tensor:
    """Value at ``arg_fn``'s index along one axis; gradient flows to that index only."""
    ax = axis % a.ndim
    idx = np.expand_dims(arg_fn(a.data, axis=ax), ax)
    out = np.take_along_axis(a.data, idx, axis=ax)
    if not keepdims:
        out = np.squeeze(out, axis=ax)

    def bw(g, saved):
        shape, axx, indices = saved
        dx = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(dx, indices, g.reshape(indices.shape), axis=axx)
        return (dx,)

    return _result(op_kind, (a,), out, bw, (a.shape, ax, idx))


def reduce_max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient flows to the first max position per slice."""
    return _reduce_arg("reduce_max", np.argmax, a, axis, keepdims)


def reduce_min(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Min along one axis; gradient flows to the first min position per slice."""
    return _reduce_arg("reduce_min", np.argmin, a, axis, keepdims)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}") from None

    def bw(g, saved):
        return (g.reshape(saved[0]),)

    return _result("reshape", (a,), out, bw, (a.shape,))


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"permute: axes {axes} invalid for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))

    def bw(g, saved):
        return (np.transpose(g, saved[0]),)

    return _result("permute", (a,), np.transpose(a.data, axes), bw, (inverse,))


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    """Gather slices along ``axis``; duplicate indices accumulate in backward."""
    ax = axis % a.ndim
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("index_select expects a 1-d index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[ax]):
        raise DimensionError(f"index_select: indices out of range for extent {a.shape[ax]}")
    out = np.take(a.data, idx, axis=ax)

    def bw(g, saved):
        shape, axx, ii = saved
        dx = np.zeros(shape, dtype=g.dtype)
        key = tuple([slice(None)] * axx + [ii])
        np.add.at(dx, key, g)
        return (dx,)

    return _result("index_select", (a,), out, bw, (a.shape, ax, idx))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    ax = axis % tensors[0].ndim
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]

    def bw(g, saved):
        szs, axx = saved
        splits = np.cumsum(szs)[:-1]
        return tuple(np.split(g, splits, axis=axx))

    return _result("concat", tuple(tensors), out, bw, (sizes, ax))


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-d x 2-d, batched with equal leading dims, or batched @ 2-d."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    if a.ndim == b.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise DimensionError(f"matmul: batch dimensions disagree for {a.shape} and {b.shape}")
    elif not (a.ndim > 2 and b.ndim == 2):
        raise DimensionError(f"matmul: unsupported rank combination {a.shape} and {b.shape}")
    out = np.matmul(a.data, b.data)

    def bw(g, saved):
        ad, bd = saved
        da = np.matmul(g, np.swapaxes(bd, -1, -2))
        db = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(da, ad.shape), _unbroadcast(db, bd.shape)

    return _result("matmul", (a, b), out, bw, (a.data, b.data))


# ---------------------------------------------------------------------------
# descriptor standardization (mean 0, std-normalized along one axis)
# ---------------------------------------------------------------------------

def standardize(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """(x - mean) / (population_std + eps) along ``axis``.

    Fused so the backward stays finite for (near-)constant descriptors,
    where composing sqrt would blow up at zero variance.
    """
    if eps <= 0:
        raise ContractError("standardize: eps must be positive")
    ax = axis % a.ndim
    x = a.data
    n = x.shape[ax]
    mu = x.mean(axis=ax, keepdims=True)
    centered = x - mu
    std = np.sqrt(np.mean(centered * centered, axis=ax, keepdims=True))
    denom = std + eps
    out = centered / denom

    def bw(g, saved):
        c, s, d, axx, count = saved
        gc = (g - g.mean(axis=axx, keepdims=True)) / d
        proj = (g * c).sum(axis=axx, keepdims=True)
        safe = np.maximum(s, 1e-30)
        return (gc - proj * c / (count * safe * d * d),)

    return _result("standardize", (a,), out, bw, (centered, std, denom, ax, n))


# ---------------------------------------------------------------------------
# conv2d / pooling / batch norm
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, s: int, p: int, oh: int, ow: int) -> np.ndarray:
    """(N*OH*OW, kh*kw*C) columns of an NCHW array, column order (kh, kw, C).

    Padded once into NHWC order, each window row (kw, C) is a contiguous run
    of the padded input, so one copy of the window view fills every column.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return win[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)


def _col2im(gmat: np.ndarray, taps: np.ndarray, shape: tuple,
            kh: int, kw: int, s: int, p: int) -> np.ndarray:
    """Adjoint of ``_im2col`` for the column gradients ``gmat @ taps[t]``.

    Tap by tap, in (kh, kw) order, the (N*OH*OW, C) block ``gmat @ taps[t]``
    is formed and added strided into an NHWC padded buffer, so one tap's
    block is alive at a time instead of all kh*kw; returned as contiguous NCHW.
    """
    n, c, h, w = shape
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=gmat.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + s * oh:s, j:j + s * ow:s] += (gmat @ taps[i * kw + j]).reshape(n, oh, ow, c)
    return np.ascontiguousarray(dxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with (C_out, C_in, kh, kw) kernels.

    A 1x1 kernel without padding is a channel matmul on (N, C, H*W), with the
    stride taken by slicing.  Any other kernel is im2col (Chellapilla et al.
    2006, "High Performance CNNs for Document Processing") and one GEMM.
    The output is contiguous NCHW.  The graph node saves the input and the
    weight, nothing derived from them: the backward re-forms the columns
    (the same bytes as the forward's) and frees them before the input
    gradient, and re-slices a strided 1x1 input.  It skips the input
    gradient when the input requires none (e.g. the clips fed to the stem).
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d: need 4-d input and kernel, got {x.shape} and {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = weight.shape
    if kc != c_in:
        raise DimensionError(f"conv2d: input has {c_in} channels but kernel expects {kc}")
    s, p = int(stride), int(padding)
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"conv2d: empty output for input {x.shape}, kernel {weight.shape}, "
                             f"stride {s}, padding {p}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    need_dx, has_bias = x.requires_grad, bias is not None

    if kh == kw == 1 and p == 0:
        x3 = x.data[:, :, ::s, ::s].reshape(n, c_in, oh * ow)
        wmat = weight.data.reshape(c_out, c_in)
        out = np.matmul(wmat, x3)                     # (N, C_out, OH*OW)
        if bias is not None:
            out += bias.data[:, None]

        def bw_matmul(g, saved):
            x_s, wmat_s, (s_, need_dx_, has_bias_) = saved
            shape = x_s.shape
            g3 = g.reshape(shape[0], len(wmat_s), -1)
            x3_s = x_s[:, :, ::s_, ::s_].reshape(shape[0], shape[1], -1)
            dw = np.matmul(g3, x3_s.transpose(0, 2, 1)).sum(axis=0).reshape(wmat_s.shape + (1, 1))
            dx = None
            if need_dx_:
                dx_s = np.matmul(wmat_s.T, g3).reshape((shape[0], shape[1]) + g.shape[2:])
                if s_ > 1:
                    dx = np.zeros(shape, dtype=g.dtype)
                    dx[:, :, ::s_, ::s_] = dx_s
                else:
                    dx = dx_s
            return (dx, dw, g3.sum(axis=(0, 2))) if has_bias_ else (dx, dw)

        return _result("conv2d", inputs, out.reshape(n, c_out, oh, ow), bw_matmul,
                       (x.data, wmat, (s, need_dx, has_bias)))

    cols = _im2col(x.data, kh, kw, s, p, oh, ow)
    wmat = weight.data.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c_in)
    out = cols @ wmat.T                               # (N*OH*OW, C_out)
    if bias is not None:
        out += bias.data
    out = np.ascontiguousarray(out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))

    def bw_im2col(g, saved):
        x_s, w_s, (s_, p_, need_dx_, has_bias_) = saved
        c_out_, c_in_, kh_, kw_ = w_s.shape
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, c_out_)
        # the forward's columns, re-formed from the saved input: the same bytes
        cols_s = _im2col(x_s, kh_, kw_, s_, p_, g.shape[2], g.shape[3])
        dw = (gmat.T @ cols_s).reshape(c_out_, kh_, kw_, c_in_).transpose(0, 3, 1, 2)
        dw = np.ascontiguousarray(dw)
        del cols_s                  # freed before _col2im allocates its buffer
        dx = None
        if need_dx_:
            # one contiguous (C_out, C_in) matrix per tap, in (kh, kw) order
            taps = w_s.transpose(2, 3, 0, 1).reshape(kh_ * kw_, c_out_, c_in_)
            dx = _col2im(gmat, taps, x_s.shape, kh_, kw_, s_, p_)
        return (dx, dw, gmat.sum(axis=0)) if has_bias_ else (dx, dw)

    return _result("conv2d", inputs, out, bw_im2col,
                   (x.data, weight.data, (s, p, need_dx, has_bias)))


@functools.lru_cache(maxsize=64)
def _pool_operator(h: int, w: int, out_h: int, out_w: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (H*W, out_h*out_w) pooling matrix, built once per layout and dtype."""
    pool = np.kron(_pool_matrix(h, out_h), _pool_matrix(w, out_w)).astype(dtype)
    pool.flags.writeable = False
    return pool


def _pool_matrix(extent: int, out: int) -> np.ndarray:
    """(extent, out) averaging matrix of the bins [floor(i*E/out), ceil((i+1)*E/out))."""
    m = np.zeros((extent, out))
    for i in range(out):
        start, end = (i * extent) // out, -(-(i + 1) * extent // out)
        m[start:end, i] = 1.0 / (end - start)
    return m


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Mean over bins [floor(i*H/out_h), ceil((i+1)*H/out_h)) per output cell.

    Every bin layout is one matmul with the (H*W, out_h*out_w) pooling
    matrix ``P``; the backward is ``g @ P.T``.
    """
    if x.ndim != 4:
        raise DimensionError(f"adaptive_avg_pool2d: need 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"adaptive_avg_pool2d: zero output extent ({out_h}, {out_w})")
    if out_h > h or out_w > w:
        raise DimensionError(f"adaptive_avg_pool2d: output ({out_h}, {out_w}) exceeds input ({h}, {w})")
    pool = _pool_operator(h, w, out_h, out_w, x.data.dtype)
    out = (x.data.reshape(n * c, h * w) @ pool).reshape(n, c, out_h, out_w)

    def bw(g, saved):
        pool_s, shape = saved
        return ((g.reshape(-1, pool_s.shape[1]) @ pool_s.T).reshape(shape),)

    return _result("adaptive_avg_pool2d", (x,), out, bw, (pool, x.shape))


def _channel_sums(column_sums: np.ndarray, c: int) -> np.ndarray:
    """Per-channel totals of the (C*H*W,) column sums of an (N, C*H*W) view."""
    return column_sums.reshape(c, -1).sum(axis=1)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization for NCHW feature maps.

    Training mode normalizes with batch statistics (the mean, then the biased
    variance of the centred values) and updates the running buffers in
    place; eval mode is one scale and shift from the running statistics.
    The math runs on the (N, C*H*W) view with each per-channel vector
    repeated H*W times, so every broadcast runs along one long contiguous
    axis however small the feature map is.
    """
    if x.ndim != 4:
        raise DimensionError(f"batch_norm: need 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm: gamma/beta must have shape ({c},), got "
                             f"{gamma.shape} and {beta.shape}")
    hw, m = h * w, n * h * w
    x2 = x.data.reshape(n, c * hw)
    if training:
        mu = _channel_sums(x2.sum(axis=0), c) / m
        xhat = x2 - np.repeat(mu, hw)
        var = _channel_sums(np.einsum("nk,nk->k", xhat, xhat), c) / m
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu
        running_var *= (1.0 - momentum)
        running_var += momentum * var
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= np.repeat(inv, hw)
        out = xhat * np.repeat(gamma.data, hw)
        out += np.repeat(beta.data, hw)
        saved = (xhat, None, inv, gamma.data)
    else:
        # one scale-and-shift pass; the backward rebuilds xhat if it runs
        mu = running_mean.copy()
        inv = 1.0 / np.sqrt(running_var + eps)
        scale = gamma.data * inv
        out = x2 * np.repeat(scale, hw)
        out += np.repeat(beta.data - mu * scale, hw)
        saved = (x2, mu, inv, gamma.data)

    def bw(g, saved):
        x_s, eval_mean, inv_s, gamma_s = saved
        c_, hw_ = len(inv_s), x_s.shape[1] // len(inv_s)
        xhat_s = x_s
        if eval_mean is not None:
            xhat_s = (x_s - np.repeat(eval_mean, hw_)) * np.repeat(inv_s, hw_)
        g2 = g.reshape(xhat_s.shape)
        dbeta = _channel_sums(g2.sum(axis=0), c_)
        dgamma = _channel_sums(np.einsum("nk,nk->k", g2, xhat_s), c_)
        coeff = gamma_s * inv_s
        dx = g2 * np.repeat(coeff, hw_)
        if eval_mean is None:       # batch statistics: the mean and variance depend on x
            count = len(g2) * hw_
            dx -= xhat_s * np.repeat(coeff * dgamma / count, hw_)
            dx -= np.repeat(coeff * dbeta / count, hw_)
        return dx.reshape(g.shape), dgamma, dbeta

    return _result("batch_norm", (x, gamma, beta), out.reshape(x.shape), bw, saved)


__all__ = [
    "Tensor", "Node", "OpRecord", "no_grad", "constant",
    "add", "sub", "mul", "div", "neg", "scale",
    "relu", "sigmoid", "exp", "log", "sqrt", "softmax", "log_softmax",
    "tsum", "tmean", "reduce_max", "reduce_min",
    "reshape", "permute", "index_select", "concat", "matmul",
    "standardize", "conv2d", "adaptive_avg_pool2d", "batch_norm",
]

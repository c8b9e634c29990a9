"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small convolutional spiking network: elementwise
arithmetic with numpy broadcasting, linear, 2-d convolution (im2col),
average pooling (fixed and adaptive), group normalization, summation,
exp/log, concatenation and gather along the leading axis, a step activation
whose backward pass is a rectangular surrogate window, the spiking neuron's
membrane recurrence scanned over time as one node, and a cast between the
two float widths.

A tensor holds float32 if it is given float32 and float64 otherwise. Every op
computes, allocates its buffers and hands back gradients in its input's
dtype, so one code path serves a float32 network body and the float64 parts
around it; `cast` joins the two. Everything is deterministic: a fixed graph
construction order fixes the gradient accumulation order, so repeated
backward passes over a fresh graph reproduce identical bytes. Backward
closures receive the output gradient as an argument and reference only their
inputs, keeping the graph acyclic for reference counting. The backward frees
each node's closure and parents as soon as it has run them, so the saved
forward buffers and the gradients of nodes nobody holds go as the sweep
passes, without garbage-collector sweeps. A graph can be back-propagated
once; a second pass through it raises RuntimeError.

Layout: every op hands on C-ordered arrays, as node data and as gradients.
BLAS picks its kernel, and so the order in which it sums a product, by the
layout of its operands, so an F-ordered array (a transposed GEMM result, say)
passed on would silently change the bits of every later product that reads
it. A kernel may multiply transposed operands to reach BLAS's fast path, as
long as it copies the result back into a C-ordered buffer.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "no_grad",
    "conv2d", "avg_pool", "adaptive_avg_pool", "group_norm", "linear",
    "concat", "gather", "cast", "spike", "neuron_scan", "SGD",
    "save_named_tensors", "load_named_tensors", "CheckpointError",
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_grad_enabled = True


def _freed(grad):
    """The backward of a node whose graph an earlier backward has freed."""
    raise RuntimeError("backward through a graph that an earlier backward has freed; "
                       "run the forward again to build a new one")


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy float32 or float64 array plus the closure that backpropagates
    into it. A float32 ndarray stays float32; anything else becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        if not (type(data) is np.ndarray and data.dtype == np.float32):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self):
        self.grad = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(other)) if isinstance(other, Tensor) else add(self, -float(other))

    def __rsub__(self, other):
        return add(neg(self), float(other))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / float(other))

    def __getitem__(self, index):
        return gather(self, index)

    # Indexing would otherwise make a Tensor iterable element by element, as
    # fresh gather nodes; looping over one is always a mistake, so it fails.
    __iter__ = None

    # -- shape / reduction helpers -------------------------------------------

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Builds the topologically ordered tape with an iterative post-order
        walk (training graphs can unroll to thousands of nodes, beyond
        Python's recursion limit) and pops it from the end. A node that no
        gradient reached is skipped: its backward could only pass zeros on.

        Each non-leaf node is freed as soon as its turn has passed: it drops
        its parents and its backward closure, and with them the forward
        buffers the closure saved. A node still held elsewhere keeps its data
        and `.grad`. So a graph can be back-propagated once: a second
        backward that reaches a freed node, from the same loss or from a new
        one built on it, raises RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        tape = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                tape.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while tape:
            # popped, so the tape no longer holds the nodes already done
            node = tape.pop()
            if node._backward is None:      # a leaf
                continue
            if node.grad is not None:
                # read-only while its backward runs, so that _accum copies
                # it if the backward hands it on unchanged
                node.grad.flags.writeable = False
                node._backward(node.grad)
                node.grad.flags.writeable = True
            node._prev = ()
            node._backward = _freed


def _as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, inputs):
    """Create an op output: tracked iff grad is enabled and any input is."""
    tracked = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        out._prev = tuple(inputs)
    return out


def _accum(tensor, grad):
    """Add grad into tensor.grad, which is kept in the tensor's own dtype."""
    dtype = tensor.data.dtype
    if tensor.grad is None:
        # A first gradient the backward has just allocated is stored as it
        # is. A view, or a node's own gradient handed on unchanged (add gives
        # it to both inputs), is copied, so that every stored grad owns its
        # buffer and adding into it changes no other tensor's grad.
        fresh = grad.flags.owndata and grad.flags.writeable and grad.dtype == dtype
        tensor.grad = grad if fresh else np.array(grad, dtype=dtype)
    else:
        tensor.grad += grad


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        c = float(b)
        if c == 0.0:
            return a
        out = _node(a.data + c, (a,))
        if out.requires_grad:
            def _bw(g):
                _accum(a, g)
            out._backward = _bw
        return out
    a = _as_tensor(a)
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape))
        out._backward = _bw
    return out


def mul(a, b):
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        c = float(b)
        if c == 1.0:
            return a
        out = _node(a.data * c, (a,))
        if out.requires_grad:
            def _bw(g):
                _accum(a, g * c)
            out._backward = _bw
        return out
    a = _as_tensor(a)
    a_data, b_data = a.data, b.data
    out = _node(a_data * b_data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b_data, a_data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a_data, b_data.shape))
        out._backward = _bw
    return out


def neg(a):
    out = _node(-a.data, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, -g)
        out._backward = _bw
    return out


def power(a, exponent):
    e = float(exponent)
    a_data = a.data
    out = _node(a_data ** e, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * e * a_data ** (e - 1.0))
        out._backward = _bw
    return out


def exp(a):
    data = np.exp(a.data)
    out = _node(data, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * data)
        out._backward = _bw
    return out


def log(a):
    a_data = a.data
    out = _node(np.log(a_data), (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g / a_data)
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# shape / reduction primitives
# ---------------------------------------------------------------------------

def reshape(a, shape):
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        a_shape = a.data.shape

        def _bw(g):
            _accum(a, g.reshape(a_shape))
        out._backward = _bw
    return out


def tensor_sum(a, axis=None, keepdims=False):
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        a_shape = a.data.shape
        a_ndim = a.data.ndim

        def _bw(g):
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(ax % a_ndim for ax in axes))
            _accum(a, np.broadcast_to(g, a_shape))
        out._backward = _bw
    return out


def concat(tensors):
    """Join tensors along axis 0. The backward hands each part its slice of
    the gradient and skips parts whose slice is all zeros, so a loss that
    reads only early time steps never back-propagates into later blocks."""
    tensors = list(tensors)
    if len(tensors) == 1:
        return tensors[0]
    if not tensors:
        return Tensor(np.zeros(0))
    out = _node(np.concatenate([t.data for t in tensors]), tensors)
    if out.requires_grad:
        bounds = np.cumsum([0] + [t.data.shape[0] for t in tensors])

        def _bw(g):
            for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
                part = g[lo:hi]
                if t.requires_grad and part.any():
                    _accum(t, part)
        out._backward = _bw
    return out


def gather(a, index):
    """a[index] for an integer or integer array index into the leading axis."""
    out = _node(a.data[index], (a,))
    if out.requires_grad:
        a_shape = a.data.shape

        def _bw(g):
            full = np.zeros(a_shape, dtype=a.data.dtype)
            np.add.at(full, index, g)
            _accum(a, full)
        out._backward = _bw
    return out


def cast(a, dtype):
    """a's values in `dtype` (a itself if they already are); the backward
    hands the gradient back in a's dtype."""
    if a.data.dtype == dtype:
        return a
    out = _node(a.data.astype(dtype), (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g)
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x, weight, bias=None, rows=None):
    """y = x @ weight.T (+ bias); weight is (out_features, in_features).

    rows, if given, makes the forward multiply x in zero-padded blocks of
    exactly that many rows. BLAS sums a product in an order set by its shape
    (one row, or one output feature, takes a matrix-vector kernel), so with
    one block shape a row's result does not depend on how many rows share
    the call, and a sequence forwarded in pieces gives the same bits as
    forwarded whole. The backward forms each gradient in one product over
    all rows.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-d x and weight, got {x.data.shape}, {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear feature mismatch: x has {x.data.shape[1]}, weight expects {weight.data.shape[1]}"
        )
    inputs = (x, weight) if bias is None else (x, weight, bias)
    x_data, w_data = x.data, weight.data
    m = x_data.shape[0]
    rows = rows or max(m, 1)
    padded = x_data
    if m % rows:
        padded = np.zeros((m + rows - m % rows, x_data.shape[1]), dtype=x_data.dtype)
        padded[:m] = x_data
    y = np.empty((len(padded), w_data.shape[0]), dtype=np.result_type(x_data, w_data))
    for i in range(0, len(padded), rows):
        # weight @ block.T, the same sums as block @ weight.T: OpenBLAS
        # multiplies the weight as stored instead of repacking its transpose
        # on every call, twice as fast for fc0. Copied into y, so the result
        # stays C-ordered (see the module docstring).
        y[i:i + rows] = (w_data @ padded[i:i + rows].T).T
    y = y[:m]
    if bias is not None:
        y += bias.data
    out = _node(y, inputs)
    if out.requires_grad:
        def _bw(g):
            if x.requires_grad:
                _accum(x, g @ w_data)
            if weight.requires_grad:
                _accum(weight, g.T @ x_data)
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=0))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _im2col(padded, kh, kw):
    """(n, c*kh*kw, oh*ow) columns of padded's kh x kw windows: one strided
    copy per kernel offset, faster than copying a transposed window view."""
    n, c, hp, wp = padded.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=padded.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = padded[:, :, i:i + oh, j:j + ow]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _conv_input_grad(wmat, g, padded_shape, kh, kw):
    """Gradient of the padded input of a stride-1 convolution, on a
    row-pitched flat buffer.

    The output gradient is zero-padded to the padded input's row width wp,
    so output position (r, c) sits at flat offset r*wp + c and its input
    window's offset (i, j) at r*wp + c + i*wp + j: each kernel offset is one
    contiguous add of length oh*wp into the flat buffer (kw - 1 values
    longer than the image, for the last row's overhang), where scattering
    the columns back window by window makes kh*kw strided adds over rows of
    only ow values. The padding columns carry W.T @ 0 = +0.0 into the next
    row's first kw - 1 values, which leaves them unchanged: the buffer
    starts at +0.0 and no sum of floats turns +0.0 into -0.0. So the bytes
    are those of the window-by-window scatter, unless a weight is NaN or
    infinite, whose NaN then also reaches those values.
    """
    n, cin, hp, wp = padded_shape
    cout, oh, ow = g.shape[1:]
    gp = np.zeros((n, cout, oh, wp), dtype=g.dtype)
    gp[:, :, :, :ow] = g
    span = oh * wp
    dcols = np.matmul(wmat.T[None], gp.reshape(n, cout, span)).reshape(n, cin, kh * kw, span)
    flat = np.zeros((n, cin, hp * wp + kw - 1), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            flat[:, :, i * wp + j:i * wp + j + span] += dcols[:, :, i * kw + j]
    return flat[:, :, :hp * wp].reshape(padded_shape)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """2-d cross-correlation with stride 1, NCHW input, OIHW weight. `stride`
    is accepted only as 1, for callers that spell it out."""
    if stride != 1:
        raise ValueError(f"conv2d supports stride 1 only, got {stride}")
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and weight, got {x.data.shape}, {weight.data.shape}")
    n, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d kernel {kh}x{kw} larger than padded input {h}x{w} (pad {padding})")
    if padding:
        padded = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x.data
    else:
        padded = x.data
    cols, oh, ow = _im2col(padded, kh, kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    y = np.matmul(wmat[None], cols).reshape(n, cout, oh, ow)
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _node(y, inputs)
    if out.requires_grad:
        padded_shape = padded.shape
        bias_shape = None if bias is None else bias.data.shape

        def _bw(g):
            gmat = g.reshape(n, cout, oh * ow)
            if weight.requires_grad:
                # the columns as stored times the transposed gradient, the
                # same sums as gmat @ cols.T but faster; transposed back
                # into a C-ordered array
                dw = np.matmul(cols, gmat.transpose(0, 2, 1)).sum(axis=0)
                _accum(weight, np.ascontiguousarray(dw.T).reshape(cout, cin_w, kh, kw))
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)).reshape(bias_shape))
            if x.requires_grad:
                dpadded = _conv_input_grad(wmat, g, padded_shape, kh, kw)
                if padding:
                    dpadded = dpadded[:, :, padding:-padding, padding:-padding]
                _accum(x, dpadded)
        out._backward = _bw
    return out


def _block_mean(x, data, kh, kw):
    """Node of the kh x kw block means of data, x's values zero-padded on the
    high side to extents that kh and kw divide.

    The block sums add strided views of data: numpy's reduction over the
    block axes of a reshaped view took 3.5 ms instead of 0.6 ms for the
    default net's three pools over an 8-cell block, and made the 90-cell
    slicing forward of the slice-csv benchmark 20% slower.
    """
    n, c, hp, wp = data.shape
    oh, ow = hp // kh, wp // kw
    total = None
    for i in range(kh):
        row = data[:, :, i::kh, 0::kw]
        for j in range(1, kw):
            row = row + data[:, :, i::kh, j::kw]
        total = row if total is None else total + row
    out = _node(total / (kh * kw), (x,))
    if out.requires_grad:
        h, w = x.data.shape[2:]

        def _bw(g):
            # kh*kw strided writes: filling a 6-d broadcast view whose inner
            # extent is kw ran 3-4x slower
            g = g * (1.0 / (kh * kw))
            full = np.empty((n, c, hp, wp), dtype=data.dtype)
            for i in range(kh):
                for j in range(kw):
                    full[:, :, i::kh, j::kw] = g
            _accum(x, full if (h, w) == (hp, wp) else full[:, :, :h, :w])
        out._backward = _bw
    return out


def avg_pool(x, k=2):
    """k x k mean pooling, stride k; odd extents are zero-padded on the high side."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ph, pw = (-h) % k, (-w) % k
    if ph or pw:
        padded = np.zeros((n, c, h + ph, w + pw), dtype=x.data.dtype)
        padded[:, :, :h, :w] = x.data
    else:
        padded = x.data
    return _block_mean(x, padded, k, k)


def adaptive_avg_pool(x, out_hw):
    """Adaptive mean pooling to a target spatial size via partitioned means.

    When the target divides the input, every partition is a kh x kw block
    and the means are block means as in avg_pool; otherwise partition
    (i, j) covers rows [i*h // th, (i+1)*h // th) and the columns likewise.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    th, tw = out_hw
    if th < 1 or tw < 1 or th > h or tw > w:
        raise ShapeError(f"adaptive_avg_pool target {out_hw} invalid for input {h}x{w}")
    if h % th or w % tw:
        return _partition_mean(x, th, tw)
    return _block_mean(x, x.data, h // th, w // tw)


def _partition_mean(x, th, tw):
    """adaptive_avg_pool's general case: a loop over uneven partitions."""
    n, c, h, w = x.data.shape
    hb = [(i * h) // th for i in range(th + 1)]
    wb = [(j * w) // tw for j in range(tw + 1)]
    y = np.empty((n, c, th, tw), dtype=x.data.dtype)
    for i in range(th):
        for j in range(tw):
            y[:, :, i, j] = x.data[:, :, hb[i]:hb[i + 1], wb[j]:wb[j + 1]].mean(axis=(2, 3))
    out = _node(y, (x,))
    if out.requires_grad:
        x_shape = x.data.shape

        def _bw(g):
            dx = np.zeros(x_shape, dtype=x.data.dtype)
            for i in range(th):
                for j in range(tw):
                    blk = 1.0 / ((hb[i + 1] - hb[i]) * (wb[j + 1] - wb[j]))
                    dx[:, :, hb[i]:hb[i + 1], wb[j]:wb[j + 1]] += g[:, :, i, j, None, None] * blk
            _accum(x, dx)
        out._backward = _bw
    return out


def group_norm(x, groups, weight, bias, eps=1e-5):
    """Per-sample group normalization with per-channel affine (single node).

    Backward uses the closed form for mean/variance normalization (Wu & He,
    Group Normalization, 2018): with gy = weight*g and M values per group,
    dL/dx = inv * (gy - mean(gy) - xhat * mean(gy * xhat)) per group. Both
    means, dweight and dbias follow from two sums per (sample, channel),
    S1 = sum(g) and S2 = sum(g * xhat), so dx = B*xhat + C + A*g with
    B = -inv*mean(gy*xhat), C = -inv*mean(gy) and A = inv*weight per
    (sample, channel): two reductions and three passes over the block.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"group_norm expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if c % groups:
        raise ShapeError(f"group_norm: {c} channels not divisible into {groups} groups")
    xg = x.data.reshape(n, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    centered = xg - mu
    var = (centered * centered).mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    centered *= inv
    xhat = centered.reshape(n, c, h, w)
    w_col = weight.data.reshape(1, c, 1, 1)
    y = xhat * w_col
    y += bias.data.reshape(1, c, 1, 1)
    out = _node(y, (x, weight, bias))
    if out.requires_grad:
        per = c // groups
        xhat_c = centered.reshape(n, c, h * w)

        def _bw(g):
            g_c = g.reshape(n, c, h * w)
            # the buffer of g*xhat becomes dx: a second kept buffer, placed
            # above the small gradients stored in between, would leave a
            # block-sized hole in the heap when this one is freed
            dx = g_c * xhat_c
            s1, s2 = g_c.sum(axis=2), dx.sum(axis=2)
            if weight.requires_grad:
                _accum(weight, s2.sum(axis=0).reshape(weight.data.shape))
            if bias.requires_grad:
                _accum(bias, s1.sum(axis=0).reshape(bias.data.shape))
            if x.requires_grad:
                w_g = weight.data.reshape(groups, per)
                size = per * h * w
                m1 = (s1.reshape(n, groups, per) * w_g).sum(axis=2, keepdims=True) / size
                m2 = (s2.reshape(n, groups, per) * w_g).sum(axis=2, keepdims=True) / size
                np.multiply(xhat_c, np.repeat(-inv * m2, per, axis=1), out=dx)
                dx += np.repeat(-inv * m1, per, axis=1)
                dx += g_c * (inv * w_g).reshape(n, c, 1)
                _accum(x, dx.reshape(n, c, h, w))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# step activation with rectangular surrogate, and the neuron scan
# ---------------------------------------------------------------------------

def _fire(v, v_th, window, relaxed):
    """Spike values of potentials v: an exact step, or the relaxed ramp."""
    if relaxed:
        return np.clip((v - v_th) / (2.0 * window) + 0.5, 0.0, 1.0)
    return (v >= v_th).astype(v.dtype)


def _surrogate(v, v_th, window):
    """The spike's backward derivative: 1/(2*window) where |v - v_th| <= window,
    in v's dtype."""
    return (np.abs(v - v_th) <= window) * (v.dtype.type(1.0) / v.dtype.type(2.0 * window))


def spike(v, v_th=1.0, window=0.5, relaxed=False):
    """Threshold activation.

    Forward (default): exact step, 1.0 where v >= v_th.
    Forward (relaxed): piecewise-linear ramp clip((v - v_th)/(2*window) + 0.5, 0, 1),
    a continuous stand-in whose true derivative equals the surrogate below —
    used for finite-difference validation of the backward pass.

    Backward (both modes, decoupled from the forward value): rectangular
    window, grad * 1/(2*window) where |v - v_th| <= window, else 0.
    """
    if window <= 0:
        raise ShapeError(f"spike surrogate window must be positive, got {window}")
    v_data = v.data
    out = _node(_fire(v_data, v_th, window, relaxed), (v,))
    if out.requires_grad:
        def _bw(g):
            _accum(v, g * _surrogate(v_data, v_th, window))
        out._backward = _bw
    return out


def neuron_scan(current, v0, neuron, reset=True, relaxed=False):
    """The spiking neuron run over axis 0 (time) of `current`, as one node.

    V[t] = beta*V[t-1] + gamma*I[t], starting from the carried potential v0
    (a tensor shaped like one time step, or None for v_reset). With reset,
    S[t] = spike(V[t]) as in `spike` and the carried potential becomes
    V[t]*(1 - S[t]) + v_reset*S[t]; the output is S. Without reset the
    output is V itself (the never-reset trace). `neuron` supplies beta,
    gamma, v_th, v_reset and surrogate_window.

    Returns (out, v_end, potentials): v_end is the carried potential after
    the last step, a child node of `out` through which gradient reaches
    this scan when a later block starts from it; potentials is the plain
    array of pre-reset V.

    The backward runs in reverse time. With C[t] the carried potential after
    step t and sg the surrogate derivative of S[t],
        dV[t] = dS[t]*sg[t] + dC[t]*((1 - S[t]) + (v_reset - V[t])*sg[t])
    (without reset, dV[t] = dV_out[t] + dC[t]), dC[t-1] = beta*dV[t],
    dI[t] = gamma*dV[t] and dv0 = beta*dV[0], where dC of the last step is
    the gradient that reached v_end.
    """
    beta, gamma, v_reset = neuron.beta, neuron.gamma, neuron.v_reset
    v_th, window = neuron.v_th, neuron.surrogate_window
    drive = current.data if gamma == 1.0 else gamma * current.data
    potentials = np.empty_like(drive)
    spikes = np.empty_like(drive) if reset else None
    top = np.finfo(drive.dtype).max
    v = v_reset if v0 is None else v0.data
    for t in range(drive.shape[0]):
        v = potentials[t] = (v if beta == 1.0 else beta * v) + drive[t]
        if reset:
            s = spikes[t] = _fire(v, v_th, window, relaxed)
            if relaxed:
                v = v * (1.0 - s) + v_reset * s
            else:
                # v_reset where s fired, v elsewhere: the same values as
                # np.where(s > 0, v_reset, v) without its slow masked loop.
                # Clipping to the largest finite value lets +inf reset to
                # v_reset instead of becoming inf * 0 = NaN.
                v = np.minimum(v, top) * (1.0 - s)
                if v_reset != 0.0:
                    v += v_reset * s
    inputs = (current,) if v0 is None else (current, v0)
    out = _node(spikes if reset else potentials, inputs)
    v_end = _node(np.array(v, dtype=drive.dtype), (out,))
    if not out.requires_grad:
        return out, v_end, potentials
    carry = [None]     # the gradient reaching v_end, handed to out's backward

    def _bw_end(g):
        carry[0] = g
        if out.grad is None:
            out.grad = np.zeros_like(out.data)
    v_end._backward = _bw_end

    def _bw(g):
        if reset:
            sg = _surrogate(potentials, v_th, window)
            dv = g * sg
            through_reset = (1.0 - spikes) + (v_reset - potentials) * sg
        else:
            dv = np.array(g)
        dc = carry[0]
        for t in range(g.shape[0] - 1, -1, -1):
            if dc is not None:
                dv[t] += dc * through_reset[t] if reset else dc
            dc = dv[t] if beta == 1.0 else beta * dv[t]
        if current.requires_grad:
            _accum(current, dv if gamma == 1.0 else gamma * dv)
        if v0 is not None and v0.requires_grad:
            _accum(v0, dc)
    out._backward = _bw
    return out, v_end, potentials


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class SGD:
    """Plain stochastic gradient descent over a list of parameter tensors."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr=None):
        rate = self.lr if lr is None else float(lr)
        for p in self.params:
            if p.grad is not None:
                p.data -= rate * p.grad


# ---------------------------------------------------------------------------
# checkpoint container: named float64 tensors
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SSLC"
CHECKPOINT_VERSION = 1
_IO_BLOCK = 1 << 16        # values widened per write


class CheckpointError(ValueError):
    """Raised when a checkpoint container or its sidecar is malformed."""


def save_named_tensors(path, named):
    """Write an ordered {name: array} mapping to the flat binary container.

    Layout: magic "SSLC", version u32 LE, then per tensor: name length u32,
    utf-8 name bytes, rank u32, extents u64 each, raw float64 LE values
    (float32 tensors are widened, which is exact).
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, value in named.items():
            arr = np.asarray(value.data if isinstance(value, Tensor) else value)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            flat = arr.reshape(-1)     # widened a block at a time: no full-size copy
            for start in range(0, flat.size, _IO_BLOCK):
                fh.write(flat[start:start + _IO_BLOCK].astype("<f8").data)


def load_named_tensors(path):
    """Read the container written by save_named_tensors; returns {name: array}.
    Raises CheckpointError unless it holds whole records with distinct names."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(n, what):
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what} at byte {fh.tell()}: "
                                      f"needs {n} bytes, {size - fh.tell()} remain")

        def take(n, what):
            need(n, what)
            return fh.read(n)

        magic = take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported container version {version}")
        named = {}
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: tensor name before byte {fh.tell()} is not utf-8") from None
            if name in named:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
            extents = struct.unpack(f"<{rank}Q", take(8 * rank, f"extents of {name!r}"))
            need(8 * math.prod(extents), f"values of {name!r}")
            values = np.empty(extents, dtype="<f8")      # read in place: no whole-file buffer
            if fh.readinto(values) != values.nbytes:
                raise CheckpointError(f"{path}: values of {name!r} cut short while read")
            named[name] = values.astype(np.float64, copy=False)
    return named

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
backward passes over a fresh graph reproduce identical bytes.

Graph and data are kept apart (as in Paszke et al., "Automatic
differentiation in PyTorch", 2017):

* A `Tensor` holds its `data`, and a tracked op's output also holds its
  graph node (`Tensor.node`). A leaf, a parameter say, is its own node.
* A node (`_Node`) holds the gradient, the backward closure, the parent
  nodes (None for an input that takes no gradient), and the output's dtype
  and shape, but not its data. So a forward output lives as long as the
  caller's `Tensor`, or a closure that saved it: a group-norm output or a
  hidden spike map goes once the next layer has read it.
* The backward calls each closure with the output gradient and its node's
  parents. A closure holds only the arrays it saved when the forward ran,
  never a `Tensor` or a node, which keeps the graph acyclic for reference
  counting. What each saves: elementwise ops the operands their derivative
  reads (`exp` its output); `linear` its input's and weight's data;
  `conv2d` the same; `group_norm` its input, the group means and scales;
  `spike` its input potentials; `neuron_scan` its potentials only;
  reshapes, sums, pools, casts, concatenation and gather nothing but
  shapes and indices.

The backward frees each node's closure and parents as soon as it has run
them, so the saved forward buffers and the gradients of nodes nobody holds
go as the sweep passes, without garbage-collector sweeps. A graph can be
back-propagated once; a second pass through it raises RuntimeError.

A backward reads the arrays it saved as they are at backward time: `linear`
multiplies by its weight's data, `conv2d` gathers its columns again from its
input's data and `group_norm` recomputes its centred input, instead of
saving copies. So no one may write into an op's input data, or a
parameter's, between a forward and its backward; `SGD.step` runs after the
backward.

Layout: every op hands on C-ordered arrays, as output data and as gradients.
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
    "save_named_tensors", "load_named_tensors", "load_named_tensors_into", "CheckpointError",
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_grad_enabled = True


def _freed(grad, *parents):
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


class _Node:
    """A tracked op's place in the graph: the gradient that reached it, its
    backward closure, its parent nodes (None for an input that takes no
    gradient) and its output's dtype and shape. It holds no forward data."""

    __slots__ = ("grad", "_backward", "_prev", "dtype", "shape")

    def __init__(self, data, parents):
        self.grad = None
        self._backward = None
        self._prev = parents
        self.dtype = data.dtype
        self.shape = data.shape


class Tensor:
    """A numpy float32 or float64 array; a tracked op's output also holds its
    graph node. A float32 ndarray stays float32; anything else becomes
    float64."""

    __slots__ = ("data", "requires_grad", "_grad", "_node")

    # A leaf is its own graph node: no parents, no backward.
    _prev = ()
    _backward = None

    def __init__(self, data, requires_grad=False):
        if not (type(data) is np.ndarray and data.dtype == np.float32):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self._node = None

    # -- basic introspection -------------------------------------------------

    @property
    def node(self):
        """The tensor's graph node: its op's, or the tensor itself for a leaf."""
        return self if self._node is None else self._node

    @property
    def grad(self):
        """The gradient the last backward left at this tensor's node."""
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            self._grad = value
        else:
            self._node.grad = value

    @property
    def dtype(self):
        return self.data.dtype

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

        Builds the topologically ordered tape of nodes with an iterative
        post-order walk (training graphs can unroll to thousands of nodes,
        beyond Python's recursion limit) and pops it from the end. A node
        that no gradient reached is skipped: its backward could only pass
        zeros on.

        Each non-leaf node is freed as soon as its turn has passed: it drops
        its parents and its backward closure, and with them the forward
        buffers the closure saved. A node still held elsewhere keeps its
        `.grad`. So a graph can be back-propagated once: a second backward
        that reaches a freed node, from the same loss or from a new one built
        on it, raises RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        root = self.node
        tape = []
        seen = set()
        stack = [(root, False)]
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
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
        root.grad = np.ones_like(self.data)
        while tape:
            # popped, so the tape no longer holds the nodes already done
            node = tape.pop()
            if node._backward is None:      # a leaf
                continue
            if node.grad is not None:
                # read-only while its backward runs, so that _accum copies
                # it if the backward hands it on unchanged
                node.grad.flags.writeable = False
                node._backward(node.grad, *node._prev)
                node.grad.flags.writeable = True
            node._prev = ()
            node._backward = _freed


def _as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _output(data, inputs):
    """Create an op output: tracked iff grad is enabled and any input is. A
    tracked output gets a node whose parents are its inputs' nodes, None for
    an input that takes no gradient; the backward hands them to the op's
    closure as arguments, in the order of `inputs`."""
    out = Tensor(data)
    if _grad_enabled:
        parents = ()
        for t in inputs:    # a leaf is its own node; a loop costs less than a comprehension
            parents += (t._node or t if t.requires_grad else None,)
        if parents.count(None) < len(parents):
            out.requires_grad = True
            out._node = _Node(out.data, parents)
    return out


def _accum(node, grad):
    """Add grad into node.grad, which is kept in the node's own dtype."""
    dtype = node.dtype
    if node.grad is None:
        # A first gradient the backward has just allocated is stored as it
        # is. A view, or a node's own gradient handed on unchanged (add gives
        # it to both inputs), is copied, so that every stored grad owns its
        # buffer and adding into it changes no other node's grad.
        fresh = grad.flags.owndata and grad.flags.writeable and grad.dtype == dtype
        node.grad = grad if fresh else np.array(grad, dtype=dtype)
    else:
        node.grad += grad


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        c = float(b)
        if c == 0.0:
            return a
        out = _output(a.data + c, (a,))
        if out.requires_grad:
            def _bw(g, na):
                _accum(na, g)
            out._node._backward = _bw
        return out
    a = _as_tensor(a)
    out = _output(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g, na.shape))
            if nb is not None:
                _accum(nb, _unbroadcast(g, nb.shape))
        out._node._backward = _bw
    return out


def mul(a, b):
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        c = float(b)
        if c == 1.0:
            return a
        out = _output(a.data * c, (a,))
        if out.requires_grad:
            def _bw(g, na):
                _accum(na, g * c)
            out._node._backward = _bw
        return out
    a = _as_tensor(a)
    a_data, b_data = a.data, b.data
    out = _output(a_data * b_data, (a, b))
    if out.requires_grad:
        def _bw(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g * b_data, a_data.shape))
            if nb is not None:
                _accum(nb, _unbroadcast(g * a_data, b_data.shape))
        out._node._backward = _bw
    return out


def neg(a):
    out = _output(-a.data, (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, -g)
        out._node._backward = _bw
    return out


def power(a, exponent):
    e = float(exponent)
    a_data = a.data
    out = _output(a_data ** e, (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, g * e * a_data ** (e - 1.0))
        out._node._backward = _bw
    return out


def exp(a):
    data = np.exp(a.data)
    out = _output(data, (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, g * data)
        out._node._backward = _bw
    return out


def log(a):
    a_data = a.data
    out = _output(np.log(a_data), (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, g / a_data)
        out._node._backward = _bw
    return out


# ---------------------------------------------------------------------------
# shape / reduction primitives
# ---------------------------------------------------------------------------

def reshape(a, shape):
    out = _output(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, g.reshape(na.shape))
        out._node._backward = _bw
    return out


def tensor_sum(a, axis=None, keepdims=False):
    out = _output(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def _bw(g, na):
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(ax % len(na.shape) for ax in axes))
            _accum(na, np.broadcast_to(g, na.shape))
        out._node._backward = _bw
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
    out = _output(np.concatenate([t.data for t in tensors]), tensors)
    if out.requires_grad:
        bounds = np.cumsum([0] + [t.shape[0] for t in tensors])

        def _bw(g, *parts):
            for node, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
                part = g[lo:hi]
                if node is not None and part.any():
                    _accum(node, part)
        out._node._backward = _bw
    return out


def gather(a, index):
    """a[index] for an integer or integer array index into the leading axis."""
    out = _output(a.data[index], (a,))
    if out.requires_grad:
        def _bw(g, na):
            full = np.zeros(na.shape, dtype=na.dtype)
            np.add.at(full, index, g)
            _accum(na, full)
        out._node._backward = _bw
    return out


def cast(a, dtype):
    """a's values in `dtype` (a itself if they already are); the backward
    hands the gradient back in a's dtype."""
    if a.data.dtype == dtype:
        return a
    out = _output(a.data.astype(dtype), (a,))
    if out.requires_grad:
        def _bw(g, na):
            _accum(na, g)
        out._node._backward = _bw
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
    forwarded whole. The net's linear layers use 16-row blocks
    (`snn.LinearLayer`): BLAS repacks the weight for every block, so for the
    default net's 2 MB fc0 weight one 16-row product costs less than two
    8-row ones. The backward forms each gradient in one product over all
    rows.
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
    out = _output(y, inputs)
    if out.requires_grad:
        def _bw(g, nx, nw, nb=None):
            if nx is not None:
                _accum(nx, g @ w_data)
            if nw is not None:
                _accum(nw, g.T @ x_data)
            if nb is not None:
                _accum(nb, g.sum(axis=0))
        out._node._backward = _bw
    return out


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, padding):
    """(n, c*kh*kw, oh*ow) columns of the kh x kw windows of x zero-padded
    by `padding` on every side, gathered in runs of oh*ow values.

    x is copied once, padded in height only, into a flat buffer at the
    output's row pitch ow: input row r starts at offset (r + padding)*ow.
    Output position (r, s) then finds its window offset (i, j) at flat offset
    (r + i)*ow + s + d with d = j - padding, so each kernel offset is one
    contiguous copy of oh*ow values per cell and channel, where copying
    windows of the padded input moves rows of only ow values. A column
    whose window reaches past a row's edge, s < -d or s >= w - d, reads the
    neighbouring row (or the slack at either end of the buffer) instead of
    the side padding; those columns are set to +0.0 afterwards. The columns
    are then the bytes of the zero-padded input's windows.

    A row must fit its pitch, w <= ow, that is 2*padding >= kw - 1, as it
    does for every padding = k // 2 convolution. A narrower convolution
    copies the windows of a zero-padded copy of x instead.
    """
    n, c, h, w = x.shape
    p = padding
    oh, ow = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    cols = np.empty((n, c, kh, kw, oh * ow), dtype=x.dtype)
    windows = cols.reshape(n, c, kh, kw, oh, ow)
    if ow < w:
        padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        padded[:, :, p:p + h, p:p + w] = x
        for i in range(kh):
            for j in range(kw):
                windows[:, :, i, j] = padded[:, :, i:i + oh, j:j + ow]
    else:
        # p values of slack before the first row, kw - 1 - p after the last
        flat = np.zeros((n, c, p + (h + 2 * p) * ow + max(kw - 1 - p, 0)), dtype=x.dtype)
        flat[:, :, p + p * ow:p + (p + h) * ow].reshape(n, c, h, ow)[..., :w] = x
        for i in range(kh):
            for j in range(kw):
                start = i * ow + j
                cols[:, :, i, j] = flat[:, :, start:start + oh * ow]
        for j in range(kw):
            d = j - p
            if d < 0:
                windows[:, :, :, j, :, :-d] = 0.0
            if w - d < ow:
                windows[:, :, :, j, :, max(w - d, 0):] = 0.0
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
    is accepted only as 1, for callers that spell it out.

    Lowered to one GEMM per call, weight rows times the im2col columns of
    every cell (Chellapilla, Puri & Simard, "High Performance Convolutional
    Neural Networks for Document Processing", 2006); `_im2col` gathers the
    columns without a zero-padded copy of the input. The backward saves the
    input's data, kh*kw times smaller than the columns, instead of the
    columns: it scatters the input gradient on a row-pitched buffer
    (`_conv_input_grad`) first, and only then, when the weight takes a
    gradient, gathers the columns again, so the two never coexist.
    """
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
    cols, oh, ow = _im2col(x.data, kh, kw, padding)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    y = np.matmul(wmat[None], cols).reshape(n, cout, oh, ow)
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _output(y, inputs)
    if out.requires_grad:
        x_data = x.data
        padded_shape = (n, cin, h + 2 * padding, w + 2 * padding)

        def _bw(g, nx, nw, nb=None):
            if nx is not None:
                dpadded = _conv_input_grad(wmat, g, padded_shape, kh, kw)
                if padding:
                    dpadded = dpadded[:, :, padding:-padding, padding:-padding]
                _accum(nx, dpadded)
                del dpadded     # the padded buffer, before the columns come
            if nb is not None:
                _accum(nb, g.sum(axis=(0, 2, 3)).reshape(nb.shape))
            if nw is not None:
                # the columns as gathered times the transposed gradient, the
                # same sums as gmat @ cols.T but faster; transposed back
                # into a C-ordered array
                cols = _im2col(x_data, kh, kw, padding)[0]
                dw = np.matmul(cols, g.reshape(n, cout, oh * ow).transpose(0, 2, 1)).sum(axis=0)
                _accum(nw, np.ascontiguousarray(dw.T).reshape(cout, cin_w, kh, kw))
        out._node._backward = _bw
    return out


def _block_mean(x, data, kh, kw):
    """Output of the kh x kw block means of data, x's values zero-padded on
    the high side to extents that kh and kw divide. The backward saves
    neither: with x a hidden layer's spikes, the spike map goes as soon as
    the pooling has read it.

    The block sums add strided views of data, row first: the kw neighbours
    along the contiguous axis over every row at once, then the kh rows of
    those sums, each a run of ow values. That is the same association as
    summing each block row by row, ((a + b) + (c + d)) / 4 for 2 x 2, in
    fewer, longer passes than one per block row. numpy's reduction over the
    block axes of a reshaped view took 3.5 ms instead of 0.6 ms for the
    default net's three pools over an 8-cell block, and made the 90-cell
    slicing forward of the slice-csv benchmark 20% slower.
    """
    n, c, hp, wp = data.shape
    rows = data[..., 0::kw]
    for j in range(1, kw):
        rows = rows + data[..., j::kw]
    total = rows[:, :, 0::kh]
    for i in range(1, kh):
        total = total + rows[:, :, i::kh]
    out = _output(total / (kh * kw), (x,))
    if out.requires_grad:
        h, w = x.shape[2:]
        dtype = data.dtype

        def _bw(g, nx):
            # kh*kw strided writes: filling a 6-d broadcast view whose inner
            # extent is kw ran 3-4x slower
            g = g * (1.0 / (kh * kw))
            full = np.empty((n, c, hp, wp), dtype=dtype)
            for i in range(kh):
                for j in range(kw):
                    full[:, :, i::kh, j::kw] = g
            _accum(nx, full if (h, w) == (hp, wp) else full[:, :, :h, :w])
        out._node._backward = _bw
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
    out = _output(y, (x,))
    if out.requires_grad:
        def _bw(g, nx):
            dx = np.zeros(nx.shape, dtype=nx.dtype)
            for i in range(th):
                for j in range(tw):
                    blk = 1.0 / ((hb[i + 1] - hb[i]) * (wb[j + 1] - wb[j]))
                    dx[:, :, hb[i]:hb[i + 1], wb[j]:wb[j + 1]] += g[:, :, i, j, None, None] * blk
            _accum(nx, dx)
        out._node._backward = _bw
    return out


def _dots(a, b):
    """Dot products of a and b along their last axis, keeping it as size 1:
    one BLAS dot per leading index, each summed in an order fixed by the
    axis length alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def group_norm(x, groups, weight, bias, eps=1e-5):
    """Per-sample group normalization with per-channel affine (single node).

    Every per-group and per-channel sum is a BLAS dot product (`_dots`).
    The forward takes mu = dot(x, 1)/K over the K values of a group,
    centered = x - mu, var = dot(centered, centered)/K and
    inv = 1/sqrt(var + eps), and folds the affine into one scale = inv*weight
    per (sample, channel): y = centered*scale + bias, two passes, with xhat
    never formed.

    Backward uses the closed form for mean/variance normalization (Wu & He,
    Group Normalization, 2018): with gy = weight*g,
    dL/dx = inv * (gy - m1 - xhat*m2) per group, m1 = mean(gy) and
    m2 = mean(gy*xhat). Both means, dweight and dbias follow from two dot
    products per (sample, channel), sum(g) and sum(g*centered), so g*xhat is
    never formed either; then dx = g*scale + centered*B + C with
    B = -inv**2 * m2 and C = -inv*m1 per group.

    The forward writes y into the buffer of `centered`, so the node saves no
    full-size array besides its input's data: the backward keeps mu and
    recomputes centered = x - mu (one subtraction, the forward's own bytes),
    then overwrites it with centered*B + C.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"group_norm expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if c % groups:
        raise ShapeError(f"group_norm: {c} channels not divisible into {groups} groups")
    per, hw = c // groups, h * w
    size = per * hw
    xg = x.data.reshape(n, groups, size)
    mu = _dots(xg, np.ones(size, dtype=xg.dtype)) / size
    centered = xg - mu
    inv = 1.0 / np.sqrt(_dots(centered, centered) / size + eps)
    w_g = weight.data.reshape(groups, per)
    scale = (inv * w_g).reshape(n, c, 1)
    y = centered.reshape(n, c, hw)
    y *= scale
    y += bias.data.reshape(1, c, 1)
    out = _output(y.reshape(n, c, h, w), (x, weight, bias))
    if out.requires_grad:
        def _bw(g, nx, nw, nb):
            centered = xg - mu
            g_c = g.reshape(n, c, hw)
            s1 = _dots(g_c, np.ones(hw, dtype=g.dtype)).reshape(n, groups, per)
            s2 = _dots(g_c, centered.reshape(n, c, hw)).reshape(n, groups, per)
            if nw is not None:
                # sum(g*xhat) = inv * sum(g*centered)
                _accum(nw, (s2 * inv).sum(axis=0).reshape(nw.shape))
            if nb is not None:
                _accum(nb, s1.sum(axis=0).reshape(nb.shape))
            if nx is not None:
                m1 = (s1 * w_g).sum(axis=2, keepdims=True) / size
                m2 = inv * (s2 * w_g).sum(axis=2, keepdims=True) / size
                t = np.multiply(centered, -inv * inv * m2, out=centered)
                t += -inv * m1
                dx = g_c * scale
                dx += t.reshape(n, c, hw)
                _accum(nx, dx.reshape(n, c, h, w))
        out._node._backward = _bw
    return out


# ---------------------------------------------------------------------------
# step activation with rectangular surrogate, and the neuron scan
# ---------------------------------------------------------------------------

def _fire(v, v_th, window, relaxed, out=None):
    """Spike values of potentials v, an exact step or the relaxed ramp
    clip((v - v_th) / (2 * window) + 0.5, 0, 1), written into `out` (a new
    array of v's dtype if None) one ufunc at a time."""
    if out is None:
        out = np.empty_like(v)
    if relaxed:
        np.subtract(v, v_th, out=out)
        np.divide(out, 2.0 * window, out=out)
        np.add(out, 0.5, out=out)
        np.clip(out, 0.0, 1.0, out=out)
    else:
        np.greater_equal(v, v_th, out=out)
    return out


def _fire_float(v, v_th, window, relaxed):
    """_fire of one Python float, with np.clip's comparisons (NaN stays NaN)."""
    if relaxed:
        x = (v - v_th) / (2.0 * window) + 0.5
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
    return 1.0 if v >= v_th else 0.0


def _surrogate(v, v_th, window):
    """The spike's backward derivative: 1/(2*window) where |v - v_th| <= window,
    in a new array of v's dtype. The mask is formed as 1.0 or 0.0 in that
    array, so it takes the same bytes as the bool mask times 1/(2*window)."""
    out = np.empty_like(v)
    np.subtract(v, v_th, out=out)
    np.abs(out, out=out)
    np.less_equal(out, window, out=out)
    np.multiply(out, v.dtype.type(1.0) / v.dtype.type(2.0 * window), out=out)
    return out


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
    out = _output(_fire(v_data, v_th, window, relaxed), (v,))
    if out.requires_grad:
        def _bw(g, nv):
            _accum(nv, g * _surrogate(v_data, v_th, window))
        out._node._backward = _bw
    return out


def _scan_rows(drive, v, neuron, reset, relaxed):
    """neuron_scan's forward over array steps: (potentials, spikes or None,
    the carried potential after the last step).

    Each step writes its potential and spike straight into their output
    rows, and the reset potential goes to one buffer reused by every step,
    with a second one for the factors (1 - S) and v_reset*S: the same ufuncs
    on the same operands in the same order as the out-of-place expressions
    in the comments, so the same bytes, without allocating a row per
    operation. Steps are flattened to rows, because a step of a 1-D drive
    indexes as a scalar copy that out= cannot write into.
    """
    beta, v_th, v_reset = neuron.beta, neuron.v_th, neuron.v_reset
    window = neuron.surrogate_window
    rows = drive.reshape(len(drive), math.prod(drive.shape[1:]))
    potentials = np.empty_like(rows)
    spikes = np.empty_like(rows) if reset else None
    if reset:
        carried = np.empty(rows.shape[1:], dtype=rows.dtype)
        factor = np.empty_like(carried)
    if isinstance(v, np.ndarray):
        v = v.reshape(rows.shape[1:])
    top = np.finfo(drive.dtype).max
    for t in range(len(rows)):
        p = potentials[t]
        # p = (v if beta == 1.0 else beta * v) + drive[t]
        if beta == 1.0:
            np.add(v, rows[t], out=p)
        else:
            np.multiply(v, beta, out=p)
            np.add(p, rows[t], out=p)
        if not reset:
            v = p
            continue
        s = _fire(p, v_th, window, relaxed, out=spikes[t])
        if relaxed:
            # carried = p * (1 - s) + v_reset * s
            np.subtract(1.0, s, out=factor)
            np.multiply(p, factor, out=carried)
            np.multiply(s, v_reset, out=factor)
            np.add(carried, factor, out=carried)
        else:
            # carried = minimum(p, top) * (1 - s) (+ v_reset * s): v_reset
            # where s fired, p elsewhere, the same values as
            # np.where(s > 0, v_reset, p) without its slow masked loop.
            # Clipping to the largest finite value lets +inf reset to
            # v_reset instead of becoming inf * 0 = NaN.
            np.minimum(p, top, out=carried)
            np.subtract(1.0, s, out=factor)
            np.multiply(carried, factor, out=carried)
            if v_reset != 0.0:
                np.multiply(s, v_reset, out=factor)
                np.add(carried, factor, out=carried)
        v = carried
    if isinstance(v, np.ndarray):
        v = v.reshape(drive.shape[1:])
    return (potentials.reshape(drive.shape),
            None if spikes is None else spikes.reshape(drive.shape), v)


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
    the gradient that reached v_end. The node saves the potentials only:
    the backward recomputes S from them with `_fire`, the array steps' own
    ufuncs (`_fire_float` gives the float steps the same values), so the
    spike output lives only as long as the caller's tensor.

    Both time loops, forward and reverse, run on one of two kinds of step,
    chosen by the shape of one step. A step of a 1-D float64 drive (the
    output neuron's) is one number, for which a NumPy op costs far more than
    its arithmetic: unless the drive and v0 hold a NaN (or both
    infinities) between them, those loops run on Python floats, the same
    IEEE doubles in the same order, so they give the same bytes. Every other
    step is an array row, and the forward writes each step in place
    (`_scan_rows`).
    """
    beta, gamma, v_reset = neuron.beta, neuron.gamma, neuron.v_reset
    v_th, window = neuron.v_th, neuron.surrogate_window
    drive = current.data if gamma == 1.0 else gamma * current.data
    v = v_reset if v0 is None else v0.data
    steps = drive.tolist() if drive.ndim == 1 and drive.dtype == np.float64 else None
    # Where two NaNs meet, Python's float arithmetic and the array ufuncs
    # may keep different ones; a NaN-free drive and v0 only ever make the
    # one default NaN, so both loops give the same bytes. Their sum is NaN
    # if either holds one (or holds both infinities, which the array loop
    # takes as well).
    floats = steps is not None and not math.isnan(sum(steps, float(v)))
    if floats:
        v, top = float(v), float(np.finfo(drive.dtype).max)
        potentials = [0.0] * len(steps)
        spikes = [0.0] * len(steps) if reset else None
        for t in range(len(steps)):
            v = potentials[t] = (v if beta == 1.0 else beta * v) + steps[t]
            if reset:
                s = spikes[t] = _fire_float(v, v_th, window, relaxed)
                if relaxed:
                    v = v * (1.0 - s) + v_reset * s
                else:
                    # v_reset where s fired, v elsewhere (see _scan_rows)
                    v = min(v, top) * (1.0 - s)
                    if v_reset != 0.0:
                        v += v_reset * s
        potentials = np.array(potentials)
        spikes = np.array(spikes) if reset else None
    else:
        potentials, spikes, v = _scan_rows(drive, v, neuron, reset, relaxed)
    inputs = (current,) if v0 is None else (current, v0)
    out = _output(spikes if reset else potentials, inputs)
    v_end = _output(np.array(v, dtype=drive.dtype), (out,))
    if not out.requires_grad:
        return out, v_end, potentials
    carry = [None]     # the gradient reaching v_end, handed to out's backward

    def _bw_end(g, n_out):
        carry[0] = g
        if n_out.grad is None:
            n_out.grad = np.zeros(n_out.shape, dtype=n_out.dtype)
    v_end._node._backward = _bw_end

    def _bw(g, n_current, n_v0=None):
        if reset:
            # sg, then (v_reset - V)*sg, then 1 - S in two block buffers: the
            # same ufuncs on the same operands as g*sg and
            # (1 - S) + (v_reset - V)*sg, so the same bytes
            buf = _surrogate(potentials, v_th, window)
            dv = g * buf
            through_reset = np.subtract(v_reset, potentials)
            through_reset *= buf
            np.subtract(1.0, _fire(potentials, v_th, window, relaxed, out=buf), out=buf)
            np.add(buf, through_reset, out=through_reset)
            del buf
        else:
            dv = np.array(g)
        # each row step's dC*(factor) goes to one row buffer; a step of one
        # value keeps NumPy's scalar arithmetic, whose NaN bits the ufuncs
        # need not match
        row = np.empty(dv.shape[1:], dtype=dv.dtype) if reset and dv.ndim > 1 else None
        dc = carry[0]
        if floats:
            dv, dc = dv.tolist(), None if dc is None else float(dc)
            if reset:
                through_reset = through_reset.tolist()
        for t in range(len(dv) - 1, -1, -1):
            if dc is not None:
                if row is not None:
                    dv[t] += np.multiply(dc, through_reset[t], out=row)
                else:
                    dv[t] += dc * through_reset[t] if reset else dc
            dc = dv[t] if beta == 1.0 else beta * dv[t]
        if floats:
            dv, dc = np.array(dv), None if dc is None else np.float64(dc)
        if n_current is not None:
            _accum(n_current, dv if gamma == 1.0 else gamma * dv)
        if n_v0 is not None:
            _accum(n_v0, dc)
    out._node._backward = _bw
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
_IO_BLOCK = 1 << 16        # values widened per write, narrowed per read


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


def _container_records(fh, path):
    """Walk the record headers of an open container, seeking past each
    record's values; returns {name: (extents, offset of the values)} in file
    order. Raises CheckpointError unless it holds whole records with
    distinct names."""
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
    records = {}
    while fh.tell() < size:
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: tensor name before byte {fh.tell()} is not utf-8") from None
        if name in records:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        extents = struct.unpack(f"<{rank}Q", take(8 * rank, f"extents of {name!r}"))
        n_bytes = 8 * math.prod(extents)
        need(n_bytes, f"values of {name!r}")
        records[name] = (extents, fh.tell())
        fh.seek(n_bytes, os.SEEK_CUR)
    return records


def _read_values(fh, path, records, named):
    """Fill each C-contiguous array of named from its record: the <f8 values
    pass through one block buffer and are cast into the array."""
    buffer = np.empty(_IO_BLOCK, dtype="<f8")
    for name, arr in named.items():
        fh.seek(records[name][1])
        flat = arr.reshape(-1)
        for start in range(0, flat.size, _IO_BLOCK):
            block = buffer[:min(_IO_BLOCK, flat.size - start)]
            if fh.readinto(block) != block.nbytes:
                raise CheckpointError(f"{path}: values of {name!r} cut short while read")
            flat[start:start + block.size] = block


def load_named_tensors(path):
    """Read the container written by save_named_tensors; returns {name:
    float64 array}. Raises CheckpointError unless it holds whole records with
    distinct names."""
    with open(path, "rb") as fh:
        records = _container_records(fh, path)
        named = {name: np.empty(extents) for name, (extents, _) in records.items()}
        _read_values(fh, path, records, named)
    return named


def load_named_tensors_into(path, named):
    """Overwrite the C-contiguous arrays of a {name: array} mapping in place
    from the container, each in its own dtype (values beyond a float32's range
    become inf, with NumPy's cast warning unless the caller's errstate
    silences it). Names, shapes and value lengths are all checked before any
    array is written, so a CheckpointError leaves every array as it was."""
    with open(path, "rb") as fh:
        records = _container_records(fh, path)
        missing, extra = set(named) - set(records), set(records) - set(named)
        if missing or extra:
            raise CheckpointError(f"checkpoint mismatch: missing {sorted(missing)}, "
                                  f"extra {sorted(extra)}")
        for name, arr in named.items():
            if records[name][0] != arr.shape:
                raise CheckpointError(f"checkpoint tensor {name} has shape {records[name][0]}, "
                                      f"expected {arr.shape}")
        _read_values(fh, path, records, named)

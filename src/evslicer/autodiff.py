"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery for a small convolutional spiking network: elementwise
arithmetic with numpy broadcasting, matmul/linear, 2-d convolution (im2col),
average pooling (fixed and adaptive), group normalization, reductions,
exp/log, and a step activation whose backward pass is a rectangular
surrogate window.

Everything is float64 and deterministic: a fixed graph construction order
fixes the gradient accumulation order, so repeated backward passes over a
fresh graph reproduce identical bytes. Backward closures receive the output
gradient as an argument and reference only their inputs, keeping the graph
acyclic for reference counting — unrolled training graphs free promptly
without garbage-collector sweeps.
"""
from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "no_grad",
    "conv2d", "avg_pool", "adaptive_avg_pool", "group_norm", "linear",
    "lincomb", "affine", "spike", "SGD",
    "save_named_tensors", "load_named_tensors", "CheckpointError",
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_grad_enabled = True


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
    """A numpy float64 array plus the closure that backpropagates into it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
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
        return affine(self, -1.0, float(other))

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

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape / reduction helpers -------------------------------------------

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Builds the topologically ordered tape with an iterative post-order
        walk (training graphs unroll to thousands of nodes, beyond Python's
        recursion limit) and replays it in reverse.
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
        for node in reversed(tape):
            if node._backward is not None:
                node._backward(node.grad)


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
    if tensor.grad is None:
        # np.array copies, so the stored grad owns its buffer even when the
        # incoming gradient is a view of another node's grad.
        tensor.grad = np.array(grad, dtype=np.float64)
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


def lincomb(a, b, ca, cb):
    """ca * a + cb * b with scalar coefficients, as a single fused node."""
    ca, cb = float(ca), float(cb)
    out = _node(ca * a.data + cb * b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * ca if ca != 1.0 else g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * cb if cb != 1.0 else g, b.data.shape))
        out._backward = _bw
    return out


def affine(a, scale, shift):
    """scale * a + shift with float scalars, as a single fused node."""
    scale, shift = float(scale), float(shift)
    out = _node(scale * a.data + shift, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * scale)
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


def tensor_mean(a, axis=None, keepdims=False):
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax % a.data.ndim]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    a_data, b_data = a.data, b.data
    out = _node(a_data @ b_data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                _accum(a, g @ b_data.T)
            if b.requires_grad:
                _accum(b, a_data.T @ g)
        out._backward = _bw
    return out


def linear(x, weight, bias=None):
    """y = x @ weight.T (+ bias); weight is (out_features, in_features)."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-d x and weight, got {x.data.shape}, {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear feature mismatch: x has {x.data.shape[1]}, weight expects {weight.data.shape[1]}"
        )
    inputs = (x, weight) if bias is None else (x, weight, bias)
    x_data, w_data = x.data, weight.data
    y = x_data @ w_data.T
    if bias is not None:
        y = y + bias.data
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

def _im2col(padded, kh, kw, stride):
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(dcols, padded_shape, kh, kw, stride, oh, ow):
    n, c, hp, wp = padded_shape
    dpadded = np.zeros(padded_shape, dtype=np.float64)
    d6 = dcols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dpadded[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += d6[:, :, i, j]
    return dpadded


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """2-d cross-correlation, NCHW input, OIHW weight."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and weight, got {x.data.shape}, {weight.data.shape}")
    n, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d kernel {kh}x{kw} larger than padded input {h}x{w} (pad {padding})")
    if padding:
        padded = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=np.float64)
        padded[:, :, padding:-padding, padding:-padding] = x.data
    else:
        padded = x.data
    cols, oh, ow = _im2col(padded, kh, kw, stride)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    y = np.matmul(wmat[None], cols).reshape(n, cout, oh, ow)
    if bias is not None:
        y = y + bias.data.reshape(1, cout, 1, 1)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _node(y, inputs)
    if out.requires_grad:
        padded_shape = padded.shape
        bias_shape = None if bias is None else bias.data.shape

        def _bw(g):
            gmat = g.reshape(n, cout, oh * ow)
            if weight.requires_grad:
                dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
                _accum(weight, dw.reshape(cout, cin_w, kh, kw))
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)).reshape(bias_shape))
            if x.requires_grad:
                dcols = np.matmul(wmat.T[None], gmat)
                dpadded = _col2im(dcols, padded_shape, kh, kw, stride, oh, ow)
                if padding:
                    dpadded = dpadded[:, :, padding:-padding, padding:-padding]
                _accum(x, dpadded)
        out._backward = _bw
    return out


def avg_pool(x, k=2):
    """k x k mean pooling, stride k; odd extents are zero-padded on the high side."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ph, pw = (-h) % k, (-w) % k
    if ph or pw:
        padded = np.zeros((n, c, h + ph, w + pw), dtype=np.float64)
        padded[:, :, :h, :w] = x.data
    else:
        padded = x.data
    oh, ow = padded.shape[2] // k, padded.shape[3] // k
    y = padded.reshape(n, c, oh, k, ow, k).mean(axis=(3, 5))
    out = _node(y, (x,))
    if out.requires_grad:
        def _bw(g):
            full = np.empty((n, c, oh, k, ow, k), dtype=np.float64)
            full[...] = (g * (1.0 / (k * k)))[:, :, :, None, :, None]
            full = full.reshape(n, c, oh * k, ow * k)
            _accum(x, full[:, :, :h, :w])
        out._backward = _bw
    return out


def adaptive_avg_pool(x, out_hw):
    """Adaptive mean pooling to a target spatial size via partitioned means."""
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool expects 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    th, tw = out_hw
    if th < 1 or tw < 1 or th > h or tw > w:
        raise ShapeError(f"adaptive_avg_pool target {out_hw} invalid for input {h}x{w}")
    hb = [(i * h) // th for i in range(th + 1)]
    wb = [(j * w) // tw for j in range(tw + 1)]
    y = np.empty((n, c, th, tw), dtype=np.float64)
    for i in range(th):
        for j in range(tw):
            y[:, :, i, j] = x.data[:, :, hb[i]:hb[i + 1], wb[j]:wb[j + 1]].mean(axis=(2, 3))
    out = _node(y, (x,))
    if out.requires_grad:
        x_shape = x.data.shape

        def _bw(g):
            dx = np.zeros(x_shape, dtype=np.float64)
            for i in range(th):
                for j in range(tw):
                    blk = 1.0 / ((hb[i + 1] - hb[i]) * (wb[j + 1] - wb[j]))
                    dx[:, :, hb[i]:hb[i + 1], wb[j]:wb[j + 1]] += g[:, :, i, j, None, None] * blk
            _accum(x, dx)
        out._backward = _bw
    return out


def group_norm(x, groups, weight, bias, eps=1e-5):
    """Per-sample group normalization with per-channel affine (single node).

    Backward uses the closed form for mean/variance normalization:
    dL/dx = inv * (gy - mean(gy) - xhat * mean(gy * xhat)) per group,
    where gy is the gradient through the affine scale.
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
    xhat = (centered * inv).reshape(n, c, h, w)
    w_col = weight.data.reshape(1, c, 1, 1)
    out = _node(xhat * w_col + bias.data.reshape(1, c, 1, 1), (x, weight, bias))
    if out.requires_grad:
        def _bw(g):
            if weight.requires_grad:
                _accum(weight, (g * xhat).sum(axis=(0, 2, 3)).reshape(weight.data.shape))
            if bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 2, 3)).reshape(bias.data.shape))
            if x.requires_grad:
                gy = (g * w_col).reshape(n, groups, -1)
                xh = xhat.reshape(n, groups, -1)
                m1 = gy.mean(axis=2, keepdims=True)
                m2 = (gy * xh).mean(axis=2, keepdims=True)
                dx = inv * (gy - m1 - xh * m2)
                _accum(x, dx.reshape(n, c, h, w))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# step activation with rectangular surrogate
# ---------------------------------------------------------------------------

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
    if relaxed:
        data = np.clip((v_data - v_th) / (2.0 * window) + 0.5, 0.0, 1.0)
    else:
        data = (v_data >= v_th).astype(np.float64)
    out = _node(data, (v,))
    if out.requires_grad:
        def _bw(g):
            mask = np.abs(v_data - v_th) <= window
            _accum(v, g * mask / (2.0 * window))
        out._backward = _bw
    return out


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


class CheckpointError(ValueError):
    """Raised when a checkpoint container or its sidecar is malformed."""


def save_named_tensors(path, named):
    """Write an ordered {name: array} mapping to the flat binary container.

    Layout: magic "SSLC", version u32 LE, then per tensor: name length u32,
    utf-8 name bytes, rank u32, extents u64 each, raw float64 LE values.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, value in named.items():
            arr = np.ascontiguousarray(
                value.data if isinstance(value, Tensor) else value, dtype="<f8"
            )
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_named_tensors(path):
    """Read the container written by save_named_tensors; returns {name: array}.
    Raises CheckpointError unless it holds whole records with distinct names."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    offset = 0

    def take(n, what):
        nonlocal offset
        if n > len(blob) - offset:
            raise CheckpointError(f"{path}: truncated {what} at byte {offset}: "
                                  f"needs {n} bytes, {len(blob) - offset} remain")
        offset += n
        return blob[offset - n:offset]

    magic = bytes(take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    named = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = bytes(take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name before byte {offset} is not utf-8") from None
        if name in named:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        extents = struct.unpack(f"<{rank}Q", take(8 * rank, f"extents of {name!r}"))
        data = take(8 * math.prod(extents), f"values of {name!r}")
        named[name] = np.frombuffer(data, dtype="<f8").reshape(extents).astype(np.float64)
    return named

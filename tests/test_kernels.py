"""Byte equivalence of the rewritten autodiff kernels with the forms they
replaced, and the memory layout of everything the default net hands on.

Each reference below is the numpy form a kernel used before it was moved to
a faster path; it lives only here. The kernels promise the same bits, not
merely close values: BLAS and numpy sum in an order fixed by shape and
layout, so equal inputs must give equal bytes.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evslicer import autodiff as ad
from evslicer.autodiff import Tensor
from evslicer.losses import timing_loss
from evslicer.snn import CHUNK, NeuronConfig, SlicerNet

DTYPES = (np.float32, np.float64)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def floats(dtype, special=()):
    """Elements of `dtype`: finite values, infinities, NaN, signed zeros and
    the given special values."""
    width = np.finfo(dtype).bits
    return st.one_of(st.floats(width=width, allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, *special]))


# ---------------------------------------------------------------------------
# the neuron scan's hard reset
# ---------------------------------------------------------------------------

def where_scan(drive, v, beta, v_th, v_reset):
    """neuron_scan's forward with the np.where reset it used to run."""
    spikes, potentials = [], []
    for d in drive:
        v = (v if beta == 1.0 else beta * v) + d
        potentials.append(v)
        s = (v >= v_th).astype(drive.dtype)
        spikes.append(s)
        v = np.where(s > 0.0, v_reset, v)
    return np.stack(spikes), np.stack(potentials), np.asarray(v, dtype=drive.dtype)


@st.composite
def scan_inputs(draw):
    dtype = draw(st.sampled_from(DTYPES))
    v_th = 1.0
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    drive = draw(hnp.arrays(dtype, shape, elements=floats(dtype, special=(v_th, -v_th))))
    v0 = draw(hnp.arrays(dtype, shape[1:], elements=floats(dtype, special=(v_th,))))
    return drive, v0, draw(st.sampled_from([1.0, 0.9])), v_th


@pytest.mark.parametrize("v_reset", [0.0, -0.4, 0.4])
@given(scan_inputs())
@settings(max_examples=100, deadline=None)
def test_hard_reset_matches_where(v_reset, case):
    """Spikes, pre-reset potentials and the carried potential equal the
    np.where form's bytes, for every float including +-inf, NaN, +-0 and
    exactly v_th. One exception: with v_reset > 0, a potential of exactly
    -0.0 that does not fire is carried as +0.0 (x + 0.0 turns -0.0 into
    +0.0), so there the zeros are compared without their sign."""
    drive, v0, beta, v_th = case
    cfg = NeuronConfig(beta=beta, v_th=v_th, v_reset=v_reset)
    with np.errstate(all="ignore"):
        out, v_end, potentials = ad.neuron_scan(Tensor(drive), Tensor(v0), cfg)
        ref = where_scan(drive, v0, beta, v_th, v_reset)
    unsign = (lambda a: a + a.dtype.type(0.0)) if v_reset > 0 else (lambda a: a)
    for got, want in zip((out.data, potentials, v_end.data), ref):
        assert same_bytes(unsign(got), unsign(want))


@given(st.sampled_from(DTYPES), st.data())
@settings(max_examples=60, deadline=None)
def test_surrogate_matches_division(dtype, data):
    v = data.draw(hnp.arrays(dtype, data.draw(st.integers(0, 20)),
                             elements=floats(dtype, special=(0.5, 1.5, 1.0))))
    window = data.draw(st.sampled_from([0.5, 0.3, 1.0 / 3.0]))
    with np.errstate(invalid="ignore"):
        want = (np.abs(v - 1.0) <= window).astype(v.dtype) / (2.0 * window)
    assert same_bytes(ad._surrogate(v, 1.0, window), want)


# ---------------------------------------------------------------------------
# pooling backward
# ---------------------------------------------------------------------------

@given(st.sampled_from(DTYPES), st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
       st.integers(1, 7), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_pool_backward_matches_broadcast_fill(dtype, n, c, h, w, k, seed):
    """avg_pool's (and so the divisible adaptive pool's) input gradient
    equals filling a 6-d broadcast view of the scaled output gradient."""
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(n, c, h, w)).astype(dtype), requires_grad=True)
    y = ad.avg_pool(x, k)
    g = r.normal(size=y.shape).astype(dtype)
    y._backward(g)
    oh, ow = y.shape[2:]
    full = np.empty((n, c, oh * k, ow * k), dtype=dtype)
    full.reshape(n, c, oh, k, ow, k)[...] = (g * (1.0 / (k * k)))[:, :, :, None, :, None]
    assert same_bytes(x.grad, np.ascontiguousarray(full[:, :, :h, :w]))


# ---------------------------------------------------------------------------
# linear forward
# ---------------------------------------------------------------------------

@given(st.sampled_from(DTYPES), st.data())
@settings(max_examples=80, deadline=None)
def test_linear_matches_padded_product(dtype, data):
    """linear's weight @ block.T gives block @ weight.T's bytes, for row
    counts that are and are not a multiple of `rows`, with and without rows,
    and for spike-valued as for real-valued inputs."""
    m = data.draw(st.integers(0, 3 * CHUNK), label="m")
    k = data.draw(st.sampled_from([1, 3, 16, 96, 1024]), label="in")
    o = data.draw(st.sampled_from([1, 2, 7, 64, 512]), label="out")
    rows = data.draw(st.sampled_from([None, 1, 3, CHUNK]), label="rows")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    r = np.random.default_rng(seed)
    x = r.normal(size=(m, k)).astype(dtype)
    if data.draw(st.booleans(), label="spikes"):
        x = (x > 0.5).astype(dtype)
    w, b = r.normal(size=(o, k)).astype(dtype), r.normal(size=o).astype(dtype)
    got = ad.linear(Tensor(x), Tensor(w), Tensor(b), rows=rows).data
    if rows is None:
        want = x @ w.T + b
    else:
        padded = np.zeros((-(-m // rows) * rows, k), dtype=dtype)
        padded[:m] = x
        want = np.concatenate([np.zeros((0, o), dtype)] + [padded[i:i + rows] @ w.T
                                                          for i in range(0, len(padded), rows)])
        want = want[:m] + b
    assert same_bytes(got, want)
    assert got.flags.c_contiguous


# ---------------------------------------------------------------------------
# convolution and group norm
# ---------------------------------------------------------------------------

def window_im2col(padded, kh, kw, stride):
    """_im2col as a copy of the transposed sliding-window view."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


@given(st.sampled_from(DTYPES), st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
       st.integers(1, 9), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_im2col_matches_window_view(dtype, n, c, h, w, kh, kw, stride, seed):
    padded = np.random.default_rng(seed).normal(size=(n, c, h + kh - 1, w + kw - 1)).astype(dtype)
    cols, oh, ow = ad._im2col(padded, kh, kw, stride)
    want, woh, wow = window_im2col(padded, kh, kw, stride)
    assert (oh, ow) == (woh, wow) and same_bytes(cols, want)


@given(st.sampled_from(DTYPES), st.integers(1, 8), st.sampled_from([1, 2, 16]),
       st.sampled_from([1, 4, 32]), st.sampled_from([(3, 3), (8, 8), (16, 16)]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_matches_replaced_forms(dtype, n, cin, cout, hw, seed):
    """conv2d's output, weight gradient and input gradient against the
    forms it replaced: out-of-place bias, and gmat @ cols.T for dW."""
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(n, cin, *hw)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=(cout, cin, 3, 3)).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=cout).astype(dtype), requires_grad=True)
    y = ad.conv2d(x, w, b, padding=1)
    padded = np.zeros((n, cin, hw[0] + 2, hw[1] + 2), dtype=dtype)
    padded[:, :, 1:-1, 1:-1] = x.data
    cols, oh, ow = window_im2col(padded, 3, 3, 1)
    wmat = w.data.reshape(cout, -1)
    want = np.matmul(wmat[None], cols).reshape(n, cout, oh, ow) + b.data.reshape(1, cout, 1, 1)
    assert same_bytes(y.data, want)
    g = r.normal(size=y.shape).astype(dtype)
    y._backward(g)
    gmat = g.reshape(n, cout, oh * ow)
    dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    assert same_bytes(w.grad, dw)
    dpadded = ad._col2im(np.matmul(wmat.T[None], gmat), padded.shape, 3, 3, 1, oh, ow)
    assert same_bytes(x.grad, np.ascontiguousarray(dpadded[:, :, 1:-1, 1:-1]))


@given(st.sampled_from(DTYPES), st.integers(1, 8), st.sampled_from([(4, 2), (16, 4), (8, 8)]),
       st.sampled_from([(1, 1), (4, 4), (5, 3)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_group_norm_matches_out_of_place_form(dtype, n, channels, hw, seed):
    c, groups = channels
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(n, c, *hw)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=c).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=c).astype(dtype), requires_grad=True)
    y = ad.group_norm(x, groups, w, b)
    xg = x.data.reshape(n, groups, -1)
    centered = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=2, keepdims=True) + 1e-5)
    xhat = (centered * inv).reshape(x.shape)
    w_col = w.data.reshape(1, c, 1, 1)
    assert same_bytes(y.data, xhat * w_col + b.data.reshape(1, c, 1, 1))
    g = r.normal(size=y.shape).astype(dtype)
    y._backward(g)
    gy, xh = (g * w_col).reshape(n, groups, -1), xhat.reshape(n, groups, -1)
    m1, m2 = gy.mean(axis=2, keepdims=True), (gy * xh).mean(axis=2, keepdims=True)
    assert same_bytes(x.grad, np.multiply(inv, gy - m1 - xh * m2).reshape(x.shape))


# ---------------------------------------------------------------------------
# memory layout of the default net
# ---------------------------------------------------------------------------

def graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    return nodes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_default_net_hands_on_c_ordered_arrays(dtype):
    """Every node's data and gradient in a forward and backward of the
    default net is C-contiguous: BLAS picks its summation order by operand
    layout, so an F-ordered array would silently move later bits."""
    net = SlicerNet(dtype=dtype, neuron=NeuronConfig(beta=0.9, v_reset=-0.3), seed=2)
    cells = np.random.default_rng(2).poisson(0.6, size=(2 * CHUNK + 5, 2, 32, 32))
    record = net.forward(cells.astype(np.float64))
    loss = timing_loss(record, 2 * CHUNK + 2, 0.5, net.neuron).total
    loss.backward()
    nodes = graph_nodes(loss)
    assert len(nodes) > 50
    for node in nodes:
        assert node.data.flags.c_contiguous, node
        if node.grad is not None:
            assert node.grad.flags.c_contiguous, node
    assert all(p.grad.flags.c_contiguous for p in net.parameters())

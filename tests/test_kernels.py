"""Byte equivalence of the rewritten autodiff kernels with the forms they
replaced, and the memory layout of everything the default net hands on.

Each reference below is the numpy form a kernel used before it was moved to
a faster path; it lives only here. The kernels promise the same bits, not
merely close values: BLAS and numpy sum in an order fixed by shape and
layout, so equal inputs must give equal bytes.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evslicer import autodiff as ad
from evslicer.autodiff import Tensor
from evslicer.losses import timing_loss
from evslicer.snn import CHUNK, NeuronConfig, SlicerNet, SpikeLayer

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

def window_im2col(padded, kh, kw):
    """_im2col as a copy of the transposed sliding-window view."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def window_col2im(dcols, padded_shape, kh, kw, oh, ow):
    """The conv input gradient as kh*kw strided adds of the columns' gradient
    into a zeroed padded buffer, one window offset at a time."""
    n, c = padded_shape[:2]
    dpadded = np.zeros(padded_shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dpadded[:, :, i:i + oh, j:j + ow] += d6[:, :, i, j]
    return dpadded


@given(st.sampled_from(DTYPES), st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
       st.integers(1, 9), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_im2col_matches_window_view(dtype, n, c, h, w, kh, kw, seed):
    padded = np.random.default_rng(seed).normal(size=(n, c, h + kh - 1, w + kw - 1)).astype(dtype)
    cols, oh, ow = ad._im2col(padded, kh, kw)
    want, woh, wow = window_im2col(padded, kh, kw)
    assert (oh, ow) == (woh, wow) and same_bytes(cols, want)


@given(st.sampled_from(DTYPES), st.integers(1, 8), st.sampled_from([1, 2, 16]),
       st.sampled_from([1, 4, 32]), st.sampled_from([(3, 3), (8, 8), (16, 16)]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_matches_replaced_forms(dtype, n, cin, cout, hw, seed):
    """conv2d's output, weight gradient and input gradient against the
    forms it replaced: out-of-place bias, gmat @ cols.T for dW, and the
    window-by-window scatter of the columns' gradient for dx."""
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(n, cin, *hw)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=(cout, cin, 3, 3)).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=cout).astype(dtype), requires_grad=True)
    y = ad.conv2d(x, w, b, padding=1)
    padded = np.zeros((n, cin, hw[0] + 2, hw[1] + 2), dtype=dtype)
    padded[:, :, 1:-1, 1:-1] = x.data
    cols, oh, ow = window_im2col(padded, 3, 3)
    wmat = w.data.reshape(cout, -1)
    want = np.matmul(wmat[None], cols).reshape(n, cout, oh, ow) + b.data.reshape(1, cout, 1, 1)
    assert same_bytes(y.data, want)
    g = r.normal(size=y.shape).astype(dtype)
    y._backward(g)
    gmat = g.reshape(n, cout, oh * ow)
    dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    assert same_bytes(w.grad, dw)
    dpadded = window_col2im(np.matmul(wmat.T[None], gmat), padded.shape, 3, 3, oh, ow)
    assert same_bytes(x.grad, np.ascontiguousarray(dpadded[:, :, 1:-1, 1:-1]))


@given(st.sampled_from(DTYPES), st.integers(1, 8), st.sampled_from([(4, 2), (16, 4), (8, 8)]),
       st.sampled_from([(1, 1), (4, 4), (5, 3)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_group_norm_matches_out_of_place_form(dtype, n, channels, hw, seed):
    """The forward keeps the out-of-place form's bytes. The backward's
    closed form (two sums per channel, then B*xhat + C + A*g) rounds in
    other places than inv * (gy - mean(gy) - xhat * mean(gy * xhat)), so dx
    is compared within 8 ulp of the group's scale inv * max|weight * g|."""
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
    want = np.multiply(inv, gy - m1 - xh * m2)
    tol = 8 * np.spacing(inv * np.abs(gy).max(axis=2, keepdims=True))
    got = x.grad.reshape(n, groups, -1)
    assert got.dtype == dtype and np.all(np.abs(got - want) <= tol)


# ---------------------------------------------------------------------------
# linear weight gradient, formed once per backward
# ---------------------------------------------------------------------------

def blocked_linear_loss(x, w, b, coef):
    """A loss over a CHUNK-row linear applied block by block, as the
    slicing net applies its linear layers."""
    blocks = [ad.linear(x[i:i + CHUNK], w, b, rows=CHUNK) for i in range(0, x.shape[0], CHUNK)]
    return (ad.concat(blocks) * Tensor(coef)).sum()


def test_deferred_weight_gradient_equals_the_per_block_sum():
    r = np.random.default_rng(3)
    x = Tensor(r.normal(size=(3 * CHUNK, 40)), requires_grad=True)
    w = Tensor(r.normal(size=(24, 40)), requires_grad=True)
    b = Tensor(r.normal(size=24), requires_grad=True)
    coef = r.normal(size=(3 * CHUNK, 24))
    blocked_linear_loss(x, w, b, coef).backward()
    want = sum(coef[i:i + CHUNK].T @ x.data[i:i + CHUNK] for i in range(0, 3 * CHUNK, CHUNK))
    assert w.grad.shape == w.shape and w.grad.flags.c_contiguous
    np.testing.assert_allclose(w.grad, want, rtol=0, atol=1e-12)
    assert ad._deferred is None


def test_backward_that_raises_leaves_no_stash():
    """A backward that fails after a linear block stashed its pair leaves
    neither the stash nor a weight gradient behind, and the next backward
    forms its gradient from its own blocks only."""
    r = np.random.default_rng(4)
    x0 = Tensor(r.normal(size=(CHUNK, 40)), requires_grad=True)
    w = Tensor(r.normal(size=(24, 40)), requires_grad=True)
    coef = r.normal(size=(CHUNK, 24))

    def loss():
        return (ad.linear(x0 * 1.5, w, rows=CHUNK) * Tensor(coef)).sum()

    def fail(g):
        raise RuntimeError("backward failed")

    failing = loss()
    failing._prev[0]._prev[0]._prev[0]._backward = fail     # x0 * 1.5, behind the linear
    with pytest.raises(RuntimeError, match="backward failed"):
        failing.backward()
    assert ad._deferred is None and w.grad is None
    loss().backward()
    np.testing.assert_allclose(w.grad, coef.T @ (1.5 * x0.data), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", DTYPES)
def test_weight_with_few_outputs_keeps_its_per_block_gradient(dtype):
    """fc1's and the LN-IF head's weights (out_features <= rows) take g.T @ x
    block by block, summed in the order the backward reaches the blocks
    (the first block first in this graph), as before."""
    r = np.random.default_rng(5)
    x = Tensor(r.normal(size=(3 * CHUNK, 64)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=(CHUNK, 64)).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=CHUNK).astype(dtype), requires_grad=True)
    coef = r.normal(size=(3 * CHUNK, CHUNK)).astype(dtype)
    blocked_linear_loss(x, w, b, coef).backward()
    want = None
    for i in range(0, 3 * CHUNK, CHUNK):
        part = coef[i:i + CHUNK].T @ x.data[i:i + CHUNK]
        want = part if want is None else want + part
    assert same_bytes(w.grad, want)


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
    nodes = graph_nodes(loss)     # before the backward, which frees the graph
    loss.backward()
    assert len(nodes) > 50
    for node in nodes:
        assert node.data.flags.c_contiguous, node
        if node.grad is not None:
            assert node.grad.flags.c_contiguous, node
    assert all(p.grad.flags.c_contiguous for p in net.parameters())


def arena_step_on_default_net():
    """A default net and the 30 cells of 2x32x32 of an arena step."""
    net = SlicerNet(seed=0)
    cells = np.random.default_rng(0).poisson(0.5, size=(30, 2, 32, 32)).astype(np.float64)
    return net, cells


def test_backward_leaves_no_graph_behind_the_carried_state():
    """The loss's trace and the carried membrane potentials are graph nodes;
    after the backward none of them pins the graph it ran. No loss depends
    on a carried potential, so the backward never walks it and it keeps its
    link to its own scan's node: that one the backward has freed."""
    net, cells = arena_step_on_default_net()
    record = net.forward(cells)
    timing_loss(record, 20, 0.5, net.neuron).total.backward()
    assert graph_nodes(record.noreset) == [record.noreset]
    carried = [net.head.u] + [layer.v for layer in net.layers if isinstance(layer, SpikeLayer)]
    assert len(carried) > 2
    for node in carried:
        reached = graph_nodes(node)
        assert len(reached) <= 2
        assert all(n._prev == () and n._backward is ad._freed for n in reached[1:])


def test_backward_frees_the_forward_buffers():
    """With the record and the loss still held, the heap after the backward
    is a small part of the forward's: what is left is the parameters'
    gradients, not the graph's saved buffers."""
    net, cells = arena_step_on_default_net()
    tracemalloc.start()
    try:
        record = net.forward(cells)
        loss = timing_loss(record, 20, 0.5, net.neuron).total
        after_forward = tracemalloc.get_traced_memory()[0]
        loss.backward()
        after_backward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_backward < after_forward / 4, (after_forward, after_backward)
    assert record.noreset.grad is not None and loss.grad is not None

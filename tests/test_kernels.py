"""Byte equivalence of the rewritten autodiff kernels with the forms they
replaced, and the memory layout of everything the default net hands on.

Each reference below is the numpy form a kernel used before it was moved to
a faster path; it lives only here. The kernels promise the same bits, not
merely close values: BLAS and numpy sum in an order fixed by shape and
layout, so equal inputs must give equal bytes.
"""
import contextlib
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evslicer import autodiff as ad
from evslicer.autodiff import Tensor
from evslicer.losses import timing_loss
from evslicer.feedback import ArenaConfig, build_arena_net, train_arena
from evslicer.snn import (AdaptivePoolLayer, CHUNK, ConvLayer, LinearLayer, NeuronConfig,
                          PoolLayer, SlicerNet, SpikeLayer)
from graphs import graph_nodes, run_backward

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
    """A drive of 1-4 steps, each a row of 1-12 values or (1-D, stepped on
    Python floats in float64) one value, and a carried potential."""
    dtype = draw(st.sampled_from(DTYPES))
    v_th = 1.0
    step = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 12))))
    shape = (draw(st.integers(1, 4)), *step)
    drive = draw(hnp.arrays(dtype, shape, elements=floats(dtype, special=(v_th, -v_th))))
    v0 = draw(hnp.arrays(dtype, step, elements=floats(dtype, special=(v_th,))))
    return drive, v0, draw(st.sampled_from([1.0, 0.9])), v_th


def f64(*bits):
    """float64 values from their exact bit patterns (NaN payloads included)."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("v_reset", [0.0, -0.4, 0.4])
@given(scan_inputs())
@settings(max_examples=100, deadline=None)
# NaN payloads meeting in the output neuron's 1-D float64 steps
@example(case=(f64(0xfff0000000000000, 0x7ff8000000000123, 0xc35d61a88bf91b74, 0xfff0000000000000),
               f64(0x7ff0000000000000).reshape(()), 0.9, 1.0))
@example(case=(f64(0xfff8000000000001, 0x7ff0000000000000, 0x7ff0000000000000, 0x7ff8000000000000),
               f64(0xc3547e266b20edc2).reshape(()), 0.9, 1.0))
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


@pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("cfg", [NeuronConfig(), NeuronConfig(beta=0.9),
                                 NeuronConfig(v_reset=-0.4)], ids=["IF", "LIF", "reset-0.4"])
def test_scalar_steps_match_rows_of_one(cfg, reset, relaxed):
    """A (T,) float64 current steps through Python floats and the same
    current as (T, 1) through array rows: spikes, potentials, v_end and the
    gradients of the current and of v0 (or, without one, from rest) are
    the same bytes."""
    r = np.random.default_rng(7)
    drive = r.normal(0.5, 0.9, size=41)
    drive[[4, 9, 17]] = cfg.v_th      # exact threshold hits and surrogate window edges
    drive[[5, 23]] = cfg.v_th + cfg.surrogate_window
    w_out, w_end = r.normal(size=41), r.normal()
    runs = []
    for step in ((), (1,)):
        for v0 in (Tensor(np.full(step, 0.3), requires_grad=True), None):
            current = Tensor(drive.reshape(-1, *step), requires_grad=True)
            out, v_end, potentials = ad.neuron_scan(current, v0, cfg, reset=reset, relaxed=relaxed)
            loss = (out * Tensor(w_out.reshape(-1, *step))).sum() + \
                (v_end * Tensor(np.full(step, w_end))).sum()
            got = [out.data, potentials, v_end.data]
            loss.backward()
            got += [current.grad] + ([] if v0 is None else [v0.grad])
            runs.append([a.reshape(-1) for a in got])
    half = len(runs) // 2
    for scalar, rows in zip(runs[:half], runs[half:]):
        assert len(scalar) == len(rows)
        assert all(same_bytes(a, b) for a, b in zip(scalar, rows))


@pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("step", [(), (3,), (2, 2, 3)], ids=["1-D", "2-D", "4-D"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_scan_writes_only_its_own_buffers(dtype, step, reset, relaxed):
    """The scan reads the caller's v0 and writes only buffers of its own:
    v0's bytes are unchanged, v_end shares no memory with out.data or
    potentials, and out.data is potentials only without reset (the output
    is then V itself). A second scan carried on from v_end changes none of
    the first one's arrays. The 1-D float32 drive steps through the array
    loop with 0-d steps, as rows of one value."""
    r = np.random.default_rng(3)
    drive = r.normal(0.6, 0.8, size=(2 * CHUNK + 1, *step)).astype(dtype)
    cfg = NeuronConfig(beta=0.9, v_reset=-0.2)
    modes = dict(reset=reset, relaxed=relaxed)
    for v0 in (Tensor(r.normal(0.4, 0.5, size=step).astype(dtype)), None):
        before = None if v0 is None else v0.data.copy()
        out, v_end, potentials = ad.neuron_scan(Tensor(drive), v0, cfg, **modes)
        assert v0 is None or same_bytes(v0.data, before)
        assert out.shape == potentials.shape == drive.shape and v_end.shape == step
        assert not np.shares_memory(v_end.data, out.data)
        assert not np.shares_memory(v_end.data, potentials)
        assert np.shares_memory(out.data, potentials) == (not reset)
        first = [a.copy() for a in (out.data, v_end.data, potentials)]
        ad.neuron_scan(Tensor(drive), v_end, cfg, **modes)
        assert all(same_bytes(a, b) for a, b in zip(first, (out.data, v_end.data, potentials)))
        v0_row = None if v0 is None else Tensor(before.reshape(-1))
        rows = ad.neuron_scan(Tensor(drive.reshape(len(drive), -1)), v0_row, cfg, **modes)
        assert all(same_bytes(a.reshape(b.shape), b) for a, b in
                   zip((rows[0].data, rows[1].data, rows[2]), first))


@given(st.sampled_from(DTYPES), st.data())
@settings(max_examples=60, deadline=None)
def test_surrogate_matches_division(dtype, data):
    v = data.draw(hnp.arrays(dtype, data.draw(st.integers(0, 20)),
                             elements=floats(dtype, special=(0.5, 1.5, 1.0))))
    window = data.draw(st.sampled_from([0.5, 0.3, 1.0 / 3.0]))
    with np.errstate(invalid="ignore"):
        want = (np.abs(v - 1.0) <= window).astype(v.dtype) / (2.0 * window)
    assert same_bytes(ad._surrogate(v, 1.0, window), want)


def old_scan_backward(potentials, spikes, g, dc, cfg, floats):
    """neuron_scan's reset backward as it was, before it recomputed the
    spikes and formed its factors in place: (dI, dv0)."""
    sg = (np.abs(potentials - cfg.v_th) <= cfg.surrogate_window) * (
        potentials.dtype.type(1.0) / potentials.dtype.type(2.0 * cfg.surrogate_window))
    dv = g * sg
    through_reset = (1.0 - spikes) + (cfg.v_reset - potentials) * sg
    if floats:
        dv, dc, through_reset = dv.tolist(), float(dc), through_reset.tolist()
    for t in range(len(dv) - 1, -1, -1):
        dv[t] += dc * through_reset[t]
        dc = dv[t] if cfg.beta == 1.0 else cfg.beta * dv[t]
    if floats:
        dv, dc = np.array(dv), np.float64(dc)
    return dv, np.asarray(dc, dtype=potentials.dtype)


@pytest.mark.parametrize("relaxed", [False, True], ids=["hard", "relaxed"])
@pytest.mark.parametrize("v_reset", [0.0, -0.4])
@given(scan_inputs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(case=(np.array([[0.5, np.inf, -np.inf, np.nan, 1.0, 1.5, 0.5]] * 3, dtype=np.float32),
               np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4], dtype=np.float32), 0.9, 1.0),
         seed=1)
@example(case=(np.array([0.5, np.inf, -np.inf, np.nan]), np.array(0.2), 1.0, 1.0), seed=2)
def test_scan_backward_matches_out_of_place_form(v_reset, relaxed, case, seed):
    """The scan's backward, which recomputes the spikes from the potentials
    and forms sg, (1 - S) + (v_reset - V)*sg and each step's dC*(factor) in
    reused buffers, gives the bytes of the out-of-place expressions it
    replaced, for every float (+-inf and NaN included), float32 and float64,
    exact and relaxed spikes, beta 1 and 0.9, and v_reset 0 and -0.4."""
    drive, v0, beta, v_th = case
    cfg = NeuronConfig(beta=beta, v_th=v_th, v_reset=v_reset)
    r = np.random.default_rng(seed)
    current, start = Tensor(drive, requires_grad=True), Tensor(v0, requires_grad=True)
    with np.errstate(all="ignore"):
        out, v_end, potentials = ad.neuron_scan(current, start, cfg, relaxed=relaxed)
        g = r.normal(size=drive.shape).astype(drive.dtype)
        g_end = r.normal(size=v0.shape).astype(drive.dtype)
        floats = drive.ndim == 1 and drive.dtype == np.float64 and \
            not np.isnan(sum(drive.tolist(), float(v0)))
        want = old_scan_backward(potentials, out.data, g, g_end, cfg, floats)
        run_backward(v_end, g_end)
        run_backward(out, g)
    assert same_bytes(current.grad, want[0]) and same_bytes(start.grad, want[1])


# ---------------------------------------------------------------------------
# pooling backward
# ---------------------------------------------------------------------------

def strided_block_mean(data, kh, kw):
    """The block means as sums of strided views, block row by block row."""
    total = None
    for i in range(kh):
        row = data[:, :, i::kh, 0::kw]
        for j in range(1, kw):
            row = row + data[:, :, i::kh, j::kw]
        total = row if total is None else total + row
    return total / (kh * kw)


@given(st.sampled_from(DTYPES), st.data())
@settings(max_examples=100, deadline=None)
def test_pool_forward_matches_strided_row_sums(dtype, data):
    """avg_pool (odd extents zero-padded on the high side) and the divisible
    adaptive pool give the bytes of summing each block row by row, for
    kernels 1-3 and every float, +-inf, NaN and -0.0 included."""
    k = data.draw(st.integers(1, 3), label="k")
    shape = (data.draw(st.integers(1, 3), label="n"), data.draw(st.integers(1, 3), label="c"),
             data.draw(st.integers(1, 7), label="h"), data.draw(st.integers(1, 7), label="w"))
    x = data.draw(hnp.arrays(dtype, shape, elements=floats(dtype)), label="x")
    n, c, h, w = shape
    padded = np.zeros((n, c, -(-h // k) * k, -(-w // k) * k), dtype=dtype)
    padded[:, :, :h, :w] = x
    kh = data.draw(st.sampled_from([d for d in range(1, 4) if h % d == 0]), label="kh")
    kw = data.draw(st.sampled_from([d for d in range(1, 4) if w % d == 0]), label="kw")
    with np.errstate(all="ignore"):     # inf + -inf
        assert same_bytes(ad.avg_pool(Tensor(x), k).data, strided_block_mean(padded, k, k))
        got = ad.adaptive_avg_pool(Tensor(x), (h // kh, w // kw)).data
        assert same_bytes(got, strided_block_mean(x, kh, kw))


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
    run_backward(y, g)
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


@given(st.sampled_from(DTYPES), st.data())
@settings(max_examples=150, deadline=None)
def test_im2col_matches_window_view(dtype, data):
    """The columns of the unpadded input equal a copy of the zero-padded
    input's window view byte for byte, for odd and even kernels, every
    padding from none to wider than the kernel (the row-pitched gather
    where rows fit the output's pitch, the padded copy where they do not)
    and every float, +-inf, NaN and -0.0 included."""
    kh, kw = data.draw(st.integers(1, 5), label="kh"), data.draw(st.integers(1, 5), label="kw")
    padding = data.draw(st.integers(0, max(kh, kw)), label="padding")
    h = data.draw(st.integers(max(1, kh - 2 * padding), 7), label="h")
    w = data.draw(st.integers(max(1, kw - 2 * padding), 7), label="w")
    shape = (data.draw(st.integers(1, 3), label="n"), data.draw(st.integers(1, 3), label="c"), h, w)
    x = data.draw(hnp.arrays(dtype, shape, elements=floats(dtype)), label="x")
    padded = np.zeros((*shape[:2], h + 2 * padding, w + 2 * padding), dtype=dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    cols, oh, ow = ad._im2col(x, kh, kw, padding)
    want, woh, wow = window_im2col(padded, kh, kw)
    assert (oh, ow) == (woh, wow) and same_bytes(cols, want)


def test_im2col_on_every_small_geometry():
    """Every kernel up to 7x7 with every padding up to 7 on inputs of 1-3
    rows and columns, including windows that reach past both sides of a
    row and past more than the row's width."""
    r = np.random.default_rng(11)
    for kh, kw, padding, h, w in itertools.product(range(1, 8), range(1, 8), range(8),
                                                   range(1, 4), range(1, 4)):
        if h + 2 * padding < kh or w + 2 * padding < kw:
            continue
        x = r.normal(size=(2, 2, h, w))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        want, oh, ow = window_im2col(padded, kh, kw)
        assert same_bytes(ad._im2col(x, kh, kw, padding)[0], want), (kh, kw, padding, h, w)


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
    run_backward(y, g)
    gmat = g.reshape(n, cout, oh * ow)
    dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    assert same_bytes(w.grad, dw)
    dpadded = window_col2im(np.matmul(wmat.T[None], gmat), padded.shape, 3, 3, oh, ow)
    assert same_bytes(x.grad, np.ascontiguousarray(dpadded[:, :, 1:-1, 1:-1]))


@given(st.sampled_from(DTYPES), st.integers(1, 8), st.sampled_from([(4, 2), (16, 4), (8, 8)]),
       st.sampled_from([(1, 1), (4, 4), (5, 3)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_group_norm_matches_out_of_place_form(dtype, n, channels, hw, seed):
    """The forward keeps the bytes of the out-of-place form with every sum a
    dot product, taken here one group or channel at a time with np.dot. The
    backward's closed form (two dot products per channel, then
    g*scale + centered*B + C) rounds in other places than
    inv * (gy - mean(gy) - xhat * mean(gy * xhat)), so dx is compared, from
    the same centered and inv, within 8 ulp of the group's scale
    inv * max|weight * g|."""
    c, groups = channels
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(n, c, *hw)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=c).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=c).astype(dtype), requires_grad=True)
    y = ad.group_norm(x, groups, w, b)

    def dots(a, b):
        return np.array([[np.dot(u, v) for u, v in zip(ra, rb)]
                         for ra, rb in zip(a, np.broadcast_to(b, a.shape))],
                        dtype=dtype)[..., None]

    xg = x.data.reshape(n, groups, -1)
    size = xg.shape[2]
    centered = xg - dots(xg, np.ones(size, dtype)) / size
    inv = 1.0 / np.sqrt(dots(centered, centered) / size + 1e-5)
    scale = (inv * w.data.reshape(groups, -1)).reshape(n, c, 1)
    want = centered.reshape(n, c, -1) * scale + b.data.reshape(1, c, 1)
    assert same_bytes(y.data, want.reshape(x.shape))
    g = r.normal(size=y.shape).astype(dtype)
    run_backward(y, g)
    w_col = w.data.reshape(1, c, 1, 1)
    gy, xh = (g * w_col).reshape(n, groups, -1), centered * inv
    m1, m2 = gy.mean(axis=2, keepdims=True), (gy * xh).mean(axis=2, keepdims=True)
    want = np.multiply(inv, gy - m1 - xh * m2)
    tol = 8 * np.spacing(inv * np.abs(gy).max(axis=2, keepdims=True))
    got = x.grad.reshape(n, groups, -1)
    assert got.dtype == dtype and np.all(np.abs(got - want) <= tol)


# ---------------------------------------------------------------------------
# linear weight gradient
# ---------------------------------------------------------------------------

def blocked_linear_loss(x, w, b, coef):
    """A loss over a CHUNK-row linear applied block by block, one node per
    block sharing the weight."""
    blocks = [ad.linear(x[i:i + CHUNK], w, b, rows=CHUNK) for i in range(0, x.shape[0], CHUNK)]
    return (ad.concat(blocks) * Tensor(coef)).sum()


def test_backward_that_raises_leaves_no_weight_gradient():
    """A backward that fails before it reaches a linear node leaves no
    weight gradient behind, and the next backward forms the gradient from
    its own graph only."""
    r = np.random.default_rng(4)
    x = Tensor(r.normal(size=(3 * CHUNK, 40)), requires_grad=True)
    w = Tensor(r.normal(size=(24, 40)), requires_grad=True)
    coef = r.normal(size=(3 * CHUNK, 24))

    def loss():
        return (ad.linear(x, w, rows=CHUNK) * Tensor(coef)).sum()

    def fail(g, *parents):
        raise RuntimeError("backward failed")

    failing = loss()
    failing.node._prev[0]._backward = fail     # the product with coef, in front of the linear
    with pytest.raises(RuntimeError, match="backward failed"):
        failing.backward()
    assert w.grad is None and x.grad is None
    loss().backward()
    assert same_bytes(w.grad, coef.T @ x.data)


@pytest.mark.parametrize("dtype", DTYPES)
def test_weight_with_few_outputs_keeps_its_per_block_gradient(dtype):
    """A weight shared by several linear nodes takes g.T @ x node by node,
    summed in the order the backward reaches them (the first block first in
    this graph)."""
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

@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_default_net_hands_on_c_ordered_arrays(dtype):
    """Every op output's data and every node's gradient in a forward and
    backward of the default net is C-contiguous: BLAS picks its summation
    order by operand layout, so an F-ordered array would silently move later
    bits."""
    net = SlicerNet(dtype=dtype, neuron=NeuronConfig(beta=0.9, v_reset=-0.3), seed=2)
    cells = np.random.default_rng(2).poisson(0.6, size=(2 * CHUNK + 5, 2, 32, 32))
    with op_outputs() as outputs:
        record = net.forward(cells.astype(np.float64))
        loss = timing_loss(record, 2 * CHUNK + 2, 0.5, net.neuron).total
    nodes = graph_nodes(loss)     # before the backward, which frees the graph
    loss.backward()
    assert len(nodes) > 50 and len(outputs) > 50
    assert all(out.data.flags.c_contiguous for out in outputs)
    for node in nodes:
        if node.grad is not None:
            assert node.grad.flags.c_contiguous, node
    assert all(p.grad.flags.c_contiguous for p in net.parameters())


@contextlib.contextmanager
def op_outputs(op="_output"):
    """The output tensors of every call of autodiff's `op` while the block
    runs: by default every op's, or one op's, such as "conv2d"."""
    made, original = [], getattr(ad, op)

    def record(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]
    with mock.patch.object(ad, op, record):
        yield made


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
    assert graph_nodes(record.noreset) == [record.noreset.node]
    carried = [net.head.u] + [layer.v for layer in net.layers if isinstance(layer, SpikeLayer)]
    assert len(carried) > 2
    for node in carried:
        reached = graph_nodes(node)
        assert len(reached) <= 2
        assert all(n._prev == () and n._backward is ad._freed for n in reached[1:])


def test_training_step_leaves_no_graph_behind_the_carried_state():
    """After a training update no carried potential links to the graph the
    backward freed."""
    cfg = ArenaConfig(max_iters=1, seed=1)
    net = build_arena_net(cfg)
    train_arena(net, cfg)
    carried = [net.head.u, net.head.v] + [layer.v for layer in net.layers
                                          if isinstance(layer, SpikeLayer)]
    assert not any(graph_nodes(node)[1:] for node in carried if node is not None)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_default_net_runs_its_flat_tail_once_per_forward(dtype):
    """The spatial stack runs in CHUNK-cell blocks; the flat tail from fc0
    on is one node per linear layer and one scan per spiking layer, over all
    cells, and so is the output neuron's trace."""
    net = SlicerNet(dtype=dtype, seed=2)
    n = 2 * CHUNK + 5
    record = net.forward(np.random.default_rng(2).poisson(0.6, size=(n, 2, 32, 32)))
    nodes = graph_nodes(record.noreset)
    linears = [layer for layer in net.layers if isinstance(layer, LinearLayer)]
    uses = [[node for node in nodes if any(p is layer.weight for p in node._prev)]
            for layer in linears]
    assert [len(u) for u in uses] == [1, 1] and all(u[0].shape[0] == n for u in uses)
    spatial = [layer for layer in net.layers[:net.layers.index(linears[0])]
               if isinstance(layer, SpikeLayer)]
    tail = [layer for layer in net.layers[net.layers.index(linears[0]):]
            if isinstance(layer, SpikeLayer)]
    assert (len(spatial), len(tail)) == (3, 1)
    lengths = sorted(node.shape[0] for node in nodes
                     if getattr(node._backward, "__qualname__", "") == "neuron_scan.<locals>._bw")
    assert lengths == sorted([CHUNK, CHUNK, 5] * len(spatial) + [n] * (len(tail) + 1))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fc0_weight_gradient_is_one_product_over_the_rows_in_time_order(dtype):
    """fc0's weight gradient is g.T @ x of its one node: the output gradient
    and the input of every cell, in time order."""
    net = SlicerNet(dtype=dtype, seed=2, init_gain=2.0)
    n = 2 * CHUNK + 5
    record = net.forward(np.random.default_rng(3).poisson(0.6, size=(n, 2, 32, 32)))
    loss = timing_loss(record, n - 3, 0.5, net.neuron).total
    fc0 = next(layer for layer in net.layers if isinstance(layer, LinearLayer))
    (node,) = [node for node in graph_nodes(loss) if any(p is fc0.weight for p in node._prev)]
    x = node._prev[0]
    assert x.shape[0] == n
    (x_data,) = [a for a in closure_arrays(node._backward) if a.shape == x.shape]
    loss.backward()
    assert node.grad.any()
    assert same_bytes(fc0.weight.grad, node.grad.T @ x_data)


def test_backward_frees_the_forward_buffers():
    """With the record and the loss still held, what the heap holds after
    the backward is the parameters' gradients and less than a twentieth of
    the forward's heap besides: not the graph's saved buffers, nor the
    spike maps of the last block, which the carried potentials used to pin
    (0.95 MB of a 15.7 MB forward, when graph nodes held their data)."""
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
    grads = sum(p.grad.nbytes for p in net.parameters())
    assert after_backward - grads < after_forward / 20, (after_forward, after_backward, grads)
    assert record.noreset.grad is not None and loss.grad is not None


def closure_arrays(backward):
    """The arrays a backward closure holds in its cells."""
    return [cell.cell_contents for cell in backward.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)]


def test_graph_saves_neither_conv_columns_nor_centred_groups():
    """After an arena forward of the default net, no conv2d backward holds
    an array the size of its im2col columns, and no group_norm backward a
    full-size array other than a view of its input's data: both are rebuilt
    in the backward. The heap live after the forward is under 18 MB (26.7 MB
    when the graph saved them). Holding the conv outputs costs nothing: the
    group norms read them in their backward."""
    net, cells = arena_step_on_default_net()
    tracemalloc.start()
    try:
        with op_outputs("conv2d") as convs:
            record = net.forward(cells)
        loss = timing_loss(record, 20, 0.5, net.neuron).total
        after_forward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    conv_data = {id(out.node): out.data for out in convs}
    ops = {"conv2d": [], "group_norm": []}
    for node in graph_nodes(loss):
        op = getattr(node._backward, "__qualname__", "").split(".")[0]
        if op in ops:
            ops[op].append(node)
    assert len(ops["conv2d"]) == len(ops["group_norm"]) == 3 * -(-len(cells) // CHUNK)
    for node in ops["conv2d"]:
        cout = node.shape[1]
        n_cols = math.prod(node.shape) // cout * (math.prod(node._prev[1].shape) // cout)
        assert all(a.size < n_cols for a in closure_arrays(node._backward))
    for node in ops["group_norm"]:
        x_data = conv_data[id(node._prev[0])]
        full = [a for a in closure_arrays(node._backward) if a.size >= x_data.size]
        assert full and all(np.shares_memory(a, x_data) for a in full)
    assert after_forward < 18e6, after_forward


def test_graph_holds_its_saved_inputs_and_potentials_only():
    """After the default net's 30-cell training forward the heap holds at
    most 1.1 times the bytes the backward needs: the conv outputs (read by
    group norm), the hidden potentials (by the scans), the pool outputs
    (by the convs and fc0) and the input blocks (by conv0). Group-norm
    outputs and spike maps are not among them (15.7 MB held, 1.96 times
    these bytes, when graph nodes held their data)."""
    net, cells = arena_step_on_default_net()
    itemsize = np.dtype(net.dtype).itemsize
    saved = (ConvLayer, SpikeLayer, PoolLayer, AdaptivePoolLayer)
    per_cell = math.prod(net.layer_shapes[0][0]) + sum(
        math.prod(out) for layer, (_, out) in zip(net.layers, net.layer_shapes)
        if isinstance(layer, saved))
    tracemalloc.start()
    try:
        record = net.forward(cells)
        loss = timing_loss(record, 20, 0.5, net.neuron).total
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    need = per_cell * len(cells) * itemsize
    assert loss.requires_grad and held <= 1.1 * need, (held, need)


def dead_after_forward(op, keep):
    """Patch autodiff's `op` to record a weak reference to the array that
    owns the data of each tracked output for which keep(output, kwargs)
    holds."""
    refs, original = [], getattr(ad, op)

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        out = result[0] if isinstance(result, tuple) else result
        if out.requires_grad and keep(out, kwargs):
            refs.append(weakref.ref(out.data if out.data.base is None else out.data.base))
        return result
    return refs, mock.patch.object(ad, op, record)


def test_group_norm_outputs_and_spike_maps_go_with_the_forward():
    """Once the forward has returned, with its graph still alive, every
    group-norm output and every spike map of the spatial stack has been
    freed: no node and no closure holds them. (The flat tail's spikes are
    fc1's input, which its backward reads.) The backward then gives the
    parameters the same gradient bytes as a run whose caller keeps every op
    output."""
    grads = []
    for keep in (False, True):
        net, cells = arena_step_on_default_net()
        norms, patch_norms = dead_after_forward("group_norm", lambda out, kwargs: True)
        spikes, patch_spikes = dead_after_forward(
            "neuron_scan", lambda out, kwargs: out.ndim == 4 and kwargs.get("reset", True))
        with patch_norms, patch_spikes, \
                (op_outputs() if keep else contextlib.nullcontext([])) as kept:
            record = net.forward(cells)
        loss = timing_loss(record, 20, 0.5, net.neuron).total
        blocks = -(-len(cells) // CHUNK)
        assert len(norms) == len(spikes) == 3 * blocks
        assert [ref() is not None for ref in norms + spikes] == [keep] * (6 * blocks)
        assert bool(kept) == keep
        loss.backward()
        grads.append([p.grad.tobytes() for p in net.parameters()])
    assert grads[0] == grads[1]


def group_norm_input_grad(centered, g, weight, eps=1e-5):
    """group_norm's closed-form input gradient from the centred groups
    (n, groups, K) of its input, with every sum a dot product."""
    n, groups, size = centered.shape
    c = weight.size
    per, hw = c // groups, size * groups // c
    inv = 1.0 / np.sqrt(ad._dots(centered, centered) / size + eps)
    w_g = weight.reshape(groups, per)
    g_c = g.reshape(n, c, hw)
    s1 = ad._dots(g_c, np.ones(hw, dtype=g.dtype)).reshape(n, groups, per)
    s2 = ad._dots(g_c, centered.reshape(n, c, hw)).reshape(n, groups, per)
    m1 = (s1 * w_g).sum(axis=2, keepdims=True) / size
    m2 = inv * (s2 * w_g).sum(axis=2, keepdims=True) / size
    dx = g_c * (inv * w_g).reshape(n, c, 1)
    dx += (centered * (-inv * inv * m2) + -inv * m1).reshape(n, c, hw)
    return dx.reshape(g.shape)


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_recomputed_buffers_give_the_saved_buffers_bytes(dtype, shared):
    """conv2d's weight gradient is matmul(_im2col(x), g^T).sum(0) of the
    columns the forward gathered, and group_norm's input gradient is its
    closed form from the centred groups of the forward, byte for byte, also
    when a second op reads the same input and back-propagates first.
    group_norm's output is a buffer of its own."""
    r = np.random.default_rng(8)
    n, cin, cout, groups = 3, 4, 8, 2
    x = Tensor(r.normal(size=(n, cin, 7, 6)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=(cout, cin, 3, 3)).astype(dtype), requires_grad=True)
    gamma = Tensor(r.normal(size=cout).astype(dtype), requires_grad=True)
    beta = Tensor(r.normal(size=cout).astype(dtype), requires_grad=True)
    y = ad.conv2d(x, w, padding=1)
    z = ad.group_norm(y, groups, gamma, beta)
    assert not np.shares_memory(z.data, y.data)
    cols = ad._im2col(x.data, 3, 3, 1)[0]
    yg = y.data.reshape(n, groups, -1)
    centered = yg - ad._dots(yg, np.ones(yg.shape[2], dtype=dtype)) / yg.shape[2]
    if shared:
        for node in (ad.avg_pool(x), ad.avg_pool(y)):
            run_backward(node, r.normal(size=node.shape).astype(dtype))
    want_dy = group_norm_input_grad(centered, g := r.normal(size=z.shape).astype(dtype), gamma.data)
    if shared:
        want_dy = y.grad + want_dy
    run_backward(z, g)
    assert same_bytes(y.grad, want_dy)
    run_backward(y, y.grad)
    dw = np.matmul(cols, y.grad.reshape(n, cout, -1).transpose(0, 2, 1)).sum(axis=0)
    assert same_bytes(w.grad, np.ascontiguousarray(dw.T).reshape(w.shape))


def test_conv_gathers_columns_again_only_for_a_weight_gradient():
    r = np.random.default_rng(9)
    x = Tensor(r.normal(size=(2, 3, 5, 5)), requires_grad=True)
    w = Tensor(r.normal(size=(4, 3, 3, 3)))
    y = ad.conv2d(x, w, padding=1)
    with mock.patch.object(ad, "_im2col", wraps=ad._im2col) as im2col:
        run_backward(y, np.ones(y.shape))
    assert im2col.call_count == 0 and x.grad is not None

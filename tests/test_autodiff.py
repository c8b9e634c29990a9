import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evslicer import autodiff as ad
from evslicer.autodiff import (
    Tensor, ShapeError, conv2d, avg_pool, adaptive_avg_pool, group_norm,
    linear, spike, neuron_scan, concat, no_grad, SGD,
    save_named_tensors, load_named_tensors,
)
from evslicer.snn import CHUNK, NeuronConfig
from gradcheck import check_grads
from graphs import run_backward


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# frozen hand values
# ---------------------------------------------------------------------------

def test_conv_hand_value():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = Tensor(np.ones((1, 1, 2, 2)))
    y = conv2d(x, w)
    assert y.data.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 10.0


def test_avg_pool_hand_value():
    x = Tensor([[[[1.0, 3.0], [5.0, 7.0]]]])
    y = avg_pool(x, 2)
    assert y.data.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 4.0


def test_avg_pool_odd_extent_zero_pads_high_side():
    x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
    y = avg_pool(x, 2)
    assert y.data.shape == (1, 1, 2, 2)
    # top-left window is real data; the bottom-right window is [[8,0],[0,0]]
    assert y.data[0, 0, 0, 0] == (0 + 1 + 3 + 4) / 4.0
    assert y.data[0, 0, 1, 1] == 8.0 / 4.0


def test_adaptive_pool_to_1x1_is_global_mean():
    r = rng_for(3)
    x = Tensor(r.normal(size=(2, 3, 5, 7)))
    y = adaptive_avg_pool(x, (1, 1))
    np.testing.assert_allclose(y.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), rtol=1e-12)


def test_group_norm_two_values():
    x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
    w = Tensor(np.ones(1))
    b = Tensor(np.zeros(1))
    y = group_norm(x, 1, w, b, eps=1e-12)
    np.testing.assert_allclose(y.data.reshape(-1), [-1.0, 1.0], atol=1e-6)


def test_linear_dot_value():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[3.0, 4.0]])
    y = linear(x, w)
    assert y.data[0, 0] == 11.0


def test_square_backward_value():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert float(x.grad) == 6.0


# ---------------------------------------------------------------------------
# step activation and surrogate
# ---------------------------------------------------------------------------

def test_spike_forward_is_exact_step_with_inclusive_boundary():
    v = Tensor([[0.2, 1.0, 1.7, -0.4]])
    s = spike(v, v_th=1.0, window=0.5)
    np.testing.assert_array_equal(s.data, [[0.0, 1.0, 1.0, 0.0]])


def test_spike_surrogate_rectangular_window():
    v = Tensor([[0.49, 0.51, 1.0, 1.49, 1.51]], requires_grad=True)
    s = spike(v, v_th=1.0, window=0.5)
    s.sum().backward()
    # derivative 1/(2a) = 1.0 inside |v - v_th| <= 0.5, zero outside;
    # at v exactly v_th the surrogate sits at its maximum
    np.testing.assert_array_equal(v.grad, [[0.0, 1.0, 1.0, 1.0, 0.0]])


def test_spike_backward_decoupled_from_forward_value():
    vals = [[0.3, 0.8, 1.2, 2.0]]
    grads = []
    for relaxed in (False, True):
        v = Tensor(vals, requires_grad=True)
        spike(v, v_th=1.0, window=0.5, relaxed=relaxed).sum().backward()
        grads.append(v.grad.copy())
    np.testing.assert_array_equal(grads[0], grads[1])


def test_spike_relaxed_forward_matches_surrogate_slope():
    v = Tensor([[0.6]], requires_grad=True)
    err = check_grads(lambda: spike(v, 1.0, 0.5, relaxed=True).sum(), [v])
    assert err <= 1e-4


NEURONS = {"IF": NeuronConfig(), "LIF": NeuronConfig(beta=0.9),
           "reset-0.4": NeuronConfig(v_reset=-0.4)}


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("steps", [1, CHUNK - 3, 2 * CHUNK + 3])
@pytest.mark.parametrize("name", list(NEURONS))
def test_neuron_scan_grads(name, steps, reset):
    """A current of rows of 5 and a 1-D one (the output neuron's, stepped on
    Python floats), each with its carried potential."""
    r = rng_for(steps)
    scans = []
    for step in ((5,), ()):
        current = Tensor(r.normal(0.5, 0.6, size=(steps, *step)), requires_grad=True)
        v0 = Tensor(r.normal(0.2, 0.4, size=step), requires_grad=True)
        w_out, w_end = Tensor(r.normal(size=(steps, *step))), Tensor(r.normal(size=step))
        scans.append((current, v0, w_out, w_end))

    def loss(read_out=True):
        total = Tensor(0.0)
        for current, v0, w_out, w_end in scans:
            out, v_end, _ = neuron_scan(current, v0, NEURONS[name], reset=reset, relaxed=True)
            total = total + (v_end * w_end).sum()
            if read_out:
                total = total + (out * w_out).sum()
        return total

    inputs = [t for scan in scans for t in scan[:2]]
    assert check_grads(loss, inputs) <= 1e-4
    assert check_grads(lambda: loss(read_out=False), inputs) <= 1e-4


@pytest.mark.parametrize("name", list(NEURONS))
def test_neuron_scan_equals_per_step_graph(name):
    """The hard-threshold scan against the same recurrence built step by
    step from elementwise and spike nodes: equal values, equal gradients
    up to summation order."""
    cfg = NEURONS[name]
    r = rng_for(11)
    current = Tensor(r.normal(0.5, 0.6, size=(CHUNK + 3, 6)), requires_grad=True)
    w_out = Tensor(r.normal(size=current.shape))

    out, _, potentials = neuron_scan(current, None, cfg)
    (out * w_out).sum().backward()
    scan_grad, current.grad = current.grad, None

    v, steps, vs = Tensor(np.full(6, cfg.v_reset)), [], []
    for t in range(current.shape[0]):
        v_pre = v * cfg.beta + current[t] * cfg.gamma
        s = spike(v_pre, cfg.v_th, cfg.surrogate_window)
        v = v_pre * (1.0 - s) + s * cfg.v_reset
        steps.append((s * w_out[t]).sum())
        vs.append(v_pre.data)
    total = steps[0]
    for term in steps[1:]:
        total = total + term
    total.backward()
    assert out.data.tobytes() == np.stack([(p >= cfg.v_th) * 1.0 for p in vs]).tobytes()
    assert potentials.tobytes() == np.stack(vs).tobytes()
    np.testing.assert_allclose(scan_grad, current.grad, rtol=1e-12, atol=1e-12)


def test_gather_grads():
    r = rng_for(4)
    a = Tensor(r.normal(size=7), requires_grad=True)
    rows = Tensor(r.normal(size=(5, 3)), requires_grad=True)
    index = np.array([1, 4, 4, 6])
    coef, row_coef = Tensor(r.normal(size=4)), Tensor(r.normal(size=(3, 3)))
    assert check_grads(lambda: (a[index] * coef).sum() + a[2] * 3.0 + a[-1], [a]) <= 1e-6
    assert check_grads(lambda: (rows[np.array([0, 3, 0])] * row_coef).sum() + rows[4].sum(),
                       [rows]) <= 1e-6



def test_iterating_a_tensor_fails():
    # indexing builds gather nodes, so iteration would silently detach values
    with pytest.raises(TypeError):
        list(Tensor(np.arange(3.0)))

def test_concat_grads_and_untouched_parts():
    r = rng_for(5)
    parts = [Tensor(r.normal(size=(n, 2)), requires_grad=True) for n in (3, 1, 4)]
    coef = Tensor(r.normal(size=(8, 2)))
    assert check_grads(lambda: (concat(parts) * coef).sum(), parts) <= 1e-6
    for p in parts:
        p.grad = None
    concat(parts)[1].sum().backward()
    # only the first part's rows were read; the others see no gradient at all
    assert parts[0].grad.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
    assert parts[1].grad is None and parts[2].grad is None


# ---------------------------------------------------------------------------
# brute-force and finite-difference oracles
# ---------------------------------------------------------------------------

def brute_force_conv(x, w, padding):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = xp.shape[2] - kh + 1
    ow = xp.shape[3] - kw + 1
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i:i + kh, j:j + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_conv_forward_matches_brute_force(seed):
    r = rng_for(seed)
    n, cin, cout = 2, int(r.integers(1, 3)), int(r.integers(1, 3))
    h = int(r.integers(3, 6))
    w = int(r.integers(3, 6))
    k = int(r.integers(1, 4))
    padding = int(r.integers(0, 2))
    if h + 2 * padding < k or w + 2 * padding < k:
        return
    x = r.normal(size=(n, cin, h, w))
    wt = r.normal(size=(cout, cin, k, k))
    got = conv2d(Tensor(x), Tensor(wt), padding=padding)
    np.testing.assert_allclose(got.data, brute_force_conv(x, wt, padding), atol=1e-10)


def test_conv_rejects_strides_other_than_one():
    x, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    assert conv2d(x, w, stride=1).shape == (1, 1, 2, 2)
    with pytest.raises(ValueError, match="stride 1 only"):
        conv2d(x, w, stride=2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_conv_grads_match_finite_differences(seed):
    r = rng_for(seed)
    x = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(2, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(r.normal(size=(2,)) * 0.1, requires_grad=True)
    coef = r.normal(size=(1, 2, 4, 4))

    def loss():
        return (conv2d(x, w, b, padding=1) * Tensor(coef)).sum()

    assert check_grads(loss, [x, w, b]) <= 1e-4


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_pool_and_adaptive_pool_grads(seed):
    r = rng_for(seed)
    x = Tensor(r.normal(size=(1, 2, 5, 5)), requires_grad=True)
    coef_a = r.normal(size=(1, 2, 3, 3))
    coef_b = r.normal(size=(1, 2, 2, 2))

    assert check_grads(lambda: (avg_pool(x, 2) * Tensor(coef_a)).sum(), [x]) <= 1e-4
    assert check_grads(lambda: (adaptive_avg_pool(x, (2, 2)) * Tensor(coef_b)).sum(), [x]) <= 1e-4


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_adaptive_pool_divisible_path_matches_partition_loop(seed):
    r = rng_for(seed)
    x = Tensor(r.normal(size=(2, 3, 6, 8)), requires_grad=True)
    coef = Tensor(r.normal(size=(2, 3, 3, 2)))
    blocks, loop = adaptive_avg_pool(x, (3, 2)), ad._partition_mean(x, 3, 2)
    np.testing.assert_allclose(blocks.data, loop.data, rtol=1e-13, atol=1e-15)
    (blocks * coef).sum().backward()
    block_grad, x.grad = x.grad, None
    (loop * coef).sum().backward()
    np.testing.assert_allclose(block_grad, x.grad, rtol=1e-13, atol=1e-15)
    assert check_grads(lambda: (adaptive_avg_pool(x, (3, 2)) * coef).sum(), [x]) <= 1e-4



@pytest.mark.parametrize("shape", [(8, 16, 32, 32), (3, 2, 6, 10), (1, 1, 2, 2)])
def test_block_means_match_reshape_mean(shape):
    x = rng_for(len(shape) + shape[-1]).normal(size=shape)
    n, c, h, w = shape
    reference = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    np.testing.assert_allclose(avg_pool(Tensor(x), 2).data, reference, rtol=1e-14, atol=0)
    np.testing.assert_allclose(adaptive_avg_pool(Tensor(x), (h // 2, w // 2)).data, reference,
                               rtol=1e-14, atol=0)

@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_group_norm_grads(seed):
    r = rng_for(seed)
    x = Tensor(r.normal(size=(2, 4, 2, 2)), requires_grad=True)
    w = Tensor(r.normal(size=(4,)), requires_grad=True)
    b = Tensor(r.normal(size=(4,)), requires_grad=True)
    coef = r.normal(size=(2, 4, 2, 2))

    def loss():
        return (group_norm(x, 2, w, b) * Tensor(coef)).sum()

    assert check_grads(loss, [x, w, b]) <= 1e-4


@pytest.mark.parametrize("offset", [0.5, 20.0])
@pytest.mark.parametrize("hw", [(32, 32), (180, 240)], ids=["32x32", "180x240"])
def test_float32_group_norm_matches_float64_reference(hw, offset):
    """float32 group norm, with its sums as float32 dot products, stays
    within 1e-5 relative (largest error over largest value) of the textbook
    form in float64 on the same inputs: y, dx, dweight and dbias, on
    sensor-sized planes and on inputs whose mean is far from zero."""
    n, c, groups = 2, 8, 4
    r = rng_for(7)
    x32 = (r.normal(size=(n, c, *hw)) + offset).astype(np.float32)
    w32, b32 = r.normal(size=c).astype(np.float32), r.normal(size=c).astype(np.float32)
    g32 = r.normal(size=x32.shape).astype(np.float32)
    x, w, b = (Tensor(a, requires_grad=True) for a in (x32, w32, b32))
    y = group_norm(x, groups, w, b)
    run_backward(y, g32)

    x64, w64, b64, g64 = (a.astype(np.float64) for a in (x32, w32, b32, g32))
    xg = x64.reshape(n, groups, -1)
    centered = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt((centered ** 2).mean(axis=2, keepdims=True) + 1e-5)
    xhat = (centered * inv).reshape(x32.shape)
    gy = (g64 * w64.reshape(1, c, 1, 1)).reshape(n, groups, -1)
    xh = xhat.reshape(n, groups, -1)
    dx = inv * (gy - gy.mean(axis=2, keepdims=True) - xh * (gy * xh).mean(axis=2, keepdims=True))
    want = {"y": xhat * w64.reshape(1, c, 1, 1) + b64.reshape(1, c, 1, 1),
            "dx": dx.reshape(x32.shape),
            "dweight": (g64 * xhat).sum(axis=(0, 2, 3)),
            "dbias": g64.sum(axis=(0, 2, 3))}
    got = {"y": y.data, "dx": x.grad, "dweight": w.grad, "dbias": b.grad}
    for name, ref in want.items():
        assert got[name].dtype == np.float32, name
        err = np.abs(got[name] - ref).max() / np.abs(ref).max()
        assert err <= 1e-5, (name, err)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_linear_and_elementwise_grads(seed):
    r = rng_for(seed)
    x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(2, 4)), requires_grad=True)
    b = Tensor(r.normal(size=(2,)), requires_grad=True)
    coef = r.normal(size=(3, 2))

    def loss():
        y = linear(x, w, b)
        z = y * Tensor(coef) + (y * y) * 0.25
        return z.sum() * (1.0 / z.size)

    assert check_grads(loss, [x, w, b]) <= 1e-4



@pytest.mark.parametrize("out_features, dtype", [
    *[pytest.param(n, np.float64, id=str(n)) for n in (1, 5, 64)],
    *[pytest.param(n, np.float32, id=f"{n}-float32") for n in (1, 5, 64)],
])
def test_linear_fixed_rows_are_split_invariant(out_features, dtype):
    """With rows=CHUNK each row's bits do not depend on how the batch is cut,
    for one output feature (a matrix-vector product) as for several, and in
    either float width."""
    tol = 1e-12 if dtype == np.float64 else 1e-5
    r = rng_for(out_features)
    x = (r.normal(size=(2 * CHUNK + 3, 96)) * (r.random((2 * CHUNK + 3, 96)) < 0.3)).astype(dtype)
    w = Tensor(r.normal(size=(out_features, 96)).astype(dtype))
    b = Tensor(r.normal(size=out_features).astype(dtype))
    whole = np.concatenate([linear(Tensor(x[i:i + CHUNK]), w, b, rows=CHUNK).data
                            for i in range(0, len(x), CHUNK)])
    assert whole.dtype == dtype
    exact = x.astype(np.float64) @ w.data.T.astype(np.float64) + b.data
    np.testing.assert_allclose(whole, exact, rtol=tol, atol=tol)
    for lo, hi in ((0, 1), (3, 4), (5, 10), (CHUNK - 1, CHUNK + 2), (len(x) - 2, len(x))):
        part = linear(Tensor(x[lo:hi]), w, b, rows=CHUNK).data
        assert part.tobytes() == whole[lo:hi].tobytes()

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_fixed_rows_keep_row_bits_at_any_row_count(dtype):
    """A 64x300 weight, whose one product over all rows OpenBLAS sums in
    another order than CHUNK-row products from 24 rows on: with rows=CHUNK
    a row's bits do not depend on how many rows the call holds, nor on
    where the call starts."""
    r = rng_for(12)
    x = r.normal(size=(12 * CHUNK, 300)).astype(dtype)
    w, b = Tensor(r.normal(size=(64, 300)).astype(dtype)), Tensor(r.normal(size=64).astype(dtype))
    whole = linear(Tensor(x), w, b, rows=CHUNK).data
    for m in range(1, len(x) + 1):
        assert linear(Tensor(x[:m]), w, b, rows=CHUNK).data.tobytes() == whole[:m].tobytes()
    for lo in (1, 3, CHUNK + 5):
        assert linear(Tensor(x[lo:]), w, b, rows=CHUNK).data.tobytes() == whole[lo:].tobytes()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_exp_log_pow_grads(seed):
    r = rng_for(seed)
    x = Tensor(np.abs(r.normal(size=(2, 3))) + 0.5, requires_grad=True)

    def loss():
        return (ad.exp(x * 0.3) + ad.log(x) + x ** 1.5).sum()

    assert check_grads(loss, [x]) <= 1e-4


def test_composite_conv_pool_linear_chain_grads():
    r = rng_for(12345)
    x = Tensor(r.normal(size=(1, 2, 6, 6)), requires_grad=True)
    w1 = Tensor(r.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True)
    gw = Tensor(np.abs(r.normal(size=(3,))) + 0.5, requires_grad=True)
    gb = Tensor(r.normal(size=(3,)) * 0.1, requires_grad=True)
    w2 = Tensor(r.normal(size=(1, 27)) * 0.3, requires_grad=True)
    b2 = Tensor(np.zeros(1), requires_grad=True)

    def loss():
        h = conv2d(x, w1, padding=1)
        h = group_norm(h, 1, gw, gb)
        h = avg_pool(h, 2)
        h = h.reshape(1, 27)
        return (linear(h, w2, b2) ** 2.0).sum()

    assert check_grads(loss, [x, w1, gw, gb, w2, b2]) <= 1e-4


def test_default_net_grads_match_finite_differences():
    """Through every layer kind of the default architecture (relaxed mode,
    small input), checked at the first conv and the first group norm, whose
    gradient passes through every other layer's backward."""
    from evslicer.snn import DEFAULT_ARCH, SlicerNet
    net = SlicerNet(DEFAULT_ARCH, in_hw=(8, 8), hidden_units=6, seed=4, init_gain=2.0,
                    dtype="float64")
    cells = rng_for(8).poisson(1.0, (CHUNK + 2, 2, 8, 8)).astype(np.float64)
    coef = Tensor(rng_for(9).normal(size=CHUNK + 2))
    params = net.parameters()[:4]        # conv0 weight and bias, gn0 weight and bias

    def loss():
        return (net.forward(cells, relaxed=True).noreset * coef).sum()

    assert check_grads(loss, params) <= 1e-4


def test_multi_block_linear_net_grads_match_finite_differences():
    """Three blocks through a hidden linear layer wider than a block, whose
    weight gradient is formed once over all blocks at the end of backward."""
    from evslicer.snn import SlicerNet
    net = SlicerNet("LN-IF-LN-IF", in_hw=(3, 3), hidden_units=CHUNK + 4, seed=2,
                    init_gain=2.0, dtype="float64")
    cells = rng_for(10).poisson(1.0, (2 * CHUNK + 3, 2, 3, 3)).astype(np.float64)
    coef = Tensor(rng_for(11).normal(size=2 * CHUNK + 3))

    def loss():
        return (net.forward(cells, relaxed=True).noreset * coef).sum()

    assert check_grads(loss, net.parameters()) <= 1e-4


def test_tensor_added_to_itself_gets_twice_the_gradient():
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = x + x
    (y * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
    assert x.grad.tolist() == [2.0, 4.0, 6.0]
    assert y.grad.tolist() == [1.0, 2.0, 3.0]


def test_sum_inputs_accumulate_second_gradients_separately():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    s = a + b
    w = np.array([1.0, 2.0, 3.0])
    loss = (s * Tensor(w)).sum() + (a * 10.0).sum() + (b * 100.0).sum()
    loss.backward()
    assert a.grad.tolist() == (w + 10.0).tolist()
    assert b.grad.tolist() == (w + 100.0).tolist()
    assert s.grad.tolist() == w.tolist()
    assert s.grad.flags.writeable and loss.grad.flags.writeable


def test_second_backward_over_a_freed_graph_raises():
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = x * 2.0
    loss = (h * h).sum()
    loss.backward()
    assert x.grad.tolist() == [0.0, 8.0, 16.0]
    assert h.grad.tolist() == [0.0, 4.0, 8.0]
    with pytest.raises(RuntimeError, match="earlier backward has freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="earlier backward has freed"):
        (h * 3.0).sum().backward()
    assert x.grad.tolist() == [0.0, 8.0, 16.0]     # neither pass reached the leaf
    # a leaf keeps its place: a new graph on it back-propagates as usual
    (x * 1.5).sum().backward()
    assert x.grad.tolist() == [1.5, 9.5, 17.5]


def test_tensor_keeps_float32_and_widens_everything_else():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    for value in (np.ones(2, np.int64), np.ones(2, bool), 1.5, [1, 2], np.ones(2, np.float16)):
        assert Tensor(value).data.dtype == np.float64


def test_float32_ops_keep_float32_values_and_gradients():
    """Every op of the slicing net's body, forward and backward, stays in
    float32 for float32 inputs; the cast hands a float64 gradient back as
    float32."""
    r = rng_for(5)

    def f32(*shape, requires_grad=True):
        return Tensor(r.normal(size=shape).astype(np.float32), requires_grad=requires_grad)

    x, w, b = f32(CHUNK, 2, 5, 5), f32(4, 2, 3, 3), f32(4)
    gw, gb, lw, lb = f32(4), f32(4), f32(3, 36), f32(3)
    h = group_norm(conv2d(x, w, b, padding=1), 2, gw, gb)
    s, v_end, potentials = neuron_scan(h, None, NeuronConfig())
    h = adaptive_avg_pool(avg_pool(s, 2), (3, 3)) + spike(h, relaxed=True)[:, :, :3, :3]
    h = linear(h.reshape(CHUNK, 36), lw, lb, rows=CHUNK)
    y = ad.cast(concat([h, h]), np.float64)
    assert y.data.dtype == np.float64 and ad.cast(y, np.float64) is y
    assert v_end.data.dtype == potentials.dtype == np.float32
    assert all(t.data.dtype == np.float32 for t in (s, h))
    (y * Tensor(r.normal(size=y.shape))).sum().backward()
    for t in (x, w, b, gw, gb, lw, lb, h):
        assert t.grad.dtype == np.float32 and t.grad.shape == t.shape
    np.testing.assert_array_equal(h.data, y.data[:CHUNK])
    # the scan's backward factor, whose bool / float once promoted to float64
    assert ad._surrogate(potentials, 1.0, 0.5).dtype == np.float32


# ---------------------------------------------------------------------------
# determinism, shape errors, inference mode
# ---------------------------------------------------------------------------

def test_forward_and_backward_bytes_deterministic():
    r = rng_for(7)
    x_data = r.normal(size=(2, 3, 8, 8))
    w_data = r.normal(size=(4, 3, 3, 3))
    outs, grads = [], []
    for _ in range(2):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        y = (conv2d(x, w, padding=1) ** 2.0).sum()
        y.backward()
        outs.append(y.data.tobytes())
        grads.append((x.grad.tobytes(), w.grad.tobytes()))
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_shape_mismatches_raise_descriptive_errors():
    with pytest.raises(ShapeError, match="channel mismatch"):
        conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
    with pytest.raises(ShapeError, match="feature mismatch"):
        linear(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError, match="divisible"):
        group_norm(Tensor(np.ones((1, 3, 2, 2))), 2, Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_no_grad_blocks_graph_construction():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = (x * 3.0).sum()
    assert not y.requires_grad
    assert y._prev == ()


def test_broadcast_backward_shapes():
    x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
    c = Tensor(np.arange(3, dtype=np.float64).reshape(1, 3, 1, 1), requires_grad=True)
    ((x * c) + c).sum().backward()
    assert x.grad.shape == x.data.shape
    assert c.grad.shape == c.data.shape
    # both terms broadcast c over batch 2 and 4x4 spatial: 32 + 32 per channel
    np.testing.assert_allclose(c.grad.reshape(-1), [2 * 16 + 2 * 16] * 3)


def test_sgd_step_moves_against_gradient():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD([p], lr=0.1)
    (p * p).backward()
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 4.0])
    opt.zero_grad()
    assert p.grad is None


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_named_tensor_container_round_trip(tmp_path):
    r = rng_for(11)
    named = {
        "conv0.weight": r.normal(size=(4, 2, 3, 3)),
        "conv0.bias": r.normal(size=(4,)),
        "head.weight": r.normal(size=(1, 64)),
    }
    path = tmp_path / "params.sslc"
    save_named_tensors(path, named)
    loaded = load_named_tensors(path)
    assert list(loaded) == list(named)
    for key in named:
        np.testing.assert_array_equal(loaded[key], named[key])


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sslc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_named_tensors(path)


def test_container_header_layout(tmp_path):
    path = tmp_path / "one.sslc"
    save_named_tensors(path, {"w": np.array([1.5, -2.0])})
    blob = path.read_bytes()
    assert blob[:4] == b"SSLC"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 1  # name length
    assert blob[12:13] == b"w"
    assert int.from_bytes(blob[13:17], "little") == 1  # rank
    assert int.from_bytes(blob[17:25], "little") == 2  # extent
    np.testing.assert_array_equal(np.frombuffer(blob[25:], dtype="<f8"), [1.5, -2.0])


def test_container_writes_and_reads_tensors_of_several_blocks(tmp_path):
    """Values are widened and written a block at a time and read straight
    into their arrays: a float32 tensor spanning blocks (and a 0-d and an
    empty one) gives the bytes of one whole-array float64 write."""
    big = rng_for(12).normal(size=(3, ad._IO_BLOCK + 7)).astype(np.float32)
    named = {"big": Tensor(big), "scalar": np.float64(2.5), "empty": np.zeros((0, 3))}
    path = tmp_path / "blocks.sslc"
    save_named_tensors(path, named)
    values = path.read_bytes()[8 + 4 + 3 + 4 + 16:][:big.size * 8]
    assert values == big.astype("<f8").tobytes()
    loaded = load_named_tensors(path)
    assert loaded["big"].dtype == np.float64 and loaded["big"].flags.writeable
    np.testing.assert_array_equal(loaded["big"], big)
    assert loaded["scalar"].shape == () and loaded["scalar"] == 2.5
    assert loaded["empty"].shape == (0, 3)

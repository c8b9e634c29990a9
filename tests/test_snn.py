import json
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evslicer import autodiff as ad
from evslicer.autodiff import CheckpointError, ShapeError, Tensor, load_named_tensors
from evslicer.energy import profile_network
from evslicer.snn import (
    CHUNK, DEFAULT_ARCH, NeuronConfig, SlicerNet, _initial_weight, first_spike_index,
    parse_architecture, run_neuron,
)
from evslicer.losses import timing_loss
from gradcheck import check_grads, max_rel_error
from timing_traces import in_band_trace, upper_violation_trace


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# neuron dynamics
# ---------------------------------------------------------------------------

def test_integrate_and_fire_running_sum_trace():
    spikes, vs, us = run_neuron([0.4, 0.4, 0.4], NeuronConfig())
    assert spikes.tolist() == [0, 0, 1]
    np.testing.assert_allclose(vs, [0.4, 0.8, 1.2])
    np.testing.assert_allclose(us, [0.4, 0.8, 1.2])


def test_leaky_neuron_resets_but_trace_does_not():
    cfg = NeuronConfig(beta=0.5)
    spikes, vs, us = run_neuron([1.2, 0.3], cfg)
    assert spikes.tolist() == [1, 0]
    np.testing.assert_allclose(vs, [1.2, 0.3])        # V reset to 0 after spike
    np.testing.assert_allclose(us, [1.2, 0.9])        # U = 0.5*1.2 + 0.3


def test_firing_boundary_is_inclusive():
    spikes, vs, _ = run_neuron([1.0, 0.0], NeuronConfig(v_th=1.0))
    assert spikes.tolist() == [1, 0]
    assert vs.tolist() == [1.0, 0.0]       # fired exactly at v_th, then reset


def test_neuron_config_validation():
    with pytest.raises(ValueError, match="beta"):
        NeuronConfig(beta=0.0)
    with pytest.raises(ValueError, match="v_reset"):
        NeuronConfig(v_reset=1.5)
    with pytest.raises(ValueError, match="v_th"):
        NeuronConfig(v_th=-1.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_if_neuron_potential_is_running_input_sum_before_first_spike(seed):
    r = rng_for(seed)
    currents = r.normal(0.1, 0.3, size=10)
    spikes, vs, _ = run_neuron(currents, NeuronConfig())
    first = np.flatnonzero(spikes)
    stop = int(first[0]) + 1 if first.size else len(currents)
    np.testing.assert_allclose(vs[:stop], np.cumsum(currents)[:stop], atol=1e-12)


# ---------------------------------------------------------------------------
# timing guarantee: in-band traces fire exactly at the target step
# ---------------------------------------------------------------------------

@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_in_band_trace_fires_only_at_target(seed):
    currents, cfg, n_star = in_band_trace(seed)
    spikes, _, us = run_neuron(currents, cfg)
    assert spikes[n_star] == 1
    assert spikes[:n_star].sum() == 0 and spikes[n_star + 1:].sum() == 0
    # the construction really placed U inside the band
    upper = max(cfg.beta * cfg.v_th + cfg.gamma * currents[n_star], cfg.v_th)
    assert cfg.v_th - 1e-9 <= us[n_star] <= upper + 1e-9


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_upper_violation_fires_one_step_early(seed):
    currents, cfg, n_star = upper_violation_trace(seed)
    spikes, _, _ = run_neuron(currents, cfg)
    assert spikes[n_star - 1] == 1
    assert spikes[:n_star - 1].sum() == 0


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------

def test_parse_reference_architecture():
    tokens = parse_architecture(DEFAULT_ARCH)
    kinds = [t["kind"] for t in tokens]
    assert kinds == ["conv", "gn", "spike", "pool", "conv", "gn", "spike", "pool",
                     "conv", "gn", "spike", "adapool", "linear", "spike", "linear", "spike"]
    assert tokens[0] == {"kind": "conv", "out": 16, "k": 3}
    assert tokens[3] == {"kind": "pool", "k": 2}
    assert tokens[11] == {"kind": "adapool", "k": 2}


def test_parse_rejects_bad_tokens_and_missing_head():
    with pytest.raises(ValueError, match="bad architecture token"):
        parse_architecture("16C3-XX-IF")
    with pytest.raises(ValueError, match="spiking output neuron"):
        parse_architecture("16C3-GN-IF-LN")


@pytest.mark.parametrize("arch", ["4C3-LN-GN-LN-IF", "LN-AvgP2-LN-IF", "LN-AdaP2-LN-IF",
                                  "4C3-LN-IF-4C3-LN-IF"])
def test_parse_rejects_spatial_tokens_after_linear(arch):
    with pytest.raises(ValueError, match="only LN, IF and LIF may follow the first LN"):
        parse_architecture(arch)


def parameter_count(net):
    return sum(p.size for p in net.parameters())


def test_reference_parameter_counts_scale_with_input_size():
    # conv stack: 304 + 32 + 4640 + 64 + 18496 + 128 = 23664 params;
    # the linear head scales with the flattened feature size
    small = SlicerNet(DEFAULT_ARCH, in_hw=(32, 32))
    large = SlicerNet(DEFAULT_ARCH, in_hw=(64, 64))
    assert parameter_count(small) == 23664 + (1024 * 512 + 512) + (512 + 1)
    assert parameter_count(large) == 23664 + (4096 * 512 + 512) + (512 + 1)
    assert 0.5e6 < parameter_count(small) < 0.6e6
    assert 2.0e6 < parameter_count(large) < 2.2e6


def test_architecture_must_funnel_to_single_output():
    with pytest.raises(ValueError, match="one output feature"):
        SlicerNet("16C3-IF", in_hw=(8, 8))


@pytest.mark.parametrize("arch, hw, features", [
    ("4C2-LN-IF", (8, 8), 4 * 9 * 9),              # k//2 padding: an even kernel grows the map
    ("3C4-AvgP3-LN-IF", (5, 7), 3 * 2 * 3),         # 6x8 after the conv, ceil-pooled by 3
    ("2C1-AdaP3-LN-IF", (7, 2), 2 * 3 * 1),         # ceil(7/3) x max(1, ceil(2/3))
])
def test_linear_layer_is_sized_from_the_walked_cell(arch, hw, features):
    net = SlicerNet(arch, in_hw=hw)
    assert net.named_parameters()["fc0.weight"].shape == (1, features)
    assert len(net.forward(random_cells(0, 3, hw=hw))) == 3


def _token():
    sized = st.integers(1, 3)
    return st.one_of(st.builds("{}C{}".format, st.integers(1, 4), st.integers(1, 4)),
                     st.sampled_from(["GN", "IF", "LIF", "LN"]),
                     st.builds("AvgP{}".format, sized), st.builds("AdaP{}".format, sized))


@given(tokens=st.lists(_token(), max_size=6),
       tail=st.sampled_from([[], ["IF"], ["LN", "IF"], ["LN", "LIF", "LN", "IF"]]),
       hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       dtype=st.sampled_from(["float32", "float64"]))
@settings(max_examples=200, deadline=None)
def test_every_accepted_architecture_runs(tokens, tail, hw, dtype):
    """A string the net accepts forwards, and each layer's recorded input
    shape is the one the forward hands it. A string it refuses is refused
    by the grammar or the funnel rule, not by an op's shape check."""
    arch = "-".join(tokens + tail)
    try:
        net = SlicerNet(arch, in_hw=hw, hidden_units=3, gn_groups=2, dtype=dtype,
                        neuron=NeuronConfig(beta=0.9))
    except ValueError as exc:
        assert not isinstance(exc, ad.ShapeError), exc
        return
    cells = random_cells(0, 3, hw=hw)
    seen = {}
    net.body(cells, lambda i, x: seen.setdefault(i, x.shape[1:]))
    assert [shapes[0] for shapes in net.layer_shapes] == [seen[i] for i in range(len(net.layers))]
    assert len(net.forward(cells)) == 3


def test_lif_token_accepted():
    net = SlicerNet("4C3-LIF-AvgP2-LN-LIF", in_hw=(8, 8), neuron=NeuronConfig(beta=0.9))
    assert parameter_count(net) > 0


# ---------------------------------------------------------------------------
# network forward semantics
# ---------------------------------------------------------------------------

def small_net(seed=0, **kw):
    kw.setdefault("arch", "4C3-GN-IF-AvgP2-LN-IF")
    kw.setdefault("in_hw", (8, 8))
    return SlicerNet(seed=seed, **kw)


def random_cells(seed, n, hw=(8, 8), scale=1.0):
    r = rng_for(seed)
    return r.poisson(0.5, size=(n, 2, hw[0], hw[1])).astype(np.float64) * scale


def test_forward_shapes_and_record_lengths():
    net = small_net()
    rec = net.forward(random_cells(1, 7))
    assert len(rec) == 7
    assert rec.spikes.shape == (7,) and rec.potentials.shape == (7,)
    assert rec.noreset.shape == rec.currents.shape == (7,)


def test_noreset_equals_potential_before_first_spike():
    net = small_net(seed=3, init_gain=2.0)
    rec = net.forward(random_cells(2, 12))
    first = first_spike_index(rec)
    stop = len(rec) if first is None else first + 1
    np.testing.assert_array_equal(rec.noreset.data[:stop], rec.potentials[:stop])


def test_head_spike_consistent_with_threshold_crossing():
    net = small_net(seed=5, init_gain=2.0)
    rec = net.forward(random_cells(4, 12))
    first = first_spike_index(rec)
    if first is not None:
        assert rec.potentials[first] >= net.neuron.v_th
        assert (rec.potentials[:first] < net.neuron.v_th).all()


def test_forward_is_deterministic():
    cells = random_cells(6, 10)
    a = SlicerNet("4C3-GN-IF-AvgP2-LN-IF", in_hw=(8, 8), seed=9).forward(cells)
    b = SlicerNet("4C3-GN-IF-AvgP2-LN-IF", in_hw=(8, 8), seed=9).forward(cells)
    assert a.noreset.data.tobytes() == b.noreset.data.tobytes()
    assert a.spikes.tobytes() == b.spikes.tobytes()


def test_keep_state_continues_where_forward_stopped():
    cells = random_cells(8, 10)
    net = small_net(seed=11, init_gain=1.5)
    whole = net.forward(cells)
    part1 = net.forward(cells[:4])
    part2 = net.forward(cells[4:], keep_state=True)
    got = np.concatenate([part1.noreset.data, part2.noreset.data])
    np.testing.assert_allclose(got, whole.noreset.data, atol=1e-12)


@given(seed=st.integers(0, 10 ** 6),
       arch=st.sampled_from(["LN-IF", "4C3-GN-IF-AvgP2-LN-IF", "4C3-LIF-AvgP2-LN-LIF"]),
       leaky=st.booleans(), v_reset=st.sampled_from([0.0, -0.4]))
@settings(max_examples=40, deadline=None)
def test_head_decides_through_run_neuron(seed, arch, leaky, v_reset):
    r = rng_for(seed)
    cfg = NeuronConfig(beta=float(r.uniform(0.5, 0.99)) if leaky else 1.0, v_reset=v_reset)
    net = SlicerNet(arch, in_hw=(8, 8), neuron=cfg, seed=seed,
                    init_gain=float(r.uniform(1.0, 3.0)))
    cells = random_cells(seed, 2 * CHUNK + 3)
    whole = net.forward(cells)
    spikes, vs, us = run_neuron(whole.currents, cfg)
    assert whole.spikes.tobytes() == spikes.tobytes()
    assert whole.potentials.tobytes() == vs.tobytes()
    assert whole.noreset.data.tobytes() == us.tobytes()
    # split inside a block, so the continuation's blocks straddle the
    # one-shot forward's block boundaries
    k = CHUNK * int(r.integers(0, 2)) + int(r.integers(1, CHUNK))
    parts = [net.forward(cells[:k]), net.forward(cells[k:], keep_state=True)]
    for field in ("spikes", "potentials", "currents"):
        chunked = np.concatenate([getattr(p, field) for p in parts])
        assert chunked.tobytes() == getattr(whole, field).tobytes()
    chunked_u = np.concatenate([p.noreset.data for p in parts])
    assert chunked_u.tobytes() == whole.noreset.data.tobytes()


@given(seed=st.integers(0, 10 ** 6), split=st.integers(1, 2 * CHUNK + 2))
@settings(max_examples=12, deadline=None)
def test_default_float32_net_splits_are_bit_exact(seed, split):
    """keep_state splits of the default float32 net reproduce the one-shot
    forward bit for bit: spikes, potentials, currents and U."""
    r = rng_for(seed)
    net = SlicerNet(seed=seed, init_gain=float(r.uniform(1.0, 3.0)))
    assert net.dtype == "float32"
    cells = random_cells(seed, 2 * CHUNK + 3, hw=(32, 32))
    whole = net.forward(cells)
    parts = [net.forward(cells[:split]), net.forward(cells[split:], keep_state=True)]
    for field in ("spikes", "potentials", "currents"):
        chunked = np.concatenate([getattr(p, field) for p in parts])
        assert chunked.tobytes() == getattr(whole, field).tobytes()
    chunked_u = np.concatenate([p.noreset.data for p in parts])
    assert chunked_u.tobytes() == whole.noreset.data.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("sizes", [(13, 8), (3, 5, 13), (17, 20), (1, 16, 18)],
                         ids=["13+8", "3+5+13", "17+20", "1+16+18"])
def test_splits_off_the_block_grid_are_bit_exact(sizes, dtype):
    """A spatial stack and a flat tail with a hidden spiking layer: keep_state
    pieces that do not line up with CHUNK, or with the linear layers'
    2 * CHUNK-row products, give the one-shot forward's bytes."""
    net = SlicerNet("8C3-GN-IF-AvgP2-LN-LIF-LN-IF", in_hw=(8, 8), hidden_units=64, seed=4,
                    neuron=NeuronConfig(beta=0.9, v_reset=-0.2), init_gain=2.0, dtype=dtype)
    cells = random_cells(4, sum(sizes))
    fc1_in = []
    net.body(cells, lambda i, x: fc1_in.append(x.data) if i == len(net.layers) - 1 else None)
    assert fc1_in[0].shape[0] == len(cells) and fc1_in[0].any()     # the tail's LIF fires
    whole = net.forward(cells)
    bounds = np.cumsum((0,) + sizes)
    parts = [net.forward(cells[lo:hi], keep_state=lo > 0) for lo, hi in zip(bounds[:-1], bounds[1:])]
    for field in ("spikes", "potentials", "currents"):
        chunked = np.concatenate([getattr(p, field) for p in parts])
        assert chunked.tobytes() == getattr(whole, field).tobytes()
    chunked_u = np.concatenate([p.noreset.data for p in parts])
    assert chunked_u.tobytes() == whole.noreset.data.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("arch", [DEFAULT_ARCH, "LN-IF"], ids=["default", "LN-IF"])
def test_zero_cell_forward_gives_an_empty_record(arch, dtype):
    """No cells give an empty record and leave the carried state as it was."""
    net = SlicerNet(arch, dtype=dtype, init_gain=2.0)
    record = net.forward(np.zeros((0, 2, 32, 32)))
    assert len(record) == 0
    for got, want in ((record.spikes, np.int8), (record.potentials, np.float64),
                      (record.noreset.data, np.float64), (record.currents, np.float64)):
        assert got.shape == (0,) and got.dtype == want
    cells = random_cells(5, 11, hw=(32, 32))
    whole = net.forward(cells)
    parts = [net.forward(cells[:5]), net.forward(cells[5:5], keep_state=True),
             net.forward(cells[5:], keep_state=True)]
    assert np.concatenate([p.potentials for p in parts]).tobytes() == whole.potentials.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_gradients_match_float64(seed):
    """The float32 body's analytic timing-loss gradients agree with the
    same-seed float64 net's to 1e-4 relative (max deviation over
    max(1, largest gradient), as in the finite-difference checks); these
    seeds measured 5.7e-7 to 8.8e-7, with the ramp term active on seed 0."""
    cells = random_cells(seed, 2 * CHUNK + 3, scale=2.0)
    grads = {}
    for dtype in ("float32", "float64"):
        net = SlicerNet(DEFAULT_ARCH, in_hw=(8, 8), hidden_units=16, seed=seed,
                        init_gain=2.0, dtype=dtype)
        timing_loss(net.forward(cells), 2 * CHUNK, 0.5, net.neuron).total.backward()
        grads[dtype] = [p.grad for p in net.parameters()]
        assert all(g.dtype == dtype for g in grads[dtype])
    assert max_rel_error(grads["float32"], grads["float64"]) <= 1e-4


def test_body_runs_in_the_net_dtype_and_head_in_float64():
    seen = []
    for dtype in ("float32", "float64"):
        net = small_net(dtype=dtype)
        assert all(p.data.dtype == dtype for p in net.parameters())
        currents = net.body(random_cells(1, 5), probe=lambda i, x: seen.append(x.data.dtype))
        assert set(seen) == {np.dtype(dtype)} and currents.data.dtype == np.float64
        seen.clear()
    with pytest.raises(ValueError, match="dtype"):
        small_net(dtype="float16")


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_body_scales_cells_as_one_multiply_in_the_net_dtype(dtype, scale):
    """The first layer sees np.multiply(cells, input_scale, dtype=dtype),
    byte for byte, block by block. Any floats, not only counts: rounding the
    product of the float64 factors to float32 would differ on some."""
    net = SlicerNet(DEFAULT_ARCH, in_hw=(8, 8), hidden_units=16, seed=3, input_scale=scale,
                    dtype=dtype)
    cells = rng_for(4).normal(0.0, 3.0, size=(2 * CHUNK + 3, 2, 8, 8))
    seen = []
    net.body(cells, probe=lambda i, x: seen.append(x.data) if i == 0 else None)
    want = np.multiply(cells, scale, dtype=dtype)
    assert [len(x) for x in seen] == [CHUNK, CHUNK, 3]
    got = np.concatenate(seen)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [1, CHUNK - 3, 2 * CHUNK + 3])
@pytest.mark.parametrize("cfg", [NeuronConfig(), NeuronConfig(beta=0.9),
                                 NeuronConfig(v_reset=-0.4)], ids=["IF", "LIF", "reset-0.4"])
def test_chunked_forward_gradients_match_finite_differences(cfg, steps):
    """Gradients through the time-major blocks, their carried membranes and
    a keep_state continuation, against central differences (relaxed mode)."""
    net = SlicerNet("2C3-IF-LN-IF", in_hw=(4, 4), neuron=cfg, seed=steps, init_gain=2.0,
                    dtype="float64")
    cells = random_cells(steps, steps, hw=(4, 4))
    split = steps // 2
    coef = Tensor(rng_for(steps + 1).normal(size=steps))

    def loss():
        u = net.forward(cells, relaxed=True).noreset
        if split:
            first = net.forward(cells[:split], relaxed=True).noreset
            rest = net.forward(cells[split:], relaxed=True, keep_state=True).noreset
            u = u + ad.concat([first, rest])
        return (u * coef).sum()

    assert check_grads(loss, net.parameters()) <= 1e-4


def test_relaxed_mode_changes_hidden_spikes_only_in_forward():
    net = small_net(seed=2, init_gain=1.5)
    cells = random_cells(3, 6)
    hard = net.forward(cells)
    relaxed = net.forward(cells, relaxed=True)
    assert not np.allclose(hard.noreset.data, relaxed.noreset.data)


def test_failed_relaxed_forward_leaves_no_layer_relaxed():
    """A relaxed forward that raises (here on a geometry mismatch) restores
    the hard threshold, so a later walk of the body, such as the energy
    profile's, gives the same numbers as before it."""
    net = SlicerNet("4C3-IF-LN-IF", in_hw=(8, 8), seed=0, init_gain=1.5, dtype="float64")
    cells = random_cells(3, 12)
    before = [s.fr for s in profile_network(net, cells)]
    with pytest.raises(ShapeError):
        net.forward(np.zeros((3, 2, 4, 4)), relaxed=True)
    assert not any(getattr(layer, "relaxed", False) for layer in net.layers)
    assert [s.fr for s in profile_network(net, cells)] == before


def test_different_seeds_give_different_weights():
    a, b = small_net(seed=0), small_net(seed=1)
    assert not np.array_equal(a.parameters()[0].data, b.parameters()[0].data)


def test_gradients_reach_every_parameter():
    net = small_net(seed=7, init_gain=1.5)
    rec = net.forward(random_cells(9, 6))
    (rec.noreset[-1] * 1.0).sum().backward()
    grads = [p.grad for p in net.parameters()]
    assert all(g is not None for g in grads)
    assert any(np.abs(g).sum() > 0 for g in grads)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_reproduces_forward(tmp_path):
    """float32 parameters are stored widened to <f8 and narrowed back on
    load to the same values."""
    net = small_net(seed=13)
    cells = random_cells(14, 5)
    before = net.forward(cells).noreset.data
    path = tmp_path / "net.sslc"
    net.save(path)
    assert all(v.dtype == np.float64 for v in load_named_tensors(path).values())
    again = SlicerNet.load(path)
    np.testing.assert_array_equal(again.forward(cells).noreset.data, before)
    assert again.meta() == net.meta() and again.dtype == "float32"
    for p, q in zip(net.parameters(), again.parameters()):
        assert q.data.dtype == np.float32 and q.data.tobytes() == p.data.tobytes()


@pytest.fixture(scope="module")
def saved_net(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "net.sslc"
    small_net(seed=13).save(path)
    return path


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_every_truncated_checkpoint_raises_checkpoint_error(saved_net, tmp_path_factory, data):
    blob = saved_net.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path = tmp_path_factory.mktemp("cut") / "net.sslc"
    path.write_bytes(blob[:cut])
    shutil.copy(str(saved_net) + ".meta.json", str(path) + ".meta.json")
    try:
        prefix = load_named_tensors(path)
    except CheckpointError:
        prefix = None
    if prefix is not None:    # cut on a record boundary: a shorter container
        assert list(prefix) == list(load_named_tensors(saved_net))[:len(prefix)]
    with pytest.raises(CheckpointError):
        SlicerNet.load(path)


@given(garbage=st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_trailing_garbage_rejected(saved_net, tmp_path_factory, garbage):
    path = tmp_path_factory.mktemp("tail") / "net.sslc"
    path.write_bytes(saved_net.read_bytes() + garbage)
    shutil.copy(str(saved_net) + ".meta.json", str(path) + ".meta.json")
    with pytest.raises(CheckpointError):
        SlicerNet.load(path)


@pytest.mark.parametrize("change", [
    lambda m: m.pop("seed"),
    lambda m: m.update(extra=1),
    lambda m: m["neuron"].update(tau=2.0),
    lambda m: m["neuron"].pop("beta"),
    lambda m: m.update(in_hw=[8]),
    lambda m: m.update(gn_groups=0),
    lambda m: m.update(hidden_units=True),
    lambda m: m.update(arch="16C3-XX-IF"),
    lambda m: m["neuron"].update(beta=2.0),
    lambda m: m.update(dtype="float16"),
    lambda m: m.update(dtype=32),
    lambda m: m.update(dtype=None),
])
def test_bad_sidecar_raises_checkpoint_error(tmp_path, change):
    net = small_net(seed=13)
    path = tmp_path / "net.sslc"
    net.save(path)
    meta = net.meta()
    change(meta)
    (tmp_path / "net.sslc.meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointError):
        SlicerNet.load(path)


@pytest.mark.parametrize("arch, match", [
    ("4C3-GN-IF-AvgP2-LN-IF-LN-IF", r"missing \['fc1.bias', 'fc1.weight'\], extra \[\]"),
    ("4C3-IF-AvgP2-LN-IF", r"missing \[\], extra \['gn0.bias', 'gn0.weight'\]"),
    ("8C3-GN-IF-AvgP2-LN-IF", r"conv0.weight has shape \(4, 2, 3, 3\), expected \(8, 2, 3, 3\)"),
])
def test_load_against_another_architecture_raises_checkpoint_error(tmp_path, arch, match):
    """A sidecar naming another layout than the stored tensors: missing,
    extra and mis-shaped tensors are all refused."""
    net = small_net(seed=13)
    path = tmp_path / "net.sslc"
    net.save(path)
    (tmp_path / "net.sslc.meta.json").write_text(json.dumps({**net.meta(), "arch": arch}))
    with pytest.raises(CheckpointError, match=match):
        SlicerNet.load(path)


def test_checkpoint_mismatch_detected(tmp_path):
    net = small_net(seed=13)
    path = tmp_path / "net.sslc"
    net.save(path)
    other = SlicerNet("8C3-GN-IF-AvgP2-LN-IF", in_hw=(8, 8))
    with pytest.raises(ValueError, match="checkpoint"):
        other.load_parameters(path)
    third = SlicerNet("4C3-GN-IF-4C3-GN-IF-AvgP2-LN-IF", in_hw=(8, 8))
    with pytest.raises(ValueError, match="checkpoint mismatch"):
        third.load_parameters(path)


def parameter_bytes(net):
    return {name: p.data.tobytes() for name, p in net.named_parameters().items()}


@pytest.mark.parametrize("damage", ["missing", "extra", "shape", "truncated", "garbage"])
def test_failed_load_leaves_every_parameter_unchanged(tmp_path, damage):
    """Names, shapes and value lengths are all checked before a parameter is
    written. Each defect sits at the last record or after it, behind values
    that a loader writing as it reads would already have copied."""
    named = {name: p.data for name, p in small_net(seed=13).named_parameters().items()}
    last = list(named)[-1]
    if damage == "missing":
        del named[last]
    elif damage == "extra":
        named["zz.weight"] = np.ones(3)
    elif damage == "shape":
        named[last] = np.ones(named[last].size + 1)
    path = tmp_path / "net.sslc"
    ad.save_named_tensors(path, named)
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    elif damage == "garbage":
        path.write_bytes(path.read_bytes() + b"\x02\x00\x00\x00zz\x00")
    net = small_net(seed=4)
    before = parameter_bytes(net)
    with pytest.raises(CheckpointError):
        net.load_parameters(path)
    assert parameter_bytes(net) == before


@pytest.mark.parametrize("make", ["init", "load"])
def test_init_and_load_hold_one_copy_of_the_parameters(tmp_path, make):
    """Weights are drawn, and checkpoint values narrowed, into the net's own
    float32 buffers a block at a time, so no float64 copy of a whole tensor
    is ever held: the traced peak stays near the parameter bytes."""
    path = tmp_path / "net.sslc"
    net = SlicerNet(in_hw=(64, 64))
    net.save(path)
    nbytes = sum(p.data.nbytes for p in net.parameters())
    del net
    tracemalloc.start()
    try:
        net = SlicerNet(in_hw=(64, 64)) if make == "init" else SlicerNet.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * nbytes + 2 ** 20, (peak, nbytes)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(4, 2, 3, 3), (5, ad._IO_BLOCK // 2 + 5),
                                   (ad._IO_BLOCK // 8 + 3, 2, 3, 3)])
def test_block_drawn_weight_equals_one_whole_draw(dtype, shape):
    """The last two shapes span several blocks, whose edges fall inside a row."""
    weight = _initial_weight(rng_for(9), 1.5, 18, shape, dtype).data
    whole = rng_for(9).normal(0.0, 1.5 * np.sqrt(2.0 / 18), size=shape).astype(dtype)
    assert weight.dtype == dtype and weight.tobytes() == whole.tobytes()


def test_value_beyond_float32_loads_as_inf_without_warning(tmp_path):
    """A stored value outside float32's range narrows to a signed inf, as an
    overflowing net's numbers do, and no RuntimeWarning is raised (the test
    configuration turns one into an error)."""
    net = small_net(seed=13)
    named = {name: p.data.astype(np.float64) for name, p in net.named_parameters().items()}
    named["conv0.weight"][0, 0, 0, 0] = 1e300
    named["fc0.weight"][0, -1] = -1e300
    path = tmp_path / "net.sslc"
    ad.save_named_tensors(path, named)
    net.load_parameters(path)
    loaded = {name: p.data for name, p in net.named_parameters().items()}
    assert loaded["conv0.weight"][0, 0, 0, 0] == np.inf
    assert loaded["fc0.weight"][0, -1] == -np.inf
    for name, values in named.items():
        finite = np.abs(values) < 1e300
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name][finite], values[finite].astype(np.float32))

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evslicer.autodiff import CheckpointError, load_named_tensors
from evslicer.snn import (
    DEFAULT_ARCH, NeuronConfig, SlicerNet, first_spike_index,
    parse_architecture, run_neuron,
)
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


def test_reference_parameter_counts_scale_with_input_size():
    # conv stack: 304 + 32 + 4640 + 64 + 18496 + 128 = 23664 params;
    # the linear head scales with the flattened feature size
    small = SlicerNet(DEFAULT_ARCH, in_hw=(32, 32))
    large = SlicerNet(DEFAULT_ARCH, in_hw=(64, 64))
    assert small.parameter_count() == 23664 + (1024 * 512 + 512) + (512 + 1)
    assert large.parameter_count() == 23664 + (4096 * 512 + 512) + (512 + 1)
    assert 0.5e6 < small.parameter_count() < 0.6e6
    assert 2.0e6 < large.parameter_count() < 2.2e6


def test_architecture_must_funnel_to_single_output():
    with pytest.raises(ValueError, match="one output feature"):
        SlicerNet("16C3-IF", in_hw=(8, 8))


def test_lif_token_accepted():
    net = SlicerNet("4C3-LIF-AvgP2-LN-LIF", in_hw=(8, 8), neuron=NeuronConfig(beta=0.9))
    assert net.parameter_count() > 0


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
    assert len(rec.noreset) == len(rec.currents) == 7
    assert rec.noreset[0].size == 1


def test_noreset_equals_potential_before_first_spike():
    net = small_net(seed=3, init_gain=2.0)
    rec = net.forward(random_cells(2, 12))
    first = first_spike_index(rec)
    stop = len(rec) if first is None else first + 1
    np.testing.assert_array_equal(rec.u_values()[:stop], rec.potentials[:stop])


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
    assert a.u_values().tobytes() == b.u_values().tobytes()
    assert a.spikes.tobytes() == b.spikes.tobytes()


def test_keep_state_continues_where_forward_stopped():
    cells = random_cells(8, 10)
    net = small_net(seed=11, init_gain=1.5)
    whole = net.forward(cells)
    part1 = net.forward(cells[:4])
    part2 = net.forward(cells[4:], keep_state=True)
    got = np.concatenate([part1.u_values(), part2.u_values()])
    np.testing.assert_allclose(got, whole.u_values(), atol=1e-12)


@given(seed=st.integers(0, 10 ** 6),
       arch=st.sampled_from(["LN-IF", "4C3-GN-IF-AvgP2-LN-IF", "4C3-LIF-AvgP2-LN-LIF"]),
       leaky=st.booleans(), v_reset=st.sampled_from([0.0, -0.4]))
@settings(max_examples=40, deadline=None)
def test_head_decides_through_run_neuron(seed, arch, leaky, v_reset):
    r = rng_for(seed)
    cfg = NeuronConfig(beta=float(r.uniform(0.5, 0.99)) if leaky else 1.0, v_reset=v_reset)
    net = SlicerNet(arch, in_hw=(8, 8), neuron=cfg, seed=seed,
                    init_gain=float(r.uniform(1.0, 3.0)))
    cells = random_cells(seed, 12)
    whole = net.forward(cells)
    spikes, vs, us = run_neuron(whole.currents, cfg)
    assert whole.spikes.tobytes() == spikes.tobytes()
    assert whole.potentials.tobytes() == vs.tobytes()
    assert whole.u_values().tobytes() == us.tobytes()
    k = int(r.integers(1, 12))
    parts = [net.forward(cells[:k]), net.forward(cells[k:], keep_state=True)]
    for field in ("spikes", "potentials", "currents"):
        chunked = np.concatenate([getattr(p, field) for p in parts])
        assert chunked.tobytes() == getattr(whole, field).tobytes()
    chunked_u = np.concatenate([p.u_values() for p in parts])
    assert chunked_u.tobytes() == whole.u_values().tobytes()


def test_relaxed_mode_changes_hidden_spikes_only_in_forward():
    net = small_net(seed=2, init_gain=1.5)
    cells = random_cells(3, 6)
    hard = net.forward(cells)
    relaxed = net.forward(cells, relaxed=True)
    assert not np.allclose(hard.u_values(), relaxed.u_values())


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
    net = small_net(seed=13)
    cells = random_cells(14, 5)
    before = net.forward(cells).u_values()
    path = tmp_path / "net.sslc"
    net.save(path)
    again = SlicerNet.load(path)
    np.testing.assert_array_equal(again.forward(cells).u_values(), before)
    assert again.meta() == net.meta()


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

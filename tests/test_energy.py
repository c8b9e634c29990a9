"""Energy-model tests: frozen hand values with 64-bit equality, billing
rules, the brute-force FLOPs recount oracle, and profiling on a small net
with exactly predictable firing rates."""
import numpy as np
import pytest

from evslicer.energy import (
    E_AC_JOULES,
    E_MAC_JOULES,
    LayerStats,
    conv_flops,
    energy_joules,
    energy_report,
    fc_flops,
    profile_network,
    synaptic_ops,
)
from evslicer.snn import DEFAULT_ARCH, SlicerNet


def brute_force_conv_flops(cin, cout, k, oh, ow):
    """Count every multiply-accumulate with explicit loops."""
    count = 0
    for _ in range(cout):
        for _ in range(cin):
            for _ in range(k):
                for _ in range(k):
                    for _ in range(oh):
                        for _ in range(ow):
                            count += 1
    return count


class TestSynapticOps:
    def test_hand_value(self):
        # fr=0.25, T=4, FLOPs=1000 -> 0.25*4*1000 = 1000
        assert synaptic_ops(LayerStats("l", "fc", 1000, 0.25, 4)) == 1000.0

    def test_trivial_rates(self):
        assert synaptic_ops(LayerStats("l", "fc", 1000, 0.0, 4)) == 0.0
        assert synaptic_ops(LayerStats("l", "fc", 1000, 1.0, 1)) == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError, match="firing rate"):
            LayerStats("l", "fc", 10, 1.1, 1)
        with pytest.raises(ValueError, match="firing rate"):
            LayerStats("l", "fc", 10, -0.1, 1)
        with pytest.raises(ValueError, match="timesteps"):
            LayerStats("l", "fc", 10, 0.5, 0)
        with pytest.raises(ValueError, match="negative FLOPs"):
            LayerStats("l", "conv", -1, 0.5, 1)
        with pytest.raises(ValueError, match="kind"):
            LayerStats("l", "pool", 10, 0.5, 1)


class TestFlopsCounting:
    def test_conv_matches_brute_force(self):
        assert conv_flops(2, 3, 3, 4, 5) == brute_force_conv_flops(2, 3, 3, 4, 5)
        assert conv_flops(1, 1, 1, 1, 1) == 1

    def test_fc(self):
        assert fc_flops(256, 1) == 256
        assert fc_flops(512, 512) == 512 * 512


class TestEnergy:
    def test_single_conv_exact(self):
        # 1000 MAC at 4.6 pJ each -> 4.6 nJ, bit-for-bit
        stats = [LayerStats("conv0", "conv", 1000, 1.0, 1)]
        assert energy_joules(stats) == E_MAC_JOULES * 1000

    def test_two_layer_exact(self):
        stats = [
            LayerStats("conv0", "conv", 1000, 1.0, 4),
            LayerStats("fc0", "fc", 500, 0.25, 4),
        ]
        expected = E_MAC_JOULES * 1000 + E_AC_JOULES * (0.25 * 4 * 500)
        assert energy_joules(stats) == expected

    def test_silent_later_layers(self):
        stats = [
            LayerStats("conv0", "conv", 1000, 1.0, 8),
            LayerStats("conv1", "conv", 4000, 0.0, 8),
            LayerStats("fc0", "fc", 300, 0.0, 8),
        ]
        assert energy_joules(stats) == E_MAC_JOULES * 1000

    def test_first_conv_has_no_timestep_factor(self):
        # doubling T doubles every SOPs term, leaves the MAC term unchanged
        def stats(t):
            return [
                LayerStats("conv0", "conv", 1000, 1.0, t),
                LayerStats("conv1", "conv", 2000, 0.5, t),
                LayerStats("fc0", "fc", 100, 0.25, t),
            ]
        mac = E_MAC_JOULES * 1000
        assert energy_joules(stats(2)) - mac == pytest.approx(2 * (energy_joules(stats(1)) - mac))

    def test_fc_only_network_bills_all_ac(self):
        # an fc layer behind a spiking layer, as in IF-LN-IF, reads spikes
        stats = [LayerStats("fc0", "fc", 256, 1.0, 4, reads_spikes=True)]
        assert energy_joules(stats) == E_AC_JOULES * (1.0 * 4 * 256)

    def test_analog_input_bills_mac_wherever_it_sits(self):
        # one stat list with and one without the flags: the flag overrides
        # the first-layer default in both directions
        stats = [
            LayerStats("conv0", "conv", 1000, 1.0, 4, reads_spikes=True),
            LayerStats("fc0", "fc", 500, 1.0, 4, reads_spikes=False),
        ]
        assert [l["billing"] for l in energy_report(stats)["layers"]] == ["ac", "mac"]
        assert energy_joules(stats) == E_AC_JOULES * (4 * 1000) + E_MAC_JOULES * 500

    def test_monotone_in_firing_rate(self):
        rng = np.random.default_rng(0)
        base = [
            LayerStats("conv0", "conv", 500, 1.0, 4),
            LayerStats("conv1", "conv", 2000, 0.3, 4),
            LayerStats("fc0", "fc", 700, 0.6, 4),
        ]
        e0 = energy_joules(base)
        for i in (1, 2):
            for _ in range(10):
                bumped = [LayerStats(s.name, s.kind, s.flops, s.fr, s.t) for s in base]
                bumped[i].fr = min(1.0, base[i].fr + rng.uniform(0, 0.4))
                assert energy_joules(bumped) >= e0

    def test_report_contents(self):
        stats = [
            LayerStats("conv0", "conv", 1000, 1.0, 4),
            LayerStats("fc0", "fc", 500, 0.25, 4),
        ]
        rep = energy_report(stats)
        assert rep["constants"] == {"e_mac_joules": 4.6e-12, "e_ac_joules": 0.9e-12}
        assert [l["billing"] for l in rep["layers"]] == ["mac", "ac"]
        assert rep["layers"][1]["sops"] == 500.0
        assert rep["totals"]["flops"] == 1500
        assert rep["totals"]["joules"] == energy_joules(stats)


class TestProfiling:
    def build(self, bias):
        # conv -> IF -> flattened linear head; zero input cells mean the conv
        # contributes exactly its bias, making spike times hand-computable
        net = SlicerNet("4C3-IF-LN-IF", in_hw=(8, 8), seed=0)
        params = net.named_parameters()
        params["conv0.weight"].data[:] = 0.0
        params["conv0.bias"].data[:] = bias
        return net

    def test_frozen_rates_and_energy(self):
        # bias 0.6: IF membrane 0.6, 1.2(spike), 0.6, 1.2(spike) -> density 1/2
        net = self.build(0.6)
        cells = np.zeros((4, 2, 8, 8))
        stats = profile_network(net, cells)
        assert [s.name for s in stats] == ["conv0", "fc0"]
        assert stats[0].kind == "conv" and stats[0].fr == 1.0
        assert stats[0].flops == 4 * 2 * 3 * 3 * 8 * 8
        assert stats[1].flops == 4 * 8 * 8 * 1
        assert stats[1].fr == 0.5
        expected = E_MAC_JOULES * (4 * 2 * 3 * 3 * 8 * 8) + E_AC_JOULES * (0.5 * 4 * 256)
        assert energy_joules(stats) == expected

    def test_silent_network_bills_first_layer_only(self):
        # bias 0.2: membrane peaks at 0.8 in 4 steps, never spikes
        net = self.build(0.2)
        stats = profile_network(net, np.zeros((4, 2, 8, 8)))
        assert stats[1].fr == 0.0
        assert energy_joules(stats) == E_MAC_JOULES * stats[0].flops

    @pytest.mark.parametrize("arch, billing", [
        ("LN-IF", ["mac"]),
        ("IF-LN-IF", ["ac"]),
        ("4C3-4C3-LN-IF", ["mac", "mac", "mac"]),
        ("LN-LN-IF", ["mac", "mac"]),
        ("4C3-GN-LN-IF", ["mac", "mac"]),
        ("4C3-IF-LN-LN-IF", ["mac", "ac", "mac"]),
        ("4C3-IF-AvgP2-GN-LN-IF", ["mac", "mac"]),
        ("4C3-IF-AvgP2-AdaP2-LN-IF", ["mac", "ac"]),
    ])
    def test_billing_follows_what_a_layer_reads(self, arch, billing):
        """A layer reading spikes, through any pools, bills AC on its input's
        mean; one reading the cells or another layer's analog output bills
        MAC on its FLOPs, whatever sign or size that output has."""
        net = SlicerNet(arch, in_hw=(8, 8), hidden_units=4, seed=0, init_gain=2.0)
        cells = np.random.default_rng(1).poisson(0.8, (5, 2, 8, 8)).astype(np.float64)
        stats = profile_network(net, cells)
        rep = energy_report(stats)
        assert [row["billing"] for row in rep["layers"]] == billing
        for s, row in zip(stats, rep["layers"]):
            assert s.reads_spikes == (row["billing"] == "ac")
            assert row["joules"] == (E_AC_JOULES * synaptic_ops(s) if s.reads_spikes
                                     else E_MAC_JOULES * s.flops)
            assert s.fr == 1.0 or s.reads_spikes

    def test_profile_is_deterministic_and_stateless(self):
        net = SlicerNet("4C3-IF-LN-IF", in_hw=(8, 8), seed=1)
        rng = np.random.default_rng(2)
        cells = rng.poisson(0.5, (6, 2, 8, 8)).astype(np.float64)
        first = profile_network(net, cells)
        second = profile_network(net, cells)
        assert [(s.fr, s.flops, s.t) for s in first] == [(s.fr, s.flops, s.t) for s in second]
        assert all(0.0 <= s.fr <= 1.0 for s in first)
        assert all(s.t == 6 for s in first)

    def test_report_pinned_on_default_net(self):
        # Frozen from the per-cell profiling loop that the chunked layer walk
        # replaced; 11 cells span a full block and a partial one.
        net = SlicerNet(DEFAULT_ARCH, seed=3, init_gain=2.0)
        cells = np.random.default_rng(7).poisson(0.6, (11, 2, 32, 32)).astype(np.float64)
        rep = energy_report(profile_network(net, cells))
        pinned = {
            "conv0": (1.0, 1.3565952e-06),
            "conv1": (0.17487681995738635, 2.0423016e-06),
            "conv2": (0.18996360085227273, 2.2184928e-06),
            "fc0": (0.2156649502840909, 1.1193984e-06),
            "fc1": (0.22674005681818182, 1.1493e-09),
        }
        assert [row["name"] for row in rep["layers"]] == list(pinned)
        for row in rep["layers"]:
            fr, joules = pinned[row["name"]]
            assert row["t"] == 11
            assert row["fr"] == pytest.approx(fr, rel=1e-12)
            assert row["joules"] == pytest.approx(joules, rel=1e-12)
        assert rep["totals"]["flops"] == 3179008
        assert rep["totals"]["sops"] == pytest.approx(9223301.0, rel=1e-12)
        assert rep["totals"]["joules"] == pytest.approx(6.7379373000000005e-06, rel=1e-12)

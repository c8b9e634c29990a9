"""Theoretical energy model for the slicing network.

Spiking layers mostly see binary inputs, so a synapse only works when its
input is 1: operation count per layer is SOPs = fr * T * FLOPs, where fr is
the mean value of the layer's input over the profiling run (equal to the
spike density for binary inputs — mean pooling preserves it), T the number
of timesteps, and FLOPs the layer's multiply-accumulate count. A conv or
linear layer whose input is spikes (a spiking layer's output, through any
pools) is billed per accumulate on its SOPs; one whose input is analog (the
count grids, or the output of any other layer) is billed once at full
multiply-accumulate cost on its FLOPs, with no timestep factor:

    E = E_MAC * sum(FLOPs(analog input)) + E_AC * sum(SOPs(spike input))

In the default net only the first convolution reads analog values.
Constants assume a 45 nm process: E_MAC = 4.6 pJ, E_AC = 0.9 pJ.
Normalization and pooling layers are excluded from the count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .snn import AdaptivePoolLayer, ConvLayer, LinearLayer, PoolLayer, SpikeLayer

__all__ = [
    "E_MAC_JOULES", "E_AC_JOULES", "LayerStats", "synaptic_ops",
    "conv_flops", "fc_flops", "profile_network", "energy_joules",
    "energy_report",
]

E_MAC_JOULES = 4.6e-12
E_AC_JOULES = 0.9e-12


@dataclass
class LayerStats:
    """One billed layer: its MAC count, input spike density, timesteps, and
    whether its input is spikes (None: only a report's first layer is not)."""

    name: str
    kind: str            # "conv" | "fc"
    flops: int
    fr: float            # mean input value over the profiling run, in [0, 1]
    t: int               # timesteps the layer ran
    reads_spikes: bool | None = None

    def __post_init__(self):
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"layer kind must be conv or fc, got {self.kind!r}")
        if self.flops < 0:
            raise ValueError(f"negative FLOPs {self.flops}")
        if not 0.0 <= self.fr <= 1.0:
            raise ValueError(f"firing rate {self.fr} outside [0, 1]")
        if self.t < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.t}")


def synaptic_ops(stats):
    """SOPs = fr * T * FLOPs."""
    return stats.fr * stats.t * stats.flops


def conv_flops(cin, cout, k, oh, ow):
    """Multiply-accumulate count of one convolution forward pass."""
    return cout * cin * k * k * oh * ow


def fc_flops(in_features, out_features):
    return in_features * out_features


def profile_network(net, cells):
    """Forward a profiling cell sequence and capture per-layer LayerStats.

    A billed layer reads spikes when the layer before it, past any pools,
    is a spiking layer. fr of such a layer is the mean value of its input
    tensor across all timesteps, read from the net's own layer walk
    (`SlicerNet.body`) one cell at a time and summed in cell order. A layer
    that reads analog values (the cells, or a conv, group norm or linear
    output) is billed timestep-free at MAC cost, so its fr is fixed at 1.0
    by convention (every synapse active).
    """
    grids = cells.grids if hasattr(cells, "grids") else np.asarray(cells)
    t_steps = grids.shape[0]
    if t_steps < 1:
        raise ValueError("profiling needs at least one cell")
    billed, sums, spikes = [], {}, False      # spikes: layer i's input is spikes
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (ConvLayer, LinearLayer)):
            billed.append((i, layer))
            if spikes:
                sums[i] = 0.0
        if not isinstance(layer, (PoolLayer, AdaptivePoolLayer)):
            spikes = isinstance(layer, SpikeLayer)

    def probe(i, x):
        if i in sums:
            for cell_mean in x.data.reshape(x.shape[0], -1).mean(axis=1, dtype=np.float64):
                sums[i] += float(cell_mean)

    net.reset_state()
    with ad.no_grad():
        net.body(grids, probe)
    net.reset_state()
    stats = []
    for i, layer in billed:
        if isinstance(layer, ConvLayer):
            cout, cin, kh, kw = layer.weight.data.shape
            _, oh, ow = net.layer_shapes[i][1]
            flops = conv_flops(cin, cout, kh, oh, ow)
            kind = "conv"
        else:
            out_features, in_features = layer.weight.data.shape
            flops = fc_flops(in_features, out_features)
            kind = "fc"
        fr = sums[i] / t_steps if i in sums else 1.0
        stats.append(LayerStats(name=layer.name, kind=kind, flops=flops,
                                fr=fr, t=t_steps, reads_spikes=i in sums))
    return stats


def energy_joules(stats_list):
    """Total energy of one forward run under the two-rate billing rule."""
    return energy_report(stats_list)["totals"]["joules"]


def energy_report(stats_list):
    """JSON-ready report: per-layer rows plus totals and the constants."""
    layers = []
    total_flops = 0
    total_sops = 0.0
    total_joules = 0.0
    for i, stats in enumerate(stats_list):
        spikes = i > 0 if stats.reads_spikes is None else stats.reads_spikes
        rule = "ac" if spikes else "mac"
        sops = synaptic_ops(stats)
        joules = E_MAC_JOULES * stats.flops if rule == "mac" else E_AC_JOULES * sops
        layers.append({
            "name": stats.name, "kind": stats.kind, "billing": rule,
            "flops": stats.flops, "fr": stats.fr, "t": stats.t,
            "sops": sops, "joules": joules,
        })
        total_flops += stats.flops
        total_sops += sops
        total_joules += joules
    return {
        "constants": {"e_mac_joules": E_MAC_JOULES, "e_ac_joules": E_AC_JOULES},
        "layers": layers,
        "totals": {"flops": total_flops, "sops": total_sops, "joules": total_joules},
    }

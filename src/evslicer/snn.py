"""The slicing network: a small convolutional spiking net with a single
output neuron whose spike marks a slice boundary.

Neuron dynamics per step n (current I, decay beta, input gain gamma):

    V[n] = beta * V[n-1] + gamma * I[n]        spike S[n] = 1 if V[n] >= v_th
    after a spike V resets to v_reset          (beta = gamma = 1: integrate-and-fire)

The output neuron additionally tracks a never-reset twin U of its membrane
potential; training losses read U because a reset would erase exactly the
value the loss needs to supervise. Before the first spike U[n] == V[n].

`Neuron.run` decides the output spikes on floats; `integrate` builds U and
the hidden layers' membranes as graph nodes, and the hidden layers spike
through the surrogate-gradient step of `autodiff.spike`.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import CheckpointError, ShapeError, Tensor

DEFAULT_ARCH = "16C3-GN-IF-AvgP2-32C3-GN-IF-AvgP2-64C3-GN-IF-AdaP2-LN-IF-LN-IF"


@dataclass(frozen=True)
class NeuronConfig:
    """Membrane dynamics; defaults are integrate-and-fire."""

    beta: float = 1.0
    gamma: float = 1.0
    v_th: float = 1.0
    v_reset: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")
        if self.v_reset >= self.v_th:
            raise ValueError(f"v_reset {self.v_reset} must lie below v_th {self.v_th}")

    @property
    def surrogate_window(self):
        return 0.5 * self.v_th

    def to_dict(self):
        return {"beta": self.beta, "gamma": self.gamma, "v_th": self.v_th, "v_reset": self.v_reset}


def integrate(v_prev, current, cfg):
    """Graph-side membrane update V[n] = beta*V[n-1] + gamma*I[n] as one fused
    node; v_prev is None at the first step, where V[-1] = v_reset."""
    if v_prev is None:
        return ad.affine(current, cfg.gamma, cfg.beta * cfg.v_reset)
    return ad.lincomb(v_prev, current, cfg.beta, cfg.gamma)


class Neuron:
    """The resetting neuron and the state it carries between runs: the
    post-reset potential `v` as a float (the spike decision carries no
    gradient) and the never-reset twin `u` as a graph node, None at rest.
    The slicing net's output neuron is one of these."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.v = cfg.v_reset
        self.u = None

    def run(self, currents):
        """Continue over a current sequence; returns (spikes, V) where V holds
        the pre-reset potential of each step."""
        cfg = self.cfg
        spikes, vs = [], []
        for i in currents:
            v = cfg.beta * self.v + cfg.gamma * float(i)
            s = 1 if v >= cfg.v_th else 0
            self.v = cfg.v_reset if s else v
            spikes.append(s)
            vs.append(v)
        return np.array(spikes, dtype=np.int8), np.array(vs)


def run_neuron(currents, cfg):
    """Run a fresh resetting neuron over a current sequence; returns
    (spikes, V, U) with V the pre-reset and U the never-reset potentials."""
    spikes, vs = Neuron(cfg).run(currents)
    u, us = None, []
    for i in currents:
        u = integrate(u, Tensor(float(i)), cfg)
        us.append(u.item())
    return spikes, vs, np.array(us)


@dataclass
class SpikeRecord:
    """Per-step trace of the output neuron over one forwarded cell sequence.

    spikes/potentials/currents are plain arrays (the spike decision carries
    no gradient and losses read I[n] only as a constant); noreset holds graph
    nodes so losses can differentiate through U[n].
    """

    spikes: np.ndarray             # (N,) int8
    potentials: np.ndarray         # (N,) float, V[n] before any reset
    noreset: list                  # N scalar Tensors, U[n]
    currents: np.ndarray           # (N,) float, I[n]

    def __len__(self):
        return int(self.spikes.size)

    def u_values(self):
        return np.array([u.item() for u in self.noreset])


def first_spike_index(record):
    """Index of the first output spike, or None if the neuron stayed silent."""
    hits = np.flatnonzero(record.spikes)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class ConvLayer:
    def __init__(self, name, in_ch, out_ch, k, rng, gain):
        fan_in = in_ch * k * k
        self.name = name
        self.k = k
        self.weight = Tensor(rng.normal(0.0, gain * np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, k, k)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, stride=1, padding=self.k // 2)


class GroupNormLayer:
    def __init__(self, name, channels, groups):
        self.name = name
        self.groups = groups
        self.weight = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def __call__(self, x):
        return ad.group_norm(x, self.groups, self.weight, self.bias)


class SpikeLayer:
    """Hidden spiking activation with per-episode membrane state."""

    def __init__(self, name, cfg):
        self.name = name
        self.cfg = cfg
        self.v = None
        self.relaxed = False

    def params(self):
        return {}

    def reset(self):
        self.v = None

    def __call__(self, x):
        cfg = self.cfg
        v = integrate(self.v, x, cfg)
        s = ad.spike(v, v_th=cfg.v_th, window=cfg.surrogate_window, relaxed=self.relaxed)
        # reset-to-v_reset where fired: v*(1-s) + s*v_reset
        gate = ad.affine(s, -1.0, 1.0)
        if cfg.v_reset == 0.0:
            self.v = v * gate
        else:
            self.v = v * gate + ad.affine(s, cfg.v_reset, 0.0)
        return s


class PoolLayer:
    def __init__(self, k):
        self.k = k

    def params(self):
        return {}

    def __call__(self, x):
        return ad.avg_pool(x, self.k)


class AdaptivePoolLayer:
    """Shrinks each spatial extent by the given factor via partitioned means."""

    def __init__(self, factor):
        self.factor = factor

    def params(self):
        return {}

    def __call__(self, x):
        h, w = x.shape[2], x.shape[3]
        target = (max(1, -(-h // self.factor)), max(1, -(-w // self.factor)))
        return ad.adaptive_avg_pool(x, target)


class LinearLayer:
    def __init__(self, name, in_features, out_features, rng, gain):
        self.name = name
        self.weight = Tensor(rng.normal(0.0, gain * np.sqrt(2.0 / in_features),
                                        size=(out_features, in_features)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def __call__(self, x):
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return ad.linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(?:(?P<out>\d+)C(?P<k>\d+)|GN|IF|LIF|AvgP(?P<avg>\d+)|AdaP(?P<ada>\d+)|LN)$")


def parse_architecture(arch):
    """Split an architecture string into validated token dicts.

    Grammar tokens: {i}C{j} (conv, i filters of size j), GN (group norm),
    IF / LIF (spiking activation; dynamics come from the neuron config),
    AvgP{k} / AdaP{k} (mean pooling, fixed or adaptive), LN (linear).
    The string must end with a spiking token — the output neuron.
    """
    tokens = []
    for raw in arch.split("-"):
        m = _TOKEN_RE.match(raw)
        if not m:
            raise ValueError(f"bad architecture token {raw!r} in {arch!r}")
        if m.group("out"):
            tokens.append({"kind": "conv", "out": int(m.group("out")), "k": int(m.group("k"))})
        elif raw in ("IF", "LIF"):
            tokens.append({"kind": "spike"})
        elif raw == "GN":
            tokens.append({"kind": "gn"})
        elif m.group("avg"):
            tokens.append({"kind": "pool", "k": int(m.group("avg"))})
        elif m.group("ada"):
            tokens.append({"kind": "adapool", "k": int(m.group("ada"))})
        else:
            tokens.append({"kind": "linear"})
    if not tokens or tokens[-1]["kind"] != "spike":
        raise ValueError(f"architecture must end with a spiking output neuron: {arch!r}")
    return tokens


def _count(v):
    return type(v) is int and v > 0


def _number(v):
    return type(v) in (int, float) and math.isfinite(v)


# A validity test for each field of the JSON sidecar that meta() writes.
_META_FIELDS = {
    "arch": lambda v: type(v) is str, "neuron": lambda v: type(v) is dict,
    "in_hw": lambda v: type(v) is list and len(v) == 2 and all(map(_count, v)),
    "in_channels": _count, "gn_groups": _count, "hidden_units": _count,
    "seed": lambda v: type(v) is int and v >= 0, "init_gain": _number, "input_scale": _number,
}
_NEURON_FIELDS = dict.fromkeys(("beta", "gamma", "v_th", "v_reset"), _number)


def _check_fields(obj, fields, where):
    """Raise CheckpointError unless obj has exactly `fields`, each valid."""
    keys = set(obj) if type(obj) is dict else set()
    if keys != set(fields):
        raise CheckpointError(f"{where}: missing keys {sorted(set(fields) - keys)}, "
                              f"unknown keys {sorted(keys - set(fields))}")
    for key, valid in fields.items():
        if not valid(obj[key]):
            raise CheckpointError(f"{where}: invalid {key!r}: {obj[key]!r}")


class SlicerNet:
    """Network assembled from an architecture string on a fixed input geometry.

    The trailing spiking token becomes the output neuron (resetting membrane
    for the spike decision, never-reset twin for losses); everything before it
    runs as ordinary layers with surrogate-gradient spiking activations.
    """

    def __init__(self, arch=DEFAULT_ARCH, in_hw=(32, 32), in_channels=2,
                 neuron=None, gn_groups=4, hidden_units=512, seed=0,
                 init_gain=1.0, input_scale=1.0):
        self.arch = arch
        self.in_hw = tuple(in_hw)
        self.in_channels = in_channels
        self.neuron = neuron or NeuronConfig()
        self.gn_groups = gn_groups
        self.hidden_units = hidden_units
        self.seed = seed
        self.init_gain = init_gain
        self.input_scale = input_scale
        self._build()
        self.reset_state()

    def _build(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        tokens = parse_architecture(self.arch)
        linear_total = sum(1 for t in tokens if t["kind"] == "linear")
        self.layers = []
        self.layer_shapes = []   # (in_shape, out_shape) per layer, CHW / features
        ch, (h, w) = self.in_channels, self.in_hw
        flat = None
        conv_i = gn_i = lin_i = spike_i = 0
        for tok in tokens[:-1]:
            kind = tok["kind"]
            if kind == "conv":
                if flat is not None:
                    raise ValueError("conv after linear is not supported")
                layer = ConvLayer(f"conv{conv_i}", ch, tok["out"], tok["k"], rng, self.init_gain)
                self.layer_shapes.append(((ch, h, w), (tok["out"], h, w)))
                ch = tok["out"]
                conv_i += 1
            elif kind == "gn":
                groups = self.gn_groups if ch % self.gn_groups == 0 else ch
                layer = GroupNormLayer(f"gn{gn_i}", ch, groups)
                self.layer_shapes.append(((ch, h, w), (ch, h, w)))
                gn_i += 1
            elif kind == "spike":
                layer = SpikeLayer(f"spk{spike_i}", self.neuron)
                shape = (flat,) if flat is not None else (ch, h, w)
                self.layer_shapes.append((shape, shape))
                spike_i += 1
            elif kind == "pool":
                k = tok["k"]
                nh, nw = -(-h // k), -(-w // k)
                layer = PoolLayer(k)
                self.layer_shapes.append(((ch, h, w), (ch, nh, nw)))
                h, w = nh, nw
            elif kind == "adapool":
                k = tok["k"]
                nh, nw = max(1, -(-h // k)), max(1, -(-w // k))
                layer = AdaptivePoolLayer(k)
                self.layer_shapes.append(((ch, h, w), (ch, nh, nw)))
                h, w = nh, nw
            else:   # linear
                in_features = flat if flat is not None else ch * h * w
                out_features = 1 if lin_i + 1 == linear_total else self.hidden_units
                layer = LinearLayer(f"fc{lin_i}", in_features, out_features, rng, self.init_gain)
                self.layer_shapes.append(((in_features,), (out_features,)))
                flat = out_features
                lin_i += 1
            self.layers.append(layer)
        final = flat if flat is not None else ch * h * w
        if final != 1:
            raise ValueError(
                f"architecture must funnel to one output feature before the "
                f"output neuron, got {final} ({self.arch!r} on {self.in_hw})"
            )

    # -- parameters ----------------------------------------------------------

    def named_parameters(self):
        named = {}
        for layer in self.layers:
            named.update(layer.params())
        return named

    def parameters(self):
        return list(self.named_parameters().values())

    def parameter_count(self):
        return sum(p.size for p in self.parameters())

    # -- state ---------------------------------------------------------------

    def reset_state(self):
        for layer in self.layers:
            if isinstance(layer, SpikeLayer):
                layer.reset()
        self.head = Neuron(self.neuron)

    def _set_relaxed(self, relaxed):
        for layer in self.layers:
            if isinstance(layer, SpikeLayer):
                layer.relaxed = relaxed

    # -- forward -------------------------------------------------------------

    def step(self, cell):
        """Push one cell grid through the body; returns the scalar current
        tensor feeding the output neuron. Expects (C, H, W) plain array."""
        x = Tensor(cell[None] * self.input_scale)
        for layer in self.layers:
            x = layer(x)
        if x.size != 1:
            raise ShapeError(f"output current must be scalar, got shape {x.shape}")
        return x

    def forward(self, cells, relaxed=False, keep_state=False):
        """Run a cell sequence through the net; returns the output SpikeRecord.

        cells: (N, C, H, W) array or CellSequence grids. State is reset at the
        start unless keep_state is set, which continues every layer and the
        output neuron from where the previous forward stopped.
        """
        grids = cells.grids if hasattr(cells, "grids") else np.asarray(cells)
        if not keep_state:
            self.reset_state()
        self._set_relaxed(relaxed)
        noreset, currents = [], []
        for cell in grids:
            i_n = self.step(cell)
            self.head.u = integrate(self.head.u, i_n, self.neuron)
            noreset.append(self.head.u)
            currents.append(i_n.item())
        self._set_relaxed(False)
        spikes, potentials = self.head.run(currents)
        return SpikeRecord(spikes=spikes, potentials=potentials,
                           noreset=noreset, currents=np.array(currents))

    # -- persistence ---------------------------------------------------------

    def meta(self):
        return {
            "arch": self.arch, "in_hw": list(self.in_hw), "in_channels": self.in_channels,
            "neuron": self.neuron.to_dict(), "gn_groups": self.gn_groups,
            "hidden_units": self.hidden_units, "seed": self.seed,
            "init_gain": self.init_gain, "input_scale": self.input_scale,
        }

    def save(self, path):
        ad.save_named_tensors(path, self.named_parameters())
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(self.meta(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        sidecar = str(path) + ".meta.json"
        with open(sidecar) as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:
                raise CheckpointError(f"{sidecar}: not a JSON sidecar: {exc}") from None
        _check_fields(meta, _META_FIELDS, sidecar)
        _check_fields(meta["neuron"], _NEURON_FIELDS, f"{sidecar} neuron")
        try:   # the sidecar fields are exactly the constructor's arguments
            net = cls(**{**meta, "neuron": NeuronConfig(**meta["neuron"])})
        except ValueError as exc:
            raise CheckpointError(f"{sidecar}: {exc}") from None
        net.load_parameters(path)
        return net

    def load_parameters(self, path):
        stored = ad.load_named_tensors(path)
        own = self.named_parameters()
        missing = set(own) - set(stored)
        extra = set(stored) - set(own)
        if missing or extra:
            raise CheckpointError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, tensor in own.items():
            if stored[name].shape != tensor.data.shape:
                raise CheckpointError(
                    f"checkpoint tensor {name} has shape {stored[name].shape}, "
                    f"expected {tensor.data.shape}"
                )
            tensor.data = stored[name]

"""The slicing network: a small convolutional spiking net with a single
output neuron whose spike marks a slice boundary.

Neuron dynamics per step n (current I, decay beta, input gain gamma):

    V[n] = beta * V[n-1] + gamma * I[n]        spike S[n] = 1 if V[n] >= v_th
    after a spike V resets to v_reset          (beta = gamma = 1: integrate-and-fire)

The output neuron additionally tracks a never-reset twin U of its membrane
potential; training losses read U because a reset would erase exactly the
value the loss needs to supervise. Before the first spike U[n] == V[n].

The net runs time-major. The spatial stack (every layer before the first
linear one) takes a cell sequence in blocks of CHUNK cells, each block one
(T, C, H, W) batch; the flat tail (the first linear layer and everything
after it) then runs once on the N rows of all blocks. Conv, group norm,
pooling and linear layers treat the cells as independent samples; only the
spiking layers couple time steps, and each of them is one
`autodiff.neuron_scan` node per block (in the tail, per forward), carrying
its membrane potential into the next block (and, with keep_state, into the
next forward). The output neuron runs the same scan over the whole sequence
of output currents: with reset on plain floats for the spike decisions
(`Neuron.run`, which `run_neuron` and the timing-guarantee checks exercise),
and without reset as a graph node for U.

Precision: the body (every layer before the output neuron) computes in the
net's `dtype`, float32 by default, and a `cast` node hands its output
currents to the output neuron in float64. The neuron, and so the spike
decisions, the never-reset trace the losses read and everything downstream,
stays float64; so do the cell grids and the checkpoint bytes, which store
float32 parameters widened (exactly) to float64. A float64 net runs the same
code at full width, which the finite-difference gradient checks need.
"""
from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import CheckpointError, ShapeError, Tensor
from .schema import check_fields, declared, from_json

DEFAULT_ARCH = "16C3-GN-IF-AvgP2-32C3-GN-IF-AvgP2-64C3-GN-IF-AdaP2-LN-IF-LN-IF"

# Cells per time-major block of the spatial stack; the flat tail, whose
# per-cell footprint is small, runs on all cells of a forward at once. Longer
# blocks mean fewer graph nodes per sequence, shorter ones a smaller working
# set. Training the default net on 30 cells ran as fast with 8 as with 15.
# Slicing (`slicer.spike_cuts`) forwards 2 * CHUNK cells at a time with carried
# state, so its working set does not grow with the stream. The linear layers
# multiply in products of 2 * CHUNK rows: fc0's weight is repacked for every
# product, and a 16-row product costs less than two 8-row ones.
CHUNK = 8

# A net whose numbers outgrow its dtype carries inf or NaN on, unwarned: the
# trainers report it as a divergence, and slicing cuts where the potential fires.
OVERFLOW_SILENT = dict(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class NeuronConfig:
    """Membrane dynamics; defaults are integrate-and-fire."""

    beta: float = declared(1.0, "(0, 1]")
    gamma: float = declared(1.0, "(0, inf)")
    v_th: float = declared(1.0, "(0, inf)")
    v_reset: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.v_reset >= self.v_th:
            raise ValueError(f"v_reset {self.v_reset} must lie below v_th {self.v_th}")

    @property
    def surrogate_window(self):
        return 0.5 * self.v_th


class Neuron:
    """The output neuron and the state it carries between runs: `v`, the
    post-reset potential behind the spike decisions (no gradient), and `u`,
    the never-reset twin as a graph node; None means at rest (v_reset)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.v = None
        self.u = None

    def run(self, currents):
        """Continue over a current sequence; returns (spikes, V) where V holds
        the pre-reset potential of each step."""
        spikes, self.v, potentials = ad.neuron_scan(Tensor(currents), self.v, self.cfg)
        return spikes.data.astype(np.int8), potentials

    def trace(self, currents):
        """Continue the never-reset twin over a (T,) current node; returns U."""
        u, self.u, _ = ad.neuron_scan(currents, self.u, self.cfg, reset=False)
        return u


def run_neuron(currents, cfg):
    """Run a fresh resetting neuron over a current sequence; returns
    (spikes, V, U) with V the pre-reset and U the never-reset potentials."""
    neuron, currents = Neuron(cfg), Tensor(currents)
    spikes, vs = neuron.run(currents.data)
    return spikes, vs, neuron.trace(currents).data


@dataclass
class SpikeRecord:
    """Per-step trace of the output neuron over one forwarded cell sequence.

    spikes/potentials/currents are plain arrays (the spike decision carries
    no gradient and losses read I[n] only as a constant); noreset is the
    graph node of U, so losses can differentiate through U[n].
    """

    spikes: np.ndarray             # (N,) int8
    potentials: np.ndarray         # (N,) float, V[n] before any reset
    noreset: Tensor                # (N,) U[n]
    currents: np.ndarray           # (N,) float, I[n]

    def __len__(self):
        return int(self.spikes.size)


def first_spike_index(record):
    """Index of the first output spike, or None if the neuron stayed silent."""
    hits = np.flatnonzero(record.spikes)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _initial_weight(rng, gain, fan_in, shape, dtype):
    """He-normal values scaled by gain, drawn from rng into an array of dtype
    a block of at most `autodiff._IO_BLOCK` values at a time: the values of
    one whole float64 draw, narrowed, with no float64 copy of the weight.
    Zeros for rng None, a net whose checkpoint will fill them."""
    weight = np.zeros(shape, dtype)
    if rng is not None:
        flat, scale = weight.reshape(-1), gain * np.sqrt(2.0 / fan_in)
        for start in range(0, flat.size, ad._IO_BLOCK):
            block = flat[start:start + ad._IO_BLOCK]
            block[...] = rng.normal(0.0, scale, size=block.size)
    return Tensor(weight, requires_grad=True)


class ConvLayer:
    def __init__(self, name, in_ch, out_ch, k, rng, gain, dtype):
        self.name = name
        self.k = k
        self.weight = _initial_weight(rng, gain, in_ch * k * k, (out_ch, in_ch, k, k), dtype)
        self.bias = Tensor(np.zeros(out_ch, dtype), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, padding=self.k // 2)


class GroupNormLayer:
    def __init__(self, name, channels, groups, dtype):
        self.name = name
        self.groups = groups
        self.weight = Tensor(np.ones(channels, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(channels, dtype), requires_grad=True)

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
        s, self.v, _ = ad.neuron_scan(x, self.v, self.cfg, relaxed=self.relaxed)
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
    def __init__(self, name, in_features, out_features, rng, gain, dtype):
        self.name = name
        self.weight = _initial_weight(rng, gain, in_features, (out_features, in_features), dtype)
        self.bias = Tensor(np.zeros(out_features, dtype), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def __call__(self, x):
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        # one product shape for every row keeps keep_state splits bit-exact
        return ad.linear(x, self.weight, self.bias, rows=2 * CHUNK)


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(?:(?P<out>[1-9]\d*)C(?P<k>[1-9]\d*)|GN|IF|LIF|AvgP(?P<avg>[1-9]\d*)"
                       r"|AdaP(?P<ada>[1-9]\d*)|LN)$")


def parse_architecture(arch):
    """Split an architecture string into validated token dicts.

    Grammar tokens (sizes from 1): {i}C{j} (conv, i filters of size j), GN (group norm),
    IF / LIF (spiking activation; dynamics come from the neuron config),
    AvgP{k} / AdaP{k} (mean pooling, fixed or adaptive), LN (linear).
    Spatial tokens come first: only LN, IF and LIF may follow the first LN,
    which flattens each cell. The string must end with a spiking token, the
    output neuron. Layer sizes are left to the net (`SlicerNet._build`).
    """
    tokens = []
    for raw in arch.split("-"):
        m = _TOKEN_RE.match(raw)
        if not m:
            raise ValueError(f"bad architecture token {raw!r} in {arch!r}")
        if raw not in ("LN", "IF", "LIF") and {"kind": "linear"} in tokens:
            raise ValueError(f"{raw!r} after LN in {arch!r}: only LN, IF and LIF may follow "
                             f"the first LN")
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


@dataclass(frozen=True)
class NetSpec:
    """A SlicerNet's constructor arguments, which are also the fields of its
    checkpoint sidecar. dtype defaults to float64 because a sidecar without
    it was written before nets had a dtype, by a float64 net."""

    arch: str
    in_hw: tuple[int, int] = declared(within="[1, inf)")
    in_channels: int = declared(within="[1, inf)")
    neuron: NeuronConfig
    gn_groups: int = declared(within="[1, inf)")
    hidden_units: int = declared(within="[1, inf)")
    seed: int = declared(within="[0, inf)")
    init_gain: float = declared(within="[0, inf)")
    input_scale: float = declared(within="(0, inf)")
    dtype: str = declared("float64", choices=("float32", "float64"))

    def __post_init__(self):
        check_fields(self)


class SlicerNet:
    """Network assembled from an architecture string on a fixed input geometry.

    The trailing spiking token becomes the output neuron (resetting membrane
    for the spike decision, never-reset twin for losses); everything before it
    runs as ordinary layers with surrogate-gradient spiking activations, in
    `dtype` ("float32" or "float64"; see the module docstring).
    """

    def __init__(self, arch=DEFAULT_ARCH, in_hw=(32, 32), in_channels=2,
                 neuron=None, gn_groups=4, hidden_units=512, seed=0,
                 init_gain=1.0, input_scale=1.0, dtype="float32"):
        spec = NetSpec(arch, tuple(in_hw), in_channels, neuron or NeuronConfig(), gn_groups,
                       hidden_units, seed, init_gain, input_scale, dtype)
        self._build(spec, np.random.Generator(np.random.PCG64(seed)))

    def _build(self, spec, rng):
        """Lay out the layers of `spec`, their weights drawn from rng (zeros
        for rng None), and start at rest. One zero cell walks through each
        layer as it is built: its shape there sizes the layer and is what
        `layer_shapes` records, and it must end as one feature."""
        self.spec = spec
        vars(self).update(vars(spec))     # its fields are the net's attributes
        tokens = parse_architecture(self.arch)
        linear_total = sum(1 for t in tokens if t["kind"] == "linear")
        self.layers = []
        self.layer_shapes = []   # (input, output) shape of one cell, per layer
        made = Counter()
        x = Tensor(np.zeros((1, self.in_channels, *self.in_hw), dtype=self.dtype))
        with ad.no_grad(), np.errstate(**OVERFLOW_SILENT):
            for tok in tokens[:-1]:
                kind, ch, i = tok["kind"], x.shape[1], made[tok["kind"]]
                if kind == "conv":
                    layer = ConvLayer(f"conv{i}", ch, tok["out"], tok["k"], rng, self.init_gain,
                                      self.dtype)
                elif kind == "gn":
                    groups = self.gn_groups if ch % self.gn_groups == 0 else ch
                    layer = GroupNormLayer(f"gn{i}", ch, groups, self.dtype)
                elif kind == "spike":
                    layer = SpikeLayer(f"spk{i}", self.neuron)
                elif kind == "pool":
                    layer = PoolLayer(tok["k"])
                elif kind == "adapool":
                    layer = AdaptivePoolLayer(tok["k"])
                else:   # linear
                    out_features = 1 if i + 1 == linear_total else self.hidden_units
                    layer = LinearLayer(f"fc{i}", x.size, out_features, rng, self.init_gain,
                                        self.dtype)
                made[kind] += 1
                self.layers.append(layer)
                y = layer(x)
                self.layer_shapes.append((x.shape[1:], y.shape[1:]))
                x = y
        if x.size != 1:
            raise ValueError(f"architecture must funnel to one output feature before the output "
                             f"neuron, got {x.size} ({self.arch!r} on {self.in_hw})")
        self.reset_state()

    # -- parameters ----------------------------------------------------------

    def named_parameters(self):
        named = {}
        for layer in self.layers:
            named.update(layer.params())
        return named

    def parameters(self):
        return list(self.named_parameters().values())

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

    def body(self, grids, probe=None):
        """Push a (N, C, H, W) cell sequence through every layer before the
        output neuron, in the net's dtype; returns the (N,) float64 node of
        the output currents. The spatial stack (the layers before the first
        linear one) runs CHUNK cells at a time; the flat tail runs once, on
        all N rows. probe(i, x), if given, sees the input x of layer i.
        Cells of another (C, H, W) than the net's input raise ShapeError."""
        want = (self.in_channels, *self.in_hw)
        if grids.shape[1:] != want:
            raise ShapeError(f"cell geometry (C, H, W) {grids.shape[1:]} does not match "
                             f"the network input {want}")
        if not len(grids):
            return Tensor(np.zeros(0))

        def walk(x, first, end):
            for i in range(first, end):
                if probe is not None:
                    probe(i, x)
                x = self.layers[i](x)
            return x

        tail = next((i for i, layer in enumerate(self.layers) if isinstance(layer, LinearLayer)),
                    len(self.layers))
        step = CHUNK if tail else len(grids)
        blocks = []
        for start in range(0, len(grids), step):
            cells = grids[start:start + step]
            # a scale of 1 leaves the cast, which astype makes at less cost
            cells = (cells.astype(self.dtype) if self.input_scale == 1.0
                     else np.multiply(cells, self.input_scale, dtype=self.dtype))
            blocks.append(walk(Tensor(cells), 0, tail))
        x = walk(ad.concat(blocks), tail, len(self.layers))
        return ad.cast(x.reshape(-1), np.float64)

    def forward(self, cells, relaxed=False, keep_state=False):
        """Run a cell sequence through the net; returns the output SpikeRecord.

        cells: (N, C, H, W) array or CellSequence grids. State is reset at the
        start unless keep_state is set, which continues every layer and the
        output neuron from where the previous forward stopped; the result is
        the same, bit for bit, as forwarding both sequences in one call.
        """
        grids = cells.grids if hasattr(cells, "grids") else np.asarray(cells)
        if not keep_state:
            self.reset_state()
        self._set_relaxed(relaxed)
        try:
            with np.errstate(**OVERFLOW_SILENT):
                currents = self.body(grids)
                spikes, potentials = self.head.run(currents.data)
                noreset = self.head.trace(currents)
        finally:   # a forward that raises leaves no layer relaxed
            self._set_relaxed(False)
        return SpikeRecord(spikes=spikes, potentials=potentials,
                           noreset=noreset, currents=currents.data)

    # -- persistence ---------------------------------------------------------

    def meta(self):
        return dataclasses.asdict(self.spec)

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
        spec = from_json(NetSpec, meta, CheckpointError, sidecar)
        net = cls.__new__(cls)      # no initial draw: the checkpoint sets every parameter
        try:   # an architecture that does not parse, or does not funnel to one output
            net._build(spec, None)
        except ValueError as exc:
            raise CheckpointError(f"{sidecar}: {exc}") from None
        net.load_parameters(path)
        return net

    def load_parameters(self, path):
        """Overwrite every parameter in place from a checkpoint of the same
        layout; a CheckpointError leaves all of them as they were."""
        with np.errstate(**OVERFLOW_SILENT):
            ad.load_named_tensors_into(path, {name: p.data
                                              for name, p in self.named_parameters().items()})

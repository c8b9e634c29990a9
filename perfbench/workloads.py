"""The benchmark's three closed-loop workloads.

Each workload makes its inputs with the benchmark's own NumPy code from the
seed, spells out its configuration here rather than taking it from
`evslicer.presets`, and drives evslicer only through its public API. One
client runs in one process and issues the next step only after the previous
one has returned.

Every step of a run does identical work, whatever the training trajectory:
the training workloads restore the network's parameters before each step
(outside the timed region), so each step repeats the same arithmetic and its
result must equal the warm-up step's bit for bit. The networks and the
feedback trainer's sample order come from fixed seeds in the configs, so
the seed argument changes only the input events and cells; where a net
fires decides how much rendering a step does, and that should not depend on
the seed.

Why these three:

* arena-conv: arena-i training of the default convolutional net. Nearly all
  of a step is the spiking forward and the autodiff backward; no events and
  no oracle are involved.
* feedback-dense: density-oracle feedback training of the tiny count head on
  dense streams. The oracle's neighbourhood search (event grouping and
  rendering) dominates; the net itself is cheap.
* slice-csv: the path `evslicer slice` runs on a checkpoint: CSV parse,
  cells, the spiking forward without a graph, rendered slices and the report.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from evslicer import autodiff, energy, events, feedback, losses, slicer, snn

WIDTH = HEIGHT = 32
DT_US = 10_000


class CheckFailed(Exception):
    """A step's output failed the workload's correctness check."""


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _config_digest(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def bar_events(rng, rates_per_ms, phase_ms, speed_px_per_ms=0.05, bar_width_px=4,
               jitter_px=1.0):
    """A full-height bar sweeping right on a 32x32 sensor.

    Each 1 ms tick emits Poisson(rate) events, half on the leading edge
    (+1) and half on the trailing edge (-1), with Gaussian jitter in x.
    Returns time-sorted (t_us uint64, x uint16, y uint16, p int8) arrays.
    """
    rate = np.repeat(np.asarray(rates_per_ms, dtype=np.float64), phase_ms)
    n_ticks = rate.size
    per_tick = rng.poisson(rate)
    tick = np.repeat(np.arange(n_ticks), per_tick)
    n = tick.size
    t = tick * 1000 + rng.integers(0, 1000, size=n)
    leading = rng.random(n) < 0.5
    centre = tick * speed_px_per_ms
    edge = np.where(leading, centre + bar_width_px / 2.0, centre - bar_width_px / 2.0)
    x = np.mod(np.rint(edge + rng.normal(0.0, jitter_px, size=n)), WIDTH)
    y = rng.integers(0, HEIGHT, size=n)
    p = np.where(leading, 1, -1)
    order = np.argsort(t, kind="stable")
    return (t[order].astype(np.uint64), x[order].astype(np.uint16),
            y[order].astype(np.uint16), p[order].astype(np.int8))


def _snapshot(params):
    return [p.data.copy() for p in params]


def _restore(params, snapshot):
    for p, saved in zip(params, snapshot):
        np.copyto(p.data, saved)


class Workload:
    """One workload: inputs from the seed, set-up, a step and its check.

    Subclasses set `name`, `config` and `work_per_step`, make their inputs
    in `__init__` (not timed), and implement `setup` (the first evslicer
    calls, timed together with the warm-up step), `step`, `check` and,
    where steps mutate state, `restore` (not timed).
    """

    name = ""
    config: dict = {}
    work_per_step: dict = {}
    uses_default_net = False

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.input_digest = ""
        self.input_events = 0
        self.reference = None

    def record(self):
        return {"config": self.config, "config_sha256": _config_digest(self.config),
                "input_sha256": self.input_digest, "input_events": self.input_events,
                "work_per_step": self.work_per_step}

    def setup(self):
        raise NotImplementedError

    def restore(self):
        pass

    def step(self):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def traced_extras(self):
        """Calls made once under tracing after the traced steps."""

    def close(self):
        pass


class ArenaConv(Workload):
    name = "arena-conv"
    config = {
        "task": "arena-i", "arch": snn.DEFAULT_ARCH, "in_hw": [HEIGHT, WIDTH],
        "n_steps": 30, "cell_rate": 0.5, "lr": 1e-4, "alpha0": 0.5,
        # Backward only reaches the steps up to the target, so a target drawn
        # from the seed would make the work per step depend on the seed; the
        # last step back-propagates through all 30.
        "target": 29, "net_seed": 0,
    }
    work_per_step = {"cells": 30, "events": 0, "samples": 1}
    uses_default_net = True

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.Generator(np.random.PCG64(seed))
        cfg = self.config
        cell = rng.poisson(cfg["cell_rate"], (2, HEIGHT, WIDTH)).astype(np.float64)
        self.cells = np.repeat(cell[None], cfg["n_steps"], axis=0)
        self.input_digest = _digest(self.cells)

    def setup(self):
        cfg = self.config
        self.net = snn.SlicerNet(cfg["arch"], in_hw=tuple(cfg["in_hw"]), seed=cfg["net_seed"])
        self.params = self.net.parameters()
        self.opt = autodiff.SGD(self.params, cfg["lr"])
        self.initial = _snapshot(self.params)

    def restore(self):
        _restore(self.params, self.initial)

    def step(self):
        record = self.net.forward(self.cells)
        cfg = self.config
        parts = losses.timing_loss(record, cfg["target"], cfg["alpha0"], self.net.neuron)
        self.opt.zero_grad()
        parts.total.backward()
        self.opt.step()
        return {"loss": parts.mem + parts.ramp, "length": len(record)}

    def check(self, out):
        if not math.isfinite(out["loss"]):
            raise CheckFailed(f"non-finite loss {out['loss']}")
        if out["length"] != self.config["n_steps"]:
            raise CheckFailed(f"forward ran {out['length']} of {self.config['n_steps']} cell steps")
        if self.reference is not None and out != self.reference:
            raise CheckFailed(f"step differs from warm-up: {out} != {self.reference}")


class FeedbackDense(Workload):
    name = "feedback-dense"
    config = {
        "arch": "LN-IF", "in_hw": [HEIGHT, WIDTH], "n_streams": 4,
        "rates_per_ms": [20.0, 60.0, 20.0], "phase_ms": 300, "target_events": 1200,
        "dt_us": DT_US, "epochs": 1, "samples_per_epoch": 40, "window": 12, "d": 2,
        "lr": 1e-5, "lr_schedule": "cosine", "alpha0": 0.5, "eta": 0.05,
        "repr_kind": "frame", "net_seed": 0, "sample_seed": 0,
        # Every input weight 1/K and a zero bias: the head integrates the
        # event count and fires once K events arrived, which is where density
        # feedback training settles. A randomly initialised head fires where
        # the noise in each seed's events puts it, and the rendering work per
        # step then varied by 10% between seeds.
        "head_weight": 1.0 / 1200, "head_bias": 0.0,
    }
    work_per_step = {"cells": 4 * 90, "events": 4 * 30_000, "samples": 40}

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.Generator(np.random.PCG64(seed))
        cfg = self.config
        self.arrays = [bar_events(rng, cfg["rates_per_ms"], cfg["phase_ms"])
                       for _ in range(cfg["n_streams"])]
        self.input_digest = _digest(*[a for arrays in self.arrays for a in arrays])
        self.input_events = sum(arrays[0].size for arrays in self.arrays)

    def setup(self):
        cfg = self.config
        span = len(cfg["rates_per_ms"]) * cfg["phase_ms"] * 1000
        self.streams = [events.EventStream(width=WIDTH, height=HEIGHT, t=t, x=x, y=y, p=p,
                                           t0=0, span_us=span)
                        for t, x, y, p in self.arrays]
        self.net = snn.SlicerNet(cfg["arch"], in_hw=tuple(cfg["in_hw"]), seed=cfg["net_seed"])
        for name, p in self.net.named_parameters().items():
            p.data[...] = cfg["head_weight"] if name.endswith(".weight") else cfg["head_bias"]
        self.params = self.net.parameters()
        self.initial = _snapshot(self.params)
        self.oracle = feedback.DensityTargetOracle(cfg["target_events"])
        self.fb_config = feedback.FeedbackConfig(
            dt_us=cfg["dt_us"], epochs=cfg["epochs"], samples_per_epoch=cfg["samples_per_epoch"],
            window=cfg["window"], d=cfg["d"], lr=cfg["lr"], lr_schedule=cfg["lr_schedule"],
            alpha0=cfg["alpha0"], eta=cfg["eta"], repr_kind=cfg["repr_kind"],
            seed=cfg["sample_seed"])

    def restore(self):
        _restore(self.params, self.initial)

    def step(self):
        res = feedback.train_feedback(self.net, self.oracle, self.streams, self.fb_config)
        samples = [h for h in res.history if "loss" in h]
        return {"samples": res.samples, "skipped": res.skipped, "alpha": res.alpha_final,
                "alphas": [h["alpha"] for h in res.history if "alpha" in h],
                "losses": [h["loss"] for h in samples],
                "n_star": [h["n_star"] for h in samples]}

    def check(self, out):
        if out["skipped"] != 0:
            raise CheckFailed(f"{out['skipped']} samples skipped")
        if out["samples"] != self.config["samples_per_epoch"]:
            raise CheckFailed(f"{out['samples']} samples, "
                              f"expected {self.config['samples_per_epoch']}")
        if len(out["losses"]) != out["samples"] or not all(map(math.isfinite, out["losses"])):
            raise CheckFailed("missing or non-finite sample loss")
        if not all(0.0 <= a <= 1.0 for a in out["alphas"] + [out["alpha"]]):
            raise CheckFailed(f"alpha left [0, 1]: {out['alphas']}")
        if self.reference is not None and out != self.reference:
            raise CheckFailed("epoch differs from warm-up epoch")


class SliceCsv(Workload):
    name = "slice-csv"
    config = {
        "arch": snn.DEFAULT_ARCH, "in_hw": [HEIGHT, WIDTH], "rates_per_ms": [20.0, 60.0, 20.0],
        "phase_ms": 300, "dt_us": DT_US, "repr_kind": "frame",
        # The freshly initialised output layer may never fire; scaling its
        # weights and lifting its bias makes the head cut every few cells,
        # so the checks below see many slices on every seed.
        "head_weight_scale": 0.1, "head_bias": 0.2, "net_seed": 0,
    }
    work_per_step = {"cells": 90, "events": 30_000, "samples": 1}
    uses_default_net = True

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.Generator(np.random.PCG64(seed))
        cfg = self.config
        self.t, self.x, self.y, self.p = bar_events(rng, cfg["rates_per_ms"], cfg["phase_ms"])
        rows = "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in
                       zip(self.t.tolist(), self.x.tolist(), self.y.tolist(), self.p.tolist()))
        self.csv = ("t_us,x,y,p\n" + rows).encode()
        self.span_us = len(cfg["rates_per_ms"]) * cfg["phase_ms"] * 1000
        self.input_digest = _digest(self.csv)
        self.input_events = int(self.t.size)
        self.checkpoint = self.workdir / "slicer.sslc"

    def setup(self):
        cfg = self.config
        built = snn.SlicerNet(cfg["arch"], in_hw=tuple(cfg["in_hw"]), seed=cfg["net_seed"])
        head = [p for name, p in built.named_parameters().items() if name.endswith(".weight")][-1]
        bias = [p for name, p in built.named_parameters().items() if name.endswith(".bias")][-1]
        head.data *= cfg["head_weight_scale"]
        bias.data[...] = cfg["head_bias"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        built.save(self.checkpoint)
        self.net = snn.SlicerNet.load(self.checkpoint)

    def step(self):
        cfg = self.config
        stream = events.parse_events(self.csv, "csv", width=WIDTH, height=HEIGHT,
                                     t0=0, span_us=self.span_us)
        decisions = slicer.slice_stream(self.net, stream, cfg["dt_us"], cfg["repr_kind"])
        cells = events.build_cells(stream, cfg["dt_us"])
        report = slicer.slice_report(decisions, stream, len(cells), cfg["dt_us"])
        return {"stream": stream, "decisions": decisions, "n_cells": len(cells),
                "report": report, "cuts": [d.last_cell for d in decisions if d.n_c is not None]}

    def check(self, out):
        s = out["stream"]
        if not (np.array_equal(s.t, self.t) and np.array_equal(s.x, self.x)
                and np.array_equal(s.y, self.y) and np.array_equal(s.p, self.p)):
            raise CheckFailed("parsed events differ from the generated ones")
        decisions, n_cells = out["decisions"], out["n_cells"]
        expected_first = 0
        for d in decisions:
            if d.first_cell != expected_first or d.last_cell < d.first_cell:
                raise CheckFailed(f"slice [{d.first_cell}, {d.last_cell}] breaks the partition")
            expected_first = d.last_cell + 1
        if expected_first != n_cells:
            raise CheckFailed(f"slices cover {expected_first} of {n_cells} cells")
        covered = int(np.count_nonzero(self.t < n_cells * self.config["dt_us"]))
        if sum(d.n_events for d in decisions) != covered:
            raise CheckFailed("per-slice event counts do not sum to the covered events")
        if out["report"]["n_slices"] != len(decisions):
            raise CheckFailed("report slice count differs from the decisions")
        if self.reference is not None and out["cuts"] != self.reference["cuts"]:
            raise CheckFailed("cut list differs from the warm-up step")

    def traced_extras(self):
        cells = events.build_cells(events.parse_events(
            self.csv, "csv", width=WIDTH, height=HEIGHT, t0=0, span_us=self.span_us),
            self.config["dt_us"])
        for _ in range(3):
            energy.profile_network(self.net, cells)
        return len(cells)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ArenaConv, FeedbackDense, SliceCsv)}

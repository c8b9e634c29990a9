"""Per-layer tracing from outside the program.

Public evslicer names are wrapped by attribute replacement in every evslicer
module namespace that holds them, so callers that imported a name with
`from .events import render` are traced as well as callers that look it up
through its module. Nothing in the program changes, and every wrapper is
removed again when the pass ends. A name that no longer exists is reported
as an absent layer instead of failing the run.

Two kinds of pass use the same wrapping:

* a traced pass records one span per call (name, start, end, parent) in
  memory; self time is a span's duration minus that of its direct children;
* a count pass records only call counts, plus the autodiff tensors created
  and the neighbourhood-search outcomes, and must repeat exactly.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (layer name, module, attribute path) for every public name the traced
# pass wraps.
TARGETS = [
    ("snn.forward", "evslicer.snn", "SlicerNet.forward"),
    ("snn.load", "evslicer.snn", "SlicerNet.load"),
    ("autodiff.backward", "evslicer.autodiff", "Tensor.backward"),
    ("autodiff.sgd_step", "evslicer.autodiff", "SGD.step"),
    ("losses.timing_loss", "evslicer.losses", "timing_loss"),
    ("autodiff.conv2d", "evslicer.autodiff", "conv2d"),
    ("autodiff.group_norm", "evslicer.autodiff", "group_norm"),
    ("autodiff.spike", "evslicer.autodiff", "spike"),
    ("autodiff.linear", "evslicer.autodiff", "linear"),
    ("autodiff.avg_pool", "evslicer.autodiff", "avg_pool"),
    ("autodiff.adaptive_avg_pool", "evslicer.autodiff", "adaptive_avg_pool"),
    ("feedback.neighborhood_search", "evslicer.feedback", "neighborhood_search"),
    ("events.event_group", "evslicer.events", "event_group"),
    ("events.render", "evslicer.events", "render"),
    ("events.build_cells", "evslicer.events", "build_cells"),
    ("events.parse_events", "evslicer.events", "parse_events"),
    ("slicer.spike_cuts", "evslicer.slicer", "spike_cuts"),
    ("slicer.decisions_from_cuts", "evslicer.slicer", "decisions_from_cuts"),
    ("slicer.slice_report", "evslicer.slicer", "slice_report"),
    ("energy.profile_network", "evslicer.energy", "profile_network"),
]

# Wrapped only in the count pass: every autodiff tensor constructed.
TENSOR_INIT = ("autodiff.tensor", "evslicer.autodiff", "Tensor.__init__")

ROOT = "step"


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        if attr not in vars(owner):
            return None
        return owner, attr, inspect.getattr_static(owner, attr)
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Patches:
    """Installs wrappers around the resolved targets and removes them again.

    The sites to patch are found once, when the object is made: the class
    attribute for methods, and for functions every evslicer module global
    that holds the original object.
    """

    def __init__(self, targets):
        self.sites = []      # (name, owner, attr, original)
        self.absent = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "evslicer" or key.startswith("evslicer."))]
        for name, module_name, path in targets:
            hit = _resolve(module_name, path)
            if hit is None:
                self.absent.append(name)
                continue
            owner, attr, original = hit
            if inspect.isclass(owner):
                self.sites.append((name, owner, attr, original))
                continue
            self.sites.extend((name, module, key, original) for module in modules
                              for key, value in vars(module).items() if value is original)
        self._applied = []

    def install(self, make_wrapper):
        wrappers = {}
        for name, owner, attr, original in self.sites:
            if name not in wrappers:
                if isinstance(original, (classmethod, staticmethod)):
                    wrappers[name] = type(original)(make_wrapper(name, original.__func__))
                else:
                    wrappers[name] = make_wrapper(name, original)
            self._applied.append((owner, attr, original))
            setattr(owner, attr, wrappers[name])

    def uninstall(self):
        while self._applied:
            owner, attr, original = self._applied.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer, patches):
    """Wrap the targets for the duration of the block, under one root span."""
    patches.install(tracer.wrapper)
    root = tracer.begin(ROOT)
    try:
        yield
    finally:
        tracer.end(root)
        patches.uninstall()


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrapper(self, name, fn):
        begin, end = self.begin, self.end

        def timed(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        timed.__wrapped__ = fn
        return timed

    def durations(self, name):
        """Inclusive durations (ms) of every span with this name."""
        return [(end - start) * 1e3 for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Per-name total self time (ms) and the number of root spans.

        The root spans' own self time is reported as `other`, so the totals
        sum to the roots' total duration.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        roots = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            key = "other" if parent < 0 else name
            roots += parent < 0
            totals[key] += (end - start - child[i]) * 1e3
        return dict(totals), roots

    def dump(self):
        """Spans as compact rows: [name, start_us, duration_us, parent]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1), p]
                for n, s, e, p in self.spans]


class Counter:
    """Call counts per layer, autodiff tensors, and search outcomes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.candidates = 0
        self.degenerate = 0

    def wrapper(self, name, fn):
        calls = self.calls
        observe = name == "feedback.neighborhood_search"

        def counted(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if observe:
                self.candidates += len(out.candidates)
                self.degenerate += bool(out.degenerate)
            return out
        counted.__wrapped__ = fn
        return counted


def count_pass(workload, steps):
    """Counts per step over `steps` steps; identical work gives identical counts."""
    counter = Counter()
    patches = Patches(TARGETS + [TENSOR_INIT])
    try:
        patches.install(counter.wrapper)
        for _ in range(steps):
            workload.restore()
            workload.step()
    finally:
        patches.uninstall()
    calls = counter.calls
    searches = calls["feedback.neighborhood_search"]
    return {
        "snn.forward.calls": calls["snn.forward"] / steps,
        "autodiff.tensors_per_step": calls["autodiff.tensor"] / steps,
        "feedback.candidates_per_sample": counter.candidates / searches if searches else 0.0,
        "feedback.degenerate_ratio": counter.degenerate / searches if searches else 0.0,
        "events.event_group.calls": calls["events.event_group"] / steps,
        "events.render.calls": calls["events.render"] / steps,
        "calls_per_step": {k: v / steps for k, v in sorted(calls.items())},
    }


# ---------------------------------------------------------------------------
# per-op table at the default net's real per-cell shapes
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """(name, op name, make_args) for each layer of the default net on a
    32x32 two-polarity cell at batch size 1, as the net runs it per cell."""
    def conv(cin, cout, hw, counts):
        def make():
            x = rng.poisson(0.5, (1, cin, hw, hw)) if counts else rng.random((1, cin, hw, hw)) < 0.2
            w = rng.normal(0.0, np.sqrt(2.0 / (cin * 9)), (cout, cin, 3, 3))
            return (x.astype(np.float64), w, np.zeros(cout)), {"stride": 1, "padding": 1}
        return make

    def gn(ch, hw):
        def make():
            return (rng.normal(0.0, 1.0, (1, ch, hw, hw)), 4, np.ones(ch), np.zeros(ch)), {}
        return make

    def pool(ch, hw, arg):
        def make():
            return ((rng.random((1, ch, hw, hw)) < 0.2).astype(np.float64), arg), {}
        return make

    def spike(ch, hw):
        def make():
            return (rng.normal(1.0, 0.5, (1, ch, hw, hw)),), {"v_th": 1.0, "window": 0.5}
        return make

    def fc(fin, fout):
        def make():
            x = (rng.random((1, fin)) < 0.2).astype(np.float64)
            return (x, rng.normal(0.0, np.sqrt(2.0 / fin), (fout, fin)), np.zeros(fout)), {}
        return make

    return [
        ("conv0", "conv2d", conv(2, 16, 32, True)),
        ("gn0", "group_norm", gn(16, 32)),
        ("spike0", "spike", spike(16, 32)),
        ("avgpool0", "avg_pool", pool(16, 32, 2)),
        ("conv1", "conv2d", conv(16, 32, 16, False)),
        ("gn1", "group_norm", gn(32, 16)),
        ("avgpool1", "avg_pool", pool(32, 16, 2)),
        ("conv2", "conv2d", conv(32, 64, 8, False)),
        ("gn2", "group_norm", gn(64, 8)),
        ("adapool", "adaptive_avg_pool", pool(64, 8, (4, 4))),
        ("fc0", "linear", fc(1024, 512)),
        ("fc1", "linear", fc(512, 1)),
    ]


OP_NAMES = [name for name, _, _ in _op_cases(None)]


def op_table(seed, reps):
    """Median raw forward and backward ms of each op, and the absent ops.

    Each repeat builds fresh leaf tensors, times the op's forward, then times
    the backward pass from the sum of its output.
    """
    from evslicer import autodiff
    rng = np.random.Generator(np.random.PCG64(seed))
    table, absent = {}, []
    for name, op_name, make in _op_cases(rng):
        op = getattr(autodiff, op_name, None)
        if op is None:
            absent.append(name)
            continue
        fwd, bwd = [], []
        for _ in range(reps):
            args, kwargs = make()
            args = [autodiff.Tensor(a, requires_grad=True) if isinstance(a, np.ndarray) else a
                    for a in args]
            t0 = time.perf_counter()
            out = op(*args, **kwargs)
            t1 = time.perf_counter()
            loss = out.sum()
            t2 = time.perf_counter()
            loss.backward()
            t3 = time.perf_counter()
            fwd.append((t1 - t0) * 1e3)
            bwd.append((t3 - t2) * 1e3)
        table[name] = {"fwd_ms": statistics.median(fwd), "bwd_ms": statistics.median(bwd)}
    return table, absent

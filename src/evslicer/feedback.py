"""Downstream-feedback training for the slicing network.

The slicing net cannot know on its own where a cut serves the consumer best,
so a downstream oracle scores candidate cuts: around each actual spike at
step n_c, the 2d+1 candidate groups sharing the slice's left edge but ending
at n_c-d .. n_c+d are rendered and evaluated, and the best-scoring edge
becomes the desired step n* for the timing loss. Training alternates with an
optional second stage that re-slices the training streams and finetunes the
oracle on the net's own outputs.

Also implements the two warm-up ("arena") tasks that train the net to fire
at a prescribed step without any oracle: task I on one fixed random cell
sequence, task II with per-iteration random cells and noisy targets.

Oracles shipped: ScriptedOracle (deterministic tests), DensityTargetOracle
(|events - K|, verifiable optimum), ToyClassifierOracle (a small
differentiable classifier over rendered frames, supporting finetune).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tensor
from .events import REPR_KINDS, EventStream, build_cells, render_cell_runs
from .losses import timing_loss, update_alpha
from .schema import check_fields, declared
from .slicer import (
    decisions_from_cuts,
    fixed_count_cuts,
    fixed_duration_cuts,
    random_cuts,
    spike_cuts,
)
from .snn import DEFAULT_ARCH, OVERFLOW_SILENT, SlicerNet, first_spike_index

__all__ = [
    "EvalContext", "OracleFeedback", "ScriptedOracle", "DensityTargetOracle",
    "ToyClassifierOracle", "neighborhood_search", "cosine_lr",
    "DivergenceError", "OracleError", "ArenaConfig", "ArenaResult", "train_arena",
    "FeedbackConfig", "FeedbackResult", "train_feedback", "replay_alpha",
    "sliced_dataset", "compare_policies",
]


class DivergenceError(RuntimeError):
    """Raised when a training loss or parameter stops being finite. `history`
    holds the run's entries up to that point, so the run leaves a record."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = list(history)


class OracleError(RuntimeError):
    """Raised by an oracle that cannot score a candidate; train_feedback
    skips the sample. Any other exception from an oracle propagates."""


def cosine_lr(base, step, total):
    """Half-cosine decay from base to 0 over `total` steps."""
    if total <= 0:
        return base
    return base * 0.5 * (1.0 + np.cos(np.pi * min(step, total) / total))


def _supervised_step(net, opt, cfg, record, n_star, alpha, step, total, unit, history):
    """One timing-loss SGD step towards firing at n_star: loss, finiteness
    check, backward, scheduled learning rate. Returns (parts, loss, lr)."""
    # an overflow in the forward (see OVERFLOW_SILENT), loss or update runs on into the check
    with np.errstate(**OVERFLOW_SILENT):
        parts = timing_loss(record, n_star, alpha, net.neuron)
        loss_val = parts.mem + parts.ramp
        if not np.isfinite(loss_val):
            raise DivergenceError(f"non-finite loss at {unit} {step}: mem={parts.mem} "
                                  f"ramp={parts.ramp} alpha={alpha} "
                                  f"max|U|={np.abs(record.noreset.data).max()}", history)
        opt.zero_grad()
        parts.total.backward()
        lr_t = cosine_lr(cfg.lr, step, total) if cfg.lr_schedule == "cosine" else cfg.lr
        opt.step(lr_t)
    # the carried potentials link to their last blocks' freed scan nodes;
    # every training forward starts from rest anyway
    net.reset_state()
    return parts, loss_val, lr_t


def _check_finite_parameters(net, where, history):
    """Raise unless every parameter is finite. A NaN parameter can silence
    the spikes and so keep the loss finite: the loss check alone would let a
    run train on NaN until it ends."""
    bad = [name for name, p in net.named_parameters().items() if not np.isfinite(p.data).all()]
    if bad:
        raise DivergenceError(f"non-finite parameters after {where}: {', '.join(bad)}", history)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@dataclass
class EvalContext:
    """What an oracle may know about a candidate slice besides its tensor."""

    label: int | None
    t_start_us: int
    t_end_us: int
    n_events: int
    last_cell: int


class ScriptedOracle:
    """Loss values scripted per candidate right edge — deterministic tests."""

    def __init__(self, losses_by_edge):
        self.losses_by_edge = dict(losses_by_edge)

    def evaluate(self, rep, ctx):
        return float(self.losses_by_edge[ctx.last_cell])


class DensityTargetOracle:
    """Prefers slices holding target_events events: loss |n_events - K|."""

    def __init__(self, target_events):
        if target_events <= 0:
            raise ValueError(f"target_events must be positive, got {target_events}")
        self.target_events = float(target_events)

    def evaluate(self, rep, ctx):
        return abs(float(ctx.n_events) - self.target_events)


class ToyClassifierOracle:
    """Two-layer sigmoid MLP over rendered frames; loss = cross-entropy.

    evaluate() scores a labelled candidate without touching parameters;
    finetune() runs one SGD pass over a batch of (tensor, label) pairs.
    Frames are normalized by their own max count so the input scale does not
    depend on slice length.
    """

    def __init__(self, in_shape, n_classes=2, hidden=16, lr=0.05, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        in_features = int(np.prod(in_shape))
        self.n_classes = int(n_classes)
        self.lr = float(lr)
        scale1 = 1.0 / np.sqrt(in_features)
        scale2 = 1.0 / np.sqrt(hidden)
        self.w1 = Tensor(rng.normal(0.0, scale1, (hidden, in_features)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, scale2, (n_classes, hidden)), requires_grad=True)
        self.b2 = Tensor(np.zeros(n_classes), requires_grad=True)
        self._opt = SGD([self.w1, self.b1, self.w2, self.b2], lr)

    def _prepare(self, rep):
        tensor = rep.tensor if hasattr(rep, "tensor") else np.asarray(rep)
        flat = tensor.reshape(1, -1).astype(np.float64)
        peak = flat.max()
        return Tensor(flat / peak if peak > 0 else flat)

    def _logits(self, x):
        pre = ad.linear(x, self.w1, self.b1)
        hidden = (ad.exp(-pre) + 1.0) ** -1.0     # sigmoid
        return ad.linear(hidden, self.w2, self.b2)

    def _loss(self, logits, label):
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label {label} outside 0..{self.n_classes - 1}")
        onehot = np.zeros((1, self.n_classes))
        onehot[0, label] = 1.0
        lse = ad.log(ad.exp(logits).sum())
        picked = (logits * Tensor(onehot)).sum()
        return lse - picked

    def evaluate(self, rep, ctx):
        if ctx.label is None:
            raise ValueError("classifier oracle needs a labelled context")
        with ad.no_grad():
            return float(self._loss(self._logits(self._prepare(rep)), ctx.label).item())

    def predict(self, rep):
        with ad.no_grad():
            logits = self._logits(self._prepare(rep))
        return int(np.argmax(logits.data))

    def finetune(self, batch):
        """One SGD pass over (tensor_or_representation, label) pairs."""
        for rep, label in batch:
            loss = self._loss(self._logits(self._prepare(rep)), int(label))
            self._opt.zero_grad()
            loss.backward()
            self._opt.step()

    def accuracy(self, batch):
        if not batch:
            return 0.0
        hits = sum(1 for rep, label in batch if self.predict(rep) == int(label))
        return hits / len(batch)


# ---------------------------------------------------------------------------
# neighborhood search
# ---------------------------------------------------------------------------

@dataclass
class OracleFeedback:
    """Scores of the candidate right edges around one spike, and the pick."""

    candidates: list
    losses: list
    n_star: int
    degenerate: bool = False


def neighborhood_search(stream, cells, n_p, n_c, d, oracle, *, repr_kind="frame",
                        n_bins=5, limit=None, label=None):
    """Score candidate cut points n_c-d .. n_c+d and pick the best.

    All candidates share the left edge n_p+1 and are clipped to
    (n_p, limit] (limit defaults to the last cell), so fewer than 2d+1 may
    survive at sequence edges. Ties resolve to the smallest index. If no
    candidate contains any event the search is degenerate and keeps n_c.
    The candidates are rendered in one pass of `events.render_cell_runs`, so
    each frame is the previous candidate's plus one cell grid.
    """
    if d < 0:
        raise ValueError(f"neighborhood radius must be non-negative, got {d}")
    last = len(cells) - 1 if limit is None else min(int(limit), len(cells) - 1)
    if not n_p < n_c <= last:
        raise ValueError(f"spike step {n_c} outside ({n_p}, {last}]")
    lo = max(n_p + 1, n_c - d)
    hi = min(last, n_c + d)
    candidates = list(range(lo, hi + 1))
    losses = []
    any_events = False
    reps = render_cell_runs(stream, cells, n_p + 1, lo, hi, repr_kind, n_bins=n_bins)
    for edge, rep in zip(candidates, reps):
        ctx = EvalContext(label=label, t_start_us=rep.t_start_us, t_end_us=rep.t_end_us,
                          n_events=rep.n_events, last_cell=edge)
        losses.append(float(oracle.evaluate(rep, ctx)))
        any_events = any_events or rep.n_events > 0
    if not any_events:
        return OracleFeedback(candidates, losses, n_star=n_c, degenerate=True)
    return OracleFeedback(candidates, losses, n_star=candidates[int(np.argmin(losses))])


# ---------------------------------------------------------------------------
# warm-up arena
# ---------------------------------------------------------------------------

LR_SCHEDULES = ("cosine", "constant")


@dataclass
class ArenaConfig:
    """Warm-up task setup. task-i: one fixed random cell (repeated across
    steps) and a fixed target step. task-ii: the cell re-randomized every
    iteration and the supervised target replaced by a random wrong step
    with noise_prob."""

    task: str = declared("arena-i", choices=("arena-i", "arena-ii"))
    arch: str = DEFAULT_ARCH
    in_hw: tuple[int, int] = declared((32, 32), "[1, inf)")
    n_steps: int = declared(30, "[1, inf)")
    max_iters: int = declared(400, "[0, inf)")
    streak: int = declared(10, "[1, inf)")
    lr: float = declared(1e-4, "(0, inf)")
    lr_schedule: str = declared("cosine", choices=LR_SCHEDULES)
    alpha0: float = declared(0.5, "[0, 1]")
    eta: float = declared(0.05, "[0, inf)")
    noise_prob: float = declared(0.15, "[0, 1]")
    cell_rate: float = declared(0.5, "[0, inf)")       # Poisson intensity per pixel
    target: int | None = declared(None, "[0, inf)")    # desired step; None -> drawn from seed
    seed: int = declared(0, "[0, inf)")
    hidden_units: int = declared(512, "[1, inf)")
    init_gain: float = declared(1.0, "[0, inf)")
    input_scale: float = declared(1.0, "(0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.target is not None and self.target >= self.n_steps:
            raise ValueError(f"target step {self.target} outside 0..{self.n_steps - 1}")


@dataclass
class ArenaResult:
    converged_at: int | None
    iterations: int
    n_star: int
    alpha_final: float
    elapsed_s: float
    history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.converged_at is not None


def build_arena_net(cfg):
    """Fresh net for an arena run, seeded from the run seed."""
    return SlicerNet(cfg.arch, in_hw=cfg.in_hw, seed=cfg.seed,
                     hidden_units=cfg.hidden_units, init_gain=cfg.init_gain,
                     input_scale=cfg.input_scale)


def train_arena(net, cfg):
    """Teach the net to fire at a prescribed step.

    Convergence = the actual first spike lands on the true target for
    cfg.streak consecutive iterations; converged_at is the first iteration
    of that run. History entries carry the loss parts, the (supervised,
    actual) pair, and alpha after the update — enough to replay the alpha
    trajectory exactly.
    """
    rng = np.random.default_rng(cfg.seed)
    c, (h, w) = net.in_channels, net.in_hw
    base_cell = rng.poisson(cfg.cell_rate, (c, h, w)).astype(np.float64)
    fixed_cells = np.repeat(base_cell[None], cfg.n_steps, axis=0)
    n_star = int(rng.integers(0, cfg.n_steps)) if cfg.target is None else int(cfg.target)
    alpha = cfg.alpha0
    opt = SGD(net.parameters(), cfg.lr)
    history = []
    run = 0
    converged_at = None
    t_begin = time.perf_counter()
    for i in range(cfg.max_iters):
        if cfg.task == "arena-ii":
            fresh = rng.poisson(cfg.cell_rate, (c, h, w)).astype(np.float64)
            cells_seq = np.repeat(fresh[None], cfg.n_steps, axis=0)
            supervised = n_star
            if rng.random() < cfg.noise_prob:
                supervised = int((n_star + 1 + rng.integers(0, cfg.n_steps - 1)) % cfg.n_steps)
        else:
            cells_seq = fixed_cells
            supervised = n_star
        record = net.forward(cells_seq)
        parts, loss_val, lr_t = _supervised_step(net, opt, cfg, record, supervised, alpha,
                                                 i, cfg.max_iters, "iteration", history)
        _check_finite_parameters(net, f"the update at iteration {i}", history)
        n_c_eff = parts.n_c if parts.n_c is not None else len(record)
        alpha = update_alpha(alpha, [(supervised, n_c_eff)], cfg.eta)
        hit = parts.n_c == n_star
        run = run + 1 if hit else 0
        entry = {
            "iter": i, "loss": loss_val, "loss_mem": parts.mem,
            "loss_la": parts.ramp, "alpha": alpha,
            "pairs": [[supervised, n_c_eff]], "n_c": parts.n_c,
            "n_star": n_star, "supervised": supervised,
            "no_spike": parts.no_spike, "hit": hit, "lr": lr_t,
            "converged": False,
        }
        if run >= cfg.streak:
            converged_at = i - cfg.streak + 1
            entry["converged"] = True
        history.append(entry)
        if converged_at is not None:
            break
    return ArenaResult(converged_at=converged_at, iterations=len(history),
                       n_star=n_star, alpha_final=alpha,
                       elapsed_s=time.perf_counter() - t_begin, history=history)


# ---------------------------------------------------------------------------
# oracle-feedback training
# ---------------------------------------------------------------------------

@dataclass
class FeedbackConfig:
    """Oracle-feedback run setup. Streams are tiled into dt_us cells; each
    sample forwards up to `window` cells from a per-stream cursor, cuts at
    the first spike (or the window end, flagged), searches the neighborhood,
    and advances the cursor past the actual cut. alpha updates once per
    epoch with the epoch's pairs; the oracle finetune stage (if the oracle
    supports it) starts after epoch finetune_start."""

    dt_us: int = declared(10000, "[1, inf)")
    epochs: int = declared(6, "[1, inf)")
    samples_per_epoch: int = declared(40, "[1, inf)")
    window: int = declared(12, "[2, inf)")
    d: int = declared(2, "[1, inf)", about="neighborhood radius")
    lr: float = declared(1e-3, "(0, inf)")    # the presets' LN-IF rate; 0.05 diverged it
    lr_schedule: str = declared("cosine", choices=LR_SCHEDULES)
    alpha0: float = declared(0.5, "[0, 1]")
    eta: float = declared(0.05, "[0, inf)")
    repr_kind: str = declared("frame", choices=REPR_KINDS)
    n_bins: int = declared(5, "[1, inf)")
    finetune_start: int | None = declared(None, "[0, inf)")
    seed: int = declared(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.finetune_start is not None and self.finetune_start > self.epochs:
            raise ValueError(f"finetune_start {self.finetune_start} beyond the {self.epochs} epochs")


@dataclass
class FeedbackResult:
    epochs: int
    samples: int
    skipped: int
    alpha_final: float
    elapsed_s: float
    history: list = field(default_factory=list)


def _with_labels(data):
    return [(s, None) if isinstance(s, EventStream) else (s[0], s[1]) for s in data]


def train_feedback(net, oracle, data, cfg):
    """Two-stage oracle-feedback training over labelled or unlabelled streams.

    data: EventStreams or (stream, label) pairs. The net is trained in place
    through the timing loss at oracle-chosen steps; after epoch
    cfg.finetune_start the oracle (if it has finetune) is retrained each
    epoch on representations re-sliced by the current net.
    """
    pairs_data = _with_labels(data)
    if not pairs_data:
        raise ValueError("no training streams")
    cells_list = [build_cells(s, cfg.dt_us) for s, _ in pairs_data]
    rng = np.random.default_rng(cfg.seed)
    alpha = cfg.alpha0
    opt = SGD(net.parameters(), cfg.lr)
    cursors = [0] * len(pairs_data)
    total = cfg.epochs * cfg.samples_per_epoch
    history = []
    step_i = 0
    skipped = 0
    t_begin = time.perf_counter()
    for epoch in range(cfg.epochs):
        epoch_pairs = []
        for _ in range(cfg.samples_per_epoch):
            si = int(rng.integers(len(pairs_data)))
            stream, label = pairs_data[si]
            cells = cells_list[si]
            cur = cursors[si]
            if cur + 2 > len(cells):      # too little left; wrap around
                cur = 0
            seg = cells.grids[cur:cur + cfg.window]
            w_len = seg.shape[0]
            record = net.forward(seg)
            n_c_rel = first_spike_index(record)
            no_spike = n_c_rel is None
            cut_rel = w_len - 1 if no_spike else n_c_rel
            try:
                fb = neighborhood_search(
                    stream, cells, cur - 1, cur + cut_rel, cfg.d, oracle,
                    repr_kind=cfg.repr_kind, n_bins=cfg.n_bins,
                    limit=cur + w_len - 1, label=label,
                )
            except OracleError as exc:    # the oracle declined: skip sample
                skipped += 1
                history.append({"iter": step_i, "epoch": epoch, "stream": si,
                                "skipped": True, "error": str(exc)})
                step_i += 1
                continue
            n_star_rel = fb.n_star - cur
            parts, loss_val, lr_t = _supervised_step(net, opt, cfg, record, n_star_rel, alpha,
                                                     step_i, total, "sample", history)
            epoch_pairs.append((n_star_rel, w_len if no_spike else n_c_rel))
            cursors[si] = cur + cut_rel + 1
            history.append({"iter": step_i, "epoch": epoch, "stream": si,
                            "cursor": cur, "loss": loss_val, "loss_mem": parts.mem,
                            "loss_la": parts.ramp, "n_c": parts.n_c,
                            "n_star": n_star_rel, "no_spike": no_spike,
                            "degenerate": fb.degenerate, "lr": lr_t})
            step_i += 1
        _check_finite_parameters(net, f"epoch {epoch}", history)
        alpha = update_alpha(alpha, epoch_pairs, cfg.eta)
        history.append({"epoch": epoch, "alpha": alpha,
                        "pairs": [[int(a), int(b)] for a, b in epoch_pairs]})
        if (cfg.finetune_start is not None and epoch + 1 > cfg.finetune_start
                and hasattr(oracle, "finetune")):
            batch = _reslice_dataset(net, pairs_data, cells_list, cfg)
            order = rng.permutation(len(batch))
            oracle.finetune([batch[i] for i in order])
            history.append({"epoch": epoch, "finetune_samples": len(batch)})
    return FeedbackResult(epochs=cfg.epochs, samples=step_i, skipped=skipped,
                          alpha_final=alpha,
                          elapsed_s=time.perf_counter() - t_begin,
                          history=history)


def _reslice_dataset(net, pairs_data, cells_list, cfg):
    batch = []
    for (stream, label), cells in zip(pairs_data, cells_list):
        cuts = spike_cuts(net, cells)
        decisions = decisions_from_cuts(stream, cells, cuts, cfg.repr_kind,
                                        n_bins=cfg.n_bins)
        batch.extend((d.representation.tensor, label) for d in decisions
                     if d.n_events > 0)
    return batch


def replay_alpha(records, alpha0, eta):
    """Re-apply the update rule over a history's (n_star, n_c) pairs.

    Returns (replayed, logged) alpha lists over every record that carries
    both "pairs" and "alpha"; bit-exact equality of the two is the
    correctness check.
    """
    replayed, logged = [], []
    alpha = alpha0
    for rec in records:
        if "pairs" in rec and "alpha" in rec:
            alpha = update_alpha(alpha, [tuple(p) for p in rec["pairs"]], eta)
            replayed.append(alpha)
            logged.append(rec["alpha"])
    return replayed, logged


# ---------------------------------------------------------------------------
# fixed-vs-adaptive comparison
# ---------------------------------------------------------------------------

def sliced_dataset(net, data, dt_us, policy, *, target_events=None, seed=0,
                   repr_kind="frame", n_bins=5):
    """Render (tensor, label) pairs for every slice of every stream under a
    cut policy. Non-adaptive policies are matched to the adaptive run's
    slice count per stream, so downstream training budgets stay comparable.
    Empty slices are kept (their tensors are all zeros) — a policy that
    produces them must live with them.
    """
    out = []
    per_stream = []
    for k, (stream, label) in enumerate(_with_labels(data)):
        cells = build_cells(stream, dt_us)
        adaptive = spike_cuts(net, cells)
        n_slices = max(1, len(adaptive) + (0 if adaptive and adaptive[-1] == len(cells) - 1 else 1))
        if policy == "adaptive":
            cuts = adaptive
        elif policy == "fixed-duration":
            cuts = fixed_duration_cuts(len(cells), min(n_slices, len(cells)))
        elif policy == "fixed-count":
            if target_events is None:
                raise ValueError("fixed-count policy needs target_events")
            cuts = fixed_count_cuts(cells, target_events)
        elif policy == "random":
            rng = np.random.default_rng(seed + k)
            cuts = random_cuts(len(cells), min(n_slices, len(cells)), rng)
        else:
            raise ValueError(f"unknown cut policy {policy!r}")
        decisions = decisions_from_cuts(stream, cells, cuts, repr_kind, n_bins=n_bins)
        per_stream.append(len(decisions))
        out.extend((d.representation.tensor, label) for d in decisions)
    return out, per_stream


def compare_policies(net, train_data, test_data, dt_us, *, policies=("adaptive", "fixed-duration"),
                     target_events=None, clf_hidden=16, clf_lr=0.05, clf_passes=3,
                     clf_seed=0, repr_kind="frame", seed=0):
    """Train one fresh classifier per cut policy on identically budgeted
    sliced datasets and report per-slice test accuracy for each policy."""
    results = {}
    for policy in policies:
        train_set, train_counts = sliced_dataset(
            net, train_data, dt_us, policy, target_events=target_events,
            seed=seed, repr_kind=repr_kind)
        test_set, _ = sliced_dataset(
            net, test_data, dt_us, policy, target_events=target_events,
            seed=seed + 10_000, repr_kind=repr_kind)
        in_shape = train_set[0][0].shape
        clf = ToyClassifierOracle(in_shape, hidden=clf_hidden, lr=clf_lr, seed=clf_seed)
        order_rng = np.random.default_rng(clf_seed)
        for _ in range(clf_passes):
            order = order_rng.permutation(len(train_set))
            clf.finetune([train_set[i] for i in order])
        results[policy] = {
            "accuracy": clf.accuracy(test_set),
            "train_slices": len(train_set),
            "test_slices": len(test_set),
            "slices_per_stream": train_counts,
        }
    return results

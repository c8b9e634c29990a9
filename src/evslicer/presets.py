"""Tuned run configurations and synthetic-scenario builders.

These are the presets the verification suite and the library quick start use:
warm-up arena settings whose learning rates match each sequence length
(sensitivity of the membrane at step n grows ~n^2, so longer sequences
need proportionally smaller steps), density-oracle feedback settings on a
count-linear network, and the two-class moving-bar task for the
fixed-vs-adaptive comparison.
"""
from __future__ import annotations

import numpy as np

from .events import Scenario, build_cells, synth_stream
from .feedback import (
    ArenaConfig,
    DensityTargetOracle,
    FeedbackConfig,
    ToyClassifierOracle,
    compare_policies,
    train_feedback,
)
from .slicer import decisions_from_cuts, fixed_duration_cuts
from .snn import SlicerNet

# Single-linear-layer spiking head: flattened cell -> integrate-and-fire.
# Density-style supervision needs absolute event counts, which per-step
# normalization would erase, so these presets avoid GN entirely.
COUNT_HEAD_ARCH = "LN-IF"


# ---------------------------------------------------------------------------
# warm-up arena
# ---------------------------------------------------------------------------

def arena_preset(task, seed=0, **overrides):
    """Tuned warm-up configs.

    task-i trains the full default net on the fixed-cell task. task-ii redraws
    the cell every iteration, so holding an exact streak requires a drive that
    ignores the draw: the count head with zero-init weights lets the output
    bias (a draw-invariant per-step current) carry the solution. Membrane-loss
    curvature grows like (target+1)^2, hence the small input scale and an lr
    under the stability limit for targets up to the step count.
    """
    if task == "arena-i":
        base = dict(task="arena-i", in_hw=(32, 32), n_steps=30,
                    max_iters=400, lr=1e-4, lr_schedule="cosine")
    elif task == "arena-ii":
        base = dict(task="arena-ii", arch=COUNT_HEAD_ARCH, in_hw=(32, 32),
                    n_steps=100, max_iters=400, lr=1e-4, lr_schedule="cosine",
                    cell_rate=8.0, input_scale=1.0 / 4096, init_gain=0.0)
    else:
        raise ValueError(f"unknown arena preset {task!r}")
    base.update(overrides)
    return ArenaConfig(seed=seed, **base)


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------

def constant_rate_scenario(rate_per_ms=2.0, duration_ms=300, width=32, height=32):
    """Steady bar sweep at a single event rate; the density-target optimum
    is then a fixed slice duration of target_events / rate."""
    return Scenario(width=width, height=height, duration_ms=duration_ms,
                    rate_per_ms=[[0, duration_ms, rate_per_ms]],
                    speed_px_per_ms=[[0, duration_ms, 0.05]])


def three_phase_scenario(rate_per_ms=2.0, phase_ms=300, width=32, height=32):
    """Rate schedule r, 3r, r over three equal phases; a density-following
    slicer should cut ~3x as often in the middle phase."""
    r = rate_per_ms
    phases = [[0, phase_ms, r],
              [phase_ms, 2 * phase_ms, 3 * r],
              [2 * phase_ms, 3 * phase_ms, r]]
    return Scenario(width=width, height=height, duration_ms=3 * phase_ms,
                    rate_per_ms=phases,
                    speed_px_per_ms=[[0, 3 * phase_ms, 0.05]])


def moving_bar_scenario(direction, slow_ms=200, fast_ms=100,
                        slow_speed=0.002, fast_speed=0.1,
                        rate_per_speed=50.0, noise_rate_per_ms=0.05,
                        start_x_px=16.0, width=32, height=32):
    """One stream of the two-class direction task. The bar creeps, then
    sprints; the event rate tracks |speed|, so the slow two-thirds of the
    stream is nearly silent while the fast burst carries ~95% of the events.
    A fixed-duration slicer spends most of its slice budget on noise-only
    stretches and smears the burst; a count-targeted slicer concentrates its
    cuts where the events are. Total travel (slow_ms*slow_speed +
    fast_ms*fast_speed ~ 10 px at the defaults) stays under the margin to the
    frame edge from the default start, so the bar never wraps — wrapping
    flips the leading/trailing polarity geometry and poisons the direction
    signal. direction: +1 (rightward) or -1 (leftward).
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    total = slow_ms + fast_ms
    speed = [[0, slow_ms, direction * slow_speed],
             [slow_ms, total, direction * fast_speed]]
    rate = [[0, slow_ms, rate_per_speed * slow_speed],
            [slow_ms, total, rate_per_speed * fast_speed]]
    return Scenario(width=width, height=height, duration_ms=total,
                    rate_per_ms=rate, speed_px_per_ms=speed,
                    bar_width_px=6, jitter_px=0.5, start_x_px=start_x_px,
                    noise_rate_per_ms=noise_rate_per_ms)


# ---------------------------------------------------------------------------
# oracle-feedback presets
# ---------------------------------------------------------------------------

def count_head_net(in_hw=(32, 32), seed=0):
    """The slicer used by the density/classifier presets (see COUNT_HEAD_ARCH)."""
    return SlicerNet(COUNT_HEAD_ARCH, in_hw=in_hw, seed=seed)


def density_feedback_preset(dt_us=10000, seed=0, **overrides):
    """Feedback-training settings for the density-target oracle on the
    count-linear head."""
    base = dict(dt_us=dt_us, epochs=10, samples_per_epoch=40, window=12, d=2,
                lr=1e-3, lr_schedule="cosine", repr_kind="frame")
    base.update(overrides)
    return FeedbackConfig(seed=seed, **base)


def compare_feedback_preset(dt_us=10000, seed=0, **overrides):
    """Feedback-training settings for the two-class comparison slicer."""
    base = dict(dt_us=dt_us, epochs=4, samples_per_epoch=30, window=12, d=2,
                lr=1e-4, lr_schedule="cosine", repr_kind="frame")
    base.update(overrides)
    return FeedbackConfig(seed=seed, **base)


def two_class_streams(n_per_class, seed0=0, **scenario_overrides):
    """Labelled (stream, direction-class) pairs; class 0 moves right,
    class 1 moves left. Start positions rotate over a near-center band
    (identical for both classes, wrap-free for either direction), so the
    only label information is what the motion itself causes: the drift of
    the bar and the leading/trailing polarity split."""
    data = []
    for i in range(n_per_class):
        for label, direction in ((0, 1), (1, -1)):
            sc = moving_bar_scenario(direction,
                                     start_x_px=float(14 + i % 5),
                                     **scenario_overrides)
            data.append((synth_stream(sc, seed=seed0 + 2 * i + label), label))
    return data


def pretrained_toy_classifier(data, dt_us=10000, seed=0, passes=5,
                              slices_per_stream=6):
    """Classifier oracle trained on fixed-duration slices of labelled
    streams — the neutral starting knowledge both cut policies build on."""
    batch = []
    for stream, label in data:
        cells = build_cells(stream, dt_us)
        cuts = fixed_duration_cuts(len(cells), min(slices_per_stream, len(cells)))
        for d in decisions_from_cuts(stream, cells, cuts, "frame"):
            batch.append((d.representation.tensor, label))
    if not batch:
        raise ValueError("no slices to pretrain on")
    oracle = ToyClassifierOracle(batch[0][0].shape, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        order = rng.permutation(len(batch))
        oracle.finetune([batch[i] for i in order])
    return oracle


def comparison_run(seed, n_per_class=8, dt_us=10000, target_events=80,
                   policies=("adaptive", "fixed-duration", "fixed-count", "random")):
    """Full fixed-vs-adaptive comparison for one seed.

    Stages: (1) pretrain the toy classifier on fixed-duration slices;
    (2) warm up a fresh count-head slicer against the density target, so it
    starts count-sensitive rather than drifting into a pure step timer;
    (3) co-train slicer and classifier through oracle feedback; (4) train one
    fresh, identically budgeted classifier per cut policy and score per-slice
    test accuracy. Returns the per-policy result rows.
    """
    train = two_class_streams(n_per_class, seed0=1000 * seed)
    test = two_class_streams(n_per_class, seed0=1000 * seed + 500)
    net = count_head_net(seed=seed)
    warm = density_feedback_preset(dt_us=dt_us, seed=seed, epochs=6)
    train_feedback(net, DensityTargetOracle(target_events),
                   [stream for stream, _ in train], warm)
    oracle = pretrained_toy_classifier(train, dt_us=dt_us, seed=seed)
    cfg = compare_feedback_preset(dt_us=dt_us, seed=seed, finetune_start=1)
    train_feedback(net, oracle, train, cfg)
    return compare_policies(net, train, test, dt_us, policies=policies,
                            target_events=target_events, clf_seed=seed,
                            seed=seed, clf_passes=5)

"""Verification gate: eleven numbered end-to-end checks, one per shipped
guarantee, each printing a single [PASS]/[FAIL] line with the measured
numbers next to the pinned bound.

The bounds are deliberately written as literals here rather than imported
from the library: loosening one is a decision, not a tuning knob. The heavy
checks (1, 2, 7-9, 11) train real networks; on a shared 2-vCPU VM the whole
gate took 7.6 s, 3.9 s of it check 1, and every other check took under 2 s.
"""
import numpy as np
from scipy.stats import spearmanr

from conftest import record_check
from evslicer.energy import LayerStats, energy_joules, energy_report
from evslicer.events import EventStream, synth_stream
from evslicer.feedback import (
    DensityTargetOracle,
    DivergenceError,
    build_arena_net,
    replay_alpha,
    train_arena,
    train_feedback,
)
from evslicer.losses import timing_loss
from evslicer.presets import (
    arena_preset,
    comparison_run,
    constant_rate_scenario,
    count_head_net,
    density_feedback_preset,
    three_phase_scenario,
)
from evslicer.slicer import slice_report, slice_stream
from evslicer.snn import NeuronConfig, SlicerNet, run_neuron

from gradcheck import check_grads
from timing_traces import in_band_trace, upper_violation_trace

SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# 1-2: warm-up convergence
# ---------------------------------------------------------------------------

def test_01_fixed_cell_convergence():
    """Fixed-cell warm-up: the output spike lands on a random target step and
    stays there for 10 straight iterations, on every seed, quickly."""
    iters, times, targets = [], [], []
    for seed in SEEDS:
        cfg = arena_preset("arena-i", seed=seed)
        result = train_arena(build_arena_net(cfg), cfg)
        iters.append(result.converged_at)
        times.append(result.elapsed_s)
        targets.append(result.n_star)
    conv = [i for i in iters if i is not None]
    median = float(np.median(conv)) if len(conv) == len(SEEDS) else float("nan")
    ok = (len(conv) == len(SEEDS)
          and all(i <= 400 for i in conv)
          and median <= 150
          and max(times) < 300.0)
    detail = (f"converged at iterations {iters} for targets {targets} "
              f"(bounds: each <= 400, median {median:.0f} <= 150); "
              f"slowest seed {max(times):.1f}s (< 300s)")
    assert record_check(1, "fixed-cell convergence", ok, detail), detail


def test_02_randomized_cell_robustness():
    """Redrawn-cell warm-up with 15% wrong supervision targets: at least two
    of three seeds still converge inside the iteration budget."""
    outcomes = []
    for seed in SEEDS:
        cfg = arena_preset("arena-ii", seed=seed)
        try:
            result = train_arena(build_arena_net(cfg), cfg)
            outcomes.append((seed, result.n_star, result.converged_at))
        except DivergenceError:
            outcomes.append((seed, None, None))
    n_ok = sum(1 for _, _, c in outcomes if c is not None and c <= 400)
    ok = n_ok >= 2
    detail = (f"{n_ok}/3 seeds converged <= 400 iterations (need >= 2); "
              f"(seed, target, converged_at): {outcomes}")
    assert record_check(2, "randomized-cell robustness", ok, detail), detail


# ---------------------------------------------------------------------------
# 3: firing-window guarantee
# ---------------------------------------------------------------------------

def test_03_firing_window_guarantee():
    """A no-reset potential inside [v_th, beta*v_th + gamma*I] at the target
    step makes the resetting neuron fire exactly there, never a step early;
    pushing it above the band's upper bound forces the early spike."""
    n_traces = 1000
    exact = 0
    for seed in range(n_traces):
        currents, cfg, n_star = in_band_trace(seed)
        spikes, _, _ = run_neuron(currents, cfg)
        hits = np.flatnonzero(spikes)
        if hits.size and hits[0] == n_star:
            exact += 1
    early = 0
    for seed in range(n_traces):
        currents, cfg, n_star = upper_violation_trace(seed)
        spikes, _, _ = run_neuron(currents, cfg)
        hits = np.flatnonzero(spikes)
        if hits.size and hits[0] == n_star - 1:
            early += 1
    ok = exact == n_traces and early == n_traces
    detail = (f"in-band traces firing exactly at the target: {exact}/{n_traces}; "
              f"upper-bound violations firing one step early: {early}/{n_traces}")
    assert record_check(3, "firing-window guarantee", ok, detail), detail


# ---------------------------------------------------------------------------
# 4: gradient correctness through the unrolled network
# ---------------------------------------------------------------------------

def test_04_full_network_gradients():
    """Timing-loss gradients through a small unrolled conv network match
    central finite differences over every parameter."""
    net = SlicerNet("4C3-GN-IF-LN-IF", in_hw=(8, 8), seed=6, init_gain=1.5,
                    dtype="float64")
    rng = np.random.default_rng(106)
    cells = rng.poisson(1.0, (10, 2, 8, 8)).astype(np.float64)
    n_star = 7

    def loss():
        record = net.forward(cells, relaxed=True)
        # alpha 0 pins the membrane target at the constant v_th, so the
        # perturbed evaluations see the same loss surface as the analytic
        # gradient (the target is excluded from differentiation).
        return timing_loss(record, n_star, 0.0, net.neuron).total

    parts = timing_loss(net.forward(cells, relaxed=True), n_star, 0.0,
                        net.neuron)
    err = check_grads(loss, net.parameters())
    ok = err <= 1e-4
    detail = (f"max relative error vs central differences {err:.2e} "
              f"(bound 1e-4); both loss terms active: "
              f"mem={parts.mem:.4f}, ramp={parts.ramp:.4f} (n_c={parts.n_c})")
    assert record_check(4, "full-network gradients", ok, detail), detail


# ---------------------------------------------------------------------------
# 5: alpha update rule on real training logs
# ---------------------------------------------------------------------------

def test_05_alpha_update_replay():
    """On every logged update of both trainers: alpha moves opposite the mean
    firing gap before clamping, the logged value equals the clamped rule
    applied to the previous alpha, and replaying the log reproduces the
    trajectory bit for bit."""
    runs = []
    for seed in SEEDS:
        cfg = arena_preset("arena-ii", seed=seed)
        result = train_arena(build_arena_net(cfg), cfg)
        runs.append((f"warmup-ii/{seed}", cfg, result.history))
    stream = synth_stream(constant_rate_scenario(2.0, duration_ms=200), seed=0)
    fcfg = density_feedback_preset(dt_us=10_000, seed=0, epochs=3,
                                   samples_per_epoch=8)
    fres = train_feedback(count_head_net(seed=0), DensityTargetOracle(60),
                          [stream], fcfg)
    runs.append(("oracle-feedback", fcfg, fres.history))

    n_updates = 0
    sign_ok = True
    rule_ok = True
    replay_ok = True
    for name, cfg, history in runs:
        replayed, logged = replay_alpha(history, cfg.alpha0, cfg.eta)
        replay_ok &= replayed == logged          # exact, no tolerance
        alpha_prev = cfg.alpha0
        for rec in history:
            if "pairs" not in rec or "alpha" not in rec:
                continue
            pairs = rec["pairs"]
            if pairs:
                gap = sum(float(a) - float(b) for a, b in pairs) / len(pairs)
                pre_clamp = alpha_prev - 2.0 * cfg.eta * gap
                sign_ok &= np.sign(pre_clamp - alpha_prev) == -np.sign(gap)
                rule_ok &= rec["alpha"] == min(1.0, max(0.0, pre_clamp))
                n_updates += 1
            alpha_prev = rec["alpha"]
    ok = bool(sign_ok and rule_ok and replay_ok) and n_updates > 0
    detail = (f"{n_updates} logged updates over {len(runs)} runs: "
              f"pre-clamp sign(delta)=-sign(gap) {'held' if sign_ok else 'VIOLATED'}, "
              f"clamped rule {'matched' if rule_ok else 'MISMATCHED'}, "
              f"replay {'bit-exact' if replay_ok else 'DIVERGED'}")
    assert record_check(5, "alpha update + replay", ok, detail), detail


# ---------------------------------------------------------------------------
# 6: slicing partition property
# ---------------------------------------------------------------------------

def test_06_slice_partition_property():
    """For random checkpoints over random streams, decisions with the tail
    flush partition cells 0..N-1 exactly and their event counts sum to the
    stream total."""
    rng = np.random.default_rng(2024)
    n_cases = 200
    failures = []
    for case in range(n_cases):
        arch = "4C3-GN-IF-LN-IF" if case % 5 == 0 else "LN-IF"
        h = w = 8
        net = SlicerNet(
            arch, in_hw=(h, w), seed=int(rng.integers(10_000)),
            init_gain=float(rng.uniform(0.2, 2.0)),
            input_scale=float(rng.uniform(0.05, 1.0)),
            neuron=NeuronConfig(beta=float(rng.uniform(0.6, 1.0))),
        )
        n_cells = int(rng.integers(1, 13))
        dt_us = int(rng.choice([100, 250, 500]))
        t0 = int(rng.integers(0, 10_000))
        span = n_cells * dt_us
        n_ev = int(rng.integers(0, 301))
        stream = EventStream(
            width=w, height=h,
            t=t0 + rng.integers(0, span, size=n_ev),
            x=rng.integers(0, w, size=n_ev),
            y=rng.integers(0, h, size=n_ev),
            p=rng.choice([-1, 1], size=n_ev),
            t0=t0, span_us=span,
        )
        decisions = slice_stream(net, stream, dt_us)
        good = (bool(decisions)
                and decisions[0].first_cell == 0
                and decisions[-1].last_cell == n_cells - 1
                and all(b.first_cell == a.last_cell + 1
                        for a, b in zip(decisions, decisions[1:]))
                and sum(d.n_cells for d in decisions) == n_cells
                and sum(d.n_events for d in decisions) == n_ev)
        if not good:
            failures.append(case)
    ok = not failures
    detail = (f"{n_cases - len(failures)}/{n_cases} random (net, stream) cases "
              f"partition cleanly with exact event totals"
              + (f"; failing cases {failures[:5]}" if failures else ""))
    assert record_check(6, "slice partition property", ok, detail), detail


# ---------------------------------------------------------------------------
# 7-9: density-target training behavior
# ---------------------------------------------------------------------------

def _train_density_slicer(stream, dt_us, target_events, seed):
    net = count_head_net(seed=seed)
    cfg = density_feedback_preset(dt_us=dt_us, seed=seed)
    train_feedback(net, DensityTargetOracle(target_events), [stream], cfg)
    return slice_stream(net, stream, dt_us)


def test_07_density_adaptivity():
    """On a three-phase stream (rate r, 3r, r) the trained slicer cuts faster
    where events are denser: slice-level rank correlation between event
    density and cut rate clears 0.5 on every seed."""
    rhos, counts = [], []
    for seed in SEEDS:
        stream = synth_stream(three_phase_scenario(2.0), seed=seed)
        decisions = _train_density_slicer(stream, 10_000, 120, seed)
        density = [1e6 * d.n_events / d.duration_us for d in decisions]
        cut_rate = [1e6 / d.duration_us for d in decisions]
        rhos.append(float(spearmanr(density, cut_rate).statistic))
        counts.append(len(decisions))
    ok = all(r > 0.5 for r in rhos)
    shown = ", ".join(f"{r:.3f}" for r in rhos)
    detail = (f"Spearman(density, cut rate) = [{shown}] over {counts} slices "
              f"(bound: each > 0.5)")
    assert record_check(7, "density adaptivity", ok, detail), detail


def test_08_events_per_slice_target():
    """Trained against a K-events-per-slice target on a constant-rate stream,
    the realized mean events per slice lands within 15% of K."""
    target = 120
    rows = []
    for seed in SEEDS:
        stream = synth_stream(constant_rate_scenario(2.0), seed=seed)
        decisions = _train_density_slicer(stream, 10_000, target, seed)
        rep = slice_report(decisions, stream, stream.span_us // 10_000, 10_000)
        mean_ev = rep["mean_events_per_slice"]
        rows.append((mean_ev, 100.0 * abs(mean_ev - target) / target))
    ok = all(off <= 15.0 for _, off in rows)
    shown = ", ".join(f"{m:.1f} ({off:.1f}%)" for m, off in rows)
    detail = f"mean events/slice vs target {target}: [{shown}] (bound: off <= 15%)"
    assert record_check(8, "events-per-slice target", ok, detail), detail


def test_09_duration_stability():
    """The learned optimum is a duration fraction: re-dividing the same
    stream into N in {15, 20, 25} cells yields duration percentages within a
    narrow spread."""
    stream = synth_stream(constant_rate_scenario(2.0), seed=0)
    pcts = {}
    for dt_us in (20_000, 15_000, 12_000):
        decisions = _train_density_slicer(stream, dt_us, 120, 0)
        n_cells = stream.span_us // dt_us
        rep = slice_report(decisions, stream, n_cells, dt_us)
        pcts[n_cells] = rep["duration_pct"]
    spread = max(pcts.values()) - min(pcts.values())
    ok = spread <= 8.0
    shown = ", ".join(f"N={n}: {p:.2f}%" for n, p in sorted(pcts.items()))
    detail = f"duration pct by cell count [{shown}], spread {spread:.2f} pts (bound <= 8)"
    assert record_check(9, "duration stability", ok, detail), detail


# ---------------------------------------------------------------------------
# 10: energy accounting
# ---------------------------------------------------------------------------

def test_10_energy_accounting():
    """Two scripted layers reproduce the hand-computed energy exactly in
    64-bit arithmetic, and the report carries the billing constants."""
    stats = [
        LayerStats("conv0", "conv", flops=1000, fr=1.0, t=4),
        LayerStats("fc0", "fc", flops=500, fr=0.25, t=4),
    ]
    # first layer billed multiply-accumulate on raw FLOPs; second billed
    # accumulate-only on fr * T * FLOPs
    expected = 4.6e-12 * 1000 + 0.9e-12 * (0.25 * 4 * 500)
    measured = energy_joules(stats)
    report = energy_report(stats)
    ok = (measured == expected
          and expected == 5.05e-09
          and report["totals"]["joules"] == expected
          and report["constants"]["e_mac_joules"] == 4.6e-12
          and report["constants"]["e_ac_joules"] == 0.9e-12)
    detail = (f"measured {measured!r} J == hand-computed {expected!r} J "
              f"(bitwise); report constants "
              f"{report['constants']['e_mac_joules'] * 1e12:.1f}/"
              f"{report['constants']['e_ac_joules'] * 1e12:.1f} pJ per MAC/AC")
    assert record_check(10, "energy accounting", ok, detail), detail


# ---------------------------------------------------------------------------
# 11: fixed-vs-adaptive comparison
# ---------------------------------------------------------------------------

def test_11_adaptive_vs_fixed():
    """On the synthetic two-class task, adaptive slicing never trails
    fixed-duration slicing by more than one accuracy point on any seed and
    beats it on the median seed."""
    rows = []
    for seed in SEEDS:
        res = comparison_run(seed)
        rows.append({k: v["accuracy"] for k, v in res.items()})
    diffs = [100.0 * (r["adaptive"] - r["fixed-duration"]) for r in rows]
    ok = all(d >= -1.0 for d in diffs) and sorted(diffs)[1] > 0.0
    shown = "; ".join(
        f"seed {s}: adaptive {r['adaptive']:.3f} vs fixed-duration "
        f"{r['fixed-duration']:.3f} ({d:+.1f} pts)"
        for s, r, d in zip(SEEDS, rows, diffs)
    )
    detail = f"{shown} (bounds: each >= -1 pt, median > 0)"
    assert record_check(11, "adaptive vs fixed-duration", ok, detail), detail

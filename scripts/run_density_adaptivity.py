#!/usr/bin/env python3
"""Train the density-target slicer and report adaptivity + stability numbers.

Three experiments per seed, all on synthetic streams:
  adaptivity: train on a three-phase stream (rate r / 3r / r), then check the
      rank correlation between each slice's event density and its cut rate
      (1e6 / duration) — an adaptive slicer cuts faster where events are dense;
  optimum: train on a constant-rate stream with an events-per-slice target K
      and compare the realized mean events per slice against K;
  stability: re-divide the same constant-rate stream into N in {15, 20, 25}
      cells and compare the resulting duration percentages (mean cells per
      slice / N) — the learned optimum is a duration fraction, so the three
      should agree.
"""
import argparse
import json
from pathlib import Path

import numpy as np

from evslicer.events import synth_stream
from evslicer.feedback import DensityTargetOracle, train_feedback
from evslicer.presets import (
    constant_rate_scenario,
    count_head_net,
    density_feedback_preset,
    three_phase_scenario,
)
from evslicer.slicer import rank_correlation, slice_report, slice_stream


def train_and_slice(stream, dt_us, target_events, seed):
    net = count_head_net(seed=seed)
    cfg = density_feedback_preset(dt_us=dt_us, seed=seed)
    train_feedback(net, DensityTargetOracle(target_events), [stream], cfg)
    decisions = slice_stream(net, stream, dt_us)
    n_cells = (stream.span_us or 0) // dt_us
    return decisions, slice_report(decisions, stream, n_cells, dt_us)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--rate", type=float, default=2.0, help="events/ms baseline")
    ap.add_argument("--target-events", type=int, default=120)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    results = {"adaptivity": [], "optimum": [], "stability": []}

    print("== adaptivity (three-phase stream) ==")
    for seed in args.seeds:
        stream = synth_stream(three_phase_scenario(args.rate), seed=seed)
        decisions, _ = train_and_slice(stream, 10_000, args.target_events, seed)
        density = [1e6 * d.n_events / d.duration_us for d in decisions]
        cut_rate = [1e6 / d.duration_us for d in decisions]
        rho = rank_correlation(density, cut_rate)
        results["adaptivity"].append({"seed": seed, "spearman": rho,
                                      "n_slices": len(decisions)})
        print(f"seed {seed}: Spearman(density, cut rate) = {rho:.3f} "
              f"over {len(decisions)} slices")

    print("\n== events-per-slice optimum (constant-rate stream) ==")
    for seed in args.seeds:
        stream = synth_stream(constant_rate_scenario(args.rate), seed=seed)
        _, rep = train_and_slice(stream, 10_000, args.target_events, seed)
        mean_ev = rep["mean_events_per_slice"]
        off = 100.0 * abs(mean_ev - args.target_events) / args.target_events
        results["optimum"].append({"seed": seed, "mean_events": mean_ev,
                                   "target": args.target_events, "off_pct": off})
        print(f"seed {seed}: mean events/slice = {mean_ev:.1f} "
              f"(target {args.target_events}, off by {off:.1f}%)")

    print("\n== duration stability across cell counts ==")
    for seed in args.seeds:
        stream = synth_stream(constant_rate_scenario(args.rate), seed=seed)
        pcts = {}
        for dt_us in (20_000, 15_000, 12_000):
            _, rep = train_and_slice(stream, dt_us, args.target_events, seed)
            pcts[(stream.span_us or 0) // dt_us] = rep["duration_pct"]
        spread = max(pcts.values()) - min(pcts.values())
        results["stability"].append({"seed": seed,
                                     "duration_pct_by_n": {str(k): v for k, v in pcts.items()},
                                     "spread_pts": spread})
        shown = ", ".join(f"N={n}: {p:.2f}%" for n, p in sorted(pcts.items()))
        print(f"seed {seed}: {shown}  (spread {spread:.2f} pts)")

    if args.out:
        args.out.write_text(json.dumps(results, indent=2))
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()

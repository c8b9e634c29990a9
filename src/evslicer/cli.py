"""Command-line surface for the slicing pipeline.

Subcommands: synth (scenario -> event file), cells (event file -> cell
grids), train (arena warm-up or oracle feedback), slice (checkpoint +
events -> decisions), report (density / energy / compare artifacts).

Every run writes a manifest.json into its output directory recording the
command, the fully resolved config, seeds, input/output paths, and the
package version; artifacts other than the manifest are byte-deterministic
for a fixed seed. Config values resolve as CLI flag > config file > default.

Exit codes: 0 success, 2 bad usage or config, 3 training diverged.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import save_named_tensors
from .energy import energy_report, profile_network
from .events import (
    Scenario,
    build_cells,
    density_profile,
    parse_events,
    serialize_events_binary,
    serialize_events_csv,
    synth_stream,
)
from .feedback import (
    ArenaConfig,
    DensityTargetOracle,
    DivergenceError,
    FeedbackConfig,
    ToyClassifierOracle,
    build_arena_net,
    compare_policies,
    train_arena,
    train_feedback,
)
from .schema import from_json
from .slicer import decision_record, slice_report, slice_stream
from .snn import SlicerNet


class ConfigError(ValueError):
    """Bad command-line/config-file combination."""


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _utc_now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_manifest(out_dir, command, config, seed, inputs, outputs, started_at):
    """One manifest per run; identical inputs reproduce identical artifacts
    byte-for-byte (the two timestamps are the only run-varying fields)."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "code_version": __version__,
        "started_at": started_at,
        "finished_at": _utc_now(),
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path):
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return raw


def build_dataclass(cls, file_cfg, args, **flags):
    """Resolve a config dataclass: defaults, then file keys, then the flags
    that were given (not None): those in args named like a field, and `flags`."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)} | flags
    return from_json(cls, file_cfg | {k: v for k, v in given.items() if v is not None},
                     ConfigError, cls.__name__)


def _read_stream(path, geometry=None, t0=None, span_us=None):
    path = Path(path)
    fmt = "binary" if path.suffix in (".bin", ".sse") else "csv"
    width = height = None
    if geometry:
        width, height = geometry
    if fmt == "csv" and geometry is None:
        raise ConfigError(f"{path}: CSV input needs --geometry WxH")
    return parse_events(path.read_bytes(), fmt, width=width, height=height,
                        t0=t0, span_us=span_us)


def _parse_geometry(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise ConfigError(f"bad geometry {text!r}, expected WxH") from exc


def _parse_labelled(specs, geometry, t0=None, span_us=None):
    """'path:label' pairs -> [(EventStream, int)] for the classifier tasks."""
    out = []
    for spec in specs:
        path, sep, label = spec.rpartition(":")
        if not sep or not label.lstrip("-").isdigit():
            raise ConfigError(f"expected path:label, got {spec!r}")
        out.append((_read_stream(path, geometry, t0, span_us), int(label)))
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args):
    started = _utc_now()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_text = Path(args.scenario).read_text()
    scenario = Scenario.from_json(scenario_text)
    stream = synth_stream(scenario, seed=args.seed)
    out = out_dir / (args.out or f"events.{'bin' if args.fmt == 'binary' else 'csv'}")
    writer = serialize_events_binary if args.fmt == "binary" else serialize_events_csv
    out.write_bytes(writer(stream))
    write_manifest(out_dir, "synth", json.loads(scenario.to_json()) | {"fmt": args.fmt},
                   args.seed, {"scenario": args.scenario}, {"events": out}, started)
    print(f"wrote {len(stream.t)} events -> {out}")
    return 0


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def cmd_cells(args):
    started = _utc_now()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    geometry = _parse_geometry(args.geometry) if args.geometry else None
    stream = _read_stream(args.events, geometry, args.t0_us, args.span_us)
    cells = build_cells(stream, args.dt_us, n_cells=args.n_cells)
    out = out_dir / (args.out or "cells.npz")
    np.savez(out, grids=cells.grids, t0=np.uint64(cells.t0),
             dt_us=np.int64(cells.dt_us),
             dropped_tail_events=np.int64(cells.dropped_tail_events))
    config = {"dt_us": args.dt_us, "n_cells": args.n_cells}
    write_manifest(out_dir, "cells", config, args.seed,
                   {"events": args.events}, {"cells": out}, started)
    counts = cells.counts()
    print(f"{len(cells)} cells of {args.dt_us} us, {int(counts.sum())} events binned -> {out}")
    return 0


def load_cells(path):
    """Round-trip reader for the cells artifact."""
    from .events import CellSequence
    with np.load(path) as data:
        return CellSequence(grids=data["grids"], t0=int(data["t0"]),
                            dt_us=int(data["dt_us"]),
                            dropped_tail_events=int(data["dropped_tail_events"]))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _dump_history(path, history):
    with open(path, "w") as fh:
        for entry in history:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def cmd_train(args):
    started = _utc_now()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args.config)
    ckpt = out_dir / "checkpoint.sslc"
    history_path = out_dir / "history.jsonl"
    result_path = out_dir / "result.json"

    if args.task in ("arena-i", "arena-ii"):
        cfg = build_dataclass(ArenaConfig, file_cfg, args,
                              in_hw=_parse_geometry(args.hw) if args.hw else None)
        net = build_arena_net(cfg)
        res = train_arena(net, cfg)
        _dump_history(history_path, res.history)
        summary = {"task": cfg.task, "converged_at": res.converged_at,
                   "iterations": res.iterations, "n_star": res.n_star,
                   "alpha_final": res.alpha_final, "elapsed_s": round(res.elapsed_s, 3)}
        outputs = {"history": history_path, "result": result_path}
        if res.history:
            net.save(ckpt)
            outputs["checkpoint"] = ckpt
        result_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        write_manifest(out_dir, f"train {args.task}", dataclasses.asdict(cfg),
                       cfg.seed, {}, outputs, started)
        print(f"{args.task}: n*={res.n_star} converged_at={res.converged_at} "
              f"iterations={res.iterations}")
        return 0

    # feedback
    if not args.events:
        raise ConfigError("train feedback needs at least one --events file")
    geometry = _parse_geometry(args.geometry) if args.geometry else None
    cfg = build_dataclass(FeedbackConfig, file_cfg, args)
    if args.oracle == "density":
        if args.target_events is None:
            raise ConfigError("--oracle density needs --target-events")
        oracle = DensityTargetOracle(args.target_events)
        data = [_read_stream(p, geometry, args.t0_us, args.span_us) for p in args.events]
    else:
        data = _parse_labelled(args.events, geometry, args.t0_us, args.span_us)
        sample = data[0][0]
        in_shape = (2, sample.height, sample.width)
        n_classes = max(label for _, label in data) + 1
        oracle = ToyClassifierOracle(in_shape, n_classes=n_classes, seed=cfg.seed)
    if args.init_checkpoint:
        net = SlicerNet.load(args.init_checkpoint)
    else:
        first = data[0][0] if isinstance(data[0], tuple) else data[0]
        net = SlicerNet("LN-IF" if args.arch is None else args.arch,
                        in_hw=(first.height, first.width), seed=cfg.seed,
                        hidden_units=512 if args.hidden_units is None else args.hidden_units,
                        input_scale=1.0 if args.input_scale is None else args.input_scale)
    res = train_feedback(net, oracle, data, cfg)
    _dump_history(history_path, res.history)
    net.save(ckpt)
    summary = {"task": "feedback", "oracle": args.oracle, "epochs": res.epochs,
               "samples": res.samples, "skipped": res.skipped,
               "alpha_final": res.alpha_final, "elapsed_s": round(res.elapsed_s, 3)}
    result_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(out_dir, "train feedback", dataclasses.asdict(cfg), cfg.seed,
                   {f"events{i}": p for i, p in enumerate(args.events)},
                   {"history": history_path, "result": result_path, "checkpoint": ckpt},
                   started)
    print(f"feedback: {res.samples} samples ({res.skipped} skipped), "
          f"alpha={res.alpha_final:.3f}")
    return 0


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def _slice_one(ckpt_path, events_path, geometry, args, out_dir):
    net = SlicerNet.load(ckpt_path)
    stream = _read_stream(events_path, geometry, args.t0_us, args.span_us)
    decisions = slice_stream(net, stream, args.dt_us, args.repr_kind,
                             flush_tail=not args.no_flush_tail,
                             n_bins=args.n_bins, tau_us=args.tau_us,
                             reset_per_slice=args.reset_per_slice,
                             with_repr=args.dump_reprs)
    out_dir.mkdir(parents=True, exist_ok=True)
    repr_dir = out_dir / "reprs"
    records = []
    for i, dec in enumerate(decisions):
        repr_path = None
        if args.dump_reprs and dec.representation is not None:
            repr_dir.mkdir(exist_ok=True)
            repr_path = repr_dir / f"{i:04d}.sslc"
            save_named_tensors(repr_path, {"representation": dec.representation.tensor})
        records.append(decision_record(dec, str(repr_path) if repr_path else None))
    decisions_path = out_dir / "decisions.jsonl"
    with open(decisions_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    cells = build_cells(stream, args.dt_us)
    report = slice_report(decisions, stream, len(cells), args.dt_us)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return decisions_path, report_path, len(decisions)


def cmd_slice(args):
    started = _utc_now()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    geometry = _parse_geometry(args.geometry) if args.geometry else None
    multi = len(args.events) > 1
    jobs = []
    for events_path in args.events:
        sub = out_dir / Path(events_path).stem if multi else out_dir
        jobs.append((events_path, sub))
    outputs = {}
    if args.jobs > 1 and multi:
        # parallel across independent streams only; each worker reloads the
        # checkpoint so no model state is shared
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(_slice_one, args.checkpoint, ev, geometry, args, sub):
                       (ev, sub) for ev, sub in jobs}
            for fut in concurrent.futures.as_completed(futures):
                ev, _ = futures[fut]
                dec_path, rep_path, n = fut.result()
                outputs[f"decisions:{Path(ev).stem}"] = dec_path
                outputs[f"report:{Path(ev).stem}"] = rep_path
                print(f"{ev}: {n} slices")
    else:
        for ev, sub in jobs:
            dec_path, rep_path, n = _slice_one(args.checkpoint, ev, geometry, args, sub)
            key = Path(ev).stem if multi else "main"
            outputs[f"decisions:{key}"] = dec_path
            outputs[f"report:{key}"] = rep_path
            print(f"{ev}: {n} slices")
    config = {"dt_us": args.dt_us, "repr": args.repr_kind, "n_bins": args.n_bins,
              "tau_us": args.tau_us, "flush_tail": not args.no_flush_tail,
              "reset_per_slice": args.reset_per_slice}
    write_manifest(out_dir, "slice", config, args.seed,
                   {"checkpoint": args.checkpoint,
                    **{f"events{i}": p for i, p in enumerate(args.events)}},
                   outputs, started)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _write_table(path, fmt, rows, fieldnames):
    if fmt == "csv":
        import csv
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    else:
        Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def cmd_report(args):
    started = _utc_now()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    geometry = _parse_geometry(args.geometry) if args.geometry else None

    if args.kind == "density":
        stream = _read_stream(args.events, geometry, args.t0_us, args.span_us)
        starts, values = density_profile(stream, args.dt_us)
        rows = [{"window": i, "t_start_us": int(t), "events_per_us": float(v)}
                for i, (t, v) in enumerate(zip(starts, values))]
        out = out_dir / f"density.{args.fmt}"
        _write_table(out, args.fmt, rows, ["window", "t_start_us", "events_per_us"])
        write_manifest(out_dir, "report density", {"dt_us": args.dt_us, "fmt": args.fmt},
                       args.seed, {"events": args.events}, {"report": out}, started)
        print(f"{len(rows)} windows -> {out}")
        return 0

    if args.kind == "energy":
        net = SlicerNet.load(args.checkpoint)
        stream = _read_stream(args.events, geometry, args.t0_us, args.span_us)
        cells = build_cells(stream, args.dt_us)
        stats = profile_network(net, cells)
        report = energy_report(stats)
        out = out_dir / "energy.json"
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        write_manifest(out_dir, "report energy", {"dt_us": args.dt_us}, args.seed,
                       {"checkpoint": args.checkpoint, "events": args.events},
                       {"report": out}, started)
        print(f"total {report['totals']['joules']:.3e} J -> {out}")
        return 0

    # compare
    if not (args.train and args.test):
        raise ConfigError("report compare needs --train and --test path:label lists")
    net = SlicerNet.load(args.checkpoint)
    train_data = _parse_labelled(args.train, geometry, args.t0_us, args.span_us)
    test_data = _parse_labelled(args.test, geometry, args.t0_us, args.span_us)
    policies = tuple(args.policies.split(","))
    results = compare_policies(net, train_data, test_data, args.dt_us,
                               policies=policies, target_events=args.target_events,
                               clf_hidden=args.clf_hidden, clf_lr=args.clf_lr,
                               clf_passes=args.clf_passes, clf_seed=args.clf_seed,
                               repr_kind=args.repr_kind, seed=args.seed)
    rows = [{"policy": name, **vals} for name, vals in results.items()]
    out = out_dir / f"compare.{args.fmt}"
    fields = ["policy", "accuracy", "train_slices", "test_slices", "slices_per_stream"]
    _write_table(out, args.fmt, rows, fields)
    write_manifest(out_dir, "report compare",
                   {"dt_us": args.dt_us, "policies": list(policies),
                    "target_events": args.target_events}, args.seed,
                   {"checkpoint": args.checkpoint}, {"report": out}, started)
    for row in rows:
        print(f"{row['policy']}: accuracy={row['accuracy']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out-dir", default=".", help="artifact directory")
    common.add_argument("--jobs", type=int, default=1,
                        help="workers for commands over multiple independent streams")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="run seed")

    stream_flags = argparse.ArgumentParser(add_help=False)
    stream_flags.add_argument("--geometry", help="WxH, required for CSV event inputs")
    stream_flags.add_argument("--t0-us", type=int, dest="t0_us",
                              help="window start override for metadata-less files")
    stream_flags.add_argument("--span-us", type=int, dest="span_us",
                              help="window length override for metadata-less files")

    parser = argparse.ArgumentParser(
        prog="evslicer",
        description="Adaptive event-stream slicing with a trainable spiking trigger.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[seeded],
                             help="generate a synthetic event stream from a scenario")
    p_synth.add_argument("--scenario", required=True, help="scenario JSON path")
    p_synth.add_argument("--out", help="output file name (default events.csv)")
    p_synth.add_argument("--fmt", choices=("csv", "binary"), default="csv")
    p_synth.set_defaults(func=cmd_synth)

    p_cells = sub.add_parser("cells", parents=[seeded, stream_flags],
                             help="bin an event file into fixed-duration cell grids")
    p_cells.add_argument("--events", required=True)
    p_cells.add_argument("--dt-us", type=int, required=True)
    p_cells.add_argument("--n-cells", type=int)
    p_cells.add_argument("--out", help="output file name (default cells.npz)")
    p_cells.set_defaults(func=cmd_cells)

    p_train = sub.add_parser("train", parents=[common, stream_flags],
                             help="warm-up arena or oracle-feedback training")
    p_train.add_argument("task", choices=("arena-i", "arena-ii", "feedback"))
    # no default here: a seed from --config applies unless the flag is given
    p_train.add_argument("--seed", type=int, help="run seed (default 0)")
    p_train.add_argument("--arch", help="architecture string")
    p_train.add_argument("--hw", help="input geometry WxH (arena tasks)")
    p_train.add_argument("--n-steps", type=int, dest="n_steps")
    p_train.add_argument("--max-iters", type=int, dest="max_iters")
    p_train.add_argument("--streak", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--lr-schedule", choices=("cosine", "constant"), dest="lr_schedule")
    p_train.add_argument("--alpha0", type=float)
    p_train.add_argument("--eta", type=float)
    p_train.add_argument("--noise-prob", type=float, dest="noise_prob")
    p_train.add_argument("--cell-rate", type=float, dest="cell_rate")
    p_train.add_argument("--target", type=int)
    p_train.add_argument("--hidden-units", type=int, dest="hidden_units")
    p_train.add_argument("--input-scale", type=float, dest="input_scale")
    p_train.add_argument("--events", nargs="+",
                         help="feedback: event files, or path:label pairs for --oracle classifier")
    p_train.add_argument("--oracle", choices=("density", "classifier"), default="density")
    p_train.add_argument("--target-events", type=int, dest="target_events")
    p_train.add_argument("--dt-us", type=int, dest="dt_us")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--samples-per-epoch", type=int, dest="samples_per_epoch")
    p_train.add_argument("--window", type=int)
    p_train.add_argument("-d", "--neighborhood", type=int, dest="d",
                         help="neighborhood search radius")
    p_train.add_argument("--repr", choices=("frame", "voxel", "time_surface"),
                         dest="repr_kind")
    p_train.add_argument("--n-bins", type=int, dest="n_bins")
    p_train.add_argument("--finetune-start", type=int, dest="finetune_start")
    p_train.add_argument("--init-checkpoint", dest="init_checkpoint",
                         help="start feedback training from this checkpoint")
    p_train.set_defaults(func=cmd_train)

    p_slice = sub.add_parser("slice", parents=[seeded, stream_flags],
                             help="run a checkpoint over event files and emit decisions")
    p_slice.add_argument("--checkpoint", required=True)
    p_slice.add_argument("--events", nargs="+", required=True)
    p_slice.add_argument("--dt-us", type=int, required=True)
    p_slice.add_argument("--repr", choices=("frame", "voxel", "time_surface"),
                         default="frame", dest="repr_kind")
    p_slice.add_argument("--n-bins", type=int, default=5, dest="n_bins")
    p_slice.add_argument("--tau-us", type=int, dest="tau_us")
    p_slice.add_argument("--no-flush-tail", action="store_true",
                         help="drop the trailing cells after the last spike")
    p_slice.add_argument("--reset-per-slice", action="store_true",
                         help="reset membrane state at each slice boundary")
    p_slice.add_argument("--dump-reprs", action="store_true",
                         help="write each slice representation as an .sslc tensor file")
    p_slice.set_defaults(func=cmd_slice)

    p_report = sub.add_parser("report", parents=[seeded, stream_flags],
                              help="density / energy / policy-comparison artifacts")
    p_report.add_argument("kind", choices=("density", "energy", "compare"))
    p_report.add_argument("--events", help="event file (density, energy)")
    p_report.add_argument("--checkpoint", help="checkpoint (energy, compare)")
    p_report.add_argument("--dt-us", type=int, default=10000, dest="dt_us")
    p_report.add_argument("--fmt", choices=("json", "csv"), default="json")
    p_report.add_argument("--train", nargs="+", help="compare: path:label list")
    p_report.add_argument("--test", nargs="+", help="compare: path:label list")
    p_report.add_argument("--policies",
                          default="adaptive,fixed-duration,fixed-count,random")
    p_report.add_argument("--target-events", type=int, default=100,
                          dest="target_events")
    p_report.add_argument("--repr", choices=("frame", "voxel", "time_surface"),
                          default="frame", dest="repr_kind")
    p_report.add_argument("--clf-hidden", type=int, default=16)
    p_report.add_argument("--clf-lr", type=float, default=0.05)
    p_report.add_argument("--clf-passes", type=int, default=3)
    p_report.add_argument("--clf-seed", type=int, default=0)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:     # ConfigError and the input errors among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

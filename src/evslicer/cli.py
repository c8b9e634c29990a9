"""Command-line surface for the slicing pipeline.

Subcommands: synth (scenario -> event file), cells (event file -> cell
grids), train arena-i / arena-ii / feedback (warm-up arena or oracle
feedback), slice (checkpoint + events -> decisions), report density /
energy / compare. Each command and task has its own parser, holding only
the flags it reads; any other flag is refused.

Every run writes a manifest.json into its output directory. Its config is
every flag of the command under its argparse dest, with the config the
command resolved (a train task's, synth's scenario) laid over them; artifacts
other than the manifest are byte-deterministic for a fixed seed. Config
values resolve as CLI flag > config file > default.

Exit codes: 0 success, 2 bad usage or config, 3 training diverged.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import save_named_tensors
from .energy import energy_report, profile_network
from .events import (
    REPR_KINDS,
    Scenario,
    build_cells,
    density_profile,
    parse_events,
    serialize_events_binary,
    serialize_events_csv,
    synth_stream,
)
from .feedback import (
    CUT_POLICIES,
    LR_SCHEDULES,
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
from .presets import COUNT_HEAD_ARCH
from .schema import INT64, from_json
from .slicer import decision_record, slice_report, slice_stream
from .snn import SlicerNet


class ConfigError(ValueError):
    """Bad command-line/config-file combination."""


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _utc_now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def blas_info():
    """The BLAS NumPy was built with (name, version), and the kernel and
    thread count OpenBLAS reports at run time. Both fix the order in which a
    product is summed, so seeded results hold per kernel and thread count.
    A value that cannot be read is None: NumPy before 1.26 lists no build
    dependencies, and only an OpenBLAS mapped into this process names its
    kernel, under a symbol prefix and suffix that vary by build."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        build = {}
    info = {"name": build.get("name"), "version": build.get("version"),
            "kernel": None, "threads": None}
    lib = _mapped_openblas()
    if lib is None:
        return info
    for key, stem, restype in (("kernel", "openblas_get_corename", ctypes.c_char_p),
                               ("threads", "openblas_get_num_threads", ctypes.c_int)):
        names = [pre + stem + suf for pre in ("", "scipy_") for suf in ("", "64_")]
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes, fn.restype = (), restype
            value = fn()
            info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def _mapped_openblas():
    """The first OpenBLAS library in this process's memory map, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
        paths = (line.split(maxsplit=5)[-1] for line in maps.splitlines() if "/" in line)
        path = next((p for p in paths if "openblas" in Path(p).name.lower()), None)
        return None if path is None else ctypes.CDLL(path)
    except OSError:
        return None


def _write_json(path, value):
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


INPUT_FLAGS = ("scenario", "config", "events", "init_checkpoint", "checkpoint", "train", "test")


def write_manifest(out_dir, command, config, outputs, started_at):
    """One manifest per run. Its seed is config's, and its inputs are the
    files config's INPUT_FLAGS name, a list flag's numbered (events0, ...).
    Identical inputs reproduce identical artifacts byte-for-byte (the two
    timestamps are the only run-varying fields; the BLAS record varies by
    host)."""
    given = [(name, config.get(name)) for name in INPUT_FLAGS]
    inputs = {name: v for name, v in given if isinstance(v, str)}
    inputs |= {f"{name}{i}": p for name, v in given if isinstance(v, list) for i, p in enumerate(v)}
    manifest = {
        "blas": blas_info(),
        "command": command,
        "config": config,
        "seed": config["seed"],
        "inputs": inputs,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "code_version": __version__,
        "started_at": started_at,
        "finished_at": _utc_now(),
    }
    _write_json(Path(out_dir) / "manifest.json", manifest)


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


def int64(text):
    """Type of every integer flag: as the config fields, a signed 64-bit int."""
    value = int(text)
    if value not in INT64:
        raise argparse.ArgumentTypeError(f"{text} does not fit in a signed 64-bit integer")
    return value


def _read_stream(args, path):
    """The event file at path, read with the stream flags of args:
    --geometry (which a CSV needs), --t0-us and --span-us."""
    path = Path(path)
    fmt = "binary" if path.suffix in (".bin", ".sse") else "csv"
    width, height = _parse_geometry(args.geometry) if args.geometry else (None, None)
    if fmt == "csv" and width is None:
        raise ConfigError(f"{path}: CSV input needs --geometry WxH")
    return parse_events(path.read_bytes(), fmt, width=width, height=height,
                        t0=args.t0_us, span_us=args.span_us)


def _parse_geometry(text):
    try:
        w, h = text.lower().split("x")
        return int64(w), int64(h)
    except ValueError as exc:
        raise ConfigError(f"bad geometry {text!r}, expected WxH") from exc
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad geometry {text!r}: {exc}") from None


def _parse_labelled(args, specs):
    """'path:label' pairs -> [(EventStream, int)] for the classifier tasks."""
    out = []
    for spec in specs:
        path, sep, label = spec.rpartition(":")
        if not sep or not label.lstrip("-").isdigit():
            raise ConfigError(f"expected path:label, got {spec!r}")
        out.append((_read_stream(args, path), int(label)))
    return out


# ---------------------------------------------------------------------------
# commands: each makes its out dir, writes its artifacts and returns (outputs,
# the config it resolved beyond its flags) for main to record in the manifest
# ---------------------------------------------------------------------------

def _out_dir(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_synth(args):
    out_dir = _out_dir(args)
    scenario = Scenario.from_json(Path(args.scenario).read_text())
    stream = synth_stream(scenario, seed=args.seed)
    out = out_dir / (args.out or f"events.{'bin' if args.fmt == 'binary' else 'csv'}")
    writer = serialize_events_binary if args.fmt == "binary" else serialize_events_csv
    out.write_bytes(writer(stream))
    print(f"wrote {len(stream.t)} events -> {out}")
    return {"events": out}, json.loads(scenario.to_json())


def cmd_cells(args):
    out_dir = _out_dir(args)
    stream = _read_stream(args, args.events)
    cells = build_cells(stream, args.dt_us, n_cells=args.n_cells)
    out = out_dir / (args.out or "cells.npz")
    np.savez(out, grids=cells.grids, t0=np.uint64(cells.t0),
             dt_us=np.int64(cells.dt_us),
             dropped_tail_events=np.int64(cells.dropped_tail_events))
    print(f"{len(cells)} cells of {args.dt_us} us, {int(cells.counts().sum())} events binned "
          f"-> {out}")
    return {"cells": out}, {}


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _train(out_dir, task, run):
    """res = run(), its history written to history.jsonl. A run that
    diverges leaves the history up to the divergence and a result.json that
    names the error, and the DivergenceError goes on to main."""
    history_path = out_dir / "history.jsonl"
    try:
        res = run()
    except DivergenceError as exc:
        _write_jsonl(history_path, exc.history)
        _write_json(out_dir / "result.json", {"task": task, "error": f"training diverged: {exc}",
                                              "history_entries": len(exc.history)})
        raise
    _write_jsonl(history_path, res.history)
    return res, {"history": history_path, "result": out_dir / "result.json"}


def cmd_arena(args):
    out_dir = _out_dir(args)
    cfg = build_dataclass(ArenaConfig, _load_config_file(args.config), args,
                          in_hw=_parse_geometry(args.hw)[::-1] if args.hw else None)
    net = build_arena_net(cfg)
    res, outputs = _train(out_dir, cfg.task, partial(train_arena, net, cfg))
    if res.history:
        outputs["checkpoint"] = out_dir / "checkpoint.sslc"
        net.save(outputs["checkpoint"])
    _write_json(outputs["result"], {"task": cfg.task, "converged_at": res.converged_at,
                                    "iterations": res.iterations, "n_star": res.n_star,
                                    "alpha_final": res.alpha_final,
                                    "elapsed_s": round(res.elapsed_s, 3)})
    print(f"{cfg.task}: n*={res.n_star} converged_at={res.converged_at} "
          f"iterations={res.iterations}")
    return outputs, dataclasses.asdict(cfg)


def cmd_feedback(args):
    net_flags = {k: getattr(args, k) for k in ("arch", "hidden_units", "input_scale")
                 if getattr(args, k) is not None}
    if args.init_checkpoint and net_flags:
        given = ", ".join("--" + k.replace("_", "-") for k in net_flags)
        raise ConfigError(f"--init-checkpoint sets the net; it takes no {given}")
    out_dir = _out_dir(args)
    cfg = build_dataclass(FeedbackConfig, _load_config_file(args.config), args)
    if args.oracle == "density":
        if args.target_events is None:
            raise ConfigError("--oracle density needs --target-events")
        oracle = DensityTargetOracle(args.target_events)
        data = [_read_stream(args, p) for p in args.events]
        first = data[0]
    else:
        data = _parse_labelled(args, args.events)
        first = data[0][0]
        n_classes = max(label for _, label in data) + 1
        frame = (2, first.height, first.width)      # a voxel slice stacks n_bins frames
        oracle = ToyClassifierOracle((cfg.n_bins, *frame) if cfg.repr_kind == "voxel" else frame,
                                     n_classes=n_classes, seed=cfg.seed)
    net = (SlicerNet.load(args.init_checkpoint) if args.init_checkpoint
           else SlicerNet(**{"arch": COUNT_HEAD_ARCH} | net_flags,
                          in_hw=(first.height, first.width), seed=cfg.seed))
    res, outputs = _train(out_dir, "feedback", partial(train_feedback, net, oracle, data, cfg))
    outputs["checkpoint"] = out_dir / "checkpoint.sslc"
    net.save(outputs["checkpoint"])
    _write_json(outputs["result"], {"task": "feedback", "oracle": args.oracle,
                                    "epochs": res.epochs, "samples": res.samples,
                                    "skipped": res.skipped, "alpha_final": res.alpha_final,
                                    "elapsed_s": round(res.elapsed_s, 3)})
    print(f"feedback: {res.samples} samples ({res.skipped} skipped), "
          f"alpha={res.alpha_final:.3f}")
    return outputs, dataclasses.asdict(cfg)


def _slice_one(args, events_path, out_dir):
    net = SlicerNet.load(args.checkpoint)
    stream = _read_stream(args, events_path)
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
    _write_jsonl(decisions_path, records)
    report_path = out_dir / "report.json"
    _write_json(report_path, slice_report(decisions, stream, stream.span_us // args.dt_us,
                                          args.dt_us))
    return decisions_path, report_path, len(decisions)


def cmd_slice(args):
    multi = len(args.events) > 1
    keys = [Path(ev).stem for ev in args.events] if multi else ["main"]
    clash = next((key for key in keys if keys.count(key) > 1), None)
    if clash is not None:
        paths = ", ".join(ev for ev, key in zip(args.events, keys) if key == clash)
        raise ConfigError(f"{paths} would all write {Path(args.out_dir) / clash}; "
                          "give the event files distinct names")
    out_dir = _out_dir(args)
    subs = [out_dir / key for key in keys] if multi else [out_dir]
    work = partial(_slice_one, args)
    workers = min(args.jobs, len(args.events))     # a pool forks all its workers at once
    if workers > 1:
        # parallel across independent streams only; each worker reloads the
        # checkpoint so no model state is shared
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, args.events, subs))
    else:
        results = map(work, args.events, subs)
    outputs = {}
    for ev, key, (dec_path, rep_path, n) in zip(args.events, keys, results):
        outputs[f"decisions:{key}"] = dec_path
        outputs[f"report:{key}"] = rep_path
        print(f"{ev}: {n} slices")
    return outputs, {}


def _write_table(path, fmt, rows, fieldnames):
    if fmt == "csv":
        import csv
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    else:
        _write_json(path, rows)


def cmd_density(args):
    out_dir = _out_dir(args)
    starts, values = density_profile(_read_stream(args, args.events), args.dt_us)
    rows = [{"window": i, "t_start_us": int(t), "events_per_us": float(v)}
            for i, (t, v) in enumerate(zip(starts, values))]
    out = out_dir / f"density.{args.fmt}"
    _write_table(out, args.fmt, rows, ["window", "t_start_us", "events_per_us"])
    print(f"{len(rows)} windows -> {out}")
    return {"report": out}, {}


def cmd_energy(args):
    out_dir = _out_dir(args)
    net = SlicerNet.load(args.checkpoint)
    cells = build_cells(_read_stream(args, args.events), args.dt_us)
    report = energy_report(profile_network(net, cells))
    out = out_dir / "energy.json"
    _write_json(out, report)
    print(f"total {report['totals']['joules']:.3e} J -> {out}")
    return {"report": out}, {}


def cmd_compare(args):
    out_dir = _out_dir(args)
    results = compare_policies(
        SlicerNet.load(args.checkpoint), _parse_labelled(args, args.train),
        _parse_labelled(args, args.test), args.dt_us, policies=tuple(args.policies.split(",")),
        target_events=args.target_events, clf_hidden=args.clf_hidden, clf_lr=args.clf_lr,
        clf_passes=args.clf_passes, clf_seed=args.clf_seed, repr_kind=args.repr_kind,
        seed=args.seed)
    rows = [{"policy": name, **vals} for name, vals in results.items()]
    out = out_dir / f"compare.{args.fmt}"
    fields = ["policy", "accuracy", "train_slices", "test_slices", "slices_per_stream"]
    _write_table(out, args.fmt, rows, fields)
    for row in rows:
        print(f"{row['policy']}: accuracy={row['accuracy']:.3f}")
    return {"report": out}, {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Flags are spelled in full, so that no flag of one task passes in another as
# the flag it prefixes (arena's --target as feedback's --target-events).
_Parser = partial(argparse.ArgumentParser, allow_abbrev=False)


def build_parser():
    """One parser per command, and per train and report task, holding only
    the flags that command reads. The shared groups are parents of the leaf
    parsers only: a sub-parser's default would overwrite what its parent
    parsed."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="artifact directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int64, default=0, help="run seed")

    stream_flags = argparse.ArgumentParser(add_help=False)
    stream_flags.add_argument("--geometry", help="WxH, required for CSV event inputs; "
                              "beside a binary file it must match the file header")
    stream_flags.add_argument("--t0-us", type=int64,
                              help="window start override for metadata-less files")
    stream_flags.add_argument("--span-us", type=int64,
                              help="window length override for metadata-less files")

    training = argparse.ArgumentParser(add_help=False)      # what every train task reads
    training.add_argument("--config", help="JSON config file; flags override it")
    # no default here: a seed from --config applies unless the flag is given
    training.add_argument("--seed", type=int64, help="run seed (default 0)")
    training.add_argument("--arch", help="architecture string")
    training.add_argument("--hidden-units", type=int64)
    training.add_argument("--input-scale", type=float)
    training.add_argument("--lr", type=float)
    training.add_argument("--lr-schedule", choices=LR_SCHEDULES)
    training.add_argument("--alpha0", type=float)
    training.add_argument("--eta", type=float)

    reporting = argparse.ArgumentParser(add_help=False)     # what every report task reads
    reporting.add_argument("--dt-us", type=int64, default=10000)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--fmt", choices=("json", "csv"), default="json")
    repr_kind = dict(choices=REPR_KINDS, dest="repr_kind")

    parser = _Parser(
        prog="evslicer",
        description="Adaptive event-stream slicing with a trainable spiking trigger.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", parents=[common, seeded],
                       help="generate a synthetic event stream from a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", help="output file name (default events.csv)")
    p.add_argument("--fmt", choices=("csv", "binary"), default="csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cells", parents=[common, seeded, stream_flags],
                       help="bin an event file into fixed-duration cell grids")
    p.add_argument("--events", required=True)
    p.add_argument("--dt-us", type=int64, required=True)
    p.add_argument("--n-cells", type=int64)
    p.add_argument("--out", help="output file name (default cells.npz)")
    p.set_defaults(func=cmd_cells)

    tasks = sub.add_parser("train", help="warm-up arena or oracle-feedback training"
                           ).add_subparsers(dest="task", required=True, parser_class=_Parser)
    for task, cell in (("arena-i", "one fixed cell"), ("arena-ii", "a redrawn cell")):
        p = tasks.add_parser(task, parents=[common, training],
                             help=f"teach a fresh net to fire at a target step on {cell}")
        p.add_argument("--hw", help="input geometry WxH")
        p.add_argument("--n-steps", type=int64)
        p.add_argument("--max-iters", type=int64)
        p.add_argument("--streak", type=int64)
        p.add_argument("--noise-prob", type=float)
        p.add_argument("--cell-rate", type=float)
        p.add_argument("--target", type=int64)
        p.set_defaults(func=cmd_arena)
    p = tasks.add_parser("feedback", parents=[common, training, stream_flags],
                         help="train on an oracle's choice of cuts over event files")
    p.add_argument("--events", nargs="+", required=True,
                   help="event files, or path:label pairs for --oracle classifier")
    p.add_argument("--oracle", choices=("density", "classifier"), default="density")
    p.add_argument("--target-events", type=int64)
    p.add_argument("--dt-us", type=int64)
    p.add_argument("--epochs", type=int64)
    p.add_argument("--samples-per-epoch", type=int64)
    p.add_argument("--window", type=int64)
    p.add_argument("-d", "--neighborhood", type=int64, dest="d",
                   help="neighborhood search radius")
    p.add_argument("--repr", **repr_kind)
    p.add_argument("--n-bins", type=int64)
    p.add_argument("--finetune-start", type=int64)
    p.add_argument("--init-checkpoint", help="start from this checkpoint, not a fresh net")
    p.set_defaults(func=cmd_feedback)

    p = sub.add_parser("slice", parents=[common, seeded, stream_flags],
                       help="run a checkpoint over event files and emit decisions")
    p.add_argument("--jobs", type=int64, default=1,
                   help="worker processes, one event file each at a time")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--events", nargs="+", required=True)
    p.add_argument("--dt-us", type=int64, required=True)
    p.add_argument("--repr", default="frame", **repr_kind)
    p.add_argument("--n-bins", type=int64, default=5)
    p.add_argument("--tau-us", type=int64)
    p.add_argument("--no-flush-tail", action="store_true",
                   help="drop the trailing cells after the last spike")
    p.add_argument("--reset-per-slice", action="store_true",
                   help="reset membrane state at each slice boundary")
    p.add_argument("--dump-reprs", action="store_true",
                   help="write each slice representation as an .sslc tensor file")
    p.set_defaults(func=cmd_slice)

    kinds = sub.add_parser("report", help="density / energy / policy-comparison artifacts"
                           ).add_subparsers(dest="task", required=True, parser_class=_Parser)
    report_parents = [common, seeded, stream_flags, reporting]
    p = kinds.add_parser("density", parents=[*report_parents, table],
                         help="events per microsecond in each window")
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_density)
    p = kinds.add_parser("energy", parents=report_parents,
                         help="theoretical energy of a checkpoint over an event file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_energy)
    p = kinds.add_parser("compare", parents=[*report_parents, table],
                         help="downstream accuracy of the slicing policies")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", nargs="+", required=True, help="path:label list")
    p.add_argument("--test", nargs="+", required=True, help="path:label list")
    p.add_argument("--policies", default=",".join(CUT_POLICIES))
    p.add_argument("--target-events", type=int64, default=100)
    p.add_argument("--repr", default="frame", **repr_kind)
    p.add_argument("--clf-hidden", type=int64, default=16)
    p.add_argument("--clf-lr", type=float, default=0.05)
    p.add_argument("--clf-passes", type=int64, default=3)
    p.add_argument("--clf-seed", type=int64, default=0)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "task")}
    command = args.command + (f" {args.task}" if "task" in args else "")
    started = _utc_now()
    try:
        outputs, resolved = args.func(args)
        write_manifest(args.out_dir, command, flags | resolved, outputs, started)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:     # ConfigError and the input errors among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # sizes that ask for more than the machine has
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line tests: artifact layout, manifests, determinism,
config precedence, exit codes, and the report formats."""
import hashlib
import json

import numpy as np
import pytest

from evslicer.autodiff import load_named_tensors
from evslicer.cli import load_cells, main
from evslicer.events import Scenario, build_cells, parse_events, synth_stream
from evslicer.snn import DEFAULT_ARCH, SlicerNet

MICRO_TRAIN = ["--arch", "LN-IF", "--hw", "8x8", "--n-steps", "6", "--target", "3",
               "--lr", "3e-4", "--max-iters", "200"]


def scenario_json(tmp_path, **over):
    sc = dict(width=8, height=8, duration_ms=60,
              rate_per_ms=[[0, 60, 1.0]], speed_px_per_ms=[[0, 60, 0.05]],
              jitter_px=0.0)
    sc.update(over)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    return path


def synth_csv(tmp_path, name="events.csv", seed=0, **over):
    sc = Scenario(**{**dict(width=8, height=8, duration_ms=60,
                            rate_per_ms=[[0, 60, 1.0]],
                            speed_px_per_ms=[[0, 60, 0.05]], jitter_px=0.0),
                     **over})
    stream = synth_stream(sc, seed=seed)
    from evslicer.events import serialize_events_csv
    path = tmp_path / name
    path.write_bytes(serialize_events_csv(stream))
    # return the parsed-back stream: CSV drops the t0/span metadata, so this
    # is exactly what any command reading the file will see
    parsed = parse_events(path.read_bytes(), "csv", width=sc.width, height=sc.height)
    return path, parsed


def micro_checkpoint(tmp_path, bias=None, seed=0):
    net = SlicerNet("LN-IF", in_hw=(8, 8), seed=seed)
    if bias is not None:
        net.layers[0].bias.data[...] = bias
        net.layers[0].weight.data[...] = 0.0
    path = tmp_path / "ckpt.sslc"
    net.save(path)
    return path


class TestSynth:
    def test_writes_events_and_manifest(self, tmp_path):
        sc = scenario_json(tmp_path)
        rc = main(["synth", "--scenario", str(sc), "--out-dir", str(tmp_path), "--seed", "7"])
        assert rc == 0
        out = tmp_path / "events.csv"
        stream = parse_events(out.read_bytes(), "csv", width=8, height=8)
        assert len(stream.t) > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["code_version"]
        assert manifest["outputs"]["events"] == str(out)

    def test_deterministic_rerun(self, tmp_path):
        sc = scenario_json(tmp_path)
        main(["synth", "--scenario", str(sc), "--out-dir", str(tmp_path / "a"), "--seed", "3"])
        main(["synth", "--scenario", str(sc), "--out-dir", str(tmp_path / "b"), "--seed", "3"])
        assert (tmp_path / "a" / "events.csv").read_bytes() == \
               (tmp_path / "b" / "events.csv").read_bytes()

    def test_zero_rate_gives_empty_csv_with_header(self, tmp_path):
        sc = scenario_json(tmp_path, rate_per_ms=[[0, 60, 0.0]])
        rc = main(["synth", "--scenario", str(sc), "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "events.csv").read_text()
        assert text.splitlines()[0] == "t_us,x,y,p"
        assert len(text.splitlines()) == 1

    def test_binary_roundtrip(self, tmp_path):
        sc = scenario_json(tmp_path)
        rc = main(["synth", "--scenario", str(sc), "--out-dir", str(tmp_path),
                   "--fmt", "binary"])
        assert rc == 0
        stream = parse_events((tmp_path / "events.bin").read_bytes(), "binary")
        assert stream.width == 8 and len(stream.t) > 0

    def test_bad_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_field": 1}')
        assert main(["synth", "--scenario", str(bad), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", [
        '[1, 2]',                              # root not an object
        '{"width": "abc"}',                    # integer field of another type
        '{"jitter_px": "wide"}',               # number field of another type
        '{"rate_per_ms": 5}',                  # schedule not a list
        '{"speed_px_per_ms": [[0, 10]]}',      # schedule segment not a triple
        '{"width": 70000}',                    # geometry beyond uint16 coordinates
        '{"width": ',                          # not JSON
    ])
    def test_malformed_scenario_exits_2_with_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["synth", "--scenario", str(bad), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "events.csv").exists()


class TestCells:
    def test_roundtrip(self, tmp_path):
        events, stream = synth_csv(tmp_path)
        rc = main(["cells", "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", "--out-dir", str(tmp_path)])
        assert rc == 0
        loaded = load_cells(tmp_path / "cells.npz")
        direct = build_cells(stream, 10000)
        assert np.array_equal(loaded.grids, direct.grids)
        assert loaded.dt_us == 10000 and loaded.t0 == direct.t0
        assert loaded.dropped_tail_events == direct.dropped_tail_events

    def test_t0_beyond_int64_round_trips(self, tmp_path):
        events = tmp_path / "late.csv"
        events.write_text(f"t_us,x,y,p\n{2 ** 63 + 2},1,1,1\n{2 ** 63 + 9},2,2,-1\n")
        rc = main(["cells", "--events", str(events), "--dt-us", "5",
                   "--geometry", "8x8", "--out-dir", str(tmp_path)])
        assert rc == 0
        loaded = load_cells(tmp_path / "cells.npz")
        assert loaded.t0 == 2 ** 63 + 2 and len(loaded) == 1
        assert loaded.grids.sum() == 1 and loaded.dropped_tail_events == 1

    def test_negative_t0_exits_2_with_one_line(self, tmp_path, capsys):
        events, _ = synth_csv(tmp_path)
        rc = main(["cells", "--events", str(events), "--dt-us", "10000", "--geometry", "8x8",
                   "--t0-us", "-5", "--span-us", "100000", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n_cells", ["0", "-3"])
    def test_non_positive_cell_count_exits_2_naming_it(self, tmp_path, capsys, n_cells):
        events = tmp_path / "two.csv"
        events.write_text("t_us,x,y,p\n10,1,1,1\n14,2,2,-1\n")
        rc = main(["cells", "--events", str(events), "--dt-us", "2", "--n-cells", n_cells,
                   "--geometry", "8x8", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: n_cells must be positive, got {n_cells}\n"

    def test_csv_without_geometry_exits_2(self, tmp_path):
        events, _ = synth_csv(tmp_path)
        assert main(["cells", "--events", str(events), "--dt-us", "10000",
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row", ["100,-1,3,1", "100,3,65536,1", f"{2 ** 64},3,3,1"])
    def test_out_of_range_csv_field_exits_2_with_one_line(self, tmp_path, capsys, row):
        events = tmp_path / "bad.csv"
        events.write_text(f"t_us,x,y,p\n10,1,1,1\n{row}\n")
        rc = main(["cells", "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: line 3: ") and err.count("\n") == 1


class TestTrain:
    def test_arena_micro_artifacts(self, tmp_path):
        rc = main(["train", "arena-i", *MICRO_TRAIN, "--out-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged_at"] is not None
        assert result["converged_at"] <= 400
        history = [json.loads(l) for l in (tmp_path / "history.jsonl").read_text().splitlines()]
        assert history[-1]["converged"]
        assert (tmp_path / "checkpoint.sslc").exists()
        assert (tmp_path / "checkpoint.sslc.meta.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "train arena-i"
        assert manifest["config"]["lr"] == pytest.approx(3e-4)

    def test_rerun_identical_history(self, tmp_path):
        main(["train", "arena-i", *MICRO_TRAIN, "--out-dir", str(tmp_path / "a")])
        main(["train", "arena-i", *MICRO_TRAIN, "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "history.jsonl").read_bytes() == \
               (tmp_path / "b" / "history.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint.sslc").read_bytes() == \
               (tmp_path / "b" / "checkpoint.sslc").read_bytes()

    def test_max_iters_zero(self, tmp_path):
        rc = main(["train", "arena-i", *MICRO_TRAIN[:-2], "--max-iters", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "history.jsonl").read_text() == ""
        assert not (tmp_path / "checkpoint.sslc").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path):
        rc = main(["train", "arena-i", "--arch", "LN-IF", "--hw", "8x8",
                   "--n-steps", "6", "--target", "3", "--lr", "1e6",
                   "--max-iters", "50", "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_config_file_and_cli_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arch": "LN-IF", "in_hw": [8, 8], "n_steps": 6,
                                   "target": 3, "max_iters": 200, "lr": 1e6}))
        # file alone diverges; the CLI flag must win over the file value
        rc = main(["train", "arena-i", "--config", str(cfg), "--lr", "3e-4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["lr"] == pytest.approx(3e-4)
        assert manifest["config"]["arch"] == "LN-IF"

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_speed": 9}))
        assert main(["train", "arena-i", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("task", ["arena-i", "feedback"])
    @pytest.mark.parametrize("bad", [
        {"lr_schedule": "bogus"}, {"lr": float("nan")}, {"lr": float("inf")},
        {"lr": 0.0}, {"lr": -1e-3}, {"alpha0": -0.1}, {"alpha0": 1.5},
        {"alpha0": float("nan")},
    ], ids=["schedule", "lr-nan", "lr-inf", "lr-zero", "lr-negative",
            "alpha0-low", "alpha0-high", "alpha0-nan"])
    def test_bad_training_config_exits_2_with_one_line(self, tmp_path, capsys, task, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))     # NaN and Infinity, as Python's json writes them
        events, _ = synth_csv(tmp_path)
        extra = (MICRO_TRAIN if task == "arena-i"
                 else ["--events", str(events), "--geometry", "8x8", "--target-events", "30"])
        extra = [a for a in extra if a not in ("--lr", "3e-4")]
        capsys.readouterr()
        rc = main(["train", task, "--config", str(cfg), *extra, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "history.jsonl").exists()

    @pytest.mark.parametrize("task, bad, field", [
        ("feedback", {"epochs": 1.5}, "epochs"),
        ("feedback", {"window": 2.5}, "window"),
        ("feedback", {"epochs": "2"}, "epochs"),
        ("feedback", {"epochs": -1}, "epochs"),
        ("feedback", {"samples_per_epoch": 0}, "samples_per_epoch"),
        ("feedback", {"d": "x"}, "'d'"),
        ("arena-i", {"max_iters": 1.5}, "max_iters"),
        ("arena-i", {"n_steps": "3"}, "n_steps"),
        ("arena-i", {"in_hw": "ab"}, "in_hw"),
        ("arena-i", {"in_hw": [8]}, "in_hw"),
        ("arena-i", {"arch": 5}, "arch"),
        ("arena-i", {"hidden_units": 0}, "hidden_units"),
        ("arena-i", {"lr": True}, "lr"),
        ("arena-i", {"input_scale": -1}, "input_scale"),
        ("arena-i", {"eta": -1}, "eta"),
    ])
    def test_bad_config_field_exits_2_naming_it(self, tmp_path, capsys, task, bad, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        events, _ = synth_csv(tmp_path)
        extra = ([] if task == "arena-i"
                 else ["--events", str(events), "--geometry", "8x8", "--target-events", "30"])
        capsys.readouterr()
        rc = main(["train", task, "--config", str(cfg), *extra, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert not (tmp_path / "out" / "history.jsonl").exists()

    @pytest.mark.parametrize("task, flags, field", [
        ("arena-i", ["--input-scale", "0"], "input_scale"),
        ("arena-i", ["--hidden-units", "0"], "hidden_units"),
        ("feedback", ["--input-scale", "0"], "input_scale"),
        ("feedback", ["--hidden-units", "0"], "hidden_units"),
        ("feedback", ["--target-events", "0"], "target_events"),
    ])
    def test_zero_flag_exits_2_naming_it(self, tmp_path, capsys, task, flags, field):
        """A flag given as 0 reaches the declared check instead of falling
        back to its default."""
        events, _ = synth_csv(tmp_path)
        extra = (MICRO_TRAIN if task == "arena-i"
                 else ["--events", str(events), "--geometry", "8x8", "--target-events", "30"])
        capsys.readouterr()
        rc = main(["train", task, *extra, *flags, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("task", ["arena-i", "feedback"])
    @pytest.mark.parametrize("flag, want", [([], 5), (["--seed", "7"], 7), (["--seed", "0"], 0)])
    def test_seed_resolves_flag_then_file_then_default(self, tmp_path, task, flag, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        events, _ = synth_csv(tmp_path)
        extra = ([*MICRO_TRAIN[:-2], "--max-iters", "3"] if task == "arena-i"
                 else ["--events", str(events), "--geometry", "8x8", "--target-events", "30",
                       "--epochs", "1", "--samples-per-epoch", "2"])
        out = tmp_path / "out"
        assert main(["train", task, "--config", str(cfg), *extra, *flag, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sidecar = json.loads((out / "checkpoint.sslc.meta.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"] == sidecar["seed"] == want
        if task == "arena-i":
            assert main(["train", task, *extra, "--out-dir", str(tmp_path / "default")]) == 0
            manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
            assert manifest["seed"] == 0

    def test_feedback_density_micro(self, tmp_path):
        events, _ = synth_csv(tmp_path, duration_ms=120, rate_per_ms=[[0, 120, 2.0]])
        rc = main(["train", "feedback", "--events", str(events), "--geometry", "8x8",
                   "--oracle", "density", "--target-events", "30",
                   "--dt-us", "5000", "--epochs", "2", "--samples-per-epoch", "4",
                   "--window", "6", "--lr", "1e-4", "--out-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["task"] == "feedback" and result["samples"] == 8
        assert (tmp_path / "checkpoint.sslc").exists()

    def test_feedback_without_events_exits_2(self, tmp_path):
        assert main(["train", "feedback", "--out-dir", str(tmp_path)]) == 2


class TestSlice:
    def test_always_spike_checkpoint_single_cell_slices(self, tmp_path):
        events, stream = synth_csv(tmp_path)
        ckpt = micro_checkpoint(tmp_path, bias=5.0)   # fires every step
        rc = main(["slice", "--checkpoint", str(ckpt), "--events", str(events),
                   "--dt-us", "10000", "--geometry", "8x8", "--out-dir", str(tmp_path)])
        assert rc == 0
        decisions = [json.loads(l) for l in
                     (tmp_path / "decisions.jsonl").read_text().splitlines()]
        n_cells = len(build_cells(stream, 10000))
        assert len(decisions) == n_cells
        assert all(d["last_cell"] - d["first_cell"] == 0 for d in decisions)
        report = json.loads((tmp_path / "report.json").read_text())
        assert sum(d["n_events"] for d in decisions) == report["events_total"] \
            if "events_total" in report else True
        assert report["n_slices"] == n_cells

    def test_partition_and_report(self, tmp_path):
        events, stream = synth_csv(tmp_path, duration_ms=80)
        ckpt = micro_checkpoint(tmp_path)
        rc = main(["slice", "--checkpoint", str(ckpt), "--events", str(events),
                   "--dt-us", "10000", "--geometry", "8x8", "--out-dir", str(tmp_path)])
        assert rc == 0
        decisions = [json.loads(l) for l in
                     (tmp_path / "decisions.jsonl").read_text().splitlines()]
        cells = build_cells(stream, 10000)
        binned = int(cells.counts().sum())
        assert sum(d["n_events"] for d in decisions) == binned
        covered = [c for d in decisions for c in range(d["first_cell"], d["last_cell"] + 1)]
        assert covered == list(range(len(cells)))

    def test_dump_reprs_roundtrip(self, tmp_path):
        events, _ = synth_csv(tmp_path)
        ckpt = micro_checkpoint(tmp_path, bias=5.0)
        out = tmp_path / "run"
        rc = main(["slice", "--checkpoint", str(ckpt), "--events", str(events),
                   "--dt-us", "20000", "--geometry", "8x8", "--dump-reprs",
                   "--out-dir", str(out)])
        assert rc == 0
        decisions = [json.loads(l) for l in (out / "decisions.jsonl").read_text().splitlines()]
        assert all(d["repr_path"] for d in decisions)
        tensors = load_named_tensors(decisions[0]["repr_path"])
        assert tensors["representation"].shape == (2, 8, 8)

    def test_multi_stream_jobs(self, tmp_path):
        e1, _ = synth_csv(tmp_path, name="one.csv", seed=1)
        e2, _ = synth_csv(tmp_path, name="two.csv", seed=2)
        ckpt = micro_checkpoint(tmp_path, bias=5.0)
        out = tmp_path / "multi"
        rc = main(["slice", "--checkpoint", str(ckpt), "--events", str(e1), str(e2),
                   "--dt-us", "10000", "--geometry", "8x8", "--jobs", "2",
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "one" / "decisions.jsonl").exists()
        assert (out / "two" / "decisions.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "decisions:one" in manifest["outputs"]

    def test_missing_checkpoint_exits_2(self, tmp_path):
        events, _ = synth_csv(tmp_path)
        assert main(["slice", "--checkpoint", str(tmp_path / "nope.sslc"),
                     "--events", str(events), "--dt-us", "10000",
                     "--geometry", "8x8", "--out-dir", str(tmp_path)]) == 2

    def test_sidecar_without_dtype_reproduces_float64_decisions(self, tmp_path):
        """A checkpoint written before nets had a dtype loads as a float64
        net and slices exactly as before, byte for byte. Its output layer
        emits a constant 0.1 per cell: ten float64 steps sum to just below
        the threshold, ten of its float32 rounding to just above, so loading
        it as float32 would cut one cell earlier."""
        events, _ = synth_csv(tmp_path)
        net = SlicerNet(DEFAULT_ARCH, in_hw=(8, 8), hidden_units=16, seed=0, dtype="float64")
        net.layers[-1].weight.data[...] = 0.0
        net.layers[-1].bias.data[...] = 0.1
        ckpt = tmp_path / "ckpt.sslc"
        net.save(ckpt)
        sidecar = tmp_path / "ckpt.sslc.meta.json"
        meta = json.loads(sidecar.read_text())
        blobs, cuts = {}, {}
        for dtype in (None, "float32"):
            if dtype is None:
                del meta["dtype"]
            else:
                meta["dtype"] = dtype
            sidecar.write_text(json.dumps(meta))
            out = tmp_path / f"out-{dtype}"
            assert main(["slice", "--checkpoint", str(ckpt), "--events", str(events),
                         "--dt-us", "2000", "--geometry", "8x8", "--out-dir", str(out)]) == 0
            blobs[dtype] = (out / "decisions.jsonl").read_bytes()
            cuts[dtype] = [(r["first_cell"], r["last_cell"])
                           for r in map(json.loads, blobs[dtype].splitlines())]
        assert cuts == {None: [(0, 10), (11, 21), (22, 28)], "float32": [(0, 9), (10, 19), (20, 28)]}
        # the bytes the code before the dtype key wrote for this checkpoint and stream
        assert (hashlib.sha256(blobs[None]).hexdigest()
                == "a76fa915948a2243371b5df606335e3df2938a66b7ca3ebc9fd686e31b64184e")

    @pytest.mark.parametrize("damage", ["truncated", "no_seed", "neuron_key", "not_json",
                                        "dtype"])
    def test_malformed_checkpoint_exits_2_with_one_line(self, tmp_path, capsys, damage):
        events, _ = synth_csv(tmp_path)
        ckpt = micro_checkpoint(tmp_path)
        sidecar = tmp_path / "ckpt.sslc.meta.json"
        meta = json.loads(sidecar.read_text())
        if damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:30])
        elif damage == "no_seed":
            del meta["seed"]
        elif damage == "neuron_key":
            meta["neuron"]["tau"] = 2.0
        elif damage == "dtype":
            meta["dtype"] = "float16"
        if damage in ("no_seed", "neuron_key", "dtype"):
            sidecar.write_text(json.dumps(meta))
        if damage == "not_json":
            sidecar.write_text("{")
        capsys.readouterr()
        assert main(["slice", "--checkpoint", str(ckpt), "--events", str(events),
                     "--dt-us", "10000", "--geometry", "8x8",
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestReport:
    def test_density_json_and_csv(self, tmp_path):
        events, stream = synth_csv(tmp_path)
        window = ["--t0-us", "0", "--span-us", "60000"]
        rc = main(["report", "density", "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", *window, "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "density.json").read_text())
        assert len(rows) == 6
        assert all(r["events_per_us"] >= 0 for r in rows)
        assert sum(r["events_per_us"] for r in rows) * 10000 == pytest.approx(len(stream.t))
        rc = main(["report", "density", "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", *window, "--fmt", "csv", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "window,t_start_us,events_per_us"
        assert len(lines) == 7

    def test_density_empty_stream_all_zero(self, tmp_path):
        events, _ = synth_csv(tmp_path, rate_per_ms=[[0, 60, 0.0]])
        rc = main(["report", "density", "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", "--t0-us", "0", "--span-us", "60000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "density.json").read_text())
        assert len(rows) == 6
        assert all(r["events_per_us"] == 0.0 for r in rows)

    def test_energy_matches_api(self, tmp_path):
        from evslicer.energy import energy_report, profile_network
        events, stream = synth_csv(tmp_path)
        ckpt = micro_checkpoint(tmp_path)
        rc = main(["report", "energy", "--checkpoint", str(ckpt),
                   "--events", str(events), "--dt-us", "10000",
                   "--geometry", "8x8", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "energy.json").read_text())
        net = SlicerNet.load(ckpt)
        expected = energy_report(profile_network(net, build_cells(stream, 10000)))
        assert report["totals"]["joules"] == expected["totals"]["joules"]
        assert report["constants"]["e_mac_joules"] == 4.6e-12

    def test_compare_rows(self, tmp_path):
        paths = []
        for i in range(4):
            p, _ = synth_csv(tmp_path, name=f"s{i}.csv", seed=i,
                             duration_ms=80, rate_per_ms=[[0, 80, 2.0]])
            paths.append(f"{p}:{i % 2}")
        ckpt = micro_checkpoint(tmp_path)
        rc = main(["report", "compare", "--checkpoint", str(ckpt),
                   "--train", *paths[:2], "--test", *paths[2:],
                   "--dt-us", "10000", "--geometry", "8x8",
                   "--target-events", "40", "--clf-passes", "1",
                   "--fmt", "csv", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("policy,")
        policies = {l.split(",")[0] for l in lines[1:]}
        assert policies == {"adaptive", "fixed-duration", "fixed-count", "random"}

    def test_compare_without_data_exits_2(self, tmp_path):
        ckpt = micro_checkpoint(tmp_path)
        assert main(["report", "compare", "--checkpoint", str(ckpt),
                     "--out-dir", str(tmp_path)]) == 2

    def test_bad_labels_exit_2(self, tmp_path):
        events, _ = synth_csv(tmp_path)
        ckpt = micro_checkpoint(tmp_path)
        assert main(["report", "compare", "--checkpoint", str(ckpt),
                     "--train", str(events), "--test", str(events),
                     "--geometry", "8x8", "--out-dir", str(tmp_path)]) == 2


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_geometry_exits_2(self, tmp_path):
        events, _ = synth_csv(tmp_path)
        assert main(["cells", "--events", str(events), "--dt-us", "1000",
                     "--geometry", "8by8", "--out-dir", str(tmp_path)]) == 2

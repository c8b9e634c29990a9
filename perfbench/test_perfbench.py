"""Tests of the benchmark itself: output schema, output checks, tracing.

The smoke runs start `run.py --smoke` in a subprocess (one set-up and one
step per workload), the same way the benchmark is run for real; the other
tests drive the workloads and the tracer in-process.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from evslicer import events  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_spec_matches_the_benchmark():
    # run.py pins the BLAS thread environment when imported, so it is
    # imported in a child process rather than in this one.
    code = "import json, run; print(json.dumps([run.END_TO_END, run.per_layer_spec()]))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    end_to_end, per_layer = json.loads(proc.stdout)
    assert WORKLOADS == sorted(workloads.WORKLOADS)
    assert [[m["name"], m["unit"]] for m in SPEC["end_to_end"]] == end_to_end
    assert [[m["name"], m["unit"]] for m in SPEC["per_layer"]] == per_layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _smoke(workload, 0)
    _assert_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    result = _smoke(workload, 1)
    _assert_schema(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.step_ms"] > 0 and metrics["host.ref_ms"] > 0
    ran = {"arena-conv": "autodiff.backward.self_ms",
           "feedback-dense": "feedback.neighborhood_search.self_ms",
           "slice-csv": "events.parse_events.self_ms"}[workload]
    assert metrics[ran] > 0


@pytest.fixture(scope="module")
def ready(tmp_path_factory):
    """Each workload set up, with its warm-up output as the reference."""
    made = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(5, tmp_path_factory.mktemp(name))
        w.setup()
        w.reference = w.step()
        made[name] = w
    yield made
    for w in made.values():
        w.close()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_pass_repeats_exactly(ready, workload):
    w = ready[workload]
    first = tracing.count_pass(w, 2)
    second = tracing.count_pass(w, 2)
    assert first == second
    assert first["autodiff.tensors_per_step"] > 0


def test_arena_check_rejects_bad_steps(ready):
    w = ready["arena-conv"]
    w.restore()
    out = w.step()
    w.check(out)
    for bad in ({**out, "loss": float("nan")}, {**out, "length": out["length"] - 1},
                {**out, "loss": out["loss"] * (1 + 1e-12)}):
        with pytest.raises(workloads.CheckFailed):
            w.check(bad)


def test_feedback_check_rejects_bad_steps(ready):
    w = ready["feedback-dense"]
    w.restore()
    out = w.step()
    w.check(out)
    for bad in ({**out, "skipped": 1}, {**out, "alphas": [1.5]},
                {**out, "losses": out["losses"][:-1] + [float("inf")]}):
        with pytest.raises(workloads.CheckFailed):
            w.check(bad)


def test_slice_check_rejects_bad_steps(ready):
    w = ready["slice-csv"]
    out = w.step()
    w.check(out)
    assert len(out["decisions"]) > 2
    stream = out["stream"]
    shifted = events.EventStream(width=stream.width, height=stream.height,
                                 t=stream.t, x=(stream.x + 1) % stream.width,
                                 y=stream.y, p=stream.p, t0=stream.t0, span_us=stream.span_us)
    bad_outputs = [
        {**out, "stream": shifted},
        {**out, "decisions": out["decisions"][1:]},
        {**out, "decisions": out["decisions"][:-1]},
        {**out, "cuts": out["cuts"][:-1]},
    ]
    for bad in bad_outputs:
        with pytest.raises(workloads.CheckFailed):
            w.check(bad)


def test_tracing_restores_wrappers_and_reports_absent_names():
    from evslicer import slicer, snn
    before = (events.render, slicer.render, snn.SlicerNet.forward,
              vars(snn.SlicerNet)["load"])
    patches = tracing.Patches(tracing.TARGETS + [("gone", "evslicer.events", "no_such_name")])
    assert patches.absent == ["gone"]
    tracer = tracing.Tracer()
    stream = events.EventStream(width=4, height=4, t=np.arange(10), x=np.zeros(10),
                                y=np.zeros(10), p=np.ones(10))
    with pytest.raises(ValueError):
        with tracing.traced(tracer, patches):
            assert slicer.render is not before[1]
            slicer.render(events.event_group(stream, 0, 5), "frame")
            events.render(events.event_group(stream, 0, 5), "no-such-kind")
    after = (events.render, slicer.render, snn.SlicerNet.forward, vars(snn.SlicerNet)["load"])
    assert all(a is b for a, b in zip(after, before))
    totals, roots = tracer.self_times()
    assert roots == 1
    assert sum(totals.values()) == pytest.approx(tracer.durations(tracing.ROOT)[0])
    assert len(tracer.durations("events.render")) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arena-conv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

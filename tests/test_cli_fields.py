"""Property test of the declared fields through the command line: one
arbitrary JSON value in any one field of a training config, a scenario or a
checkpoint sidecar, on top of a tiny valid base, ends in exit 0, 2 or 3,
never 1 or an escaped exception, and an exit 2 prints exactly one `error:`
line.

In-range draws of sizes and budgets (the SMALL fields) come from a small
range, so that no run is slow or large: nothing caps `hidden_units`, and a
sidecar's layers are allocated before the checkpoint's shapes are compared.
"""
import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evslicer.cli import main
from evslicer.events import Scenario
from evslicer.feedback import ArenaConfig, FeedbackConfig
from evslicer.snn import NetSpec, NeuronConfig, SlicerNet

SMALL = {"in_hw", "n_steps", "max_iters", "streak", "target", "cell_rate", "hidden_units",
         "epochs", "samples_per_epoch", "window", "n_bins", "finetune_start",
         "width", "height", "duration_ms", "bar_width_px", "rate_per_ms",
         "noise_rate_per_ms", "in_channels", "gn_groups"}

SCENARIO = dict(width=8, height=8, duration_ms=8, rate_per_ms=[[0, 8, 4.0]],
                speed_px_per_ms=[[0, 8, 0.5]])
ARENA = dict(in_hw=[8, 8], max_iters=2, n_steps=6)
FEEDBACK = dict(epochs=1, samples_per_epoch=2, dt_us=1000, window=4)
NET = dict(arch="4C3-GN-IF-AdaP8-LN-IF-LN-IF", in_hw=(8, 8), hidden_units=4)


def json_values(small):
    """Any JSON value; with `small`, its numbers stay within +-16."""
    if small:
        numbers = st.integers(-16, 16) | st.floats(-16, 16)
    else:
        numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    leaves = (numbers | st.sampled_from([float("nan"), float("inf"), float("-inf")])
              | st.booleans() | st.none() | st.text(max_size=6))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=8)


@st.composite
def one_field(draw, names):
    name = draw(st.sampled_from(names))
    return name, draw(json_values(name in SMALL))


def run(argv):
    """main(argv) -> (exit code, stderr lines), output kept off the terminal."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def assert_clean_exit(rc, lines):
    assert rc in (0, 2, 3)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fields")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    assert run(["synth", "--scenario", str(scenario), "--out-dir", str(root)])[0] == 0
    SlicerNet(**NET).save(root / "net.sslc")
    return root


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


FIELD_SETTINGS = settings(max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


@given(change=one_field(names(ArenaConfig)))
@FIELD_SETTINGS
def test_arena_config_field(base, change):
    config = base / "arena.json"
    config.write_text(json.dumps(ARENA | dict([change])))
    assert_clean_exit(*run(["train", "arena-i", "--config", str(config),
                            "--out-dir", str(base / "arena")]))


@given(change=one_field(names(FeedbackConfig)))
@FIELD_SETTINGS
def test_feedback_config_field(base, change):
    config = base / "feedback.json"
    config.write_text(json.dumps(FEEDBACK | dict([change])))
    assert_clean_exit(*run(["train", "feedback", "--events", str(base / "events.csv"),
                            "--geometry", "8x8", "--target-events", "8", "--config", str(config),
                            "--out-dir", str(base / "feedback")]))


@given(change=one_field(names(Scenario)))
@FIELD_SETTINGS
def test_scenario_field(base, change):
    scenario = base / "drawn.json"
    scenario.write_text(json.dumps(SCENARIO | dict([change])))
    assert_clean_exit(*run(["synth", "--scenario", str(scenario),
                            "--out-dir", str(base / "synth")]))


@given(change=one_field(names(NetSpec) + [f"neuron.{n}" for n in names(NeuronConfig)]))
@FIELD_SETTINGS
def test_sidecar_field(base, change):
    meta = SlicerNet(**NET).meta()
    name, value = change
    owner = meta["neuron"] if name.startswith("neuron.") else meta
    owner[name.removeprefix("neuron.")] = value
    (base / "drawn.sslc").write_bytes((base / "net.sslc").read_bytes())
    (base / "drawn.sslc.meta.json").write_text(json.dumps(meta))
    assert_clean_exit(*run(["slice", "--checkpoint", str(base / "drawn.sslc"),
                            "--events", str(base / "events.csv"), "--geometry", "8x8",
                            "--dt-us", "1000", "--out-dir", str(base / "slice")]))

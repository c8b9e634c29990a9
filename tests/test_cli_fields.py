"""Property tests through the command line: one arbitrary JSON value in any
one field of a training config, a scenario or a checkpoint sidecar, on top
of a tiny valid base, any values of the stream flags of `cells` and
`report density`, and any mix of the classifier flags of `report compare`
and `train feedback --oracle classifier`, end in exit 0, 2 or 3, never 1
or an escaped exception (a warning included), and an exit 2 prints exactly
one `error:` line.

In-range draws of sizes and budgets (the SMALL fields) come from a small
range, so that no run is slow or large: nothing caps `hidden_units`, and a
sidecar's layers are allocated before the checkpoint's shapes are compared.
Stream flags draw edge values, but only where what the command would
allocate stays small or is refused before allocating.
"""
import argparse
import contextlib
import dataclasses
import io
import json
import typing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from evslicer.cli import build_parser, int64, main
from evslicer.events import (
    REPR_KINDS,
    EventStream,
    Scenario,
    serialize_events_binary,
    serialize_events_csv,
)
from evslicer.feedback import ArenaConfig, FeedbackConfig
from evslicer.schema import INT64
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
    """main(argv) -> (exit code, stderr lines), output kept off the terminal;
    argparse's refusals exit 2 after printing its usage."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
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


def run_arena(base, change):
    config = base / "arena.json"
    config.write_text(json.dumps(ARENA | dict([change])))
    return run(["train", "arena-i", "--config", str(config), "--out-dir", str(base / "arena")])


def run_feedback(base, change):
    config = base / "feedback.json"
    config.write_text(json.dumps(FEEDBACK | dict([change])))
    return run(["train", "feedback", "--events", str(base / "events.csv"), "--geometry", "8x8",
                "--target-events", "8", "--config", str(config),
                "--out-dir", str(base / "feedback")])


def run_synth(base, change):
    scenario = base / "drawn.json"
    scenario.write_text(json.dumps(SCENARIO | dict([change])))
    return run(["synth", "--scenario", str(scenario), "--out-dir", str(base / "synth")])


def run_slice(base, change):
    meta = SlicerNet(**NET).meta()
    name, value = change
    owner = meta["neuron"] if name.startswith("neuron.") else meta
    owner[name.removeprefix("neuron.")] = value
    (base / "drawn.sslc").write_bytes((base / "net.sslc").read_bytes())
    (base / "drawn.sslc.meta.json").write_text(json.dumps(meta))
    return run(["slice", "--checkpoint", str(base / "drawn.sslc"),
                "--events", str(base / "events.csv"), "--geometry", "8x8",
                "--dt-us", "1000", "--out-dir", str(base / "slice")])


@given(change=one_field(names(ArenaConfig)))
@FIELD_SETTINGS
def test_arena_config_field(base, change):
    assert_clean_exit(*run_arena(base, change))


@given(change=one_field(names(FeedbackConfig)))
@FIELD_SETTINGS
def test_feedback_config_field(base, change):
    assert_clean_exit(*run_feedback(base, change))


@given(change=one_field(names(Scenario)))
@FIELD_SETTINGS
def test_scenario_field(base, change):
    assert_clean_exit(*run_synth(base, change))


@given(change=one_field(names(NetSpec) + [f"neuron.{n}" for n in names(NeuronConfig)]))
@FIELD_SETTINGS
def test_sidecar_field(base, change):
    assert_clean_exit(*run_slice(base, change))


def int_fields(cls):
    hints = typing.get_type_hints(cls)
    return [name for name, kind in hints.items() if int in (kind, *typing.get_args(kind))]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("command, name", [
    (command, name) for command, cls in ((run_arena, ArenaConfig), (run_feedback, FeedbackConfig),
                                         (run_synth, Scenario), (run_slice, NetSpec))
    for name in int_fields(cls)])
def test_integer_beyond_64_bits_exits_2(base, command, name, sign):
    """An integer no int64 holds is refused up front, not left to overflow
    (or allocate) inside NumPy."""
    value = sign * 10 ** 23
    rc, lines = command(base, (name, [value, 8] if name == "in_hw" else value))
    assert rc == 2 and len(lines) == 1
    assert lines[0].startswith("error: ") and name in lines[0], lines


# ---------------------------------------------------------------------------
# stream flags
# ---------------------------------------------------------------------------

STREAM_FLAGS = ("geometry", "t0_us", "span_us", "dt_us", "n_cells")
# the tiny event files: three events in 3x3 pixels over [10, 20], in a 4x4 header
TINY = EventStream(4, 4, t=[10, 14, 20], x=[1, 2, 0], y=[1, 0, 2], p=[1, -1, 1])
INT64_MAX = 2 ** 63 - 1
EDGES = st.sampled_from([0, 1, 2, 3, 4, 7, 16, 1000, -1, -16, 2 ** 31, 2 ** 62,
                         INT64_MAX, -INT64_MAX - 1, INT64_MAX + 1, -INT64_MAX - 2])
GRID_LIMIT, WINDOW_LIMIT = 2 ** 16, 2 ** 12


def stream_actions(*command):
    """The parser's actions for the stream flags a subcommand (or a task of
    one, as in "report", "density") takes, by dest."""
    parser = build_parser()
    for name in command:
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    return {a.dest: a for a in parser._actions if a.dest in STREAM_FLAGS}


def flag_values(action):
    """Values of one flag: absent, an edge value of its type, or (for the
    untyped --geometry) WxH of edge values and some malformed text."""
    ints = st.integers(1, 32) | EDGES
    if action.type is int64:
        return st.none() | ints
    assert action.type is None and action.dest == "geometry"
    return st.none() | st.tuples(ints, ints) | st.sampled_from(["8by8", "x8", "4x", "4x4x4"])


@st.composite
def stream_draws(draw):
    command = draw(st.sampled_from(["cells", "density"]))
    actions = stream_actions(*(["report", "density"] if command == "density" else [command]))
    values = {dest: draw(flag_values(action)) for dest, action in actions.items()}
    return command, draw(st.sampled_from(["csv", "bin"])), actions, values


def allocation(command, fmt, values):
    """Entries the draw could have the command allocate: cell-grid counts
    (cells) or density windows; 0 where a flag is refused first."""
    ints = {k: v for k, v in values.items() if k != "geometry" and v is not None}
    if any(v not in INT64 for v in ints.values()):
        return 0
    if ("t0_us" in ints) != ("span_us" in ints) or min(ints.values(), default=0) < 0:
        return 0
    geometry = values["geometry"]
    if geometry is not None and (not isinstance(geometry, tuple)
                                 or any(v not in INT64 for v in geometry)):
        return 0                        # malformed: refused even beside a binary file
    if fmt == "csv" and (geometry is None or min(geometry) < 1):
        return 0
    w, h = geometry if fmt == "csv" else (TINY.width, TINY.height)    # a binary file's own
    span = ints.get("span_us", TINY.span_us)
    dt = ints.get("dt_us", 10000 if command == "density" else 0)    # cells needs --dt-us
    if dt < 1:
        return 0
    if command == "density":
        return span // dt
    n = ints.get("n_cells", span // dt)
    return n * 2 * h * w if n > 0 else 0


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream_flags")
    (root / "tiny.csv").write_bytes(serialize_events_csv(TINY))
    (root / "tiny.bin").write_bytes(serialize_events_binary(TINY))
    return root


@given(draw=stream_draws())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                  HealthCheck.filter_too_much])
def test_stream_flags(tiny_files, draw):
    """Any mix of the stream flags exits 0 or 2; argparse's refusal prints
    its usage and one error line, every other refusal only the one line."""
    command, fmt, actions, values = draw
    size = allocation(command, fmt, values)
    assume(size <= (WINDOW_LIMIT if command == "density" else GRID_LIMIT) or size > INT64_MAX)
    argv = ["report", "density"] if command == "density" else ["cells"]
    argv += ["--events", str(tiny_files / f"tiny.{fmt}"), "--out-dir", str(tiny_files / "out")]
    for dest, value in values.items():
        if value is not None:
            text = "x".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv += [actions[dest].option_strings[0], text]
    rc, lines = run(argv)
    assert rc in (0, 2), (argv, lines)
    if rc == 2:
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and (len(lines) == 1 or lines[0].startswith("usage: ")), lines


# ---------------------------------------------------------------------------
# classifier flags
# ---------------------------------------------------------------------------

POLICIES = ["adaptive", "fixed-duration", "fixed-count", "random"]
INT64_EDGES = st.sampled_from([0, -1, 2 ** 62, INT64_MAX, -INT64_MAX - 1])
# sizes and pass counts stay small: the classifier allocates hidden x pixels
COMPARE_FLAGS = {
    "--clf-hidden": st.integers(-2, 16),
    "--clf-lr": st.floats(-2, 2) | st.sampled_from(["nan", "inf", "-inf"]),
    "--clf-passes": st.integers(-2, 3),
    "--clf-seed": st.integers(0, 16) | INT64_EDGES,
    "--target-events": st.integers(1, 64) | INT64_EDGES,
    "--policies": st.lists(st.sampled_from(POLICIES + ["zzz", ""]), min_size=1,
                           max_size=4).map(",".join),
    "--repr": st.sampled_from(REPR_KINDS),
}


def given_flags(draws):
    """--flag=value for each flag drawn, so that a value such as -inf is
    not read as a flag."""
    return [f"{flag}={value}" for flag, value in draws.items() if value is not None]


@given(draws=st.fixed_dictionaries({flag: st.none() | values
                                    for flag, values in COMPARE_FLAGS.items()}))
@FIELD_SETTINGS
def test_compare_flags(base, draws):
    labelled = [f"{base / 'events.csv'}:{label}" for label in (0, 1)]
    assert_clean_exit(*run(["report", "compare", "--checkpoint", str(base / "net.sslc"),
                            "--train", *labelled, "--test", *labelled, "--geometry", "8x8",
                            "--dt-us", "1000", "--out-dir", str(base / "compare"),
                            *given_flags(draws)]))


@given(draws=st.fixed_dictionaries({"--repr": st.sampled_from(REPR_KINDS),
                                    "--n-bins": st.none() | st.integers(-1, 4)}))
@FIELD_SETTINGS
def test_classifier_feedback_flags(base, draws):
    config = base / "classifier.json"
    config.write_text(json.dumps(FEEDBACK))
    assert_clean_exit(*run(["train", "feedback", "--oracle", "classifier",
                            "--events", *[f"{base / 'events.csv'}:{label}" for label in (0, 1)],
                            "--geometry", "8x8", "--config", str(config),
                            "--out-dir", str(base / "classifier"), *given_flags(draws)]))

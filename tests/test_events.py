import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evslicer.events import (
    EventStream, EventFormatError, Scenario, build_cells, cell_interval,
    event_density, event_group, density_profile, parse_events,
    parse_events_csv, parse_events_binary, render, serialize_events_csv,
    serialize_events_binary, synth_stream,
)


def make_stream(events, width=8, height=8, t0=None, span_us=None):
    arr = np.array(events, dtype=np.int64).reshape(-1, 4)
    kwargs = {}
    if t0 is not None:
        kwargs = {"t0": t0, "span_us": span_us}
    return EventStream(width=width, height=height, t=arr[:, 0], x=arr[:, 1],
                       y=arr[:, 2], p=arr[:, 3], **kwargs)


# ---------------------------------------------------------------------------
# cells and intervals
# ---------------------------------------------------------------------------

def test_cell_interval_is_half_open_tiling():
    assert cell_interval(0, 100, 50) == (100, 150)
    assert cell_interval(3, 100, 50) == (250, 300)


def test_boundary_event_goes_to_later_cell():
    # an event exactly on a boundary belongs to the window that starts there
    s = make_stream([[50, 0, 0, 1]], t0=0, span_us=100)
    cells = build_cells(s, 50)
    assert cells.counts().tolist() == [0.0, 1.0]


def test_build_cells_counts_and_polarity_channels():
    s = make_stream([
        [0, 1, 2, 1], [10, 1, 2, 1], [20, 3, 4, -1],   # cell 0
        [55, 1, 2, -1],                                  # cell 1
    ], t0=0, span_us=100)
    cells = build_cells(s, 50)
    assert len(cells) == 2
    assert cells.grids[0, 0, 2, 1] == 2.0    # channel 0 = +1
    assert cells.grids[0, 1, 4, 3] == 1.0    # channel 1 = -1
    assert cells.grids[1, 1, 2, 1] == 1.0
    assert cells.dropped_tail_events == 0


def test_build_cells_drops_partial_tail():
    s = make_stream([[10, 0, 0, 1], [120, 0, 0, 1]], t0=0, span_us=130)
    cells = build_cells(s, 50)   # 130 // 50 = 2 cells; event at 120 dropped
    assert len(cells) == 2
    assert cells.dropped_tail_events == 1
    assert cells.counts().sum() == 1.0


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_cells_reconstruct_per_window_event_counts(seed, dt_ms, n_cells):
    r = np.random.Generator(np.random.PCG64(seed))
    dt = dt_ms * 1000
    span = dt * n_cells
    n = int(r.integers(0, 80))
    if n == 0:
        return
    t = np.sort(r.integers(0, span, size=n))
    s = EventStream(width=8, height=8, t=t, x=r.integers(0, 8, n), y=r.integers(0, 8, n),
                    p=r.choice([-1, 1], n), t0=0, span_us=span)
    cells = build_cells(s, dt)
    for i in range(n_cells):
        lo, hi = cells.interval(i)
        assert cells.counts()[i] == len(event_group(s, lo, hi))
    assert cells.counts().sum() == n


# ---------------------------------------------------------------------------
# groups and representations
# ---------------------------------------------------------------------------

def test_event_group_is_half_open():
    s = make_stream([[100, 0, 0, 1], [200, 1, 1, 1], [300, 2, 2, -1]], t0=0, span_us=400)
    g = event_group(s, 100, 300)
    assert len(g) == 2
    assert g.t.tolist() == [100, 200]


def test_frame_counts_match_group():
    s = make_stream([[0, 1, 1, 1], [10, 1, 1, 1], [20, 2, 3, -1]], t0=0, span_us=100)
    rep = render(event_group(s, 0, 100), "frame")
    assert rep.tensor.shape == (2, 8, 8)
    assert rep.tensor[0, 1, 1] == 2.0
    assert rep.tensor[1, 3, 2] == 1.0
    assert rep.tensor.sum() == rep.n_events == 3


def test_voxel_midpoint_split_two_bins():
    # event exactly mid-interval with two bins lands half in each
    s = make_stream([[50, 0, 0, 1]], t0=0, span_us=100)
    rep = render(event_group(s, 0, 100), "voxel", n_bins=2)
    assert rep.tensor.shape == (2, 2, 8, 8)
    assert rep.tensor[0, 0, 0, 0] == pytest.approx(0.5)
    assert rep.tensor[1, 0, 0, 0] == pytest.approx(0.5)


@given(st.integers(0, 10 ** 6), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_voxel_mass_conservation(seed, n_bins):
    r = np.random.Generator(np.random.PCG64(seed))
    n = int(r.integers(1, 60))
    t = np.sort(r.integers(0, 10_000, size=n))
    s = EventStream(width=6, height=6, t=t, x=r.integers(0, 6, n), y=r.integers(0, 6, n),
                    p=r.choice([-1, 1], n), t0=0, span_us=10_000)
    rep = render(event_group(s, 0, 10_000), "voxel", n_bins=n_bins)
    assert rep.tensor.sum() == pytest.approx(n, abs=1e-9)


def test_time_surface_decay_and_range():
    s = make_stream([[0, 0, 0, 1], [900, 1, 1, 1]], t0=0, span_us=1000)
    rep = render(event_group(s, 0, 1000), "time_surface", tau_us=400.0)
    assert rep.tensor[0, 0, 0] == pytest.approx(np.exp(-1000 / 400))
    assert rep.tensor[0, 1, 1] == pytest.approx(np.exp(-100 / 400))
    assert rep.tensor[1].sum() == 0.0
    assert (rep.tensor >= 0).all() and (rep.tensor <= 1).all()


def test_time_surface_keeps_most_recent_event_per_pixel():
    s = make_stream([[100, 2, 2, 1], [800, 2, 2, 1]], t0=0, span_us=1000)
    rep = render(event_group(s, 0, 1000), "time_surface", tau_us=500.0)
    assert rep.tensor[0, 2, 2] == pytest.approx(np.exp(-200 / 500))


def test_empty_group_renders_zero_tensors():
    s = make_stream([[5000, 0, 0, 1]], t0=0, span_us=10_000)
    g = event_group(s, 0, 1000)
    for kind in ("frame", "voxel", "time_surface"):
        rep = render(g, kind, tau_us=100.0)
        assert rep.tensor.sum() == 0.0
        assert rep.n_events == 0


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_hand_value():
    events = [[i * 500, 0, 0, 1] for i in range(10)]   # 10 events in 5 ms
    s = make_stream(events, t0=0, span_us=5000)
    assert event_density(s, 0, 5000) == pytest.approx(10 / 5000)


def test_density_profile_matches_schedule_contrast():
    sc = Scenario(width=16, height=16, duration_ms=400,
                  rate_per_ms=[[0, 200, 10.0], [200, 400, 30.0]],
                  speed_px_per_ms=[[0, 400, 0.05]])
    s = synth_stream(sc, seed=5)
    _, dens = density_profile(s, 50_000)
    first, second = dens[:4].mean(), dens[4:].mean()
    # 3x rate contrast: Poisson noise at ~2000 events/window is tiny
    assert second / first == pytest.approx(3.0, rel=0.15)


# ---------------------------------------------------------------------------
# synthetic streams
# ---------------------------------------------------------------------------

def test_synth_deterministic_and_in_bounds():
    sc = Scenario(width=24, height=20, duration_ms=300)
    a, b = synth_stream(sc, seed=9), synth_stream(sc, seed=9)
    assert serialize_events_binary(a) == serialize_events_binary(b)
    c = synth_stream(sc, seed=10)
    assert serialize_events_binary(a) != serialize_events_binary(c)
    assert a.x.max() < 24 and a.y.max() < 20
    assert a.t.max() < 300_000


def test_synth_poisson_counts_follow_schedule():
    sc = Scenario(width=16, height=16, duration_ms=2000,
                  rate_per_ms=[[0, 1000, 8.0], [1000, 2000, 24.0]],
                  speed_px_per_ms=[[0, 2000, 0.03]])
    s = synth_stream(sc, seed=3)
    first = len(event_group(s, 0, 1_000_000))
    second = len(event_group(s, 1_000_000, 2_000_000))
    # expected 8000 vs 24000, sigma ~ sqrt(n); allow 5 sigma
    assert abs(first - 8000) < 5 * np.sqrt(8000)
    assert abs(second - 24000) < 5 * np.sqrt(24000)


def test_synth_polarity_sides_flip_with_direction():
    # rightward bar: +1 events sit ahead of -1 events (mod wrap); leftward flips
    def mean_lead(stream):
        pos = stream.x[stream.p == 1].astype(float)
        neg = stream.x[stream.p == -1].astype(float)
        return pos.mean() - neg.mean()

    right = synth_stream(Scenario(width=64, height=8, duration_ms=200, jitter_px=0.0,
                                  start_x_px=32.0, speed_px_per_ms=[[0, 200, 0.02]],
                                  rate_per_ms=[[0, 200, 30.0]]), seed=1)
    left = synth_stream(Scenario(width=64, height=8, duration_ms=200, jitter_px=0.0,
                                 start_x_px=32.0, speed_px_per_ms=[[0, 200, -0.02]],
                                 rate_per_ms=[[0, 200, 30.0]]), seed=1)
    assert mean_lead(right) > 1.0
    assert mean_lead(left) < -1.0


def test_scenario_json_round_trip():
    sc = Scenario(width=48, duration_ms=500, rate_per_ms=[[0, 500, 12.5]])
    again = Scenario.from_json(sc.to_json())
    assert again == sc
    with pytest.raises(EventFormatError, match="unknown scenario fields"):
        Scenario.from_json('{"widht": 3}')


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip():
    s = make_stream([[0, 1, 2, 1], [10, 3, 4, -1]], t0=0, span_us=100)
    data = serialize_events_csv(s)
    assert data.decode().splitlines()[0] == "t_us,x,y,p"
    back = parse_events_csv(data, 8, 8, t0=0, span_us=100)
    assert serialize_events_csv(back) == data


def test_csv_header_only_is_empty_stream():
    s = parse_events_csv(b"t_us,x,y,p\n", 8, 8)
    assert len(s) == 0


def test_csv_errors_carry_line_numbers():
    with pytest.raises(EventFormatError, match="line 1"):
        parse_events_csv(b"time,x,y,p\n", 8, 8)
    with pytest.raises(EventFormatError, match="line 2"):
        parse_events_csv(b"t_us,x,y,p\n1,2\n", 8, 8)
    with pytest.raises(EventFormatError, match="line 3"):
        parse_events_csv(b"t_us,x,y,p\n1,2,3,1\n4,5,6,2\n", 8, 8)


def test_binary_round_trip_and_layout():
    s = make_stream([[7, 1, 2, 1], [9, 3, 4, -1]], t0=0, span_us=20)
    blob = serialize_events_binary(s)
    assert blob[:4] == b"SSEV"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:10], "little") == 8     # width
    assert int.from_bytes(blob[10:12], "little") == 8    # height
    assert int.from_bytes(blob[12:20], "little") == 2    # count
    back = parse_events_binary(blob, t0=0, span_us=20)
    assert back.width == 8 and back.height == 8
    assert serialize_events_binary(back) == blob


def test_binary_truncation_detected():
    s = make_stream([[7, 1, 2, 1]], t0=0, span_us=20)
    blob = serialize_events_binary(s)
    with pytest.raises(EventFormatError, match="truncated"):
        parse_events_binary(blob[:-3])


def test_csv_fields_outside_stored_range_carry_line_numbers():
    for row in ("5,-1,0,1", "5,0,65536,1", f"{2 ** 64},0,0,1", "-5,0,0,1"):
        with pytest.raises(EventFormatError, match="line 3"):
            parse_events_csv(f"t_us,x,y,p\n1,1,1,1\n{row}\n".encode(), 8, 8)


def _stream_or_rejected(parse, data):
    """Arbitrary input must parse to a stream or be rejected as malformed."""
    try:
        stream = parse(data)
    except (EventFormatError, ValueError):
        return
    assert isinstance(stream, EventStream)


_csv_value = st.one_of(st.integers(-2, 9), st.integers(-2 ** 66, 2 ** 66), st.text(max_size=3))
_csv_rows = st.lists(st.lists(_csv_value, min_size=3, max_size=5), max_size=6).map(
    lambda rows: ("t_us,x,y,p\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)).encode())


@given(st.one_of(st.binary(max_size=120), _csv_rows))
@settings(max_examples=300, deadline=None)
def test_csv_parser_fuzz(data):
    _stream_or_rejected(lambda d: parse_events_csv(d, 8, 8), data)


_binary_blob = st.tuples(st.integers(0, 2), st.integers(0, 9), st.integers(0, 9),
                         st.integers(0, 2 ** 64 - 1), st.binary(max_size=90)).map(
    lambda f: b"SSEV" + struct.pack("<IHHQ", *f[:4]) + f[4])


@given(st.one_of(st.binary(max_size=120), _binary_blob))
@settings(max_examples=300, deadline=None)
def test_binary_parser_fuzz(data):
    _stream_or_rejected(parse_events_binary, data)


def test_parse_dispatch_and_geometry_validation():
    with pytest.raises(EventFormatError, match="geometry"):
        parse_events(b"t_us,x,y,p\n", "csv")
    with pytest.raises(EventFormatError, match="exceed geometry"):
        parse_events_csv(b"t_us,x,y,p\n0,9,0,1\n", 8, 8)
    with pytest.raises(EventFormatError, match="unknown event format"):
        parse_events(b"", "hdf5")


def test_unsorted_input_is_sorted_stably():
    s = make_stream([[50, 1, 1, 1], [10, 2, 2, -1]], t0=0, span_us=100)
    assert s.t.tolist() == [10, 50]
    assert s.x.tolist() == [2, 1]

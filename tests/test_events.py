import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evslicer import events
from evslicer.events import (
    EventStream, EventFormatError, Scenario, build_cells, cell_interval,
    event_density, event_group, density_profile, parse_events,
    parse_events_csv, parse_events_binary, render, render_cells, serialize_events_csv,
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


def test_event_group_bounds_before_and_past_the_stream():
    s = make_stream([[100, 0, 0, 1], [200, 1, 1, 1], [300, 2, 2, -1]], t0=0, span_us=400)
    cases = {(-50, 150): (0, 1), (-10, -5): (0, 0), (250, 10 ** 6): (2, 3),
             (0, 2 ** 64 + 5): (0, 3), (2 ** 64, 2 ** 65): (3, 3), (301, 400): (3, 3)}
    for (lo, hi), (start, stop) in cases.items():
        g = event_group(s, lo, hi)
        assert (g.indices.start, g.indices.stop) == (start, stop), (lo, hi)
        assert (g.t_start_us, g.t_end_us) == (lo, hi)


def _assert_cell_groups_match_events(stream, dt):
    """Every cell-aligned group renders from the cells exactly as from its events."""
    cells = build_cells(stream, dt)
    n = len(cells)
    for first in range(n):
        for last in range(first, n):
            rep = render_cells(stream, cells, first, last)
            ref = render(event_group(stream, cells.interval(first)[0],
                                     cells.interval(last)[1]), "frame")
            assert rep.tensor.dtype == ref.tensor.dtype
            assert rep.tensor.tobytes() == ref.tensor.tobytes()
            assert (rep.n_events, rep.t_start_us, rep.t_end_us) == \
                (ref.n_events, ref.t_start_us, ref.t_end_us)
    return cells


@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 4), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_cell_frames_equal_rendered_frames(seed, n_cells, dt_hundreds, tail):
    r = np.random.Generator(np.random.PCG64(seed))
    dt = dt_hundreds * 100
    t0 = int(r.integers(0, 1000))
    span = n_cells * dt + tail       # events in the partial tail are dropped
    n = int(r.integers(0, 150))
    t = np.sort(r.integers(t0, t0 + span + 1, size=n))
    s = EventStream(width=5, height=4, t=t, x=r.integers(0, 5, n), y=r.integers(0, 4, n),
                    p=r.choice([-1, 1], n), t0=t0, span_us=span)
    _assert_cell_groups_match_events(s, dt)


def test_cell_frames_with_dropped_tail_events():
    s = make_stream([[0, 1, 1, 1], [99, 2, 3, -1], [100, 1, 1, -1], [250, 7, 7, 1],
                     [299, 0, 0, 1], [300, 4, 4, 1], [330, 5, 5, -1]], t0=0, span_us=330)
    cells = _assert_cell_groups_match_events(s, 100)
    assert len(cells) == 3 and cells.dropped_tail_events == 2
    assert render_cells(s, cells, 0, 2).n_events == 5


def test_cell_frames_of_an_event_free_stream_are_float64_zeros():
    s = EventStream(width=5, height=4, t=[], x=[], y=[], p=[], t0=546, span_us=100)
    cells = _assert_cell_groups_match_events(s, 100)
    assert cells.grids.dtype == np.float64 and not cells.grids.any()


@pytest.mark.parametrize("kind", ["voxel", "time_surface"])
def test_render_cells_reads_events_for_timed_kinds(kind):
    s = make_stream([[10, 1, 1, 1], [120, 2, 2, -1], [180, 1, 1, 1], [260, 3, 3, 1]],
                    t0=0, span_us=300)
    cells = build_cells(s, 100)
    rep = render_cells(s, cells, 1, 2, kind, n_bins=3)
    ref = render(event_group(s, 100, 300), kind, n_bins=3, tau_us=400.0)   # tau: 4 cells
    assert rep.tensor.tobytes() == ref.tensor.tobytes()
    assert rep.n_events == ref.n_events == 3


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


@given(stamps=st.lists(st.sampled_from([0, 1, 7, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1])
                       | st.integers(0, 50), max_size=12),
       starts=st.lists(st.integers(-2 ** 65, 2 ** 65) | st.integers(-5, 60), max_size=6),
       dt=st.integers(1, 2 ** 64))
@settings(max_examples=150, deadline=None)
def test_density_of_many_windows_matches_counting_each(stamps, starts, dt):
    """One search over all windows gives each window's count, as a loop over
    the stamps does, for bounds below 0 and beyond the uint64 range too."""
    t = np.array(sorted(stamps), dtype=np.uint64)
    zeros = np.zeros(t.size, dtype=np.int64)
    s = EventStream(width=1, height=1, t=t, x=zeros, y=zeros, p=zeros + 1,
                    t0=0, span_us=2 ** 64 - 1)
    want = [sum(a <= x < a + dt for x in t.tolist()) / float(dt) for a in starts]
    assert event_density(s, starts, dt).tolist() == want
    for a, w in zip(starts, want):
        assert event_density(s, a, dt) == w
        group = event_group(s, a, a + dt)
        assert len(group) / float(dt) == w


def test_density_profile_counts_each_window_half_open():
    r = np.random.Generator(np.random.PCG64(4))
    t = np.sort(r.integers(500, 500 + 1030 + 1, size=200))
    s = EventStream(width=8, height=8, t=t, x=r.integers(0, 8, 200), y=r.integers(0, 8, 200),
                    p=r.choice([-1, 1], 200), t0=500, span_us=1030)
    starts, dens = density_profile(s, 100)
    assert starts.tolist() == list(range(500, 1500, 100))
    expected = [len(event_group(s, lo, lo + 100)) / 100.0 for lo in starts.tolist()]
    assert dens.dtype == np.float64 and dens.tolist() == expected


def test_windows_near_the_top_of_the_timestamp_range():
    t0 = 2 ** 63 - 50
    s = EventStream(width=4, height=4, t=np.array([t0 + 5, 2 ** 63 + 20, 2 ** 64 - 1], np.uint64),
                    x=[1, 2, 3], y=[0, 1, 2], p=[1, -1, 1], t0=t0, span_us=2 ** 64 - 1 - t0)
    cells = build_cells(s, 100, n_cells=3)
    assert cells.counts().tolist() == [2.0, 0.0, 0.0] and cells.dropped_tail_events == 1
    _, dens = density_profile(s, 2 ** 62)
    assert dens.tolist() == [2 / 2 ** 62, 0.0]
    with pytest.raises(ValueError, match="dt_us must be positive"):
        density_profile(s, 0)


@pytest.mark.parametrize("n_cells", [2 ** 62, 2 ** 63 - 1])
def test_build_cells_refuses_a_grid_beyond_int64_before_allocating(n_cells):
    s = make_stream([[5, 1, 1, 1]], t0=0, span_us=100)
    with pytest.raises(ValueError, match="64-bit"):
        build_cells(s, 10, n_cells=n_cells)


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


@pytest.mark.parametrize("text, message", [
    ('[1, 2]', "must be a JSON object"),
    ('{"width": "abc"}', "'width' must be an integer"),
    ('{"height": 8.0}', "'height' must be an integer"),
    ('{"bar_width_px": true}', "'bar_width_px' must be an integer"),
    ('{"jitter_px": "wide"}', "'jitter_px' must be a number"),
    ('{"noise_rate_per_ms": NaN}', "'noise_rate_per_ms' must be a number"),
    ('{"rate_per_ms": 5}', "'rate_per_ms' must be a list of"),
    ('{"speed_px_per_ms": [[0, 10]]}', "'speed_px_per_ms' must be a list of"),
    ('{"rate_per_ms": [[0, 10, "x"]]}', "'rate_per_ms' must be a list of"),
    ('{"width": 0}', "width must lie in"),
    ('{"height": 65537}', "height must lie in"),
])
def test_scenario_fields_are_checked(text, message):
    with pytest.raises(EventFormatError, match=message):
        Scenario.from_json(text)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip():
    s = make_stream([[0, 1, 2, 1], [10, 3, 4, -1]], t0=0, span_us=100)
    data = serialize_events_csv(s)
    assert data.decode().splitlines()[0] == "t_us,x,y,p"
    back = parse_events_csv(data, 8, 8, t0=0, span_us=100)
    assert serialize_events_csv(back) == data


def test_csv_rows_are_written_as_plain_integers():
    s = EventStream(width=8, height=8, t=np.array([0, 2 ** 63 + 7], dtype=np.uint64),
                    x=[1, 7], y=[2, 0], p=[1, -1], t0=0, span_us=2 ** 63 + 7)
    assert serialize_events_csv(s) == b"t_us,x,y,p\n0,1,2,1\n9223372036854775815,7,0,-1\n"
    assert serialize_events_csv(make_stream([], t0=0, span_us=10)) == b"t_us,x,y,p\n"


def test_csv_header_only_is_empty_stream():
    for data in (b"t_us,x,y,p\n", b"t_us,x,y,p", b"t_us,x,y,p\r\n\n  \n", b"t_us,x,y,p\r\n\r\n"):
        assert events._csv_columns_fast(data) is None    # no rows: the scanner's
        assert len(parse_events_csv(data, 8, 8)) == 0


def test_csv_fast_path_reads_a_written_stream():
    s = synth_stream(Scenario(width=16, height=16, duration_ms=50, noise_rate_per_ms=3.0), seed=2)
    text = serialize_events_csv(s).decode()
    fast = events._csv_columns_fast(text)
    assert fast is not None
    for got, want in zip(fast, (s.t, s.x, s.y, s.p)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


_t_written = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(0, 2 ** 64 - 1),
                      st.sampled_from([0, 9, 10, 10 ** 19 - 1, 10 ** 19, 2 ** 64 - 1]))
_xy_written = st.one_of(st.integers(0, 65535), st.sampled_from([0, 9, 10, 65535]))


@given(st.lists(st.tuples(_t_written, _xy_written, _xy_written, st.sampled_from([1, -1])),
                min_size=1, max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "final", "final+blank"]))
@settings(max_examples=300, deadline=None)
def test_written_csv_takes_the_fast_path(rows, eol, ending):
    """Every stream serialize_events_csv writes, with '\n' or '\r\n' line ends,
    with or without a final newline and with a blank line after it, is read
    by the vectorised path, into the written arrays and the scanner's."""
    stream = EventStream(65536, 65536, *(np.array(c, dtype=d) for c, d in
                         zip(zip(*rows), (np.uint64, np.uint16, np.uint16, np.int8))))
    text = serialize_events_csv(stream).decode()
    text = {"": text.rstrip("\n"), "final": text, "final+blank": text + "\n"}[ending]
    text = text.replace("\n", eol)
    for data in (text, text.encode()):
        fast = events._csv_columns_fast(data)
        assert fast is not None
        assert _columns(fast) == _columns((stream.t, stream.x, stream.y, stream.p))
        assert _columns(fast) == _columns(events._csv_columns_scan(text))


@pytest.mark.parametrize("body", [
    "1,2,3,1\r4,5,6,-1\n",              # a lone '\r' ends a line
    "1, 2,3,1\n", "1,2,3,1 \n", " 1,2,3,1\n", "1,2,3,\t-1\n",   # whitespace in a row
    "+1,2,3,1\n", "1,2,3,+1\n",          # '+' signs
    "1,2,3,1\n\n4,5,6,1\n",             # a blank line between rows
    "1,2,3\n1,5,6,7,1\n",                # 3 and 5 fields, as many commas as two rows
    "1,2,3,1\n \n",                      # a blank line of spaces after them
    "1,000002,3,1\n", "000000000000000000001,2,3,1\n",   # longer than 5 and 20 digits
    f"{2 ** 64},2,3,1\n",                 # past the stored range
])
def test_forms_the_fast_path_declines_go_to_the_scanner(body):
    text = "t_us,x,y,p\n" + body
    assert events._csv_columns_fast(text) is None
    assert _parsed_or_message(text) == _scanned_or_message(text)


def test_csv_errors_carry_line_numbers():
    with pytest.raises(EventFormatError, match="line 1"):
        parse_events_csv(b"time,x,y,p\n", 8, 8)
    with pytest.raises(EventFormatError, match="line 2"):
        parse_events_csv(b"t_us,x,y,p\n1,2\n", 8, 8)
    with pytest.raises(EventFormatError, match="line 3"):
        parse_events_csv(b"t_us,x,y,p\n1,2,3,1\n4,5,6,2\n", 8, 8)


@pytest.mark.parametrize("data, line", [
    (b"t_us,x,y,p\n1,2,3,1\n\xff,1,1,1\n", 3),
    (b"t_us,x,y,p\n1,2,3,1\n1,1,1,1\xe2\x82", 3),       # a cut multi-byte sequence
    (b"t_us,x,y,p\r1,2,3,1\r\x80\n", 3),                # numbered as splitlines numbers
    (b"\xfft_us,x,y,p\n", 1),
])
def test_csv_byte_that_is_not_utf8_names_its_line(data, line):
    with pytest.raises(EventFormatError, match=f"^line {line}: byte 0x.. is not UTF-8"):
        parse_events_csv(data, 8, 8)


@pytest.mark.parametrize("window", [dict(t0=0), dict(span_us=20), dict(t0=5)])
def test_window_override_needs_both_halves(window):
    s = make_stream([[7, 1, 2, 1], [9, 3, 4, -1]], t0=0, span_us=20)
    for parse in (lambda: parse_events_csv(serialize_events_csv(s), 8, 8, **window),
                  lambda: parse_events_binary(serialize_events_binary(s), **window),
                  lambda: EventStream(8, 8, s.t, s.x, s.y, s.p, **window)):
        with pytest.raises(EventFormatError, match="go together"):
            parse()


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


def _columns(arrays):
    return [(a.dtype.str, a.tobytes()) for a in arrays]


def _scanned_or_message(text):
    """The stream the line scanner alone makes of a CSV, or its error."""
    try:
        s = EventStream(70_000, 70_000, *events._csv_columns_scan(text))
    except EventFormatError as err:
        return str(err)
    return _columns((s.t, s.x, s.y, s.p))


def _parsed_or_message(text):
    try:
        s = parse_events_csv(text, 70_000, 70_000)
    except EventFormatError as err:
        return str(err)
    return _columns((s.t, s.x, s.y, s.p))


# whitespace that int(), splitlines and np.loadtxt treat differently
_csv_pad = st.sampled_from(["", "", " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
                            "\u2028"])
_csv_number = st.one_of(st.integers(-3, 70_000).map(str), st.integers(0, 2 ** 64 + 3).map(str),
                        st.sampled_from(["", "+1", "01", "-0", "1_0", "1.0", "1e2", "٣"]))
_csv_field = st.tuples(_csv_pad, _csv_number, _csv_pad).map("".join)
_csv_text_rows = st.lists(st.tuples(
    st.tuples(_csv_field, _csv_field, _csv_field,
              st.tuples(_csv_pad, st.sampled_from(["1", "-1", "0", "2", "+1"]), _csv_pad)
              .map("".join)).map(",".join),
    st.sampled_from(["\n", "\r\n", "\n\n", "\n \n", "\r", "\x0c", "\x1e", "\u2028"])),
    max_size=6).map(lambda rows: "t_us,x,y,p\n" + "".join(r + sep for r, sep in rows))
_csv_text_chars = st.text(alphabet=list("0123456789,-+ \t\r\n_.e#\"\x00\x0b\x1c\x1f\x85١"),
                          max_size=60).map(lambda body: "t_us,x,y,p\n" + body)


@given(st.one_of(_csv_text_rows, _csv_text_chars,
                 st.binary(max_size=120).map(lambda b: b.decode("latin-1"))))
@settings(max_examples=300, deadline=None)
def test_csv_fast_path_agrees_with_the_scanner(text):
    """The vectorised parse either declines or returns the scanner's arrays,
    and parse_events_csv gives the scanner's stream or error message."""
    fast = events._csv_columns_fast(text)
    if fast is not None:
        assert _columns(fast) == _columns(events._csv_columns_scan(text))
    assert _parsed_or_message(text) == _scanned_or_message(text)


@pytest.mark.parametrize("body", [
    "5,\x0b2,3,1\n", "5,2\x1f,3,1\n", "5,2\x0c,3,1\n", "5,2\x1c,3,1\n", "5,2\x85,3,1\n",
    "5,2\u2028,3,1\n", "5,2,3,1\x0b\n", "5,٣,3,1\n", "1,2,3,1\r4,5,6,-1\r", "1_0,2,3,1\n",
    f"{2 ** 63},2,3,1\n", "5, 2 ,3,\t-1\r\n\r\n6,2,3,1", "\n\n5,2,3,1\n   \n",
])
@pytest.mark.parametrize("head", ["t_us,x,y,p", "t_us,x,y,p\r", "\x0bt_us,x,y,p", " t_us,x,y,p "])
def test_csv_parse_equals_the_line_scanner(head, body):
    """Where np.loadtxt and the scanner read text differently, the scanner decides."""
    text = head + "\n" + body
    assert _parsed_or_message(text) == _scanned_or_message(text)


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


def test_polarity_outside_plus_minus_one_is_refused_with_the_values():
    """Every event's polarity is checked; the message lists each offending
    value once, in ascending order."""
    assert len(make_stream([[0, 0, 0, 1], [1, 0, 0, -1]])) == 2
    with pytest.raises(EventFormatError, match=r"polarity values outside \{-1,1\}: \[-3, 0, 2\]$"):
        make_stream([[0, 0, 0, 1], [1, 0, 0, 2], [2, 0, 0, 0], [3, 0, 0, -1], [4, 0, 0, 2],
                     [5, 0, 0, -3]])


@pytest.mark.parametrize("width, height", [(0, 8), (8, 0), (-1, 8)])
def test_geometry_needs_a_pixel_each_way(width, height):
    with pytest.raises(EventFormatError, match="at least one pixel each way"):
        EventStream(width, height, t=[], x=[], y=[], p=[], t0=0, span_us=100)
    blob = b"SSEV" + struct.pack("<IHHQ", 1, max(width, 0), max(height, 0), 0)
    with pytest.raises(EventFormatError, match="at least one pixel each way"):
        parse_events_binary(blob, t0=0, span_us=100)


def test_explicit_zero_window_is_used_as_given():
    empty = EventStream(8, 8, t=[], x=[], y=[], p=[], t0=0, span_us=0)
    assert (empty.t0, empty.span_us) == (0, 0)
    own = make_stream([[7, 1, 2, 1], [9, 3, 4, -1]])
    assert (own.t0, own.span_us) == (7, 2)
    with pytest.raises(EventFormatError, match="outside"):
        make_stream([[7, 1, 2, 1], [9, 3, 4, -1]], t0=0, span_us=0)


@pytest.mark.parametrize("t", [[2 ** 63 + 10, 5], [2 ** 64 - 1, 1, 2]])
def test_unsorted_stamps_more_than_2_63_apart_are_sorted(t):
    """Neighbours 2**63 or more apart: their difference wraps in int64."""
    s = EventStream(8, 8, t=np.array(t, np.uint64), x=range(len(t)), y=[0] * len(t),
                    p=[1] * len(t))
    assert s.t.tolist() == sorted(t)
    assert s.x.tolist() == sorted(range(len(t)), key=t.__getitem__)


def test_unsorted_input_is_sorted_stably():
    s = make_stream([[50, 1, 1, 1], [10, 2, 2, -1]], t0=0, span_us=100)
    assert s.t.tolist() == [10, 50]
    assert s.x.tolist() == [2, 1]

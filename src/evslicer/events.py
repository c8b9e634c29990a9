"""Event streams, fixed-duration cells, groups, and tensor representations.

An event is (t_us, x, y, p) with polarity p in {-1, +1}. A stream is a
time-sorted batch of events on a fixed sensor geometry. Streams are tiled
into half-open fixed-duration windows ("cells"); contiguous runs of cells
form groups ("slices"), which render to dense tensors for downstream
consumers. Polarity channel order everywhere: channel 0 = +1, channel 1 = -1.
"""
from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .schema import check_fields, declared, from_json

EVENT_MAGIC = b"SSEV"
EVENT_VERSION = 1

CSV_HEADER = "t_us,x,y,p"

_EVENT_STRUCT = struct.Struct("<QHHb")
_EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
_T_MAX = np.iinfo(np.uint64).max        # the stored field ranges
_XY_MAX = np.iinfo(np.uint16).max


class EventFormatError(ValueError):
    """Raised for malformed event files or out-of-range event fields."""


@dataclass
class EventStream:
    """Time-sorted events on a W x H sensor; t0/span define the covered window."""

    width: int
    height: int
    t: np.ndarray          # uint64 microseconds, non-decreasing
    x: np.ndarray          # uint16
    y: np.ndarray          # uint16
    p: np.ndarray          # int8, values in {-1, +1}
    t0: int = 0
    span_us: int = 0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.uint64)
        self.x = np.asarray(self.x, dtype=np.uint16)
        self.y = np.asarray(self.y, dtype=np.uint16)
        self.p = np.asarray(self.p, dtype=np.int8)
        n = self.t.size
        if self.t0 < 0 or self.span_us < 0:
            raise EventFormatError(f"window t0={self.t0} span={self.span_us} must not be negative")
        if not (self.x.size == self.y.size == self.p.size == n):
            raise EventFormatError("event field arrays differ in length")
        if n:
            if self.t.size > 1 and np.any(np.diff(self.t.astype(np.int64)) < 0):
                order = np.argsort(self.t, kind="stable")
                self.t, self.x, self.y, self.p = self.t[order], self.x[order], self.y[order], self.p[order]
            if int(self.x.max()) >= self.width or int(self.y.max()) >= self.height:
                raise EventFormatError(
                    f"event coordinates exceed geometry {self.width}x{self.height}"
                )
            bad = np.setdiff1d(np.unique(self.p), np.array([-1, 1], dtype=np.int8))
            if bad.size:
                raise EventFormatError(f"polarity values outside {{-1,1}}: {bad.tolist()}")
            lo, hi = int(self.t.min()), int(self.t.max())
            if self.span_us == 0 and self.t0 == 0:
                self.t0, self.span_us = lo, hi - lo
            if lo < self.t0 or hi > self.t0 + self.span_us:
                raise EventFormatError("event timestamps fall outside [t0, t0 + span]")

    def __len__(self):
        return int(self.t.size)

    @property
    def t_end(self):
        return self.t0 + self.span_us


@dataclass
class RawEventGroup:
    """Events of one slice plus the half-open interval it covers."""

    stream: EventStream
    t_start_us: int
    t_end_us: int
    indices: slice

    def __len__(self):
        return self.indices.stop - self.indices.start

    @property
    def t(self):
        return self.stream.t[self.indices]

    @property
    def x(self):
        return self.stream.x[self.indices]

    @property
    def y(self):
        return self.stream.y[self.indices]

    @property
    def p(self):
        return self.stream.p[self.indices]


@dataclass
class Representation:
    """Dense tensor view of a group: 'frame', 'voxel', or 'time_surface'."""

    kind: str
    tensor: np.ndarray
    t_start_us: int
    t_end_us: int
    n_events: int


@dataclass
class CellSequence:
    """Per-polarity count grids for N half-open windows of dt_us each."""

    grids: np.ndarray      # (N, 2, H, W) float64 counts
    t0: int
    dt_us: int
    dropped_tail_events: int = 0

    def __len__(self):
        return int(self.grids.shape[0])

    def interval(self, n):
        return cell_interval(n, self.t0, self.dt_us)

    def counts(self):
        """Total event count per cell, shape (N,)."""
        return self.grids.sum(axis=(1, 2, 3))


def cell_interval(n, t0, dt_us):
    """Half-open time window [t0 + n*dt, t0 + (n+1)*dt) of cell n."""
    if n < 0:
        raise ValueError(f"cell index must be non-negative, got {n}")
    start = t0 + n * dt_us
    return start, start + dt_us


def build_cells(stream, dt_us, n_cells=None):
    """Tile a stream into N = span // dt half-open count grids.

    A trailing partial window (and any event landing exactly on the final
    boundary) is dropped; the number of dropped events is recorded.
    """
    if dt_us <= 0:
        raise ValueError(f"dt_us must be positive, got {dt_us}")
    if n_cells is not None and n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    n = int(stream.span_us // dt_us if n_cells is None else n_cells)
    if n <= 0:
        raise ValueError(
            f"stream span {stream.span_us}us shorter than one {dt_us}us cell"
        )
    h, w = stream.height, stream.width
    idx = _window_index(stream, dt_us)
    keep = idx < n
    # one count per (cell, polarity, y, x); channel 0 = +1, channel 1 = -1.
    # Unit weights give float64 counts directly, without an int64 copy;
    # bincount still returns int64 for empty input, so the cast covers that.
    cell = idx[keep].astype(np.int64)
    flat = ((cell * 2 + (stream.p[keep] < 0)) * h + stream.y[keep]) * w + stream.x[keep]
    grids = np.bincount(flat, weights=np.ones(flat.size), minlength=n * 2 * h * w)
    grids = grids.astype(np.float64, copy=False).reshape(n, 2, h, w)
    dropped = int(len(stream) - flat.size)
    return CellSequence(grids=grids, t0=stream.t0, dt_us=int(dt_us), dropped_tail_events=dropped)


def _window_index(stream, dt_us):
    """Index (uint64) of the dt_us window since t0 that holds each event.
    Stamps are uint64 and never below t0, so the difference cannot wrap."""
    return (stream.t - np.uint64(stream.t0)) // np.uint64(dt_us)


def _first_at_or_after(t, bounds):
    """Index of the first of the sorted uint64 stamps t that is >= each of
    the integer bounds, in one search over the bounds clamped to uint64 (a
    Python int would make searchsorted convert the whole array)."""
    found = np.searchsorted(t, np.array([min(max(b, 0), _T_MAX) for b in bounds], np.uint64))
    found[[b > _T_MAX for b in bounds]] = t.size
    return found


def event_group(stream, t_start_us, t_end_us):
    """Events with t in the half-open interval [t_start, t_end)."""
    if t_end_us < t_start_us:
        raise ValueError(f"empty-ordered interval [{t_start_us}, {t_end_us})")
    lo, hi = _first_at_or_after(stream.t, (t_start_us, t_end_us)).tolist()
    return RawEventGroup(stream=stream, t_start_us=int(t_start_us), t_end_us=int(t_end_us),
                         indices=slice(lo, hi))


def render(group, kind="frame", n_bins=2, tau_us=None):
    """Render a group to a dense tensor representation.

    frame:        (2, H, W) per-polarity event counts.
    voxel:        (n_bins, 2, H, W) counts spread bilinearly across the time
                  axis of the group's own interval; total mass = event count.
    time_surface: (2, H, W) exp(-(t_end - t_last)/tau) of the most recent
                  event per pixel/polarity; tau defaults to 4x the group's
                  own interval. A group does not know the cell size, so
                  callers that want tau tied to cells (4 cells in the
                  slicer) pass tau_us.
    """
    stream = group.stream
    h, w = stream.height, stream.width
    xs = group.x.astype(np.intp)
    ys = group.y.astype(np.intp)
    ps = (group.p < 0).astype(np.intp)
    ts = group.t.astype(np.float64)
    n_ev = len(group)

    if kind == "frame":
        tensor = np.zeros((2, h, w), dtype=np.float64)
        np.add.at(tensor, (ps, ys, xs), 1.0)
    elif kind == "voxel":
        if n_bins < 1:
            raise ValueError(f"voxel needs n_bins >= 1, got {n_bins}")
        tensor = np.zeros((n_bins, 2, h, w), dtype=np.float64)
        if n_ev:
            span = max(group.t_end_us - group.t_start_us, 1)
            scaled = (n_bins - 1) * (ts - group.t_start_us) / span
            lo = np.floor(scaled).astype(np.intp)
            frac = scaled - lo
            np.add.at(tensor, (lo, ps, ys, xs), 1.0 - frac)
            hi_mask = frac > 0
            np.add.at(tensor, (lo[hi_mask] + 1, ps[hi_mask], ys[hi_mask], xs[hi_mask]), frac[hi_mask])
    elif kind == "time_surface":
        if tau_us is None:
            tau_us = max(group.t_end_us - group.t_start_us, 1) * 4.0
        tensor = np.zeros((2, h, w), dtype=np.float64)
        last = np.full((2, h, w), -1.0)
        # events are time-sorted, so plain assignment keeps the latest stamp
        last[ps, ys, xs] = ts
        seen = last >= 0
        tensor[seen] = np.exp(-(group.t_end_us - last[seen]) / float(tau_us))
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    return Representation(kind=kind, tensor=tensor, t_start_us=group.t_start_us,
                          t_end_us=group.t_end_us, n_events=n_ev)


def render_cells(stream, cells, first, last, kind="frame", n_bins=5, tau_us=None):
    """Render the group of cells first..last (inclusive) of `cells`, the
    cell sequence built from `stream`.

    A frame is the sum of the cells' count grids and its event count that
    frame's sum: the counts are integers, exact in float64, so both equal
    render(event_group(...), "frame") bit for bit without reading an event.
    Voxels and time surfaces need event times and are rendered from the
    group's events; tau_us defaults to 4 cells.
    """
    t_start, _ = cells.interval(first)
    _, t_end = cells.interval(last)
    if kind == "frame":
        frame = cells.grids[first:last + 1].sum(axis=0)
        return Representation(kind=kind, tensor=frame, t_start_us=t_start,
                              t_end_us=t_end, n_events=int(frame.sum()))
    if tau_us is None and kind == "time_surface":
        tau_us = 4.0 * cells.dt_us
    return render(event_group(stream, t_start, t_end), kind, n_bins=n_bins, tau_us=tau_us)


def event_density(stream, t_us, dt_us):
    """Events per microsecond in the half-open window [t, t + dt) of a start
    time t_us, or (an array) of each of a sequence of them, in one search."""
    if dt_us <= 0:
        raise ValueError(f"dt_us must be positive, got {dt_us}")
    starts = [int(t) for t in t_us] if np.iterable(t_us) else [int(t_us)]
    found = _first_at_or_after(stream.t, starts + [t + dt_us for t in starts])
    density = (found[len(starts):] - found[:len(starts)]) / float(dt_us)
    return density if np.iterable(t_us) else float(density[0])


def density_profile(stream, dt_us):
    """(window start times, events-per-us) tiled over the stream's span."""
    if dt_us <= 0:
        raise ValueError(f"dt_us must be positive, got {dt_us}")
    n = stream.span_us // dt_us
    starts = stream.t0 + np.arange(n, dtype=np.int64) * dt_us
    idx = _window_index(stream, dt_us)
    counts = np.bincount(idx[idx < n].astype(np.int64), minlength=n).astype(np.float64)
    return starts, counts / float(dt_us)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize_events_csv(stream):
    rows = map("{},{},{},{}\n".format, stream.t.tolist(), stream.x.tolist(),
               stream.y.tolist(), stream.p.tolist())
    return (CSV_HEADER + "\n" + "".join(rows)).encode("utf-8")


def parse_events_csv(data, width, height, t0=None, span_us=None):
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    columns = _csv_columns_fast(text)
    if columns is None:
        columns = _csv_columns_scan(text)
    kwargs = {}
    if t0 is not None:
        kwargs = {"t0": int(t0), "span_us": int(span_us)}
    t, x, y, p = columns
    return EventStream(width=width, height=height, t=t, x=x, y=y, p=p, **kwargs)


# What a row of the fast path may hold. Other text goes to the scanner:
# loadtxt strips all Unicode whitespace from a field, where int() refuses
# some of it and splitlines breaks lines at some of it.
_ROW_CHARS = b"0123456789+-, \t\r\n"


def _csv_columns_fast(text):
    """(t, x, y, p) arrays of a well-formed CSV in one vectorised parse, or
    None for any input this path rejects; _csv_columns_scan then decides.

    On rows of _ROW_CHARS, np.loadtxt takes only what int() takes (it also
    refuses t >= 2**63) and splits lines only where splitlines does (a lone
    '\r' it refuses), so an input it accepts yields the scanner's arrays. A
    body without rows never reaches loadtxt, which warns on empty input.
    """
    head, _, body = text.partition("\n")
    if (head not in (CSV_HEADER, CSV_HEADER + "\r") or not body.strip() or not body.isascii()
            or body.encode("ascii").translate(None, _ROW_CHARS)):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                          comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 4:
        return None
    t, x, y, p = rows.T
    if (t.min() < 0 or min(x.min(), y.min()) < 0 or max(x.max(), y.max()) > _XY_MAX
            or not np.all(np.abs(p) == 1)):
        return None
    return t.astype(np.uint64), x.astype(np.uint16), y.astype(np.uint16), p.astype(np.int8)


def _csv_columns_scan(text):
    """(t, x, y, p) arrays of a CSV, read line by line: the definition of the
    format, and of its line-numbered EventFormatError messages."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty>"
        raise EventFormatError(f"line 1: expected header {CSV_HEADER!r}, got {got!r}")
    ts, xs, ys, ps = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise EventFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            t, x, y, p = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as err:
            raise EventFormatError(f"line {lineno}: {err}") from None
        if p not in (-1, 1):
            raise EventFormatError(f"line {lineno}: polarity must be -1 or 1, got {p}")
        if not 0 <= t <= _T_MAX:
            raise EventFormatError(f"line {lineno}: timestamp {t} outside [0, {_T_MAX}]")
        if not (0 <= x <= _XY_MAX and 0 <= y <= _XY_MAX):
            raise EventFormatError(f"line {lineno}: coordinate ({x}, {y}) outside [0, {_XY_MAX}]")
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    return (np.array(ts, dtype=np.uint64), np.array(xs, dtype=np.uint16),
            np.array(ys, dtype=np.uint16), np.array(ps, dtype=np.int8))


def serialize_events_binary(stream):
    """Binary layout: magic "SSEV", version u32, width u16, height u16,
    count u64, then packed little-endian (t u64, x u16, y u16, p i8) records."""
    out = io.BytesIO()
    out.write(EVENT_MAGIC)
    out.write(struct.pack("<IHHQ", EVENT_VERSION, stream.width, stream.height, len(stream)))
    records = np.empty(len(stream), dtype=_EVENT_DTYPE)
    records["t"], records["x"], records["y"], records["p"] = stream.t, stream.x, stream.y, stream.p
    out.write(records.tobytes())
    return out.getvalue()


def parse_events_binary(data, t0=None, span_us=None):
    if len(data) < 20 or data[:4] != EVENT_MAGIC:
        raise EventFormatError(f"bad magic {data[:4]!r}, expected {EVENT_MAGIC!r}")
    version, width, height, count = struct.unpack_from("<IHHQ", data, 4)
    if version != EVENT_VERSION:
        raise EventFormatError(f"unsupported event container version {version}")
    need = 20 + count * _EVENT_STRUCT.size
    if len(data) < need:
        raise EventFormatError(f"truncated event file: need {need} bytes, have {len(data)}")
    records = np.frombuffer(data, dtype=_EVENT_DTYPE, count=count, offset=20)
    ts = records["t"].astype(np.uint64)
    xs = records["x"].astype(np.uint16)
    ys = records["y"].astype(np.uint16)
    ps = records["p"].astype(np.int8)
    kwargs = {}
    if t0 is not None:
        kwargs = {"t0": int(t0), "span_us": int(span_us)}
    return EventStream(width=width, height=height, t=ts, x=xs, y=ys, p=ps, **kwargs)


def parse_events(data, fmt, width=None, height=None, t0=None, span_us=None):
    if fmt == "csv":
        if width is None or height is None:
            raise EventFormatError("csv events need an explicit geometry (width/height)")
        return parse_events_csv(data, width, height, t0=t0, span_us=span_us)
    if fmt == "binary":
        return parse_events_binary(data, t0=t0, span_us=span_us)
    raise EventFormatError(f"unknown event format {fmt!r}")


# ---------------------------------------------------------------------------
# synthetic streams
# ---------------------------------------------------------------------------

Segments = list[tuple[float, float, float]]


@dataclass
class Scenario:
    """Script for a synthetic recording: a full-height bright bar translating
    horizontally (wrapping), emitting +1 events at its leading edge and -1 at
    its trailing edge, with piecewise-constant event rate and speed schedules.
    """

    width: int = declared(32, f"[1, {_XY_MAX + 1}]")    # x and y are stored as uint16
    height: int = declared(32, f"[1, {_XY_MAX + 1}]")
    duration_ms: int = declared(1000, "[0, inf)")
    # segments are [start_ms, end_ms, value]; gaps contribute nothing
    rate_per_ms: Segments = field(default_factory=lambda: [[0, 1000, 20.0]])
    speed_px_per_ms: Segments = field(default_factory=lambda: [[0, 1000, 0.05]])
    bar_width_px: int = declared(4, "[0, inf)")
    start_x_px: float = 0.0
    jitter_px: float = declared(1.0, "[0, inf)")
    noise_rate_per_ms: float = declared(0.0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)

    @staticmethod
    def from_json(text):
        return from_json(Scenario, json.loads(text), EventFormatError, "scenario")

    def to_json(self):
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def value_at(self, schedule, t_ms):
        for start, end, value in schedule:
            if start <= t_ms < end:
                return float(value)
        return 0.0


def synth_stream(scenario, seed=0):
    """Generate the scripted stream; byte-deterministic for a given seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sc = scenario
    ts, xs, ys, ps = [], [], [], []
    position = float(sc.start_x_px)
    half = sc.bar_width_px / 2.0
    for tick in range(int(sc.duration_ms)):
        speed = sc.value_at(sc.speed_px_per_ms, tick)
        rate = sc.value_at(sc.rate_per_ms, tick)
        direction = 1.0 if speed >= 0 else -1.0
        n_edge = int(rng.poisson(rate))
        n_noise = int(rng.poisson(sc.noise_rate_per_ms))
        if n_edge:
            offsets = rng.integers(0, 1000, size=n_edge)
            leading = rng.random(n_edge) < 0.5
            edge_x = np.where(leading, position + direction * half, position - direction * half)
            jitter = rng.normal(0.0, sc.jitter_px, size=n_edge) if sc.jitter_px > 0 else 0.0
            ex = np.mod(np.rint(edge_x + jitter), sc.width).astype(np.int64)
            ey = rng.integers(0, sc.height, size=n_edge)
            ts.append(tick * 1000 + offsets)
            xs.append(ex)
            ys.append(ey)
            ps.append(np.where(leading, 1, -1).astype(np.int8))
        if n_noise:
            ts.append(tick * 1000 + rng.integers(0, 1000, size=n_noise))
            xs.append(rng.integers(0, sc.width, size=n_noise))
            ys.append(rng.integers(0, sc.height, size=n_noise))
            ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), size=n_noise))
        position += speed
    if ts:
        t = np.concatenate(ts).astype(np.uint64)
        x = np.concatenate(xs).astype(np.uint16)
        y = np.concatenate(ys).astype(np.uint16)
        p = np.concatenate(ps).astype(np.int8)
        order = np.argsort(t, kind="stable")
        t, x, y, p = t[order], x[order], y[order], p[order]
    else:
        t = np.array([], dtype=np.uint64)
        x = np.array([], dtype=np.uint16)
        y = np.array([], dtype=np.uint16)
        p = np.array([], dtype=np.int8)
    return EventStream(width=sc.width, height=sc.height, t=t, x=x, y=y, p=p,
                       t0=0, span_us=int(sc.duration_ms) * 1000)

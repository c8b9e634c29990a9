"""Adaptive event slicing: run cells through the slicing net and cut wherever
the output neuron spikes.

The stream is tiled into fixed-duration cells; the net consumes them one by
one with persistent neuron state, and each output spike at step n_c closes
the group of cells (n_p, n_c] where n_p is the previous spike step
(initialized to -1 so cell 0 belongs to the first group). Groups are
contiguous and non-overlapping by construction; with the tail flush enabled
the groups partition all N cells exactly.

Also provides the non-adaptive baselines (fixed duration, fixed count,
random cuts) used in comparison reports — all expressed as right-edge cut
lists so every policy shares one decision builder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
# render stays a name of this module: perfbench's tracing test patches slicer.render
from .events import Representation, build_cells, event_density, render, render_cells  # noqa: F401
from .snn import first_spike_index

__all__ = [
    "SliceDecision", "spike_cuts", "decisions_from_cuts", "slice_stream",
    "slice_report", "rank_correlation", "fixed_duration_cuts", "fixed_count_cuts",
    "random_cuts", "decision_record",
]


@dataclass
class SliceDecision:
    """One emitted slice: an inclusive cell range, its real-time interval,
    the spike step that closed it (None for a flushed tail), the events it
    covers, and an optional rendered representation."""

    first_cell: int
    last_cell: int
    t_start_us: int
    t_end_us: int
    n_c: int | None
    n_events: int
    representation: Representation | None = None

    @property
    def n_cells(self):
        return self.last_cell - self.first_cell + 1

    @property
    def duration_us(self):
        return self.t_end_us - self.t_start_us


def spike_cuts(net, cells, reset_per_slice=False):
    """Output-spike steps over a cell sequence (the right edges of slices).

    Default: one continuous forward pass — neuron state carries across
    slices. reset_per_slice re-runs from a fresh state after every cut
    (ablation mode); note the hidden layers then see only the current
    segment.
    """
    grids = cells.grids
    n = grids.shape[0]
    with ad.no_grad():
        if not reset_per_slice:
            record = net.forward(grids)
            return [int(i) for i in np.flatnonzero(record.spikes)]
        cuts = []
        start = 0
        while start < n:
            record = net.forward(grids[start:])
            idx = first_spike_index(record)
            if idx is None:
                break
            cuts.append(start + idx)
            start += idx + 1
        return cuts


def decisions_from_cuts(stream, cells, cuts, repr_kind="frame", *,
                        flush_tail=True, n_bins=5, tau_us=None,
                        with_repr=True):
    """Turn right-edge cut indices into SliceDecisions over a cell sequence.

    Cut list must be strictly increasing within [0, N). A non-empty
    remainder after the last cut becomes a final flushed group (n_c None)
    unless flush_tail is off, in which case those cells are not emitted.
    """
    n = len(cells)
    prev = -1
    for c in cuts:
        if not prev < c < n:
            raise ValueError(f"cut {c} not strictly increasing within [0, {n})")
        prev = c
    decisions = []
    n_p = -1
    edges = list(cuts)
    if flush_tail and (not edges or edges[-1] < n - 1):
        edges.append(n - 1)
        tail_from = len(edges) - 1
    else:
        tail_from = len(edges)
    for k, edge in enumerate(edges):
        first, last = n_p + 1, edge
        # without a representation, the cell frame alone gives the count
        rep = render_cells(stream, cells, first, last, repr_kind if with_repr else "frame",
                           n_bins=n_bins, tau_us=tau_us)
        decisions.append(SliceDecision(
            first_cell=first, last_cell=last,
            t_start_us=rep.t_start_us, t_end_us=rep.t_end_us,
            n_c=None if k >= tail_from else edge,
            n_events=rep.n_events, representation=rep if with_repr else None,
        ))
        n_p = edge
    return decisions


def slice_stream(net, stream, dt_us, repr_kind="frame", *, flush_tail=True,
                 reset_per_slice=False, n_bins=5, tau_us=None, with_repr=True):
    """Slice a stream adaptively: tile into dt_us cells, cut at output
    spikes, render each group. Returns the list of SliceDecisions."""
    if (stream.height, stream.width) != tuple(net.in_hw):
        raise ValueError(
            f"stream geometry {stream.height}x{stream.width} does not match "
            f"network input {net.in_hw[0]}x{net.in_hw[1]}"
        )
    cells = build_cells(stream, dt_us)
    cuts = spike_cuts(net, cells, reset_per_slice=reset_per_slice)
    return decisions_from_cuts(stream, cells, cuts, repr_kind,
                               flush_tail=flush_tail, n_bins=n_bins,
                               tau_us=tau_us, with_repr=with_repr)


def slice_report(decisions, stream, n_cells, dt_us):
    """Slice statistics: durations, cells per slice, the duration percentage
    (mean cells / N, in percent), per-slice event counts, and the local
    event density (events/ms) in the final cell before each cut."""
    durations = [d.duration_us for d in decisions]
    cell_counts = [d.n_cells for d in decisions]
    event_counts = [d.n_events for d in decisions]
    starts = [d.t_end_us - dt_us for d in decisions]
    cut_density = (event_density(stream, starts, dt_us) * 1000.0).tolist()
    mean_cells = float(np.mean(cell_counts)) if cell_counts else 0.0
    return {
        "n_slices": len(decisions),
        "n_cells_total": int(n_cells),
        "durations_us": durations,
        "mean_duration_us": float(np.mean(durations)) if durations else 0.0,
        "cells_per_slice": cell_counts,
        "mean_cells_per_slice": mean_cells,
        "duration_pct": 100.0 * mean_cells / n_cells if n_cells else 0.0,
        "events_per_slice": event_counts,
        "mean_events_per_slice": float(np.mean(event_counts)) if event_counts else 0.0,
        "cut_density_per_ms": cut_density,
    }


def _average_ranks(values):
    """1-based ranks of values; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def rank_correlation(a, b):
    """Spearman's rho of two equally long samples: the Pearson correlation
    of their average-tie ranks, NaN if either sample is constant. Computed
    as scipy.stats.spearmanr does, which gives the same float."""
    ranks = np.column_stack([_average_ranks(np.asarray(v, dtype=np.float64)) for v in (a, b)])
    if (ranks == ranks[0]).all(axis=0).any():
        return float("nan")
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


# ---------------------------------------------------------------------------
# baseline cut policies
# ---------------------------------------------------------------------------

def fixed_duration_cuts(n_cells, n_slices):
    """Evenly spaced right edges partitioning n_cells into n_slices groups."""
    if not 1 <= n_slices <= n_cells:
        raise ValueError(f"cannot cut {n_cells} cells into {n_slices} slices")
    return [((i + 1) * n_cells) // n_slices - 1 for i in range(n_slices)]


def fixed_count_cuts(cells, target_events):
    """Cut each time the running event count reaches target_events.

    A remainder below the target is left to the tail flush.
    """
    if target_events <= 0:
        raise ValueError(f"target_events must be positive, got {target_events}")
    cuts = []
    running = 0.0
    for n, c in enumerate(cells.counts()):
        running += float(c)
        if running >= target_events:
            cuts.append(n)
            running = 0.0
    return cuts


def random_cuts(n_cells, n_slices, rng):
    """n_slices random contiguous groups covering all cells (seeded)."""
    if not 1 <= n_slices <= n_cells:
        raise ValueError(f"cannot cut {n_cells} cells into {n_slices} slices")
    interior = rng.choice(n_cells - 1, size=n_slices - 1, replace=False) if n_slices > 1 else []
    return sorted(int(i) for i in interior) + [n_cells - 1]


def decision_record(decision, repr_path=None):
    """JSON-ready dict for the decisions log."""
    return {
        "first_cell": decision.first_cell,
        "last_cell": decision.last_cell,
        "t_start_us": decision.t_start_us,
        "t_end_us": decision.t_end_us,
        "n_events": decision.n_events,
        "repr_path": repr_path,
    }

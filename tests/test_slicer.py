"""Slicing-loop tests: the frozen partition example, tail policies, decision
invariants, report statistics, and the baseline cut policies."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslicer.autodiff import Tensor
from evslicer.events import EventStream, build_cells
from evslicer.slicer import (
    decision_record,
    decisions_from_cuts,
    fixed_count_cuts,
    fixed_duration_cuts,
    random_cuts,
    rank_correlation,
    slice_report,
    slice_stream,
    spike_cuts,
)
from evslicer.snn import SlicerNet, SpikeRecord


class ScriptedNet:
    """Stand-in net that spikes at fixed absolute steps (continuous mode)."""

    def __init__(self, spike_steps):
        self.spike_steps = set(spike_steps)

    def forward(self, grids, relaxed=False, keep_state=False):
        n = grids.shape[0]
        spikes = np.array([1 if i in self.spike_steps else 0 for i in range(n)], dtype=np.int8)
        return SpikeRecord(spikes=spikes, potentials=np.zeros(n), noreset=Tensor(np.zeros(n)),
                           currents=np.zeros(n))


def make_stream(n_cells, dt_us=100, events_per_cell=3, seed=0, hw=(8, 8)):
    """Synthetic uniform stream whose span divides evenly into cells."""
    h, w = hw
    rng = np.random.default_rng(seed)
    span = n_cells * dt_us
    n_ev = n_cells * events_per_cell
    t = np.sort(rng.integers(0, span, size=n_ev))
    return EventStream(
        t=t.astype(np.int64),
        x=rng.integers(0, w, n_ev).astype(np.int64),
        y=rng.integers(0, h, n_ev).astype(np.int64),
        p=rng.choice([-1, 1], n_ev).astype(np.int64),
        width=w, height=h, t0=0, span_us=span,
    )


def count_net(in_hw=(8, 8), per_event=0.34):
    """Real one-linear-layer net whose current equals per_event * cell count."""
    net = SlicerNet("LN-IF", in_hw=in_hw, seed=0)
    params = net.named_parameters()
    params["fc0.weight"].data[:] = per_event
    params["fc0.bias"].data[:] = 0.0
    return net


class TestPartition:
    def test_frozen_two_spikes_with_tail(self):
        # spikes at {2, 5}, N=8: groups 0-2, 3-5, flushed tail 6-7
        stream = make_stream(8)
        cells = build_cells(stream, 100)
        decisions = decisions_from_cuts(stream, cells, [2, 5])
        assert [(d.first_cell, d.last_cell) for d in decisions] == [(0, 2), (3, 5), (6, 7)]
        assert [d.n_c for d in decisions] == [2, 5, None]
        assert decisions[0].t_start_us == 0 and decisions[0].t_end_us == 300
        assert decisions[2].t_start_us == 600 and decisions[2].t_end_us == 800

    def test_frozen_two_spikes_drop_tail(self):
        stream = make_stream(8)
        cells = build_cells(stream, 100)
        decisions = decisions_from_cuts(stream, cells, [2, 5], flush_tail=False)
        assert [(d.first_cell, d.last_cell) for d in decisions] == [(0, 2), (3, 5)]

    def test_every_step_spiking(self):
        stream = make_stream(6)
        net = ScriptedNet(range(6))
        decisions = slice_stream(net, stream, 100)
        assert len(decisions) == 6
        assert all(d.n_cells == 1 for d in decisions)

    def test_never_spikes(self):
        stream = make_stream(6)
        net = ScriptedNet([])
        assert slice_stream(net, stream, 100, flush_tail=False) == []
        flushed = slice_stream(net, stream, 100)
        assert len(flushed) == 1
        assert (flushed[0].first_cell, flushed[0].last_cell) == (0, 5)
        assert flushed[0].n_c is None

    def test_cut_validation(self):
        stream = make_stream(8)
        cells = build_cells(stream, 100)
        for bad in ([5, 2], [3, 3], [-1], [8]):
            with pytest.raises(ValueError, match="cut"):
                decisions_from_cuts(stream, cells, bad)

    def test_geometry_mismatch(self):
        stream = make_stream(8, hw=(8, 8))
        net = count_net(in_hw=(16, 16))
        with pytest.raises(ValueError, match=r"geometry \(C, H, W\) \(2, 8, 8\) does not match "
                                             r"the network input \(2, 16, 16\)"):
            slice_stream(net, stream, 100)

    @given(
        n_cells=st.integers(2, 20),
        cut_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_cells, cut_seed):
        # any spike set: ranges contiguous, non-overlapping, and with the
        # flush they cover every cell; rendered counts account for every event
        rng = np.random.default_rng(cut_seed)
        n_spikes = int(rng.integers(0, n_cells + 1))
        cuts = sorted(int(i) for i in rng.choice(n_cells, n_spikes, replace=False))
        stream = make_stream(n_cells, seed=cut_seed)
        cells = build_cells(stream, 100)
        decisions = decisions_from_cuts(stream, cells, cuts)
        assert decisions[0].first_cell == 0
        assert decisions[-1].last_cell == n_cells - 1
        for a, b in zip(decisions, decisions[1:]):
            assert b.first_cell == a.last_cell + 1
        assert sum(d.n_events for d in decisions) == len(stream)
        assert sum(d.representation.tensor.sum() for d in decisions) == len(stream)

    def test_determinism(self):
        stream = make_stream(12, events_per_cell=5)
        net = count_net(per_event=0.11)
        first = slice_stream(net, stream, 100)
        second = slice_stream(net, stream, 100)
        assert [(d.first_cell, d.last_cell) for d in first] == \
               [(d.first_cell, d.last_cell) for d in second]

    def test_reset_mode_matches_for_stateless_single_neuron(self):
        # with only the output neuron holding state, a post-spike reset is
        # exactly what the continuous loop does anyway -> identical cuts
        stream = make_stream(12, events_per_cell=5, seed=3)
        net = count_net(per_event=0.09)
        cells = build_cells(stream, 100)
        assert spike_cuts(net, cells) == spike_cuts(net, cells, reset_per_slice=True)


class TestRepresentations:
    def test_frame_payload(self):
        stream = make_stream(8)
        net = ScriptedNet([3])
        decisions = slice_stream(net, stream, 100, repr_kind="frame")
        rep = decisions[0].representation
        assert rep.kind == "frame" and rep.tensor.shape == (2, 8, 8)
        assert rep.tensor.sum() == decisions[0].n_events

    def test_voxel_payload(self):
        stream = make_stream(8)
        net = ScriptedNet([3])
        decisions = slice_stream(net, stream, 100, repr_kind="voxel", n_bins=4)
        rep = decisions[0].representation
        assert rep.tensor.shape == (4, 2, 8, 8)
        assert rep.tensor.sum() == pytest.approx(decisions[0].n_events)

    def test_time_surface_payload(self):
        stream = make_stream(8)
        net = ScriptedNet([3])
        decisions = slice_stream(net, stream, 100, repr_kind="time_surface")
        rep = decisions[0].representation
        assert rep.tensor.shape == (2, 8, 8)
        assert 0.0 <= rep.tensor.min() and rep.tensor.max() <= 1.0

    def test_no_repr_mode(self):
        stream = make_stream(8)
        net = ScriptedNet([3])
        decisions = slice_stream(net, stream, 100, with_repr=False)
        assert all(d.representation is None for d in decisions)


class TestReport:
    def test_every_step_duration_pct(self):
        stream = make_stream(10)
        decisions = slice_stream(ScriptedNet(range(10)), stream, 100)
        rep = slice_report(decisions, stream, 10, 100)
        assert rep["duration_pct"] == pytest.approx(100.0 / 10)
        assert rep["n_slices"] == 10

    def test_single_slice_duration_pct(self):
        stream = make_stream(10)
        decisions = slice_stream(ScriptedNet([]), stream, 100)
        rep = slice_report(decisions, stream, 10, 100)
        assert rep["duration_pct"] == pytest.approx(100.0)

    def test_hand_statistics(self):
        # two slices of 3 and 5 cells at dt=100us
        stream = make_stream(8, events_per_cell=2, seed=1)
        cells = build_cells(stream, 100)
        decisions = decisions_from_cuts(stream, cells, [2])
        rep = slice_report(decisions, stream, 8, 100)
        assert rep["cells_per_slice"] == [3, 5]
        assert rep["durations_us"] == [300, 500]
        assert rep["mean_cells_per_slice"] == pytest.approx(4.0)
        assert rep["duration_pct"] == pytest.approx(50.0)
        assert sum(rep["events_per_slice"]) == len(stream)

    def test_cut_density_is_last_cell_density(self):
        stream = make_stream(8, events_per_cell=4, seed=2)
        cells = build_cells(stream, 100)
        decisions = decisions_from_cuts(stream, cells, [2])
        rep = slice_report(decisions, stream, 8, 100)
        counts = cells.counts()
        assert rep["cut_density_per_ms"][0] == pytest.approx(counts[2] / 100 * 1000)
        assert rep["cut_density_per_ms"][1] == pytest.approx(counts[7] / 100 * 1000)


class TestRankCorrelation:
    def test_hand_value_with_ties(self):
        # ranks [1, 2.5, 2.5, 4] and [1, 3, 2, 4]: rho = 4.5 / sqrt(4.5 * 5)
        assert rank_correlation([1, 2, 2, 3], [10, 30, 20, 40]) == pytest.approx(np.sqrt(0.9),
                                                                                rel=1e-15)

    def test_monotone_and_constant_samples(self):
        x = [0.3, 5.0, 1.0, 2.0, 2.0]
        assert rank_correlation(x, np.exp(x)) == pytest.approx(1.0)
        assert rank_correlation(x, [-v for v in x]) == pytest.approx(-1.0)
        assert np.isnan(rank_correlation(x, [7.0] * 5))

    @given(st.lists(st.tuples(st.integers(0, 6), st.floats(-1e6, 1e6)), min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_same_float_as_scipy(self, pairs):
        stats = pytest.importorskip("scipy.stats")
        a, b = (np.array(v, dtype=float) for v in zip(*pairs))
        if (a == a[0]).all() or (b == b[0]).all():
            assert np.isnan(rank_correlation(a, b))
        else:
            assert rank_correlation(a, b) == float(stats.spearmanr(a, b).statistic)


class TestBaselines:
    def test_fixed_duration_partition(self):
        assert fixed_duration_cuts(10, 3) == [2, 5, 9]
        assert fixed_duration_cuts(6, 6) == [0, 1, 2, 3, 4, 5]
        assert fixed_duration_cuts(5, 1) == [4]
        with pytest.raises(ValueError):
            fixed_duration_cuts(3, 4)

    def test_fixed_duration_balanced(self):
        cuts = fixed_duration_cuts(17, 5)
        sizes = np.diff([-1] + cuts)
        assert cuts[-1] == 16
        assert sizes.max() - sizes.min() <= 1

    def test_fixed_count_frozen(self):
        stream = make_stream(6)
        cells = build_cells(stream, 100)
        cells.grids[:] = 0.0
        for n, c in enumerate([3, 1, 2, 4, 0, 5]):
            cells.grids[n, 0, 0, 0] = c
        assert fixed_count_cuts(cells, 4) == [1, 3, 5]
        assert fixed_count_cuts(cells, 100) == []
        with pytest.raises(ValueError):
            fixed_count_cuts(cells, 0)

    def test_random_cuts_seeded_partition(self):
        rng = np.random.default_rng(5)
        cuts = random_cuts(12, 4, rng)
        assert len(cuts) == 4 and cuts[-1] == 11
        assert cuts == sorted(set(cuts))
        again = random_cuts(12, 4, np.random.default_rng(5))
        assert cuts == again

    def test_decision_record_keys(self):
        stream = make_stream(8)
        cells = build_cells(stream, 100)
        (dec,) = decisions_from_cuts(stream, cells, [7])
        rec = decision_record(dec, repr_path="slices/000.sslc")
        assert rec == {
            "first_cell": 0, "last_cell": 7, "t_start_us": 0, "t_end_us": 800,
            "n_events": dec.n_events, "repr_path": "slices/000.sslc",
        }

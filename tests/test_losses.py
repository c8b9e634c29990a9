"""Timing-loss unit tests: frozen hand values, gate logic, bound properties,
finite-difference gradients, and the alpha update rule."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslicer.autodiff import Tensor
from evslicer.losses import (
    membrane_bounds,
    membrane_loss,
    membrane_target,
    ramp_loss,
    timing_loss,
    update_alpha,
)
from evslicer.snn import NeuronConfig, SpikeRecord

from gradcheck import check_grads

IF = NeuronConfig()  # beta=1, gamma=1, v_th=1, v_reset=0


def scalar(x):
    return Tensor(np.array([[float(x)]]))


def leaf(x):
    return Tensor(np.array([[float(x)]]), requires_grad=True)


def make_record(u_vals, i_vals, spikes):
    return SpikeRecord(
        spikes=np.array(spikes, dtype=np.int8),
        potentials=np.array(u_vals, dtype=np.float64),
        noreset=[leaf(u) for u in u_vals],
        currents=np.array(i_vals, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# membrane loss
# ---------------------------------------------------------------------------

class TestMembraneLoss:
    def test_hand_value(self):
        # beta=0.9, gamma=1, v_th=1, I=0.3: upper = max(1.2, 1) = 1.2,
        # alpha=0.5 target = 1.1, U = 0.8 -> loss (0.8-1.1)^2 = 0.09
        cfg = NeuronConfig(beta=0.9)
        loss = membrane_loss(leaf(0.8), 0.3, 0.5, cfg)
        assert loss.item() == pytest.approx(0.09, abs=1e-12)

    def test_lower_bound_fixed_point(self):
        # alpha=0 targets the lower bound v_th exactly
        loss = membrane_loss(leaf(1.0), 0.7, 0.0, IF)
        assert loss.item() == 0.0

    def test_upper_clamp_makes_target_alpha_independent(self):
        # beta=0.5, I=0.1: beta*v_th + gamma*I = 0.6 < v_th, so the band
        # collapses and the target is v_th for every alpha
        cfg = NeuronConfig(beta=0.5)
        for alpha in (0.0, 0.3, 1.0):
            assert membrane_target(0.1, alpha, cfg) == pytest.approx(1.0)

    def test_i_star_accepts_tensor_and_detaches(self):
        i = leaf(0.3)
        u = leaf(0.8)
        loss = membrane_loss(u, i, 0.5, NeuronConfig(beta=0.9))
        loss.backward()
        assert i.grad is None          # target is a constant
        assert u.grad is not None

    def test_alpha_out_of_range_clamped_with_warning(self):
        cfg = NeuronConfig(beta=0.9)
        with pytest.warns(UserWarning, match="clamped"):
            hot = membrane_loss(leaf(0.8), 0.3, 1.5, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinned = membrane_loss(leaf(0.8), 0.3, 1.0, cfg)
        assert hot.item() == pytest.approx(pinned.item())

    @given(
        alpha=st.floats(0.0, 1.0),
        i=st.floats(-1.0, 2.0),
        beta=st.floats(0.1, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_target_stays_inside_band(self, alpha, i, beta):
        cfg = NeuronConfig(beta=beta)
        lower, upper = membrane_bounds(i, cfg)
        target = membrane_target(i, alpha, cfg)
        assert lower == cfg.v_th
        assert upper == max(beta * cfg.v_th + cfg.gamma * i, cfg.v_th)
        assert lower - 1e-12 <= target <= upper + 1e-12


# ---------------------------------------------------------------------------
# ramp loss
# ---------------------------------------------------------------------------

class TestRampLoss:
    def test_hand_value(self):
        # v_th=1, spike at position 2 of 4 (0-based 1 of 3), U[n_c]=0.9:
        # target 1*2/4 = 0.5, loss (0.9-0.5)^2 = 0.16
        u = [scalar(0.2), leaf(0.9), scalar(0.5), scalar(0.8)]
        loss = ramp_loss(u, 1, 3, v_th=1.0)
        assert loss.item() == pytest.approx(0.16, abs=1e-12)

    def test_gate_late_or_on_time_spike(self):
        u = [scalar(0.2), scalar(1.5), scalar(0.5), scalar(0.8)]
        assert ramp_loss(u, 3, 3, 1.0).item() == 0.0
        assert ramp_loss(u, 3, 1, 1.0).item() == 0.0

    def test_gate_no_spike(self):
        u = [scalar(0.2), scalar(0.9)]
        assert ramp_loss(u, None, 1, 1.0).item() == 0.0

    def test_gate_below_target_potential(self):
        # early spike but U[n_c] < U[n*]: the hump has already flattened
        u = [scalar(0.2), scalar(0.7), scalar(0.5), scalar(0.8)]
        assert ramp_loss(u, 1, 3, 1.0).item() == 0.0

    def test_desired_step_out_of_range(self):
        u = [scalar(0.2), scalar(0.9)]
        with pytest.raises(ValueError, match="outside trace"):
            ramp_loss(u, 0, 5, 1.0)

    def test_first_step_spike_has_positive_target(self):
        # 1-based positions: early spike at step 0 targets v_th/(n*+1), not 0
        u = [leaf(0.9), scalar(0.5), scalar(0.8)]
        loss = ramp_loss(u, 0, 2, v_th=1.0)
        expected = (0.9 - 1.0 / 3.0) ** 2
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    @given(
        data=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=8),
        n_c=st.integers(0, 7),
        n_star=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_exactly_when_gated(self, data, n_c, n_star):
        n = len(data)
        n_c, n_star = n_c % n, n_star % n
        u = [scalar(v) for v in data]
        loss = ramp_loss(u, n_c, n_star, 1.0).item()
        gate = n_c < n_star and data[n_c] >= data[n_star]
        if not gate:
            assert loss == 0.0
        else:
            target = (n_c + 1) / (n_star + 1)
            assert loss == pytest.approx((data[n_c] - target) ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------

class TestTimingLoss:
    def test_hand_value_sum(self):
        # membrane 0.09 + ramp 0.16 = 0.25 on a fabricated trace
        rec = make_record(
            u_vals=[0.2, 0.9, 0.5, 0.8],
            i_vals=[0.0, 0.0, 0.0, 0.3],
            spikes=[0, 1, 0, 0],
        )
        parts = timing_loss(rec, n_star=3, alpha=0.5, neuron=NeuronConfig(beta=0.9))
        assert parts.mem == pytest.approx(0.09, abs=1e-12)
        assert parts.ramp == pytest.approx(0.16, abs=1e-12)
        assert parts.total.item() == pytest.approx(0.25, abs=1e-12)
        assert parts.n_c == 1 and parts.ramp_active and not parts.no_spike

    def test_inactive_ramp_leaves_membrane_alone(self):
        rec = make_record([0.2, 0.4, 0.8], [0.0, 0.0, 0.3], [0, 0, 0])
        parts = timing_loss(rec, 2, 0.5, NeuronConfig(beta=0.9))
        assert parts.no_spike and not parts.ramp_active
        assert parts.total.item() == pytest.approx(parts.mem)

    def test_zero_at_ideal_configuration(self):
        # U[n*] exactly on target and spike exactly at n*: total 0
        cfg = NeuronConfig(beta=0.9)
        target = membrane_target(0.3, 0.5, cfg)
        rec = make_record([0.2, 0.5, target], [0.0, 0.0, 0.3], [0, 0, 1])
        parts = timing_loss(rec, 2, 0.5, cfg)
        assert parts.total.item() == pytest.approx(0.0, abs=1e-15)
        assert parts.n_c == 2

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            u = rng.uniform(-0.5, 2.0, n)
            spikes = (u >= 1.0).astype(int)
            rec = make_record(u, rng.uniform(0, 1, n), spikes)
            parts = timing_loss(rec, int(rng.integers(0, n)), rng.uniform(0, 1), IF)
            assert parts.total.item() >= 0.0

    def test_out_of_range_desired_step(self):
        rec = make_record([0.2, 0.4], [0.0, 0.0], [0, 0])
        with pytest.raises(ValueError, match="outside trace"):
            timing_loss(rec, 2, 0.5, IF)

    def test_gradients_match_finite_differences(self):
        cfg = NeuronConfig(beta=0.9)
        u = [leaf(0.2), leaf(0.9), leaf(0.5), leaf(0.8)]
        rec = SpikeRecord(
            spikes=np.array([0, 1, 0, 0], dtype=np.int8),
            potentials=np.zeros(4),
            noreset=u,
            currents=np.array([0.0, 0.0, 0.0, 0.3]),
        )
        err = check_grads(lambda: timing_loss(rec, 3, 0.5, cfg).total, u)
        assert err < 1e-7


# ---------------------------------------------------------------------------
# alpha update
# ---------------------------------------------------------------------------

class TestUpdateAlpha:
    def test_hand_value(self):
        # alpha=0.5, eta=0.05, mean(n*-n_c)=2 -> 0.5 - 2*0.05*2 = 0.3
        assert update_alpha(0.5, [(5, 3), (6, 4)], 0.05) == pytest.approx(0.3)

    def test_zero_mean_keeps_alpha(self):
        assert update_alpha(0.5, [(4, 3), (3, 4)], 0.05) == 0.5

    def test_empty_batch_keeps_alpha(self):
        assert update_alpha(0.37, [], 0.05) == 0.37

    def test_clamped_to_unit_interval(self):
        assert update_alpha(0.1, [(9, 0)], 0.05) == 0.0
        assert update_alpha(0.9, [(0, 9)], 0.05) == 1.0

    @given(
        alpha=st.floats(0.0, 1.0),
        eta=st.floats(0.001, 0.2),
        pairs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=10
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_update_sign_opposes_mean_diff(self, alpha, eta, pairs):
        mean_diff = sum(ns - nc for ns, nc in pairs) / len(pairs)
        raw = alpha - 2.0 * eta * mean_diff
        new = update_alpha(alpha, pairs, eta)
        assert new == min(1.0, max(0.0, raw))

    def test_replay_is_bit_exact(self):
        rng = np.random.default_rng(3)
        pairs_per_iter = [
            [(int(rng.integers(0, 20)), int(rng.integers(0, 20))) for _ in range(4)]
            for _ in range(50)
        ]

        def run():
            alpha, traj = 0.5, []
            for pairs in pairs_per_iter:
                alpha = update_alpha(alpha, pairs, 0.05)
                traj.append(alpha)
            return traj

        assert run() == run()

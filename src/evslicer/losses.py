"""Timing losses that teach the slicing neuron to fire at a chosen step.

Two terms supervise the no-reset membrane trace U of the output neuron:

* membrane loss — pulls U[n*] (the desired firing step) into the band
  [v_th, max(beta*v_th + gamma*I[n*], v_th)]. Any value in that band makes
  the neuron fire at n* and not a step earlier, so the band's interpolation
  point alpha trades off "barely fires" against "fires decisively".
* ramp loss — active only when the neuron fired early (n_c < n*) with
  U[n_c] >= U[n*]: it regresses U[n_c] onto the linear ramp
  v_th * pos(n_c)/pos(n*) (1-based positions), flattening the hump that
  caused the early crossing instead of fighting it at n* alone.

alpha itself is tuned from observed timing errors: firing early on average
lowers alpha (aim lower in the band), firing late raises it. All functions
here are pure; the mutable alpha lives in the training loop.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .autodiff import Tensor
from .snn import first_spike_index

__all__ = [
    "TimingLossParts",
    "membrane_bounds", "membrane_target", "membrane_loss",
    "ramp_loss", "timing_loss", "update_alpha",
]


@dataclass
class TimingLossParts:
    """One evaluated timing loss: the differentiable total plus diagnostics."""

    total: Tensor
    mem: float
    ramp: float
    n_c: int | None          # first actual spike step, None if silent
    no_spike: bool
    ramp_active: bool


def _checked_alpha(alpha):
    if 0.0 <= alpha <= 1.0:
        return float(alpha)
    clamped = min(1.0, max(0.0, float(alpha)))
    warnings.warn(f"alpha {alpha} outside [0, 1]; clamped to {clamped}", stacklevel=3)
    return clamped


def _scalar(value):
    return float(value.data.reshape(-1)[0]) if isinstance(value, Tensor) else float(value)


def membrane_bounds(i_star, neuron):
    """(lower, upper) admissible band for U[n*] given the current I[n*].

    Inside the band the neuron is guaranteed to fire at n* and not at n*-1
    (membrane still below threshold one step earlier). The upper bound
    collapses to v_th when gamma*I[n*] < (1-beta)*v_th — with so little
    drive, only exact threshold works.
    """
    i_val = _scalar(i_star)
    upper = max(neuron.beta * neuron.v_th + neuron.gamma * i_val, neuron.v_th)
    return neuron.v_th, upper


def membrane_target(i_star, alpha, neuron):
    """Interpolated regression target (1-alpha)*lower + alpha*upper."""
    alpha = _checked_alpha(alpha)
    lower, upper = membrane_bounds(i_star, neuron)
    return (1.0 - alpha) * lower + alpha * upper


def membrane_loss(u_star, i_star, alpha, neuron):
    """Squared error between U[n*] and its in-band target.

    The target is a constant: I[n*] enters only as a detached value, so the
    loss is a well-posed regression rather than a target chasing its own
    gradient.
    """
    target = membrane_target(i_star, alpha, neuron)
    diff = u_star - target
    return diff * diff


def ramp_loss(u_trace, n_c, n_star, v_th):
    """Early-spike penalty; zero unless n_c < n* with U[n_c] >= U[n*].

    When active, regresses U[n_c] onto v_th * (n_c+1)/(n_star+1) — the
    linear ramp through (position, potential) = (n*+1, v_th) in 1-based
    positions, so an early spike at the very first step still gets a
    positive, attainable target.
    """
    n = len(u_trace)
    if not 0 <= n_star < n:
        raise ValueError(f"desired step {n_star} outside trace of length {n}")
    if n_c is None or n_c >= n_star:
        return Tensor(0.0)
    if n_c < 0:
        raise ValueError(f"spike step {n_c} negative")
    if _scalar(u_trace[n_c]) < _scalar(u_trace[n_star]):
        return Tensor(0.0)
    target = v_th * (n_c + 1) / (n_star + 1)
    diff = u_trace[n_c] - target
    return diff * diff


def timing_loss(record, n_star, alpha, neuron):
    """Combined membrane + ramp loss over one output-neuron trace.

    `record` is a SpikeRecord from the slicing net; n_star the desired
    firing step. Returns TimingLossParts whose `total` backpropagates into
    the network through U. A silent trace still gets the membrane term —
    that is exactly the supervision needed to create a spike.
    """
    n = len(record)
    if not 0 <= n_star < n:
        raise ValueError(f"desired step {n_star} outside trace of length {n}")
    n_c = first_spike_index(record)
    mem = membrane_loss(record.noreset[n_star], record.currents[n_star], alpha, neuron)
    ramp = ramp_loss(record.noreset, n_c, n_star, neuron.v_th)
    ramp_val = _scalar(ramp)
    total = mem + ramp if ramp_val > 0.0 else mem
    return TimingLossParts(
        total=total,
        mem=_scalar(mem),
        ramp=ramp_val,
        n_c=n_c,
        no_spike=n_c is None,
        ramp_active=ramp_val > 0.0,
    )


def update_alpha(alpha, pairs, eta):
    """One step of the alpha tuning rule.

    alpha' = clamp(alpha - 2*eta*mean(n_star - n_c), 0, 1) over a batch of
    (desired, actual) firing-step pairs. Early firing (n_c < n*) gives a
    positive mean and lowers alpha; late firing raises it. An empty batch
    leaves alpha unchanged. Plain sum/len arithmetic on purpose: replaying
    the same pairs reproduces the trajectory bit for bit.
    """
    pairs = list(pairs)
    if not pairs:
        return float(alpha)
    mean_diff = sum(float(ns) - float(nc) for ns, nc in pairs) / len(pairs)
    return min(1.0, max(0.0, float(alpha) - 2.0 * float(eta) * mean_diff))

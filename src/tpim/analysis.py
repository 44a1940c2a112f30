"""Trace post-processing: steady-state detection, summary statistics and
the energy audit that checks the model's power balance numerically."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import SimulationTrace
from .machine import MachineParameters

__all__ = [
    "TORQUE_CHANNELS",
    "TraceTooShortError",
    "SteadyStateNotReachedError",
    "SummaryReport",
    "EnergyReport",
    "detect_steady_state",
    "summarize",
    "energy_audit",
]

# Torque channels the audit can charge the mechanical power to: "te" is the
# machine torque driving the speed equation, "te_ec" the energy-consistent
# diagnostic. For an asymmetric machine only the latter closes the balance
# by construction; the "te" residual quantifies the divergence.
TORQUE_CHANNELS = ("te", "te_ec")


class TraceTooShortError(ValueError):
    """The trace does not span enough time for the requested analysis."""


class SteadyStateNotReachedError(RuntimeError):
    """No window of the trace satisfied the steady-state tolerance."""


@dataclass(frozen=True)
class SummaryReport:
    """Steady-state statistics of one run.

    All quantities are measured over the trailing analysis window: the
    largest whole number of supply periods fitting in the detection window
    length, ending at the last record. final_speed_mech is the mean speed
    over that window, which for a machine with pulsating torque is the
    operating point a reader extracts from the speed plot (instantaneous
    samples swing around it).
    """

    steady_state_reached: bool
    settle_time: float
    final_speed_mech: float
    slip: float
    mean_torque: float
    torque_ripple_pp: float
    stator_current_rms_alpha: float
    stator_current_rms_beta: float


@dataclass(frozen=True)
class EnergyReport:
    """Trapezoidal energy balance over the full trace, in joules.

    residual = stator_input_energy - stator_copper_loss - rotor_copper_loss
               - field_energy_delta - mechanical_energy_out
    with the mechanical channel integrated from the chosen torque channel.
    """

    torque_channel: str
    stator_input_energy: float
    stator_copper_loss: float
    rotor_copper_loss: float
    field_energy_delta: float
    mechanical_energy_out: float
    residual: float


def _window_samples(trace: SimulationTrace, window: float) -> int:
    spacing = trace.record_spacing
    n = int(round(window / spacing))
    if n < 1:
        raise TraceTooShortError(
            f"window {window} s is below the record spacing {spacing} s"
        )
    return n


def detect_steady_state(
    trace: SimulationTrace, speed_tol: float = 1e-3, window: float = 0.1
) -> tuple[bool, float]:
    """Earliest time where speed stays within speed_tol of its window mean.

    Steady state is declared at the first record t where
    max - min of omega over [t, t + window] < speed_tol * |mean omega|.
    Returns (reached, settle_time); settle_time is nan when not reached.
    Raises TraceTooShortError unless the trace spans at least 2*window.
    """
    span = (len(trace) - 1) * trace.record_spacing
    if span < 2.0 * window:
        raise TraceTooShortError(
            f"trace spans {span:.6g} s, steady-state detection needs >= {2.0 * window:.6g} s"
        )
    length = _window_samples(trace, window) + 1
    hi, lo = _sliding_extrema(trace.omega_mech, length)
    spread = hi - lo
    # |mean| <= max(|lo|, |hi|), so no window before the first one passing
    # against that bound (with slack for the mean's rounding) can pass. The
    # exact test runs on views of 64 windows from each such candidate on.
    bound = np.maximum(np.abs(hi), np.abs(lo))
    candidates = np.flatnonzero(spread < speed_tol * bound * (1.0 + 1e-9))
    windows = sliding_window_view(trace.omega_mech, length)
    i = 0
    while i < len(candidates):
        block = slice(candidates[i], candidates[i] + 64)
        hit = spread[block] < speed_tol * np.abs(windows[block].mean(axis=1))
        if hit.any():
            return True, float(trace.t[block.start + int(np.argmax(hit))])
        i = int(np.searchsorted(candidates, block.stop))
    return False, math.nan


def _sliding_extrema(x: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact max and min of every window of `length` samples, in O(n log length).

    Spans double up to the largest power of two within `length`; two
    overlapping spans then cover each window.
    """
    hi = lo = x
    span = 1
    while 2 * span <= length:
        hi, lo = np.maximum(hi[:-span], hi[span:]), np.minimum(lo[:-span], lo[span:])
        span *= 2
    n, shift = len(x) - length + 1, length - span
    return np.maximum(hi[:n], hi[shift:shift + n]), np.minimum(lo[:n], lo[shift:shift + n])


def _periodic_tail(trace: SimulationTrace, start_idx: int, window: float) -> slice:
    """Trailing whole supply periods covering up to `window` seconds.

    At least one period when the post-settle span allows it, never
    reaching back before start_idx.
    """
    spacing = trace.record_spacing
    span = trace.t[-1] - trace.t[start_idx]
    period = 1.0 / trace.supply_frequency
    n_periods = int(math.floor(min(span, window) / period + 1e-9))
    if n_periods < 1:
        n_periods = 1 if span >= period else 0
    if n_periods < 1:
        return slice(start_idx, len(trace))
    n_samples = int(round(n_periods * period / spacing))
    return slice(len(trace) - 1 - n_samples, len(trace))


def _trapezoid_mean(values: np.ndarray, t: np.ndarray) -> float:
    if len(t) < 2:
        return float(values[0])
    return float(np.trapezoid(values, t) / (t[-1] - t[0]))


def summarize(
    trace: SimulationTrace,
    p: MachineParameters,
    speed_tol: float = 1e-3,
    window: float = 0.1,
) -> SummaryReport:
    """Steady-state report of one trace.

    Raises TraceTooShortError / SteadyStateNotReachedError when detection
    is impossible or fails; callers that must survive either (the CLI
    summary writer) catch them.
    """
    reached, settle_time = detect_steady_state(trace, speed_tol, window)
    if not reached:
        raise SteadyStateNotReachedError(
            f"speed never settled within {speed_tol:g} of its window mean"
        )
    start_idx = int(np.searchsorted(trace.t, settle_time))
    tail = _periodic_tail(trace, start_idx, window)
    t = trace.t[tail]
    te = trace.te[tail]
    i_sa = trace.i_sa[tail]
    i_sb = trace.i_sb[tail]

    w_sync = 2.0 * math.pi * trace.supply_frequency / p.pole_pairs
    final_speed = _trapezoid_mean(trace.omega_mech[tail], t)
    return SummaryReport(
        steady_state_reached=True,
        settle_time=settle_time,
        final_speed_mech=final_speed,
        slip=(w_sync - final_speed) / w_sync,
        mean_torque=_trapezoid_mean(te, t),
        torque_ripple_pp=float(te.max() - te.min()),
        stator_current_rms_alpha=math.sqrt(_trapezoid_mean(i_sa * i_sa, t)),
        stator_current_rms_beta=math.sqrt(_trapezoid_mean(i_sb * i_sb, t)),
    )


def _field_energy(trace: SimulationTrace, idx: int) -> float:
    # W = 0.5 * sum(psi * i); exact for the constant-inductance magnetics.
    return 0.5 * (
        trace.psi_sa[idx] * trace.i_sa[idx]
        + trace.psi_sb[idx] * trace.i_sb[idx]
        + trace.psi_ra[idx] * trace.i_ra[idx]
        + trace.psi_rb[idx] * trace.i_rb[idx]
    )


def energy_audit(
    trace: SimulationTrace,
    p: MachineParameters,
    torque_channel: str = "te_ec",
) -> EnergyReport:
    """Integrate the power channels over the full trace and close the books.

    Charges mechanical output with the requested torque channel; run it
    once per channel to compare the residuals.
    """
    if torque_channel not in TORQUE_CHANNELS:
        raise ValueError(f"torque_channel must be one of {TORQUE_CHANNELS}: {torque_channel!r}")
    t = trace.t
    if len(t) < 2:
        return EnergyReport(torque_channel, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    p_input = trace.v_sa * trace.i_sa + trace.v_sb * trace.i_sb
    p_cu_s = p.r_s_alpha * trace.i_sa**2 + p.r_s_beta * trace.i_sb**2
    p_cu_r = p.r_r_alpha * trace.i_ra**2 + p.r_r_beta * trace.i_rb**2
    torque = trace.channel(torque_channel)
    p_mech = torque * trace.omega_mech

    stator_input = float(np.trapezoid(p_input, t))
    cu_s = float(np.trapezoid(p_cu_s, t))
    cu_r = float(np.trapezoid(p_cu_r, t))
    mech = float(np.trapezoid(p_mech, t))
    field_delta = float(_field_energy(trace, -1) - _field_energy(trace, 0))
    return EnergyReport(
        torque_channel=torque_channel,
        stator_input_energy=stator_input,
        stator_copper_loss=cu_s,
        rotor_copper_loss=cu_r,
        field_energy_delta=field_delta,
        mechanical_energy_out=mech,
        residual=stator_input - cu_s - cu_r - field_delta - mech,
    )

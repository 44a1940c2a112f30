"""Closed-form stator voltage sources and load-torque profiles.

Voltages are harmonic series evaluated exactly at any time (no lookup
tables, no interpolation), so integrator stages can sample mid-step points
analytically. Loads are right-continuous piecewise-constant profiles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "Harmonic",
    "VoltageSource",
    "LoadProfile",
    "quadrature_supply",
    "sample_voltage",
    "sample_load",
    "compile_sources",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Harmonic:
    """One cosine term: amplitude*cos(2*pi*order*f*t + phase), amplitude in volt peak."""

    order: int
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class VoltageSource:
    """Per-phase harmonic series sharing one fundamental frequency (Hz)."""

    alpha: tuple[Harmonic, ...]
    beta: tuple[Harmonic, ...]
    frequency: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        if not self.frequency > 0.0:
            raise ValueError(f"frequency must be positive: {self.frequency}")
        for phase_name, harmonics in (("alpha", self.alpha), ("beta", self.beta)):
            orders = [h.order for h in harmonics]
            if len(set(orders)) != len(orders):
                raise ValueError(f"duplicate harmonic order on phase {phase_name}: {orders}")
            for h in harmonics:
                if not (isinstance(h.order, int) and h.order >= 1):
                    raise ValueError(f"harmonic order must be a positive integer: {h.order}")
                if not 0.0 <= h.amplitude < math.inf:
                    raise ValueError(f"harmonic amplitude must be finite and >= 0: {h.amplitude}")
                if not math.isfinite(h.phase):
                    raise ValueError(f"harmonic phase must be finite: {h.phase}")


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise-constant load torque: breakpoints of (t_start, torque in N*m).

    The first breakpoint must sit at t = 0 and starts must be strictly
    increasing; each torque holds from its t_start (inclusive) until the
    next breakpoint, the last one forever.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple((float(t), float(tq)) for t, tq in self.breakpoints)
        )
        if not self.breakpoints:
            raise ValueError("load profile needs at least one breakpoint")
        if self.breakpoints[0][0] != 0.0:
            raise ValueError(
                f"first load breakpoint must start at t = 0, got {self.breakpoints[0][0]}"
            )
        starts = [t for t, _ in self.breakpoints]
        if any(not math.isfinite(t) for t in starts):
            raise ValueError(f"load breakpoint starts must be finite: {starts}")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"load breakpoints must be strictly increasing: {starts}")
        if any(not math.isfinite(tq) for _, tq in self.breakpoints):
            raise ValueError("load torques must be finite")

    @classmethod
    def constant(cls, torque: float) -> "LoadProfile":
        return cls(((0.0, torque),))


def quadrature_supply(v_rms: float, frequency: float, amplitude_is_peak: bool = False) -> VoltageSource:
    """Balanced two-phase supply: alpha = cos, beta = sin (beta lags by 90 deg).

    Amplitude is sqrt(2)*v_rms on both phases; with amplitude_is_peak the
    first argument is taken as the peak value directly. With this phase
    order positive rotor speed is the forward direction; swapping the two
    phases reverses rotation.
    """
    if not v_rms > 0.0:
        raise ValueError(f"supply voltage must be positive: {v_rms}")
    if not frequency > 0.0:
        raise ValueError(f"supply frequency must be positive: {frequency}")
    peak = v_rms if amplitude_is_peak else math.sqrt(2.0) * v_rms
    return VoltageSource(
        alpha=(Harmonic(1, peak, 0.0),),
        beta=(Harmonic(1, peak, -0.5 * math.pi),),
        frequency=frequency,
    )


def sample_voltage(source: VoltageSource, t: float) -> tuple[float, float]:
    """Instantaneous (v_alpha, v_beta) at time t, exact closed form."""
    w0 = _TWO_PI * source.frequency
    v_alpha = 0.0
    for h in source.alpha:
        v_alpha += h.amplitude * math.cos(w0 * h.order * t + h.phase)
    v_beta = 0.0
    for h in source.beta:
        v_beta += h.amplitude * math.cos(w0 * h.order * t + h.phase)
    return v_alpha, v_beta


def sample_load(profile: LoadProfile, t: float) -> float:
    """Torque of the last breakpoint with t_start <= t (right-continuous)."""
    starts = [bp[0] for bp in profile.breakpoints]
    idx = bisect_right(starts, t) - 1
    if idx < 0:
        idx = 0
    return profile.breakpoints[idx][1]


def compile_sources(supply: VoltageSource, load: LoadProfile):
    """Bind a (v_alpha, v_beta, load_torque) sampler for integrator loops.

    Specializes the dominant case (one harmonic per phase, constant load)
    to a branch-free closure; anything else falls back to the generic
    samplers.
    """
    w0 = _TWO_PI * supply.frequency
    cos = math.cos
    if len(supply.alpha) == 1 and len(supply.beta) == 1 and len(load.breakpoints) == 1:
        ha, hb = supply.alpha[0], supply.beta[0]
        wa, amp_a, ph_a = w0 * ha.order, ha.amplitude, ha.phase
        wb, amp_b, ph_b = w0 * hb.order, hb.amplitude, hb.phase
        torque = load.breakpoints[0][1]

        def sources(t):
            return amp_a * cos(wa * t + ph_a), amp_b * cos(wb * t + ph_b), torque

        return sources

    alpha = tuple((w0 * h.order, h.amplitude, h.phase) for h in supply.alpha)
    beta = tuple((w0 * h.order, h.amplitude, h.phase) for h in supply.beta)
    starts = tuple(bp[0] for bp in load.breakpoints)
    torques = tuple(bp[1] for bp in load.breakpoints)

    def sources(t):
        v_a = 0.0
        for w, amp, ph in alpha:
            v_a += amp * cos(w * t + ph)
        v_b = 0.0
        for w, amp, ph in beta:
            v_b += amp * cos(w * t + ph)
        idx = bisect_right(starts, t) - 1
        return v_a, v_b, torques[idx if idx >= 0 else 0]

    return sources

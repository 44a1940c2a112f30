"""Closed-form stator voltage sources and load-torque profiles.

Voltages are harmonic series evaluated exactly at any time (no lookup
tables, no interpolation), so integrator stages can sample mid-step points
analytically. The voltage sampler is written once, as a statement template
that tpim.dynamics compiles, inline at every sample point of a step loop or
at one point as compile_sources; the values the template reads are passed
as arguments. Loads are right-continuous piecewise-constant profiles, which
no template reads: tpim.dynamics integrates each of their segments at its
constant torque, and derives the recorded load channel from the record
times.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "Harmonic",
    "VoltageSource",
    "LoadProfile",
    "quadrature_supply",
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
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and positive: {self.frequency}")
        for phase_name, harmonics in (("alpha", self.alpha), ("beta", self.beta)):
            orders = [h.order for h in harmonics]
            if len(set(orders)) != len(orders):
                raise ValueError(f"duplicate harmonic order on phase {phase_name}: {orders}")
            for h in harmonics:
                if isinstance(h.order, bool) or not (isinstance(h.order, int) and h.order >= 1):
                    raise ValueError(f"harmonic order must be a positive integer: {h.order}")
                # An order past the largest float does not convert: no finite angular frequency.
                if not (h.order <= sys.float_info.max and math.isfinite(_TWO_PI * self.frequency * h.order)):
                    raise ValueError(f"angular frequency 2*pi*{self.frequency!r}*{h.order} of harmonic "
                                     f"{h.order} on phase {phase_name} is not finite")
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
        raise ValueError(f"voltage must be positive: {v_rms}")
    peak = v_rms if amplitude_is_peak else math.sqrt(2.0) * v_rms
    return VoltageSource(
        alpha=(Harmonic(1, peak, 0.0),),
        beta=(Harmonic(1, peak, -0.5 * math.pi),),
        frequency=frequency,
    )


# The one definition of the voltage sampler: the kernels of tpim.dynamics
# render it at every sample point, and import the cos it calls. A supply's
# shape is (harmonics on alpha, harmonics on beta).
_TERM = "amp_{p}{i} * cos(w_{p}{i} * {time} + ph_{p}{i})"


def sample_arguments(shape: tuple[int, int]) -> list[str]:
    """The names render_sample reads, a list in the order of sample_binding's values."""
    return [f"{x}_{p}{i}" for p, n in zip("ab", shape) for i in range(n) for x in ("w", "amp", "ph")]


def sample_binding(supply: VoltageSource) -> tuple[tuple[int, int], tuple]:
    """The shape of supply and the values of sample_arguments(shape)."""
    w0 = _TWO_PI * supply.frequency
    values = tuple(v for h in supply.alpha + supply.beta for v in (w0 * h.order, h.amplitude, h.phase))
    return (len(supply.alpha), len(supply.beta)), values


def render_sample(shape: tuple[int, int], time: str, names: str) -> str:
    """Statements that assign the names (v_s_a v_s_b) their values at time.

    time names one float, so that each harmonic multiplies it whole. One
    harmonic per phase renders v = amp * cos(...); other shapes sum from 0.0
    (0.0 + -0.0 is 0.0, for a zero amplitude) one statement per term, left to
    right, so no harmonic count nests an expression.
    """
    lines = []
    for v, p, count in zip(names.split(), "ab", shape, strict=True):
        terms = [_TERM.format(p=p, i=i, time=time) for i in range(count)]
        if shape == (1, 1):
            lines.append(f"{v} = {terms[0]}")
        else:
            lines += [f"{v} = 0.0", *(f"{v} = {v} + {term}" for term in terms)]
    return "\n".join(lines) + "\n"

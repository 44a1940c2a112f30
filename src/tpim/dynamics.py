"""Fixed-step time integration of the machine states.

The production method is classical fourth-order Runge-Kutta; a forward
Euler stepper is kept alongside as an independent verification oracle and
for convergence-order measurements. Both are deterministic: identical
inputs give bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .excitation import LoadProfile, VoltageSource, compile_sources
from .machine import (
    SPEED_CONVENTIONS,
    MachineParameters,
    MachineState,
    compile_derivative,
    currents_from_fluxes,
    electromagnetic_torque,
    energy_consistent_torque,
)

__all__ = [
    "INTEGRATION_METHODS",
    "TRACE_CHANNELS",
    "IntegratorConfig",
    "Scenario",
    "SimulationTrace",
    "IntegrationError",
    "integrate",
]

INTEGRATION_METHODS = ("rk4", "euler")

# Column order is the CSV schema and is fixed.
TRACE_CHANNELS = (
    "t",
    "v_sa",
    "v_sb",
    "i_sa",
    "i_sb",
    "i_ra",
    "i_rb",
    "psi_sa",
    "psi_sb",
    "psi_ra",
    "psi_rb",
    "te",
    "te_ec",
    "omega_mech",
    "tl",
)


class IntegrationError(RuntimeError):
    """The state went non-finite; carries the failure time, state and partial trace."""

    def __init__(self, time: float, state: MachineState, partial_trace: "SimulationTrace"):
        super().__init__(f"non-finite state at t = {time:.9g}: {state}")
        self.time = time
        self.state = state
        self.partial_trace = partial_trace


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    duration may be exactly 0 (single-record trace of the initial state);
    a positive duration must be a whole number (at least one) of steps.
    record_every decimates recording only, never the integration grid.
    """

    method: str = "rk4"
    step_size: float = 1e-4
    duration: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
            raise ValueError(f"method must be one of {INTEGRATION_METHODS}: {self.method!r}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive: {self.step_size}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0: {self.duration}")
        if 0.0 < self.duration < self.step_size * (1.0 - 1e-12):
            raise ValueError(
                f"duration {self.duration} is shorter than one step ({self.step_size})"
            )
        steps = self.duration / self.step_size
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"duration {self.duration} is not a whole number of steps of "
                f"{self.step_size} ({steps!r} steps)"
            )
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError(f"record_every must be a positive integer: {self.record_every}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.step_size))


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs besides the machine parameters."""

    supply: VoltageSource
    load: LoadProfile
    integrator: IntegratorConfig
    initial_state: MachineState = field(default_factory=MachineState.at_rest)
    speed_convention: str = "mechanical_state"
    blocked_rotor: bool = False

    def __post_init__(self):
        if self.speed_convention not in SPEED_CONVENTIONS:
            raise ValueError(f"unknown speed convention: {self.speed_convention!r}")


@dataclass(frozen=True)
class SimulationTrace:
    """Uniformly spaced records of every plotted/audited channel.

    Flux channels are the integrated states; currents and both torque
    channels are recomputed algebraically from the recorded state. The
    omega_mech channel is always shaft speed, whichever speed convention
    drove the integration.
    """

    t: np.ndarray
    v_sa: np.ndarray
    v_sb: np.ndarray
    i_sa: np.ndarray
    i_sb: np.ndarray
    i_ra: np.ndarray
    i_rb: np.ndarray
    psi_sa: np.ndarray
    psi_sb: np.ndarray
    psi_ra: np.ndarray
    psi_rb: np.ndarray
    te: np.ndarray
    te_ec: np.ndarray
    omega_mech: np.ndarray
    tl: np.ndarray
    step_size: float
    record_every: int
    supply_frequency: float
    speed_convention: str

    def __len__(self) -> int:
        return len(self.t)

    @property
    def record_spacing(self) -> float:
        return self.step_size * self.record_every

    def channel(self, name: str) -> np.ndarray:
        if name not in TRACE_CHANNELS:
            raise KeyError(f"unknown trace channel: {name!r}")
        return getattr(self, name)


# Advancers step from t; `sampled` is sources(t), also the record's sample.
def _advance_rk4(deriv, sources, psa, psb, pra, prb, w, t, dt, sampled):
    half = 0.5 * dt
    va0, vb0, tl0 = sampled
    vah, vbh, tlh = sources(t + half)
    va1, vb1, tl1 = sources(t + dt)
    a1, b1, c1, d1, e1 = deriv(psa, psb, pra, prb, w, va0, vb0, tl0)
    a2, b2, c2, d2, e2 = deriv(
        psa + half * a1, psb + half * b1, pra + half * c1, prb + half * d1,
        w + half * e1, vah, vbh, tlh,
    )
    a3, b3, c3, d3, e3 = deriv(
        psa + half * a2, psb + half * b2, pra + half * c2, prb + half * d2,
        w + half * e2, vah, vbh, tlh,
    )
    a4, b4, c4, d4, e4 = deriv(
        psa + dt * a3, psb + dt * b3, pra + dt * c3, prb + dt * d3,
        w + dt * e3, va1, vb1, tl1,
    )
    sixth = dt / 6.0
    return (
        psa + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        psb + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        pra + sixth * (c1 + 2.0 * (c2 + c3) + c4),
        prb + sixth * (d1 + 2.0 * (d2 + d3) + d4),
        w + sixth * (e1 + 2.0 * (e2 + e3) + e4),
    )


def _advance_euler(deriv, sources, psa, psb, pra, prb, w, t, dt, sampled):
    va, vb, tl = sampled
    d1, d2, d3, d4, d5 = deriv(psa, psb, pra, prb, w, va, vb, tl)
    return (psa + dt * d1, psb + dt * d2, pra + dt * d3, prb + dt * d4, w + dt * d5)


_ADVANCERS = {"rk4": _advance_rk4, "euler": _advance_euler}


def _derive_trace(p: MachineParameters, scenario: Scenario, records: np.ndarray) -> SimulationTrace:
    """Build the trace from (t, v_sa, v_sb, tl, 5 states) rows, deriving the rest on arrays."""
    t, v_sa, v_sb, tl, psa, psb, pra, prb, w = records
    i_sa, i_sb, i_ra, i_rb = currents_from_fluxes(p, psa, psb, pra, prb)
    if scenario.speed_convention == "electrical_state":
        w = w * (1.0 / p.pole_pairs)  # recorded speed is always shaft speed
    return SimulationTrace(
        t=t, v_sa=v_sa, v_sb=v_sb, i_sa=i_sa, i_sb=i_sb, i_ra=i_ra, i_rb=i_rb,
        psi_sa=psa, psi_sb=psb, psi_ra=pra, psi_rb=prb,
        te=electromagnetic_torque(p, i_sa, i_sb, i_ra, i_rb),
        te_ec=energy_consistent_torque(p, pra, prb, i_ra, i_rb),
        omega_mech=w, tl=tl,
        step_size=scenario.integrator.step_size,
        record_every=scenario.integrator.record_every,
        supply_frequency=scenario.supply.frequency,
        speed_convention=scenario.speed_convention,
    )


def integrate(p: MachineParameters, scenario: Scenario) -> SimulationTrace:
    """Run the scenario from its initial state over the configured duration.

    Deterministic: identical inputs give bit-identical traces. On a
    non-finite state the run aborts with IntegrationError carrying the
    failure time and the partial trace recorded so far.
    """
    cfg = scenario.integrator
    dt = cfg.step_size
    n_steps = cfg.n_steps
    every = cfg.record_every
    advance = _ADVANCERS[cfg.method]
    deriv = compile_derivative(p, scenario.speed_convention, scenario.blocked_rotor)
    sources = compile_sources(scenario.supply, scenario.load)

    # One column per record: the time, the sources sampled there and the states.
    records = np.empty((9, n_steps // every + 1))
    psa, psb, pra, prb, w = scenario.initial_state.as_tuple()
    t = 0.0
    sampled = sources(t)
    records[:, 0] = (t, *sampled, psa, psb, pra, prb, w)
    filled = 1
    isfinite = math.isfinite
    for k in range(1, n_steps + 1):
        # Step k starts at t = (k - 1) * dt, where the sources were last sampled.
        psa, psb, pra, prb, w = advance(deriv, sources, psa, psb, pra, prb, w, t, dt, sampled)
        if not (isfinite(psa) and isfinite(psb) and isfinite(pra) and isfinite(prb) and isfinite(w)):
            partial = _derive_trace(p, scenario, records[:, :filled])
            raise IntegrationError(k * dt, MachineState(psa, psb, pra, prb, w), partial)
        t = k * dt
        sampled = sources(t)
        if k % every == 0:
            records[:, filled] = (t, *sampled, psa, psb, pra, prb, w)
            filled += 1
    return _derive_trace(p, scenario, records)

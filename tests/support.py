"""Shared machines, scenario builders and independent oracles for the tests.

reference_derivative restates the right-hand side that
tpim.dynamics.compile_derivative compiles, from solve_currents and the
textbook torque, and reference_steady_state the all-windows formula that
detect_steady_state evaluates by a faster route. sample_voltage evaluates a
supply term by term, the reference for the sampler that
tpim.dynamics.compile_sources compiles, and sample_load a load profile, the
reference for the recorded load channel and for the torque of each load
segment; fluxes_from_currents is the forward map that the current template
inverts, and channels renders tpim.machine._CHANNELS, the statements by
which the step loops derive each record's currents, torques and shaft
speed, at one point of given fluxes. The phasor solver here is a test-only
oracle: it computes the periodic steady state of the same state equations
at a held speed by one complex 4x4 solve per harmonic order, with no time
stepping, so it verifies the integrator through an entirely different
route. reference_trace_csv is the trace CSV by its definition, one repr
per value. shoot finds the periodic steady state of a free rotor, the
fixed point of one supply period of the step loop, by Newton's method
through integrate alone; summary_bounds says how far a summary may lie
from it.
"""

import cmath
import dataclasses
import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tpim import (
    Harmonic,
    IntegratorConfig,
    LoadProfile,
    MachineParameters,
    MachineState,
    Scenario,
    SimulationTrace,
    VoltageSource,
    integrate,
    quadrature_supply,
)
from tpim.dynamics import _kernel
from tpim.machine import _CHANNELS, _KERNEL_CONSTANTS, kernel_constants
from tpim.output import CSV_HEADER

# Benchmark machine: 230 V rms, 50 Hz, 4 pole, referred rotor per axis.
TABLE1 = MachineParameters(
    r_s_alpha=7.14,
    r_s_beta=2.02,
    r_r_alpha=5.74,
    r_r_beta=4.12,
    l_s_alpha=0.2549,
    l_s_beta=0.1846,
    l_r_alpha=0.2542,
    l_r_beta=0.1828,
    l_m_alpha=0.2464,
    l_m_beta=0.1772,
    turns_ratio_a=1.18,
    pole_pairs=2,
    inertia_j=2.92e-3,
)

# Symmetric reduction: both stator axes carry the main-winding parameters.
SYMMETRIC = MachineParameters(
    r_s_alpha=2.02,
    r_s_beta=2.02,
    r_r_alpha=4.12,
    r_r_beta=4.12,
    l_s_alpha=0.1846,
    l_s_beta=0.1846,
    l_r_alpha=0.1828,
    l_r_beta=0.1828,
    l_m_alpha=0.1772,
    l_m_beta=0.1772,
    turns_ratio_a=1.0,
    pole_pairs=2,
    inertia_j=2.92e-3,
)

V_RMS = 230.0
F_SUPPLY = 50.0
V_PEAK = math.sqrt(2.0) * V_RMS
T_LOAD = 1.0096
W_SYNC = 2.0 * math.pi * F_SUPPLY / TABLE1.pole_pairs  # 157.0796...

STATE_CHANNELS = ("psi_sa", "psi_sb", "psi_ra", "psi_rb", "omega_mech")

_TWO_PI = 2.0 * math.pi


# Supplies of each shape a generated step loop renders apart, one harmonic
# per phase or several, and zero amplitudes, whose cos terms can be -0.0;
# and a load that steps at t = 2e-3 and, inside the second step of a
# dt = 2e-3 run, at 3.3e-3.
_Q = 0.5 * math.pi
SOURCE_SHAPES = {
    "quadrature": (quadrature_supply(V_RMS, F_SUPPLY), LoadProfile.constant(T_LOAD)),
    "harmonics": (
        VoltageSource(
            alpha=(Harmonic(1, V_PEAK), Harmonic(3, 9.5, 0.1), Harmonic(5, 6.5, -0.2)),
            beta=(Harmonic(1, V_PEAK, -_Q), Harmonic(3, 9.5, 0.1 - 3 * _Q), Harmonic(5, 6.5, -0.2 - 5 * _Q)),
            frequency=F_SUPPLY,
        ),
        LoadProfile.constant(T_LOAD),
    ),
    "load_steps": (
        quadrature_supply(V_RMS, F_SUPPLY),
        LoadProfile(((0.0, 0.4), (2e-3, 0.7), (3.3e-3, T_LOAD))),
    ),
    "zero_amplitude": (
        VoltageSource(
            alpha=(Harmonic(1, V_PEAK), Harmonic(3, 0.0, 0.4)), beta=(Harmonic(1, 0.0, 2.0),), frequency=F_SUPPLY
        ),
        LoadProfile.constant(T_LOAD),
    ),
}


def state_at(trace, idx):
    """The integrated state vector (STATE_CHANNELS order) at record idx."""
    return np.array([trace.channel(c)[idx] for c in STATE_CHANNELS])


def reference_trace_csv(trace) -> bytes:
    """The trace CSV's bytes: the header, then each record's values joined
    by commas, each the repr of the double (its shortest round-trip text)."""
    lines = [CSV_HEADER, *(",".join(map(repr, row)) for row in trace.records.T.tolist())]
    return "".join(line + "\n" for line in lines).encode()


def rated_supply():
    return quadrature_supply(V_RMS, F_SUPPLY)


def scenario(
    supply=None,
    load_torque=T_LOAD,
    method="rk4",
    dt=1e-4,
    duration=1.0,
    record_every=1,
    initial_state=None,
    speed_convention="mechanical_state",
    blocked_rotor=False,
):
    return Scenario(
        supply=supply if supply is not None else rated_supply(),
        load=LoadProfile.constant(load_torque),
        integrator=IntegratorConfig(
            method=method, step_size=dt, duration=duration, record_every=record_every
        ),
        initial_state=initial_state or MachineState(),
        speed_convention=speed_convention,
        blocked_rotor=blocked_rotor,
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


def fluxes_from_currents(p: MachineParameters, i_s_alpha, i_s_beta, i_r_alpha, i_r_beta):
    """Winding flux linkages from winding currents.

    Per axis: psi_s = L_s*i_s + L_m*i_r and psi_r = L_m*i_s + L_r*i_r.
    Returns (psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta).
    """
    psi_s_alpha = p.l_s_alpha * i_s_alpha + p.l_m_alpha * i_r_alpha
    psi_s_beta = p.l_s_beta * i_s_beta + p.l_m_beta * i_r_beta
    psi_r_alpha = p.l_m_alpha * i_s_alpha + p.l_r_alpha * i_r_alpha
    psi_r_beta = p.l_m_beta * i_s_beta + p.l_r_beta * i_r_beta
    return psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta


def solve_currents(p, psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta):
    """Independent flux-to-current inversion: one 2x2 linear solve per axis."""
    alpha = np.linalg.solve(
        np.array([[p.l_s_alpha, p.l_m_alpha], [p.l_m_alpha, p.l_r_alpha]]),
        np.array([psi_s_alpha, psi_r_alpha]),
    )
    beta = np.linalg.solve(
        np.array([[p.l_s_beta, p.l_m_beta], [p.l_m_beta, p.l_r_beta]]),
        np.array([psi_s_beta, psi_r_beta]),
    )
    return alpha[0], beta[0], alpha[1], beta[1]


def textbook_torques(p, psi_r_alpha, psi_r_beta, i_s_alpha, i_s_beta, i_r_alpha, i_r_beta):
    """(te, te_ec): the electromagnetic torque p_p*(L_m_beta*i_s_beta*i_r_alpha
    - L_m_alpha*i_s_alpha*i_r_beta) and the torque of the rotor speed-voltage
    power, p_p*(a*psi_r_beta*i_r_alpha - psi_r_alpha*i_r_beta/a)."""
    te = p.pole_pairs * (p.l_m_beta * i_s_beta * i_r_alpha - p.l_m_alpha * i_s_alpha * i_r_beta)
    a = p.turns_ratio_a
    return te, p.pole_pairs * (a * psi_r_beta * i_r_alpha - psi_r_alpha * i_r_beta / a)


_channels = _kernel("channels", [*_KERNEL_CONSTANTS, "psa", "psb", "pra", "prb", "w"],
                    _CHANNELS + "return i_sa, i_sb, i_ra, i_rb, te, te_ec\n")


def channels(p, psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta):
    """(i_sa, i_sb, i_ra, i_rb, te, te_ec) of the fluxes, by the statements
    that derive the recorded trace channels (at zero speed, whose shaft-speed
    channel it drops)."""
    return _channels(*kernel_constants(p, "mechanical_state", False),
                     psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta, 0.0)


def reference_derivative(p, state, v_sa, v_sb, t_load):
    """State equations written out from the linear-solve current inversion
    and the textbook torque, as an array in STATE_CHANNELS order; the oracle
    for compile_derivative (shaft-speed convention, free rotor)."""
    psa, psb, pra, prb, w = state
    i_sa, i_sb, i_ra, i_rb = solve_currents(p, psa, psb, pra, prb)
    w_e, a = p.pole_pairs * w, p.turns_ratio_a
    te, _ = textbook_torques(p, pra, prb, i_sa, i_sb, i_ra, i_rb)
    return np.array([
        v_sa - p.r_s_alpha * i_sa,
        v_sb - p.r_s_beta * i_sb,
        -p.r_r_alpha * i_ra - a * w_e * prb,
        -p.r_r_beta * i_rb + (w_e / a) * pra,
        (te - t_load) / p.inertia_j,
    ])


def reference_steady_state(trace, speed_tol=1e-3, window=0.1):
    """detect_steady_state's definition evaluated on every window at once:
    the first record t with max - min < speed_tol * |mean| of omega over
    [t, t + window]. Returns (reached, settle_time)."""
    w_n = int(round(window / trace.record_spacing))
    windows = sliding_window_view(trace.omega_mech, w_n + 1)
    spread = windows.max(axis=1) - windows.min(axis=1)
    hit = spread < speed_tol * np.abs(windows.mean(axis=1))
    if not hit.any():
        return False, math.nan
    return True, float(trace.t[int(np.argmax(hit))])


def _current_matrix(p):
    return np.array(
        [
            [p.l_r_alpha / p.det_alpha, 0.0, -p.l_m_alpha / p.det_alpha, 0.0],
            [0.0, p.l_r_beta / p.det_beta, 0.0, -p.l_m_beta / p.det_beta],
            [-p.l_m_alpha / p.det_alpha, 0.0, p.l_s_alpha / p.det_alpha, 0.0],
            [0.0, -p.l_m_beta / p.det_beta, 0.0, p.l_s_beta / p.det_beta],
        ]
    )


class PeriodicOrbit:
    """The periodic solution of the flux equations at a held speed.

    With the speed state held at omega (a blocked rotor), the flux equations
    are linear and time-invariant and the supply is a sum of cosines, so the
    periodic solution is the sum over harmonic orders k of
    Re(Psi_k * exp(1j * k * w0 * t)), Psi_k from one complex 4x4 solve per
    order (Krause, Wasynczuk and Sudhoff, Analysis of Electric Machinery).
    A run started on it at t = 0 has no transient: its deviation from the
    orbit is the integrator's global error alone.
    """

    def __init__(self, p, supply, omega, speed_convention="mechanical_state"):
        self.p, self.w0 = p, 2.0 * math.pi * supply.frequency
        self.M = _current_matrix(p)
        w_e = (1.0 if speed_convention == "electrical_state" else p.pole_pairs) * omega
        a = p.turns_ratio_a
        A = -np.diag([p.r_s_alpha, p.r_s_beta, p.r_r_alpha, p.r_r_beta]) @ self.M
        A[2, 3] += -a * w_e
        A[3, 2] += w_e / a
        self.phasors = {}
        for order in sorted({h.order for h in (*supply.alpha, *supply.beta)}):
            v = np.zeros(4, complex)
            for row, phase in ((0, supply.alpha), (1, supply.beta)):
                v[row] = sum(h.amplitude * cmath.exp(1j * h.phase) for h in phase if h.order == order)
            self.phasors[order] = np.linalg.solve(1j * order * self.w0 * np.eye(4) - A, v)

    def _at(self, t, phasors):
        """The real signals of {order: phasor vector} at the times t."""
        t = np.asarray(t, dtype=float)
        return sum(np.multiply.outer(vec, np.exp(1j * order * self.w0 * t)).real for order, vec in phasors.items())

    def fluxes(self, t):
        """(psi_sa, psi_sb, psi_ra, psi_rb) at the times t, rows of an array."""
        return self._at(t, self.phasors)

    def currents(self, t):
        """(i_sa, i_sb, i_ra, i_rb) at the times t, from the current phasors."""
        return self._at(t, {k: self.M @ psi for k, psi in self.phasors.items()})

    def mean_torques(self):
        """The cycle means of (te, te_ec): the mean of a product of two
        cosines of one order is Re(A conj(B))/2; of two orders, zero."""
        p, a = self.p, self.p.turns_ratio_a
        te = te_ec = 0.0
        for psi in self.phasors.values():
            i_sa, i_sb, i_ra, i_rb = self.M @ psi
            te += p.pole_pairs * 0.5 * (
                p.l_m_beta * (i_sb * np.conj(i_ra)).real - p.l_m_alpha * (i_sa * np.conj(i_rb)).real
            )
            te_ec += p.pole_pairs * 0.5 * (a * (psi[3] * np.conj(i_ra)).real - (psi[2] * np.conj(i_rb)).real / a)
        return te, te_ec


def phasor_steady_state(p, omega_mech, supply=None, speed_convention="mechanical_state"):
    """Fixed-speed periodic steady state of the flux equations.

    Returns (mean torque, mean energy-consistent torque, rms i_s_alpha,
    rms i_s_beta); supply defaults to the rated quadrature supply.
    """
    orbit = PeriodicOrbit(p, supply or rated_supply(), omega_mech, speed_convention)
    te, te_ec = orbit.mean_torques()
    rms = [math.sqrt(sum(abs((orbit.M @ psi)[axis]) ** 2 for psi in orbit.phasors.values()) / 2.0)
           for axis in (0, 1)]
    return te, te_ec, rms[0], rms[1]


def phasor_equilibrium_speed(p, t_load, lo=100.0, hi=170.0, supply=None):
    """Speed where the phasor mean torque balances the load (bisection)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        te, _, _, _ = phasor_steady_state(p, mid, supply)
        if te > t_load:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Orbit(NamedTuple):
    """A periodic steady state of the discrete step loop."""

    state: np.ndarray  # the fixed point of one supply period, STATE_CHANNELS order
    multipliers: np.ndarray  # the Floquet multipliers, eigenvalues of the period map's Jacobian
    trace: SimulationTrace  # one period from state, recorded at every step

    def mean(self, name):
        """The trapezoid mean of a channel over the period."""
        t = self.trace.t
        return float(np.trapezoid(self.trace.channel(name), t) / (t[-1] - t[0]))


def _one_period(p, scenario, x, record_every=0):
    """One supply period of the scenario's step loop from the state x,
    recorded every record_every steps, or at its ends for 0."""
    dt = scenario.integrator.step_size
    n = round(1.0 / (scenario.supply.frequency * dt))
    assert math.isclose(n * dt * scenario.supply.frequency, 1.0), "a period must be whole steps"
    integrator = dataclasses.replace(scenario.integrator, duration=n * dt, record_every=record_every or n)
    return integrate(p, dataclasses.replace(scenario, integrator=integrator, initial_state=MachineState(*x)))


def shoot(p, scenario, x0, rtol=1e-12, max_iter=10):
    """The periodic steady state of a free rotor under the scenario's
    T-periodic supply and constant load, by the shooting method of Aprille
    and Trick ("Steady-state analysis of nonlinear circuits with periodic
    inputs", Proc. IEEE 60(1), 1972): Newton's method on Phi_T(x) - x from
    x0 (STATE_CHANNELS order), where Phi_T is one supply period of the
    scenario's discrete step loop and its Jacobian a forward difference.
    Stops when every |Phi_T(x) - x| is within rtol of max(|x|, 1)."""
    assert len(scenario.load.breakpoints) == 1 and not scenario.blocked_rotor
    assert scenario.speed_convention == "mechanical_state"  # the state's speed is omega_mech
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        end = state_at(_one_period(p, scenario, x), -1)
        scale = np.maximum(np.abs(x), 1.0)
        h = 1e-7 * scale
        jacobian = np.column_stack(
            [(state_at(_one_period(p, scenario, x + step), -1) - end) / h_j for step, h_j in zip(np.diag(h), h)]
        )
        if np.all(np.abs(end - x) <= rtol * scale):
            return Orbit(x, np.linalg.eigvals(jacobian), _one_period(p, scenario, x, record_every=1))
        x = x - np.linalg.solve(jacobian - np.eye(len(x)), end - x)
    raise AssertionError(f"shooting did not converge in {max_iter} Newton steps: |Phi_T(x) - x| = {abs(end - x)}")


def summary_bounds(p, orbit, settle_time, t_end, speed_tol, window=0.1):
    """How far a summary of a run ending at t_end may lie from the orbit:
    (speed, torque) bounds on |final_speed_mech - orbit mean| and
    |mean_torque - orbit mean|.

    The detector accepted the speed at settle_time as steady to speed_tol
    of its mean, so its departure from the orbit then is at most
    speed_tol * |speed|. The slowest Floquet mode shrinks a departure by
    |mu| per supply period, up to the start of the summary's window (whole
    periods, window long). Over the window the mean torque is the load
    plus J * (speed at its end - speed at its start) / window; on the
    orbit the two speeds are equal, so the summary's mean torque departs
    from the orbit's by at most 2 * J * the speed bound / window.
    """
    periods = (t_end - window - settle_time) * orbit.trace.supply_frequency
    speed = speed_tol * abs(orbit.mean("omega_mech")) * max(abs(orbit.multipliers)) ** periods
    return speed, 2.0 * p.inertia_j * speed / window

"""Shared machines, scenario builders and independent oracles for the tests.

reference_derivative restates the right-hand side that compile_derivative
binds into a closure, and reference_steady_state the all-windows formula
that detect_steady_state evaluates by a faster route. The phasor solver here is a test-only oracle: it
computes the single-frequency steady state of the same state equations by a
complex 4x4 solve, with no time stepping, so it verifies the integrator
through an entirely different route.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tpim import (
    IntegratorConfig,
    LoadProfile,
    MachineParameters,
    MachineState,
    Scenario,
    currents_from_fluxes,
    electromagnetic_torque,
    quadrature_supply,
)

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


def state_at(trace, idx):
    """The integrated state vector (STATE_CHANNELS order) at record idx."""
    return np.array([trace.channel(c)[idx] for c in STATE_CHANNELS])


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
        initial_state=initial_state or MachineState.at_rest(),
        speed_convention=speed_convention,
        blocked_rotor=blocked_rotor,
    )


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


def reference_derivative(p, state, v_sa, v_sb, t_load):
    """State equations written out from the public current and torque maps,
    as an array in STATE_CHANNELS order; the oracle for compile_derivative
    (shaft-speed convention, free rotor)."""
    psa, psb, pra, prb, w = state
    i_sa, i_sb, i_ra, i_rb = currents_from_fluxes(p, psa, psb, pra, prb)
    w_e, a = p.pole_pairs * w, p.turns_ratio_a
    te = electromagnetic_torque(p, i_sa, i_sb, i_ra, i_rb)
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


def phasor_steady_state(p, omega_mech, v_peak=V_PEAK, f_supply=F_SUPPLY):
    """Fixed-speed sinusoidal steady state of the flux equations.

    Returns (mean torque, mean energy-consistent torque, rms i_s_alpha,
    rms i_s_beta). Mean of a product of sinusoids is Re(A conj(B))/2.
    """
    M = _current_matrix(p)
    w_e = p.pole_pairs * omega_mech
    a = p.turns_ratio_a
    A = np.zeros((4, 4))
    A[0] = -p.r_s_alpha * M[0]
    A[1] = -p.r_s_beta * M[1]
    A[2] = -p.r_r_alpha * M[2]
    A[3] = -p.r_r_beta * M[3]
    A[2, 3] += -a * w_e
    A[3, 2] += w_e / a
    w_s = 2.0 * math.pi * f_supply
    v = np.array([v_peak, -1j * v_peak, 0.0, 0.0])
    psi = np.linalg.solve(1j * w_s * np.eye(4) - A, v)
    i_sa, i_sb, i_ra, i_rb = M @ psi
    te = p.pole_pairs * 0.5 * (
        p.l_m_beta * (i_sb * np.conj(i_ra)).real
        - p.l_m_alpha * (i_sa * np.conj(i_rb)).real
    )
    te_ec = p.pole_pairs * 0.5 * (
        a * (psi[3] * np.conj(i_ra)).real - (psi[2] * np.conj(i_rb)).real / a
    )
    return te, te_ec, abs(i_sa) / math.sqrt(2.0), abs(i_sb) / math.sqrt(2.0)


def phasor_equilibrium_speed(p, t_load, lo=100.0, hi=170.0, v_peak=V_PEAK, f_supply=F_SUPPLY):
    """Speed where the phasor mean torque balances the load (bisection)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        te, _, _, _ = phasor_steady_state(p, mid, v_peak, f_supply)
        if te > t_load:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

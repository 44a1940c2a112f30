"""Integrators: step contracts, trace contracts, oracle agreement."""

import math

import numpy as np
import pytest

from tpim import (
    IntegrationError,
    IntegratorConfig,
    LoadProfile,
    MachineState,
    Scenario,
    VoltageSource,
    integrate,
    summarize,
)
from tpim.dynamics import TRACE_CHANNELS
from tpim.excitation import compile_sources

from support import T_LOAD, W_SYNC, rated_supply, reference_derivative, scenario, state_at

SILENT = VoltageSource(alpha=(), beta=(), frequency=50.0)


# ---------------------------------------------------------------------------
# IntegratorConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(method="heun"),
        dict(step_size=0.0),
        dict(step_size=-1e-4),
        dict(duration=-1.0),
        dict(step_size=1e-3, duration=1e-4),
        dict(record_every=0),
        dict(step_size=1e-4, duration=1.00005),
    ],
)
def test_integrator_config_rejects(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


def test_step_counts():
    assert IntegratorConfig(duration=1.0, step_size=1e-4).n_steps == 10000
    assert IntegratorConfig(duration=0.0, step_size=1e-4).n_steps == 0


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_zero_state_is_fixed_point_of_both_steppers(table1):
    rest = MachineState.at_rest()
    for method in ("rk4", "euler"):
        one = scenario(supply=SILENT, load_torque=0.0, method=method, dt=1e-3, duration=1e-3)
        out = state_at(integrate(table1, one), 1)
        assert MachineState(*out) == rest


def test_constant_deceleration_is_exact(table1):
    # Zero fluxes, zero volts, constant load: the derivative is constant so
    # both methods land exactly on omega - dt*T/J.
    state = MachineState(0.0, 0.0, 0.0, 0.0, 80.0)
    dt = 2e-3
    expected = 80.0 - dt * T_LOAD / table1.inertia_j
    for method in ("rk4", "euler"):
        one = scenario(supply=SILENT, method=method, dt=dt, duration=dt, initial_state=state)
        trace = integrate(table1, one)
        assert trace.omega_mech[1] == pytest.approx(expected, rel=1e-15)
        assert trace.psi_sa[1] == 0.0


def test_rk4_step_matches_manual_stage_assembly(table1):
    # Step 124 of a rated run starts at t = 123*dt, off the supply's zero
    # phase, from a state with every channel alive.
    dt = 1e-4
    trace = integrate(table1, scenario(dt=dt, duration=124 * dt))
    sources = compile_sources(rated_supply(), LoadProfile.constant(T_LOAD))
    t = 123 * dt

    def deriv_at(x, tau):
        return reference_derivative(table1, x, *sources(tau))

    x = state_at(trace, 123)
    k1 = deriv_at(x, t)
    k2 = deriv_at(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = deriv_at(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = deriv_at(x + dt * k3, t + dt)
    manual = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    assert state_at(trace, 124) == pytest.approx(manual, rel=1e-13)


# ---------------------------------------------------------------------------
# integrate: trace contracts
# ---------------------------------------------------------------------------

def test_zero_duration_gives_single_record(table1):
    trace = integrate(table1, scenario(duration=0.0))
    assert len(trace) == 1
    assert trace.t[0] == 0.0
    assert trace.v_sa[0] == pytest.approx(math.sqrt(2) * 230.0, rel=1e-12)


def test_trace_grid_and_length(table1):
    trace = integrate(table1, scenario(duration=0.05))
    assert len(trace) == 501
    spacing = np.diff(trace.t)
    assert spacing == pytest.approx(np.full(500, 1e-4), rel=1e-9)
    assert np.all(np.isfinite(np.column_stack([trace.channel(c) for c in TRACE_CHANNELS])))


def test_record_every_decimates_without_changing_the_grid(table1):
    full = integrate(table1, scenario(duration=0.02))
    thin = integrate(table1, scenario(duration=0.02, record_every=5))
    assert len(thin) == len(full.t[::5])
    for name in TRACE_CHANNELS:
        assert np.array_equal(thin.channel(name), full.channel(name)[::5]), name


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("method, per_step", [("rk4", 3), ("euler", 1)])
def test_sources_sampled_once_per_grid_time(table1, monkeypatch, method, per_step, every):
    # The sample at each step's start is also the record's sample: RK4 adds
    # only its midpoint and end samples, whatever the decimation.
    import tpim.dynamics

    calls = 0

    def counting_compile_sources(supply, load):
        sources = compile_sources(supply, load)

        def counted(t):
            nonlocal calls
            calls += 1
            return sources(t)

        return counted

    monkeypatch.setattr(tpim.dynamics, "compile_sources", counting_compile_sources)
    run = scenario(method=method, duration=0.01, record_every=every)
    integrate(table1, run)
    assert calls == per_step * run.integrator.n_steps + 1


def test_integrate_is_deterministic(table1):
    a = integrate(table1, scenario(duration=0.1))
    b = integrate(table1, scenario(duration=0.1))
    for name in TRACE_CHANNELS:
        assert np.array_equal(a.channel(name), b.channel(name)), name


def test_fixed_point_preserved_over_many_steps(table1):
    from tpim import VoltageSource

    quiet = Scenario(
        supply=VoltageSource(alpha=(), beta=(), frequency=50.0),
        load=LoadProfile.constant(0.0),
        integrator=IntegratorConfig(duration=0.05),
    )
    trace = integrate(table1, quiet)
    for name in ("psi_sa", "psi_sb", "psi_ra", "psi_rb", "omega_mech", "te", "te_ec"):
        assert np.all(trace.channel(name) == 0.0), name


def test_nonfinite_state_raises_with_partial_trace(table1):
    with pytest.raises(IntegrationError) as err:
        integrate(table1, scenario(dt=0.02, duration=1.0))
    exc = err.value
    assert exc.time == pytest.approx(0.06)
    assert len(exc.partial_trace) == 3  # records at 0, 0.02, 0.04
    assert exc.partial_trace.t[-1] == pytest.approx(0.04)
    assert "non-finite" in str(exc)
    # The partial trace is derived exactly as a run that stops before the failure.
    complete = integrate(table1, scenario(dt=0.02, duration=0.04))
    for name in TRACE_CHANNELS:
        assert np.array_equal(exc.partial_trace.channel(name), complete.channel(name)), name


def test_blocked_rotor_keeps_speed_at_zero(table1):
    trace = integrate(table1, scenario(duration=0.05, blocked_rotor=True))
    assert np.all(trace.omega_mech == 0.0)
    assert np.max(np.abs(trace.i_sb)) > 1.0  # electrically alive


def test_speed_conventions_coincide_for_single_pole_pair(table1):
    import dataclasses

    from tpim import validate_parameters

    from support import TABLE1

    single = validate_parameters(dataclasses.replace(TABLE1, pole_pairs=1))
    mech = integrate(single, scenario(duration=0.05))
    elec = integrate(single, scenario(duration=0.05, speed_convention="electrical_state"))
    for name in TRACE_CHANNELS:
        assert np.array_equal(mech.channel(name), elec.channel(name)), name


def test_speed_conventions_differ_for_multiple_pole_pairs(table1):
    mech = integrate(table1, scenario(duration=0.1))
    elec = integrate(table1, scenario(duration=0.1, speed_convention="electrical_state"))
    assert not np.allclose(mech.omega_mech, elec.omega_mech)
    assert np.all(np.isfinite(elec.omega_mech))


# ---------------------------------------------------------------------------
# oracle agreement and convergence
# ---------------------------------------------------------------------------

def _end_state(trace):
    return np.array(
        [trace.psi_sa[-1], trace.psi_sb[-1], trace.psi_ra[-1], trace.psi_rb[-1], trace.omega_mech[-1]]
    )


def test_rk4_matches_euler_oracle_on_short_horizon(table1):
    rk = integrate(table1, scenario(duration=0.01))
    eu = integrate(
        table1, scenario(method="euler", dt=1e-7, duration=0.01, record_every=100000)
    )
    got, ref = _end_state(rk), _end_state(eu)
    rel = np.abs(got - ref) / np.abs(ref)
    assert np.max(rel) < 1e-4, f"component deviations {rel}"


def test_euler_error_halves_with_step(table1, euler_reference):
    idx = 1000  # t = 0.1 s in the reference
    ref = np.array(
        [
            euler_reference.psi_sa[idx],
            euler_reference.psi_sb[idx],
            euler_reference.psi_ra[idx],
            euler_reference.psi_rb[idx],
            euler_reference.omega_mech[idx],
        ]
    )
    scales = np.array(
        [
            np.max(np.abs(euler_reference.psi_sa[: idx + 1])),
            np.max(np.abs(euler_reference.psi_sb[: idx + 1])),
            np.max(np.abs(euler_reference.psi_ra[: idx + 1])),
            np.max(np.abs(euler_reference.psi_rb[: idx + 1])),
            np.max(np.abs(euler_reference.omega_mech[: idx + 1])),
        ]
    )
    errs = {}
    for dt in (2e-5, 1e-5):
        tr = integrate(table1, scenario(method="euler", dt=dt, duration=0.1))
        errs[dt] = np.max(np.abs(_end_state(tr) - ref) / scales)
    ratio = errs[2e-5] / errs[1e-5]
    assert 1.8 < ratio < 2.2, f"halving dt changed the error by {ratio:.3f}x"


def test_rk4_self_convergence_is_fourth_order(table1):
    """Reference-free order check: consecutive step halvings shrink the
    endpoint difference by ~2^4."""
    ends = {
        dt: _end_state(integrate(table1, scenario(dt=dt, duration=0.1)))
        for dt in (8e-4, 4e-4, 2e-4)
    }
    scale = np.abs(ends[2e-4]) + 1e-12
    d1 = np.max(np.abs(ends[8e-4] - ends[4e-4]) / scale)
    d2 = np.max(np.abs(ends[4e-4] - ends[2e-4]) / scale)
    order = math.log2(d1 / d2)
    assert order >= 3.5, f"self-convergence order {order:.2f}"


def test_final_speed_robust_to_step_halving(table1, rated_trace):
    half = integrate(table1, scenario(dt=5e-5))
    w1, w2 = rated_trace.omega_mech[-1], half.omega_mech[-1]
    assert abs(w1 - w2) / abs(w1) < 1e-6


# ---------------------------------------------------------------------------
# scenario-level behavior
# ---------------------------------------------------------------------------

def test_rated_startup_settles_below_synchronous_speed(table1, rated_trace):
    report = summarize(rated_trace, table1, speed_tol=0.05)
    assert 0.0 < report.final_speed_mech < W_SYNC
    tail = slice(-2001, None)  # last 0.2 s
    mean_te = np.trapezoid(rated_trace.te[tail], rated_trace.t[tail]) / 0.2
    assert mean_te == pytest.approx(T_LOAD, rel=0.01)


def test_symmetric_machine_torque_ripple_is_numerical_residue(symmetric, symmetric_trace):
    report = summarize(symmetric_trace, symmetric)
    assert report.torque_ripple_pp / report.mean_torque < 0.02
    assert report.torque_ripple_pp / report.mean_torque < 1e-4  # actually tiny

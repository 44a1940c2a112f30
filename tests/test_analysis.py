"""Steady-state detection, summaries and the energy audit."""

import dataclasses
import math

import numpy as np
import pytest

from tpim import (
    TRACE_CHANNELS,
    Harmonic,
    SimulationTrace,
    SteadyStateNotReachedError,
    VoltageSource,
    build_scenario,
    energy_audit,
    integrate,
    load_config,
    summarize,
    validate_parameters,
)
from tpim.analysis import _periodic_tail, detect_steady_state

from support import (
    T_LOAD,
    W_SYNC,
    phasor_equilibrium_speed,
    phasor_steady_state,
    rated_supply,
    reference_steady_state,
    scenario,
    shoot,
    state_at,
    summary_bounds,
)


def synthetic_trace(omega, spacing=1e-3, frequency=50.0):
    records = np.zeros((len(TRACE_CHANNELS), len(omega)))
    records[TRACE_CHANNELS.index("t")] = np.arange(len(omega)) * spacing
    records[TRACE_CHANNELS.index("omega_mech")] = omega
    return SimulationTrace(records, step_size=spacing, record_every=1, supply_frequency=frequency)


# ---------------------------------------------------------------------------
# detect_steady_state
# ---------------------------------------------------------------------------

def test_constant_speed_detected_immediately():
    trace = synthetic_trace(np.full(301, 120.0))
    assert detect_steady_state(trace) == 0.0


def test_monotone_ramp_never_settles():
    # 10% growth per 0.1 s window: far outside the 0.1% tolerance.
    trace = synthetic_trace(np.linspace(100.0, 130.0, 301))
    with pytest.raises(SteadyStateNotReachedError, match="never settled within 0.001"):
        detect_steady_state(trace)


def test_short_trace_is_an_error():
    # Too short to judge is the same error as never settled, by its own message.
    trace = synthetic_trace(np.full(150, 120.0))
    with pytest.raises(SteadyStateNotReachedError, match="trace spans 0.149 s"):
        detect_steady_state(trace)
    # 0.5 s of records 0.25 s apart: long enough, but a window holds one record.
    with pytest.raises(SteadyStateNotReachedError, match="below the record spacing 0.25 s"):
        detect_steady_state(synthetic_trace(np.full(3, 120.0), spacing=0.25))


def test_rated_machine_speed_ripple_defeats_strict_tolerance(rated_trace):
    # The unsymmetrical machine carries a ~5% double-supply-frequency speed
    # oscillation, so the strict default tolerance never triggers on it;
    # a tolerance sized to that ripple settles well before 1.0 s.
    with pytest.raises(SteadyStateNotReachedError, match="never settled"):
        detect_steady_state(rated_trace)
    assert detect_steady_state(rated_trace, speed_tol=0.05) < 1.0


def test_symmetric_machine_settles_at_default_tolerance(symmetric_trace):
    assert 0.0 < detect_steady_state(symmetric_trace) < 1.0


def _swapped_supply():
    supply = rated_supply()
    return VoltageSource(alpha=supply.beta, beta=supply.alpha, frequency=supply.frequency)


def _harmonic_supply():
    supply = rated_supply()
    (a1,), (b1,) = supply.alpha, supply.beta
    q = 0.5 * math.pi
    return VoltageSource(
        alpha=(a1, Harmonic(3, 0.03 * a1.amplitude, 0.1), Harmonic(5, 0.02 * a1.amplitude, -0.2)),
        beta=(b1, Harmonic(3, 0.03 * a1.amplitude, 0.1 - 3 * q), Harmonic(5, 0.02 * a1.amplitude, -0.2 - 5 * q)),
        frequency=supply.frequency,
    )


def _flat_only_at_end():
    # 301 records, 101-sample windows: only the last window [200, 300] is flat.
    return np.concatenate([np.linspace(50.0, 110.0, 200), np.full(101, 120.0)])


def _spike_at_window_end():
    # Flat from record 100 on, but record 200, the last sample of the first
    # flat window, is an outlier: the first passing window starts at 201.
    omega = np.concatenate([np.linspace(50.0, 120.0, 100, endpoint=False), np.full(301, 120.0)])
    omega[200] = 130.0
    return omega


def test_detect_steady_state_matches_all_windows_reference(table1, rated_trace, symmetric_trace):
    traces = {
        "rated": rated_trace,
        "symmetric": symmetric_trace,
        **{
            f"load {torque}": integrate(table1, scenario(load_torque=torque))
            for torque in (0.2, 0.65, 1.3)
        },
        "harmonic, every 10": integrate(
            table1, scenario(supply=_harmonic_supply(), duration=1.5, record_every=10)
        ),
        "swapped phases": integrate(table1, scenario(supply=_swapped_supply(), load_torque=0.0)),
        "constant": synthetic_trace(np.full(301, 120.0)),
        "ramp": synthetic_trace(np.linspace(100.0, 130.0, 301)),
        "zero crossing": synthetic_trace(
            np.concatenate([np.linspace(-50.0, 50.0, 150), np.full(151, 50.0)])
        ),
        "last window only": synthetic_trace(_flat_only_at_end()),
        "spike at window end": synthetic_trace(_spike_at_window_end()),
    }
    assert reference_steady_state(traces["last window only"], 1e-3) == (True, 0.2)
    spike = traces["spike at window end"]
    assert reference_steady_state(spike, 1e-3) == (True, spike.t[201])
    assert traces["swapped phases"].omega_mech[-1] < 0.0
    for name, trace in traces.items():
        for tol in (1e-3, 0.05, 0.06):
            ref_reached, ref_settle = reference_steady_state(trace, speed_tol=tol)
            if ref_reached:
                assert detect_steady_state(trace, speed_tol=tol) == ref_settle, (name, tol)
            else:
                with pytest.raises(SteadyStateNotReachedError, match="never settled"):
                    detect_steady_state(trace, speed_tol=tol)
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="speed_tol"):
                detect_steady_state(trace, speed_tol=tol)
            if tol != math.inf:
                assert not reference_steady_state(trace, speed_tol=tol)[0]


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_requires_steady_state(table1):
    trace = synthetic_trace(np.linspace(100.0, 130.0, 301))
    with pytest.raises(SteadyStateNotReachedError, match="never settled within 0.001"):
        summarize(trace, table1)
    # A tolerance no window can meet is a bad argument, not an unsettled run.
    with pytest.raises(ValueError, match="speed_tol"):
        summarize(trace, table1, speed_tol=-1.0)


@pytest.mark.parametrize(
    "frequency, tail", [(50.0, slice(200, 301)), (5.0, slice(100, 301)), (2.0, slice(0, 301))]
)
def test_periodic_tail_of_slow_supplies(frequency, tail):
    # 0.3 s settled from the start: five 50 Hz periods fill the 0.1 s window,
    # one 0.2 s period at 5 Hz overruns it, and no whole 0.5 s period fits at 2 Hz.
    trace = synthetic_trace(np.full(301, 120.0), frequency=frequency)
    assert _periodic_tail(trace, 0) == tail


def test_periodic_tail_of_one_record(table1):
    # Records 0.15 s apart and a 0.06 s period: the one period that fits the
    # window rounds to no record spacing, so the tail is the last record
    # alone, and the summary's mean over it is that record's value.
    trace = synthetic_trace(np.full(3, 120.0), spacing=0.15, frequency=1 / 0.06)
    assert _periodic_tail(trace, 0) == slice(2, 3)
    assert summarize(trace, table1).final_speed_mech == 120.0


def test_rated_summary_operating_point(table1, rated_trace):
    report = summarize(rated_trace, table1, speed_tol=0.05)
    assert report.mean_torque == pytest.approx(T_LOAD, rel=0.01)
    assert 0.0 < report.final_speed_mech < W_SYNC
    assert 0.0 < report.slip < 0.05
    assert report.torque_ripple_pp > 0.0
    assert report.stator_current_rms_beta > report.stator_current_rms_alpha


def test_rated_summary_matches_phasor_equilibrium(table1, rated_trace):
    # Independent oracle: torque/speed balance of the same equations in the
    # frequency domain. The time-domain mean sits slightly off the fixed-
    # speed phasor point because the real trajectory oscillates through a
    # curved torque-speed characteristic.
    report = summarize(rated_trace, table1, speed_tol=0.05)
    w_eq = phasor_equilibrium_speed(table1, T_LOAD)
    assert report.final_speed_mech == pytest.approx(w_eq, rel=2.5e-3)


def test_symmetric_summary_matches_phasor_tightly(symmetric, symmetric_trace):
    report = summarize(symmetric_trace, symmetric)
    w_eq = phasor_equilibrium_speed(symmetric, T_LOAD)
    assert report.final_speed_mech == pytest.approx(w_eq, rel=1e-6)
    _, _, rms_a, rms_b = phasor_steady_state(symmetric, report.final_speed_mech)
    assert report.stator_current_rms_alpha == pytest.approx(rms_a, rel=1e-4)
    assert report.stator_current_rms_beta == pytest.approx(rms_b, rel=1e-4)
    assert report.mean_torque == pytest.approx(T_LOAD, rel=5e-3)
    assert 0.0 < report.slip < 0.05


def test_summary_is_deterministic(table1, rated_trace):
    assert summarize(rated_trace, table1, speed_tol=0.05) == summarize(
        rated_trace, table1, speed_tol=0.05
    )


def _bundled_orbit(name):
    """A bundled config's parameters, scenario, full run and free-rotor
    orbit, shot from the run's end."""
    config = load_config(name)
    p, sc = validate_parameters(config.machine), build_scenario(config)
    trace = integrate(p, sc)
    return p, sc, trace, shoot(p, sc, state_at(trace, -1))


@pytest.mark.parametrize("name, speed_tol", [("paper_s3", 0.05), ("symmetric_check", 0.05), ("symmetric_check", 1e-3)])
def test_summary_matches_the_free_rotor_orbit(name, speed_tol):
    # The run's end is on the orbit to what the settle time and the slowest
    # Floquet multiplier allow; the summary's window holds whole periods,
    # on the orbit's phase, so its means are the orbit's up to that.
    p, sc, trace, orbit = _bundled_orbit(name)
    assert max(abs(orbit.multipliers)) < 1.0  # a stable orbit, which the bounds need
    report = summarize(trace, p, speed_tol=speed_tol)
    speed_bound, torque_bound = summary_bounds(p, orbit, report.settle_time, trace.t[-1], speed_tol)
    assert abs(report.final_speed_mech - orbit.mean("omega_mech")) <= speed_bound
    assert abs(report.mean_torque - orbit.mean("te")) <= torque_bound


@pytest.mark.parametrize("name", ["paper_s3", "symmetric_check"])
def test_orbit_mean_torque_is_the_load_to_rk4_order(name):
    # The speed returns to its start over a period of the orbit, so the
    # mean torque the speed update integrates is the load. The trapezoid
    # mean of a periodic sample is exact but for aliasing, far below
    # rounding at 200 samples a period; what is left is RK4's error (the
    # recorded te is not the stage values the update averages), which falls
    # 16-fold when dt halves, up to the next order's share, 2*pi*2f*dt for
    # the torque's double-frequency term.
    p, sc, _, orbit = _bundled_orbit(name)
    dt, load = sc.integrator.step_size, sc.load.breakpoints[0][1]
    halved = dataclasses.replace(sc, integrator=dataclasses.replace(sc.integrator, step_size=dt / 2))
    gap, halved_gap = orbit.mean("te") - load, shoot(p, halved, orbit.state).mean("te") - load
    assert gap / halved_gap == pytest.approx(16.0, rel=2.0 * math.pi * 2.0 * sc.supply.frequency * dt)


# ---------------------------------------------------------------------------
# energy audit
# ---------------------------------------------------------------------------

def test_zero_trace_audits_to_zero(table1):
    trace = synthetic_trace(np.zeros(10))
    report = energy_audit(trace, table1)
    assert report.stator_input_energy == 0.0
    assert report.stator_copper_loss == 0.0
    assert report.rotor_copper_loss == 0.0
    assert report.field_energy_delta == 0.0
    assert report.mechanical_energy_out == 0.0
    assert report.residual == 0.0


def test_unknown_torque_channel_rejected(table1, rated_trace):
    with pytest.raises(ValueError, match="torque_channel"):
        energy_audit(rated_trace, table1, torque_channel="torque")


def test_blocked_rotor_balance_closes(table1):
    trace = integrate(table1, scenario(duration=0.5, load_torque=0.0, blocked_rotor=True))
    audits = [energy_audit(trace, table1, torque_channel=ch) for ch in ("te", "te_ec")]
    for audit in audits:
        assert audit.mechanical_energy_out == 0.0
        assert abs(audit.residual) < 0.005 * audit.stator_input_energy
    # with the mechanical channel pinned at zero both torque modes agree
    assert audits[0].residual == audits[1].residual
    assert audits[0].stator_input_energy == audits[1].stator_input_energy


def test_rated_run_audit_per_torque_channel(table1, rated_trace):
    consistent = energy_audit(rated_trace, table1, torque_channel="te_ec")
    assert abs(consistent.residual) < 0.005 * consistent.stator_input_energy
    assert consistent.stator_copper_loss > 0.0
    assert consistent.rotor_copper_loss > 0.0

    # The torque that drives the speed equation does not close the balance
    # for a turns ratio away from 1; the audit reports that divergence.
    primary = energy_audit(rated_trace, table1, torque_channel="te")
    assert abs(primary.residual) > 0.10 * primary.stator_input_energy


def test_audit_residual_shrinks_with_step_size(table1):
    coarse = energy_audit(integrate(table1, scenario(duration=0.3)), table1)
    fine = energy_audit(integrate(table1, scenario(dt=5e-5, duration=0.3)), table1)
    assert abs(fine.residual) < abs(coarse.residual)

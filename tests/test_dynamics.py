"""Integrators: step contracts, trace contracts, oracle agreement."""

import csv
import dataclasses
import math
import sys

import numpy as np
import pytest

from tpim import (
    Harmonic,
    IntegrationError,
    IntegratorConfig,
    LoadProfile,
    MachineState,
    Scenario,
    VoltageSource,
    integrate,
    load_config,
    summarize,
)
from tpim import dynamics
from tpim.cli import main
from tpim.config import build_supply
from tpim.dynamics import TRACE_CHANNELS, _step_loop, compile_derivative, compile_sources
from tpim.machine import SPEED_CONVENTIONS

from support import (
    SOURCE_SHAPES, T_LOAD, W_SYNC, PeriodicOrbit, rated_supply, reference_derivative, sample_load, sample_voltage,
    scenario, solve_currents, state_at, textbook_torques,
)

SILENT = VoltageSource(alpha=(), beta=(), frequency=50.0)


# ---------------------------------------------------------------------------
# IntegratorConfig and Scenario
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
        dict(record_every=True),  # a bool is no record count
        dict(step_size=1e-300, duration=1.0),  # more steps than an index can hold
        dict(record_every=sys.maxsize + 1),  # more than an index can hold
    ],
)
def test_integrator_config_rejects(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


def test_step_counts():
    assert IntegratorConfig(duration=1.0, step_size=1e-4).n_steps == 10000
    assert IntegratorConfig(duration=0.0, step_size=1e-4).n_steps == 0


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(speed_convention="bogus"), "unknown speed convention: 'bogus'"),
        # nan would fail the first step; inf at duration 0 would write a trace of inf.
        (dict(psi_s_alpha=math.nan), "initial state must be finite: psi_s_alpha = nan"),
        (dict(psi_r_beta=-math.inf), "initial state must be finite: psi_r_beta = -inf"),
        (dict(omega_mech=math.inf), "initial state must be finite: omega_mech = inf"),
    ],
    ids=["speed_convention", "nan_flux", "minus_inf_flux", "inf_speed"],
)
def test_scenario_rejects_what_cannot_run(change, message):
    if "speed_convention" not in change:
        change = dict(initial_state=MachineState(**change))
    with pytest.raises(ValueError) as info:
        scenario(duration=0.0, **change)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_zero_state_is_fixed_point_of_both_steppers(table1):
    rest = MachineState()
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
    sources = compile_sources(rated_supply())
    t = 123 * dt

    def deriv_at(x, tau):
        return reference_derivative(table1, x, *sources(tau), T_LOAD)

    x = state_at(trace, 123)
    k1 = deriv_at(x, t)
    k2 = deriv_at(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = deriv_at(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = deriv_at(x + dt * k3, t + dt)
    manual = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    assert state_at(trace, 124) == pytest.approx(manual, rel=1e-13)


@pytest.mark.parametrize("blocked", [False, True], ids=["free", "blocked"])
@pytest.mark.parametrize("convention", ["mechanical_state", "electrical_state"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_generated_loop_matches_derivative_stepped_by_hand(table1, method, convention, blocked):
    # Each generated loop inlines the right-hand side that compile_derivative
    # renders once, and the sampler that compile_sources renders once, so
    # stepping those functions with the same formulas must give the same bits,
    # for every supply shape. A moving start makes every coupling term count.
    dt = 2e-3  # large steps, so that a reordered sum shows in the state
    start = MachineState(0.4, -0.3, 0.35, 0.2, 60.0)
    deriv = compile_derivative(table1, convention, blocked)

    def advance(x, t, h, torque):
        """One step of length h from time t, at one load torque."""
        k1 = deriv(*x, *sources(t), torque)
        if method == "euler":
            return tuple(xi + h * d1 for xi, d1 in zip(x, k1))
        half = 0.5 * h
        k2 = deriv(*(xi + half * d for xi, d in zip(x, k1)), *sources(t + half), torque)
        k3 = deriv(*(xi + half * d for xi, d in zip(x, k2)), *sources(t + half), torque)
        k4 = deriv(*(xi + h * d for xi, d in zip(x, k3)), *sources(t + h), torque)
        return tuple(
            xi + h / 6.0 * (d1 + 2.0 * (d2 + d3) + d4) for xi, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)
        )

    for shape, (supply, load) in SOURCE_SHAPES.items():
        sources = compile_sources(supply)
        # Each step as its (start, length, torque) pieces. The load that steps
        # changes torque at the end of step 1 and inside step 2, which splits
        # there into one substep on each side of 3.3e-3.
        steps = [[(k * dt, dt, sample_load(load, k * dt))] for k in range(3)]
        if shape == "load_steps":
            steps[1] = [(dt, 3.3e-3 - dt, 0.7), (3.3e-3, 2 * dt - 3.3e-3, T_LOAD)]
        x = dataclasses.astuple(start)
        expected = [(*sources(0.0), sample_load(load, 0.0), *x)]
        for k, pieces in enumerate(steps):
            for piece in pieces:
                x = advance(x, *piece)
            expected.append((*sources((k + 1) * dt), sample_load(load, (k + 1) * dt), *x))

        run = scenario(
            method=method, dt=dt, duration=3 * dt, initial_state=start,
            speed_convention=convention, blocked_rotor=blocked,
        )
        trace = integrate(table1, dataclasses.replace(run, supply=supply, load=load))
        shaft = 1.0 / table1.pole_pairs if convention == "electrical_state" else 1.0
        for idx, (v_sa, v_sb, tl, *fluxes, w) in enumerate(expected):
            recorded = [trace.v_sa[idx], trace.v_sb[idx], trace.tl[idx], *state_at(trace, idx)]
            # repr tells -0.0 from 0.0, which == does not.
            assert [repr(float(v)) for v in recorded] == list(
                map(repr, [v_sa, v_sb, tl, *fluxes, w * shaft])
            ), (shape, idx)


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
    with pytest.raises(KeyError, match="unknown trace channel: 'bogus'"):
        trace.channel("bogus")
    # Each channel is a view of its row of the records, by either name.
    for name in TRACE_CHANNELS:
        row = trace.records[TRACE_CHANNELS.index(name)].__array_interface__
        assert getattr(trace, name).__array_interface__ == trace.channel(name).__array_interface__ == row, name


def test_trace_cannot_be_rewritten_through_its_channels(table1):
    trace = integrate(table1, scenario(duration=0.01))
    before = trace.records.copy()
    for array in (trace.te, trace.channel("te"), trace.records):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0.0
    assert np.array_equal(trace.records, before)
    # The trace holds a read-only view: the array it was built from stays writable.
    records = before.copy()
    dataclasses.replace(trace, records=records)
    assert records.flags.writeable


def test_record_every_decimates_without_changing_the_grid(table1):
    full = integrate(table1, scenario(duration=0.02))
    thin = integrate(table1, scenario(duration=0.02, record_every=5))
    assert len(thin) == len(full.t[::5])
    for name in TRACE_CHANNELS:
        assert np.array_equal(thin.channel(name), full.channel(name)[::5]), name


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("method, per_step", [("rk4", 3), ("euler", 1)])
def test_sources_sampled_once_per_grid_time(table1, monkeypatch, method, per_step, every):
    # The sample at each step's start is also the record's sample, whatever
    # the decimation. RK4 samples its midpoint and end too, and its next step
    # starts from the end sample wherever (k - 1) * dt + dt is the float
    # k * dt. A supply of one harmonic per phase calls cos twice per sample.
    # The C loop runs the same statements, but only the Python loop's cos
    # can be counted, so this run takes the Python loop.
    cos, calls = math.cos, 0

    def counted_cos(x):
        nonlocal calls
        calls += 1
        return cos(x)

    monkeypatch.setattr(math, "cos", counted_cos)
    monkeypatch.setattr(dynamics, "_step_loop", dynamics._python_loop)
    run = scenario(method=method, duration=0.01, record_every=every)
    integrate(table1, run)
    dt, n = run.integrator.step_size, run.integrator.n_steps
    reused = sum((k - 1) * dt + dt == k * dt for k in range(1, n + 1)) if method == "rk4" else 0
    assert calls == 2 * (per_step * n + 1 - reused)


@pytest.mark.parametrize("on_grid", [True, False], ids=["k_dt", "previous_plus_dt"])
def test_rk4_end_sample_reuse_matches_reference_samplers(table1, on_grid):
    # Step k ends at (k - 1) * dt + dt, which is not always the float k * dt
    # that starts step k + 1: at dt = 1e-4 and k = 1003 the end is
    # 0.10030000000000001. The record at k * dt must sample the voltages there
    # again, and read the load at k * dt, on whichever side of that one-ulp
    # gap the load steps.
    dt, k = 1e-4, 1003
    end = (k - 1) * dt + dt
    assert end != k * dt
    load = LoadProfile(((0.0, 0.4), (k * dt if on_grid else end, T_LOAD)))
    run = dataclasses.replace(scenario(dt=dt, duration=0.11), load=load)
    n = run.integrator.n_steps
    assert {(j - 1) * dt + dt == j * dt for j in range(1, n + 1)} == {True, False}
    trace = integrate(table1, run)
    recorded = [tuple(map(repr, map(float, row))) for row in zip(trace.v_sa, trace.v_sb, trace.tl)]
    expected = [(*map(repr, sample_voltage(run.supply, t)), repr(sample_load(load, t))) for t in map(float, trace.t)]
    assert recorded == expected
    assert bool(trace.tl[k] == T_LOAD) is on_grid


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_any_harmonic_count_integrates(table1, method):
    supply = VoltageSource(
        alpha=tuple(Harmonic(k, 1.0 / k) for k in range(1, 5001)), beta=(), frequency=50.0
    )
    trace = integrate(table1, scenario(supply=supply, method=method, duration=3e-4))
    assert [repr(float(v)) for v in trace.v_sa] == [
        repr(sample_voltage(supply, float(t))[0]) for t in trace.t
    ]


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
    assert exc.partial_trace.records.flags.c_contiguous  # made of the slice records[:, :3]
    assert "non-finite" in str(exc)
    # The partial trace is derived exactly as a run that stops before the failure.
    complete = integrate(table1, scenario(dt=0.02, duration=0.04))
    for name in TRACE_CHANNELS:
        assert np.array_equal(exc.partial_trace.channel(name), complete.channel(name)), name


def test_nonfinite_state_in_a_split_step_raises_at_the_substep_end(table1):
    # The step from 0.04 to 0.06 s splits at the load step; its first substep
    # already goes non-finite, and substeps record nothing.
    load = LoadProfile(((0.0, T_LOAD), (0.05, 0.5)))
    with pytest.raises(IntegrationError) as err:
        integrate(table1, dataclasses.replace(scenario(dt=0.02, duration=1.0), load=load))
    assert err.value.time == 0.05
    complete = integrate(table1, scenario(dt=0.02, duration=0.04))
    for name in TRACE_CHANNELS:
        assert np.array_equal(err.value.partial_trace.channel(name), complete.channel(name)), name


def test_blocked_rotor_keeps_speed_at_zero(table1):
    trace = integrate(table1, scenario(duration=0.05, blocked_rotor=True))
    assert np.all(trace.omega_mech == 0.0)
    assert np.max(np.abs(trace.i_sb)) > 1.0  # electrically alive


@pytest.mark.parametrize("speed", [60.0, -60.0])
@pytest.mark.parametrize("convention", SPEED_CONVENTIONS)
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_blocked_rotor_keeps_its_initial_speed(table1, method, convention, speed):
    # A blocked rotor is a zero 1/J: each stage's speed derivative is a zero,
    # and a nonzero speed plus a zero keeps every bit of that speed.
    start = MachineState(0.0, 0.0, 0.0, 0.0, speed)
    run = scenario(method=method, duration=0.05, initial_state=start, speed_convention=convention,
                   blocked_rotor=True)
    trace = integrate(table1, run)
    shaft = speed * (1.0 / table1.pole_pairs) if convention == "electrical_state" else speed
    assert np.all(trace.omega_mech == shaft)
    assert np.any(trace.te > trace.tl) and np.any(trace.te < trace.tl)  # both signs of te - tl


def test_one_step_loop_serves_every_speed_convention_and_rotor(table1):
    # Both settings are machine constants of the loop, not variants of it.
    _step_loop.cache_clear()
    for convention in SPEED_CONVENTIONS:
        for blocked in (False, True):
            integrate(table1, scenario(duration=1e-3, speed_convention=convention, blocked_rotor=blocked))
    assert _step_loop.cache_info().currsize == 1


def test_one_step_loop_serves_constant_and_stepped_loads(table1):
    # The load torque is an argument of the loop, constant over one call.
    _step_loop.cache_clear()
    integrate(table1, scenario(duration=1e-3))
    stepped = LoadProfile(((0.0, 0.4), (2e-4, 0.7), (3.5e-4, T_LOAD)))
    integrate(table1, dataclasses.replace(scenario(duration=1e-3), load=stepped))
    assert _step_loop.cache_info().currsize == 1
    _step_loop("rk4", (1, 1))  # the key is the method and the harmonics per phase
    assert _step_loop.cache_info()[:2] == (2, 1)  # hits, misses


def test_speed_conventions_coincide_for_single_pole_pair(table1):
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


def _assert_channels_match_independent_maps(p, trace):
    fluxes = (trace.psi_sa, trace.psi_sb, trace.psi_ra, trace.psi_rb)
    currents = solve_currents(p, *fluxes)
    torques = textbook_torques(p, trace.psi_ra, trace.psi_rb, *currents)
    for name, want in zip(("i_sa", "i_sb", "i_ra", "i_rb", "te", "te_ec"), (*currents, *torques)):
        got = trace.channel(name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("convention", SPEED_CONVENTIONS)
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_recorded_channels_match_independent_maps(table1, method, convention, blocked):
    # The currents of a 2x2 linear solve per axis and the textbook torques of
    # those currents, at the recorded fluxes.
    start = MachineState(0.0, 0.0, 0.0, 0.0, 60.0)
    run = scenario(method=method, dt=1e-4 if method == "rk4" else 1e-5, duration=0.02, initial_state=start,
                   speed_convention=convention, blocked_rotor=blocked)
    _assert_channels_match_independent_maps(table1, integrate(table1, run))


def test_partial_trace_channels_match_independent_maps(table1):
    with pytest.raises(IntegrationError) as err:
        integrate(table1, scenario(dt=0.02, duration=1.0))
    assert len(err.value.partial_trace) == 3
    _assert_channels_match_independent_maps(table1, err.value.partial_trace)


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


# Load steps from 0.4 N*m to rated load during the run-up, on grids of
# 2^-11, 2^-12 and 2^-13 s, whose times are exact: 2^-4 s is on every grid,
# and the other breakpoints fall inside a step of every grid.
_GRID_STEP = 2.0**-4
_FINEST = 2.0**-13
LOAD_STEPS = {
    "on_grid": ((_GRID_STEP, T_LOAD),),
    "off_grid": ((_GRID_STEP + 0.3 * _FINEST, T_LOAD),),
    "two_in_one_step": ((_GRID_STEP + 0.2 * _FINEST, 0.7), (_GRID_STEP + 0.7 * _FINEST, T_LOAD)),
}


@pytest.mark.parametrize("steps", LOAD_STEPS.values(), ids=LOAD_STEPS.keys())
def test_rk4_self_convergence_is_fourth_order_across_load_steps(table1, steps):
    """Each load segment is stepped at its own torque, and a step that a
    breakpoint falls in is split there, so the order is that of a constant
    load (the bound of the test above)."""
    load = LoadProfile(((0.0, 0.4), *steps))
    dts = (4 * _FINEST, 2 * _FINEST, _FINEST)
    ends = {dt: _end_state(integrate(table1, dataclasses.replace(scenario(dt=dt, duration=0.125), load=load)))
            for dt in dts}
    scale = np.abs(ends[_FINEST]) + 1e-12
    d1 = np.max(np.abs(ends[dts[0]] - ends[dts[1]]) / scale)
    d2 = np.max(np.abs(ends[dts[1]] - ends[dts[2]]) / scale)
    order = math.log2(d1 / d2)
    assert order >= 3.5, f"self-convergence order {order:.2f}"


_DT = 1e-4
LOAD_EDGES = {
    "first_half_of_first_step": (LoadProfile(((0.0, 0.4), (0.3 * _DT, T_LOAD))), 10, 1),
    "at_the_duration": (LoadProfile(((0.0, 0.4), (10 * _DT, T_LOAD))), 10, 1),
    "past_the_duration": (LoadProfile(((0.0, 0.4), (0.5, T_LOAD))), 10, 1),
    "zero_duration": (LoadProfile(((0.0, 0.4), (0.5 * _DT, 0.7), (_DT, T_LOAD))), 0, 1),
    "on_a_record_step": (LoadProfile(((0.0, 0.4), (6 * _DT, 0.7), (7.5 * _DT, T_LOAD))), 11, 3),
}


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("load, n_steps, every", LOAD_EDGES.values(), ids=LOAD_EDGES.keys())
def test_load_steps_at_the_edges_of_the_grid(table1, method, load, n_steps, every):
    # Substeps around a breakpoint record nothing, so every record sits on
    # the grid, once, and reads the load at its own time.
    run = dataclasses.replace(
        scenario(method=method, duration=n_steps * _DT, record_every=every), load=load
    )
    assert run.integrator.n_steps == n_steps
    trace = integrate(table1, run)
    grid = range(0, n_steps + 1, every)
    assert len(trace) == len(grid)
    assert trace.t.tolist() == [k * _DT for k in grid]
    assert trace.tl.tolist() == [sample_load(load, k * _DT) for k in grid]


@pytest.mark.parametrize("start", [10 * _DT, 0.5], ids=["at_the_duration", "past_the_duration"])
def test_load_step_from_the_last_record_on_changes_only_the_load_channel(table1, start):
    constant = integrate(table1, scenario(duration=10 * _DT, load_torque=0.4))
    load = LoadProfile(((0.0, 0.4), (start, T_LOAD)))
    stepped = integrate(table1, dataclasses.replace(scenario(duration=10 * _DT), load=load))
    for name in TRACE_CHANNELS:
        if name != "tl":
            assert np.array_equal(stepped.channel(name), constant.channel(name)), name
    assert stepped.tl[-1] == (T_LOAD if start == 10 * _DT else 0.4)


def test_final_speed_robust_to_step_halving(table1, rated_trace):
    half = integrate(table1, scenario(dt=5e-5))
    w1, w2 = rated_trace.omega_mech[-1], half.omega_mech[-1]
    assert abs(w1 - w2) / abs(w1) < 1e-6


# Held speeds, as the state holds them under each convention: 150 rad/s of
# shaft speed, and 150 rad/s of electrical speed.
_HELD = 150.0


def _orbit_errors(p, supply, convention, method, dts, duration):
    """Max flux deviation from the periodic orbit over every record, relative
    to the largest orbit flux, for each dt; and the finest run and orbit."""
    orbit = PeriodicOrbit(p, supply, _HELD, convention)
    start = MachineState(*orbit.fluxes(0.0), _HELD)
    errors = []
    for dt in dts:
        trace = integrate(p, scenario(supply=supply, method=method, dt=dt, duration=duration, initial_state=start,
                                      speed_convention=convention, blocked_rotor=True))
        want = orbit.fluxes(trace.t)
        got = np.array([trace.psi_sa, trace.psi_sb, trace.psi_ra, trace.psi_rb])
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return errors, trace, orbit


@pytest.mark.parametrize("convention", SPEED_CONVENTIONS)
@pytest.mark.parametrize("shape", ["quadrature", "harmonics", "zero_amplitude"])
def test_rk4_is_fourth_order_on_the_held_speed_orbit(table1, shape, convention):
    """Started on the exact periodic solution at a held speed, the run has no
    transient, so its deviation is RK4's global error at every record; the
    order bound is that of the self-convergence test above. At the finest
    step the recorded currents and torques agree with the orbit's."""
    supply = SOURCE_SHAPES[shape][0]
    errors, trace, orbit = _orbit_errors(table1, supply, convention, "rk4", (4e-4, 2e-4, 1e-4), 0.1)
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= 3.5, f"orders {orders}, errors {errors}"
    # The currents relative to the largest orbit current, as the fluxes above.
    currents = orbit.currents(trace.t)
    fluxes = orbit.fluxes(trace.t)
    scale = np.max(np.abs(currents))
    torques = textbook_torques(table1, fluxes[2], fluxes[3], *currents)
    for name, want in zip(("i_sa", "i_sb", "i_ra", "i_rb", "te", "te_ec"), (*currents, *torques)):
        deviation = np.max(np.abs(trace.channel(name) - want)) / (scale if name[0] == "i" else np.max(np.abs(want)))
        assert deviation < 1e-6, f"{name} deviates by {deviation:.2e}"


@pytest.mark.parametrize("convention", SPEED_CONVENTIONS)
def test_euler_is_first_order_on_the_held_speed_orbit(table1, convention):
    errors, _, _ = _orbit_errors(table1, rated_supply(), convention, "euler", (4e-5, 2e-5, 1e-5), 0.05)
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(abs(order - 1.0) < 0.05 for order in orders), f"orders {orders}, errors {errors}"


def test_blocked_rotor_sweep_mean_torque_matches_the_orbit(tmp_path):
    """The torque-speed characteristic through the CLI: a sweep of the
    blocked rotor's held speed gives the orbit's mean te on each row. The
    runs start from zero flux, so the rows keep what is left of that start
    transient (1.9e-7 to 8.7e-7 relative)."""
    speeds = "100,150,155"
    argv = ["sweep", "blocked_rotor", "--axis", "initial_state.omega_mech", "--values", speeds,
            "--fields", "mean_torque", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "blocked_rotor_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    config = load_config("blocked_rotor")
    for speed, row in zip(speeds.split(","), rows, strict=True):
        assert row["status"] == "ok"
        want = PeriodicOrbit(config.machine, build_supply(config), float(speed)).mean_torques()[0]
        deviation = abs(float(row["mean_torque"]) - want) / abs(want)
        assert deviation < 1e-5, f"{speed} rad/s: mean te deviates from the orbit's by {deviation:.2e}"


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

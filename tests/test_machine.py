"""Machine model: validation, flux/current maps, torque, state derivative.

The current and torque maps are tested through the loop's record
statements, rendered at one point by support.channels, at given fluxes.
"""

import dataclasses
import math

import numpy as np
import pytest

from tpim import (
    LoadProfile,
    MachineState,
    ParameterError,
    Scenario,
    IntegratorConfig,
    VoltageSource,
    integrate,
    validate_parameters,
)
from tpim.dynamics import compile_derivative

from support import SYMMETRIC, TABLE1, channels, fluxes_from_currents, reference_derivative, solve_currents


# ---------------------------------------------------------------------------
# validate_parameters
# ---------------------------------------------------------------------------

def test_table1_parameters_are_valid():
    p = validate_parameters(TABLE1)
    assert p.det_alpha > 0.0 and p.det_beta > 0.0
    assert p.det_alpha == pytest.approx(0.2549 * 0.2542 - 0.2464**2, rel=1e-15)


def test_leakage_violation_reported_by_name():
    bad = dataclasses.replace(TABLE1, l_m_alpha=0.30)
    with pytest.raises(ParameterError, match="leakage condition violated"):
        validate_parameters(bad)


def test_zero_inertia_rejected():
    bad = dataclasses.replace(TABLE1, inertia_j=0.0)
    with pytest.raises(ParameterError, match="inertia must be positive"):
        validate_parameters(bad)


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("r_s_beta", -1.0, "resistance must be positive"),
        ("r_s_beta", math.nan, "resistance must be positive"),
        ("l_r_alpha", 0.0, "inductance must be positive"),
        ("turns_ratio_a", 0.0, "turns ratio must be positive"),
        ("pole_pairs", 0, "pole_pairs must be a positive integer"),
        ("pole_pairs", True, "pole_pairs must be a positive integer"),
        # The kernels read pole_pairs as a float, which cannot hold 10**400.
        pytest.param("pole_pairs", 10**400, "pole_pairs must be at most 1.7976931348623157e[+]308: pole_pairs = 10{400}$",
                     id="pole_pairs-past_float"),
        ("inertia_j", -2.0, "inertia must be positive"),
        # inf passes "> 0": as inertia it locks the shaft, elsewhere the first step fails.
        ("r_s_alpha", math.inf, "resistance must be positive and finite: r_s_alpha = inf"),
        ("l_s_alpha", math.inf, "inductance must be positive and finite: l_s_alpha = inf"),
        ("turns_ratio_a", math.inf, "turns ratio must be positive and finite: turns_ratio_a = inf"),
        ("inertia_j", math.inf, "inertia must be positive and finite: inertia_j = inf"),
    ],
)
def test_invariant_violations_name_the_field(field, value, match):
    bad = dataclasses.replace(TABLE1, **{field: value})
    with pytest.raises(ParameterError, match=match):
        validate_parameters(bad)


def test_magnetizing_above_self_inductance_rejected():
    # Passes the leakage condition (0.15^2 < 0.1*0.4) but l_m > min(l_s, l_r).
    bad = dataclasses.replace(TABLE1, l_s_alpha=0.1, l_r_alpha=0.4, l_m_alpha=0.15)
    with pytest.raises(ParameterError, match="magnetizing inductance exceeds"):
        validate_parameters(bad)


def test_referred_rotor_parameters_are_consistent():
    # The alpha-axis rotor quantities are the beta ones scaled by the squared
    # turns ratio; the residual of l_r_alpha/a - a*l_r_beta measures how well
    # the data set honors that convention.
    a = TABLE1.turns_ratio_a
    assert abs(TABLE1.l_r_alpha / a - a * TABLE1.l_r_beta) < 4e-4


# ---------------------------------------------------------------------------
# flux <-> current maps
# ---------------------------------------------------------------------------

def test_zero_currents_give_zero_fluxes(table1):
    assert fluxes_from_currents(table1, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)


def test_unit_alpha_stator_current_reads_inductances(table1):
    psi = fluxes_from_currents(table1, 1.0, 0.0, 0.0, 0.0)
    assert psi[0] == pytest.approx(0.2549, abs=1e-15)
    assert psi[2] == pytest.approx(0.2464, abs=1e-15)
    assert psi[1] == 0.0 and psi[3] == 0.0


def test_beta_flux_hand_value(table1):
    # psi_s_beta = 2*0.1846 - 0.1772 = 0.1920 V*s
    psi = fluxes_from_currents(table1, 0.0, 2.0, 0.0, -1.0)
    assert psi[1] == pytest.approx(0.1920, abs=1e-12)


def _currents(p, *fluxes):
    return channels(p, *fluxes)[:4]


def _torques(p, *currents):
    """(te, te_ec) of the loop's record statements, rendered at one point by
    support.channels, at the fluxes of the currents."""
    return channels(p, *fluxes_from_currents(p, *currents))[4:]


def test_zero_fluxes_give_zero_currents(table1):
    assert _currents(table1, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)


def test_current_recovery_matches_linear_solve_oracle(table1):
    currents = (1.0, 0.5, -0.2, 0.3)
    psi = fluxes_from_currents(table1, *currents)
    recovered = _currents(table1, *psi)
    oracle = solve_currents(table1, *psi)
    for got, expect, want in zip(recovered, oracle, currents):
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-12)


def test_inverse_of_unit_current_fluxes(table1):
    i = _currents(table1, 0.2549, 0.0, 0.2464, 0.0)
    assert i[0] == pytest.approx(1.0, rel=1e-12)
    assert i[2] == pytest.approx(0.0, abs=1e-12)
    assert i[1] == 0.0 and i[3] == 0.0


def test_round_trip_random_currents(table1):
    rng = np.random.default_rng(7)
    for _ in range(200):
        currents = rng.uniform(-50.0, 50.0, size=4)
        back = _currents(table1, *fluxes_from_currents(table1, *currents))
        scale = np.max(np.abs(currents))
        assert np.max(np.abs(np.array(back) - currents)) <= 1e-12 * scale


def test_flux_maps_are_linear(table1):
    rng = np.random.default_rng(21)
    x = rng.uniform(-5, 5, size=4)
    y = rng.uniform(-5, 5, size=4)
    a, b = 1.7, -0.4
    direct = np.array(fluxes_from_currents(table1, *(a * x + b * y)))
    combined = a * np.array(fluxes_from_currents(table1, *x)) + b * np.array(
        fluxes_from_currents(table1, *y)
    )
    assert direct == pytest.approx(combined, rel=1e-12, abs=1e-14)

    direct_i = np.array(_currents(table1, *(a * x + b * y)))
    combined_i = a * np.array(_currents(table1, *x)) + b * np.array(
        _currents(table1, *y)
    )
    assert direct_i == pytest.approx(combined_i, rel=1e-12, abs=1e-12)


def test_axis_decoupling(table1):
    base = (0.3, 0.1, -0.2, 0.05)
    perturbed = (0.3, 0.9, -0.2, -0.7)  # only beta fluxes changed
    i0 = _currents(table1, *base)
    i1 = _currents(table1, *perturbed)
    assert i1[0] == i0[0]  # i_s_alpha untouched
    assert i1[2] == i0[2]  # i_r_alpha untouched
    assert i1[1] != i0[1] and i1[3] != i0[3]


# ---------------------------------------------------------------------------
# torque
# ---------------------------------------------------------------------------

def test_torque_zero_currents(table1):
    assert _torques(table1, 0.0, 0.0, 0.0, 0.0)[0] == 0.0


def test_torque_hand_values(table1):
    assert _torques(table1, 0.0, 1.0, 1.0, 0.0)[0] == pytest.approx(
        2 * 0.1772, abs=1e-15
    )
    assert _torques(table1, 1.0, 0.0, 0.0, 1.0)[0] == pytest.approx(
        -2 * 0.2464, abs=1e-15
    )


def test_torque_bilinearity(table1):
    rng = np.random.default_rng(3)
    s1, s2 = rng.uniform(-8, 8, size=2), rng.uniform(-8, 8, size=2)
    rotor = rng.uniform(-8, 8, size=2)
    a, b = 2.5, -1.25
    mixed = _torques(
        table1, a * s1[0] + b * s2[0], a * s1[1] + b * s2[1], rotor[0], rotor[1]
    )[0]
    split = a * _torques(table1, s1[0], s1[1], *rotor)[0] + b * (
        _torques(table1, s2[0], s2[1], *rotor)[0]
    )
    assert mixed == pytest.approx(split, rel=1e-12)

    r1, r2 = rng.uniform(-8, 8, size=2), rng.uniform(-8, 8, size=2)
    stator = rng.uniform(-8, 8, size=2)
    mixed_r = _torques(
        table1, stator[0], stator[1], a * r1[0] + b * r2[0], a * r1[1] + b * r2[1]
    )[0]
    split_r = a * _torques(table1, *stator, r1[0], r1[1])[0] + b * (
        _torques(table1, *stator, r2[0], r2[1])[0]
    )
    assert mixed_r == pytest.approx(split_r, rel=1e-12)


def test_energy_consistent_torque_zero_state(table1):
    assert _torques(table1, 0.0, 0.0, 0.0, 0.0)[1] == 0.0


def test_energy_consistent_torque_hand_value(table1):
    # p_p * (a*psi_r_beta*i_r_alpha - psi_r_alpha*i_r_beta/a) with only
    # psi_r_alpha = 0.2464 and i_r_beta = 1: -2*0.2464/1.18. The stator
    # currents (1, -l_r_beta/l_m_beta) give that rotor flux and cancel
    # psi_r_beta.
    got = _torques(table1, 1.0, -table1.l_r_beta / table1.l_m_beta, 0.0, 1.0)[1]
    assert got == pytest.approx(-2 * 0.2464 / 1.18, rel=1e-12)


def test_symmetric_machine_torques_identical(symmetric):
    rng = np.random.default_rng(11)
    for _ in range(100):
        psi = rng.uniform(-1.5, 1.5, size=4)
        *_, te, te_ec = channels(symmetric, *psi)
        assert te_ec == pytest.approx(te, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# state derivative
# ---------------------------------------------------------------------------

def test_zero_state_derivative_is_supply_only(table1):
    d = compile_derivative(table1)(0.0, 0.0, 0.0, 0.0, 0.0, 325.0, 0.0, 0.0)
    assert d[:2] == (325.0, 0.0)
    assert d[2] == 0.0 and d[3] == 0.0
    assert d[4] == 0.0


def test_pure_load_deceleration(table1):
    d = compile_derivative(table1)(0.0, 0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 1.0096)
    assert d[0] == 0.0 and d[1] == 0.0
    assert d[2] == 0.0 and d[3] == 0.0
    assert d[4] == pytest.approx(-1.0096 / 2.92e-3, rel=1e-12)


def test_rotor_coupling_terms(table1):
    # With only psi_r_beta = 0.1 the alpha rotor current is zero, so the
    # alpha flux derivative is purely the speed-voltage term -a*w_e*psi_r_beta.
    d = compile_derivative(table1)(0.0, 0.0, 0.0, 0.1, 10.0, 0.0, 0.0, 0.0)
    assert d[2] == pytest.approx(-1.18 * 20.0 * 0.1, rel=1e-12)
    i_rb = solve_currents(table1, 0.0, 0.0, 0.0, 0.1)[3]
    assert d[3] == pytest.approx(-4.12 * i_rb, rel=1e-12)


def test_electrical_speed_convention_scales_coupling(table1):
    state = (0.1, -0.05, 0.2, 0.1, 10.0)
    mech = compile_derivative(table1)(*state, 0.0, 0.0, 0.0)
    elec = compile_derivative(table1, speed_convention="electrical_state")(
        *state, 0.0, 0.0, 0.0
    )
    # Same state speed used directly as electrical speed halves the coupling
    # relative to pole_pairs = 2.
    i = _currents(table1, *state[:4])
    resistive = -table1.r_r_alpha * i[2]
    assert elec[2] - resistive == pytest.approx((mech[2] - resistive) / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="speed convention"):
        compile_derivative(table1, speed_convention="bogus")


def test_blocked_rotor_pins_speed_derivative(table1):
    deriv = compile_derivative(table1, blocked_rotor=True)
    d = deriv(0.4, -0.2, 0.15, 0.3, 0.0, 100.0, -50.0, 5.0)
    assert d[4] == 0.0


def test_compiled_derivative_matches_reference(table1):
    rng = np.random.default_rng(5)
    deriv = compile_derivative(table1)
    for _ in range(50):
        s = rng.uniform(-2, 2, size=5)
        v_sa, v_sb, tl = rng.uniform(-400, 400, size=3)
        fast = deriv(*s, v_sa, v_sb, tl)
        ref = reference_derivative(table1, s, v_sa, v_sb, tl)
        assert fast == pytest.approx(tuple(ref), rel=1e-13)


def test_derivative_and_channels_share_one_definition(table1):
    # The step and the loop's record statements, rendered at one point by
    # support.channels, render the same current and torque templates, so the
    # derivative is made, bit for bit, of their currents and te.
    rng = np.random.default_rng(17)
    p = table1
    for convention in ("mechanical_state", "electrical_state"):
        deriv = compile_derivative(p, speed_convention=convention)
        w_scale = p.pole_pairs if convention == "mechanical_state" else 1.0
        for _ in range(50):
            psa, psb, pra, prb, w = rng.uniform(-2, 2, size=5).tolist()
            v_sa, v_sb, tl = rng.uniform(-400, 400, size=3).tolist()
            i_sa, i_sb, i_ra, i_rb, te, _ = channels(p, psa, psb, pra, prb)
            w_e, a = w_scale * w, p.turns_ratio_a
            assert deriv(psa, psb, pra, prb, w, v_sa, v_sb, tl) == (
                v_sa - p.r_s_alpha * i_sa,
                v_sb - p.r_s_beta * i_sb,
                -p.r_r_alpha * i_ra - a * w_e * prb,
                -p.r_r_beta * i_rb + (w_e / a) * pra,
                (te - tl) * (1.0 / p.inertia_j),
            )


# ---------------------------------------------------------------------------
# dissipativity
# ---------------------------------------------------------------------------

def _stored_energy(trace, p):
    field = 0.5 * (
        trace.psi_sa * trace.i_sa
        + trace.psi_sb * trace.i_sb
        + trace.psi_ra * trace.i_ra
        + trace.psi_rb * trace.i_rb
    )
    return field + 0.5 * p.inertia_j * trace.omega_mech**2


@pytest.mark.parametrize(
    "machine,seed_state",
    [
        (TABLE1, MachineState(0.3, 0.25, 0.28, 0.22, 100.0)),
        (SYMMETRIC, MachineState(0.5, 0.5, 0.4, 0.4, 150.0)),
    ],
)
def test_unforced_energy_is_non_increasing(machine, seed_state):
    """Zero supply, zero load: stored field + kinetic energy only decays."""
    p = validate_parameters(machine)
    silent = VoltageSource(alpha=(), beta=(), frequency=50.0)
    trace = integrate(
        p,
        Scenario(
            supply=silent,
            load=LoadProfile.constant(0.0),
            integrator=IntegratorConfig(step_size=1e-5, duration=0.3),
            initial_state=seed_state,
        ),
    )
    energy = _stored_energy(trace, p)
    increases = np.diff(energy)
    assert increases.max() <= 1e-9 * energy[0], (
        f"energy rose by {increases.max():.3e} J (W0 = {energy[0]:.3f} J)"
    )
    assert energy[-1] < energy[0]

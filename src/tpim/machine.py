"""Flux-linkage model of an unsymmetrical two-phase induction machine.

The machine lives in the stationary alpha/beta winding frame: the alpha
(auxiliary) and beta (main) stator windings may differ in resistance and in
self/magnetizing inductance, the rotor is referred per axis, and the two
rotor axes couple through speed voltages scaled by the reciprocal
turns-ratio pair (+a, -1/a).

The integrated states are the four winding flux linkages plus rotor speed.
Currents, torque and the state derivative are algebraic in those states, so
everything here is a pure function. The formulas use only +, -, *, /, and
therefore also work element-wise on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "SPEED_CONVENTIONS",
    "ParameterError",
    "MachineParameters",
    "MachineState",
    "validate_parameters",
    "fluxes_from_currents",
    "currents_from_fluxes",
    "electromagnetic_torque",
    "energy_consistent_torque",
    "compile_derivative",
]

# How the integrated speed state is read by the rotor equations:
#   mechanical_state - state is shaft speed, coupling uses pole_pairs * omega
#   electrical_state - state is used as electrical speed directly
SPEED_CONVENTIONS = ("mechanical_state", "electrical_state")


class ParameterError(ValueError):
    """A machine parameter violates a model invariant."""


@dataclass(frozen=True)
class MachineParameters:
    """Raw winding and mechanical parameters, SI units.

    Resistances in ohm, inductances in henry, inertia in kg*m^2. The alpha
    axis is the auxiliary winding, beta the main winding. turns_ratio_a is
    the effective alpha/beta turns ratio that scales the rotor speed-voltage
    coupling; pole_pairs relates electrical to shaft speed.
    """

    r_s_alpha: float
    r_s_beta: float
    r_r_alpha: float
    r_r_beta: float
    l_s_alpha: float
    l_s_beta: float
    l_r_alpha: float
    l_r_beta: float
    l_m_alpha: float
    l_m_beta: float
    turns_ratio_a: float
    pole_pairs: int
    inertia_j: float

    # Per-axis inductance determinants L_s*L_r - L_m**2, the denominators of
    # the flux-to-current inversion; positive once validate_parameters passes.
    # Cached because every recorded sample reads them.
    @cached_property
    def det_alpha(self) -> float:
        return self.l_s_alpha * self.l_r_alpha - self.l_m_alpha * self.l_m_alpha

    @cached_property
    def det_beta(self) -> float:
        return self.l_s_beta * self.l_r_beta - self.l_m_beta * self.l_m_beta


@dataclass(frozen=True)
class MachineState:
    """The five integrated states: four flux linkages (V*s) and rotor speed.

    omega_mech is the shaft speed in rad/s under the default speed
    convention; under "electrical_state" the same slot holds electrical
    speed (see compile_derivative).
    """

    psi_s_alpha: float
    psi_s_beta: float
    psi_r_alpha: float
    psi_r_beta: float
    omega_mech: float

    @classmethod
    def at_rest(cls) -> "MachineState":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.psi_s_alpha,
            self.psi_s_beta,
            self.psi_r_alpha,
            self.psi_r_beta,
            self.omega_mech,
        )


def validate_parameters(params: MachineParameters) -> MachineParameters:
    """Check every model invariant and return params itself.

    Raises ParameterError naming the first violated invariant together with
    the offending value. The model functions below assume their parameters
    passed this check (the determinants must be positive).
    """
    p = params
    for name in ("r_s_alpha", "r_s_beta", "r_r_alpha", "r_r_beta"):
        value = getattr(p, name)
        if not value > 0.0:
            raise ParameterError(f"resistance must be positive: {name} = {value}")
    for name in (
        "l_s_alpha",
        "l_s_beta",
        "l_r_alpha",
        "l_r_beta",
        "l_m_alpha",
        "l_m_beta",
    ):
        value = getattr(p, name)
        if not value > 0.0:
            raise ParameterError(f"inductance must be positive: {name} = {value}")
    if not p.turns_ratio_a > 0.0:
        raise ParameterError(
            f"turns ratio must be positive: turns_ratio_a = {p.turns_ratio_a}"
        )
    if not (isinstance(p.pole_pairs, int) and p.pole_pairs >= 1):
        raise ParameterError(
            f"pole_pairs must be a positive integer: pole_pairs = {p.pole_pairs}"
        )
    if not p.inertia_j > 0.0:
        raise ParameterError(f"inertia must be positive: inertia_j = {p.inertia_j}")

    if not p.det_alpha > 0.0:
        raise ParameterError(
            "leakage condition violated: "
            f"l_s_alpha*l_r_alpha - l_m_alpha**2 = {p.det_alpha:.6g} (must be > 0)"
        )
    if not p.det_beta > 0.0:
        raise ParameterError(
            "leakage condition violated: "
            f"l_s_beta*l_r_beta - l_m_beta**2 = {p.det_beta:.6g} (must be > 0)"
        )
    if p.l_m_alpha > min(p.l_s_alpha, p.l_r_alpha):
        raise ParameterError(
            "magnetizing inductance exceeds self inductance: "
            f"l_m_alpha = {p.l_m_alpha} > {min(p.l_s_alpha, p.l_r_alpha)}"
        )
    if p.l_m_beta > min(p.l_s_beta, p.l_r_beta):
        raise ParameterError(
            "magnetizing inductance exceeds self inductance: "
            f"l_m_beta = {p.l_m_beta} > {min(p.l_s_beta, p.l_r_beta)}"
        )

    return params


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


def currents_from_fluxes(p: MachineParameters, psi_s_alpha, psi_s_beta, psi_r_alpha, psi_r_beta):
    """Winding currents from flux linkages (exact per-axis 2x2 inversion).

    The validated leakage condition guarantees both denominators are
    strictly positive. Returns (i_s_alpha, i_s_beta, i_r_alpha, i_r_beta).
    """
    i_s_alpha = (p.l_r_alpha * psi_s_alpha - p.l_m_alpha * psi_r_alpha) / p.det_alpha
    i_s_beta = (p.l_r_beta * psi_s_beta - p.l_m_beta * psi_r_beta) / p.det_beta
    i_r_alpha = (p.l_s_alpha * psi_r_alpha - p.l_m_alpha * psi_s_alpha) / p.det_alpha
    i_r_beta = (p.l_s_beta * psi_r_beta - p.l_m_beta * psi_s_beta) / p.det_beta
    return i_s_alpha, i_s_beta, i_r_alpha, i_r_beta


def electromagnetic_torque(p: MachineParameters, i_s_alpha, i_s_beta, i_r_alpha, i_r_beta):
    """Shaft torque T_e = p_p * (L_m_beta*i_s_beta*i_r_alpha - L_m_alpha*i_s_alpha*i_r_beta)."""
    return p.pole_pairs * (
        p.l_m_beta * i_s_beta * i_r_alpha - p.l_m_alpha * i_s_alpha * i_r_beta
    )


def energy_consistent_torque(p: MachineParameters, psi_r_alpha, psi_r_beta, i_r_alpha, i_r_beta):
    """Diagnostic torque implied by the rotor speed-voltage power.

    The power absorbed by the rotor coupling terms is
    w_e * (a*psi_r_beta*i_r_alpha - psi_r_alpha*i_r_beta/a); dividing by
    shaft speed cancels to p_p * (a*psi_r_beta*i_r_alpha -
    psi_r_alpha*i_r_beta/a), defined at zero speed as well. For a
    symmetric machine (a = 1, equal axis inductances) this is identical to
    electromagnetic_torque; for an asymmetric machine the two differ and
    the divergence is reported, not hidden.
    """
    a = p.turns_ratio_a
    return p.pole_pairs * (
        a * psi_r_beta * i_r_alpha - psi_r_alpha * i_r_beta / a
    )


def compile_derivative(
    p: MachineParameters,
    speed_convention: str = "mechanical_state",
    blocked_rotor: bool = False,
):
    """The explicit time derivative of the five machine states.

        d psi_s_alpha/dt = v_s_alpha - R_s_alpha*i_s_alpha
        d psi_s_beta/dt  = v_s_beta  - R_s_beta*i_s_beta
        d psi_r_alpha/dt = -R_r_alpha*i_r_alpha - a*w_e*psi_r_beta
        d psi_r_beta/dt  = -R_r_beta*i_r_beta  + (w_e/a)*psi_r_alpha
        d omega/dt       = (T_e - T_load) / J

    with the currents from currents_from_fluxes and T_e from
    electromagnetic_torque. Under the default convention the state speed is
    shaft speed and w_e = pole_pairs*omega; under "electrical_state" the
    state speed is the electrical speed and is used in the coupling
    directly. blocked_rotor pins d omega/dt to zero (locked-shaft fixture).

    Returns a plain-float closure mapping
        (psi_s_a, psi_s_b, psi_r_a, psi_r_b, omega, v_s_a, v_s_b, t_load)
    to the five-tuple of derivatives. Millions of steps go through it, hence
    the parameters are bound to locals instead of read as attributes, with
    pole_pairs as a float and the rotor resistances negated: the same bits,
    since int * float converts the int first and -r * i is (-r) * i.
    """
    if speed_convention not in SPEED_CONVENTIONS:
        raise ValueError(f"unknown speed convention: {speed_convention!r}")
    electrical = speed_convention == "electrical_state"
    r_sa, r_sb = p.r_s_alpha, p.r_s_beta
    neg_r_ra, neg_r_rb = -p.r_r_alpha, -p.r_r_beta
    l_sa, l_sb = p.l_s_alpha, p.l_s_beta
    l_ra, l_rb = p.l_r_alpha, p.l_r_beta
    l_ma, l_mb = p.l_m_alpha, p.l_m_beta
    det_a, det_b = p.det_alpha, p.det_beta
    a = p.turns_ratio_a
    pole_pairs = float(p.pole_pairs)
    inv_j = 1.0 / p.inertia_j
    blocked = bool(blocked_rotor)

    def deriv(psa, psb, pra, prb, w, v_sa, v_sb, t_load):
        i_sa = (l_ra * psa - l_ma * pra) / det_a
        i_sb = (l_rb * psb - l_mb * prb) / det_b
        i_ra = (l_sa * pra - l_ma * psa) / det_a
        i_rb = (l_sb * prb - l_mb * psb) / det_b
        w_e = w if electrical else pole_pairs * w
        d_omega = (
            0.0
            if blocked
            else (pole_pairs * (l_mb * i_sb * i_ra - l_ma * i_sa * i_rb) - t_load)
            * inv_j
        )
        return (
            v_sa - r_sa * i_sa,
            v_sb - r_sb * i_sb,
            neg_r_ra * i_ra - a * w_e * prb,
            neg_r_rb * i_rb + (w_e / a) * pra,
            d_omega,
        )

    return deriv

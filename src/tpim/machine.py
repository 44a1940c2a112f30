"""Flux-linkage model of an unsymmetrical two-phase induction machine.

The machine lives in the stationary alpha/beta winding frame: the alpha
(auxiliary) and beta (main) stator windings may differ in resistance and in
self/magnetizing inductance, the rotor is referred per axis, and the two
rotor axes couple through speed voltages scaled by the reciprocal
turns-ratio pair (+a, -1/a).

The integrated states are the four winding flux linkages plus rotor speed.
Currents and torque are algebraic in those states. Each equation is written
once, as template text that tpim.dynamics compiles, with the constants it
reads as arguments: the currents _CURRENTS and the torque _TE are rendered
into the state derivative _RHS, which the step loops inline per stage, and
into _CHANNELS, which they inline at each record. Using only +, -, * and /,
they give in C compiled without fused multiply-add the bits of Python floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "SPEED_CONVENTIONS",
    "ParameterError",
    "MachineParameters",
    "MachineState",
    "validate_parameters",
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
    @property
    def det_alpha(self) -> float:
        return self.l_s_alpha * self.l_r_alpha - self.l_m_alpha * self.l_m_alpha

    @property
    def det_beta(self) -> float:
        return self.l_s_beta * self.l_r_beta - self.l_m_beta * self.l_m_beta


@dataclass(frozen=True)
class MachineState:
    """The five integrated states: four flux linkages (V*s) and rotor speed.

    omega_mech is the shaft speed in rad/s under the default speed
    convention; under "electrical_state" the same slot holds electrical
    speed (see _RHS). The defaults are the machine at rest.
    """

    psi_s_alpha: float = 0.0
    psi_s_beta: float = 0.0
    psi_r_alpha: float = 0.0
    psi_r_beta: float = 0.0
    omega_mech: float = 0.0


def validate_parameters(params: MachineParameters) -> MachineParameters:
    """Check every model invariant and return params itself.

    Every float parameter must lie in (0, inf), pole_pairs be a positive
    integer, and each axis meet the leakage condition. Raises ParameterError
    naming the first violated invariant together with the offending value.
    The model functions below assume their parameters passed this check
    (the determinants must be positive).
    """
    p = params
    for kind, names in (
        ("resistance", ("r_s_alpha", "r_s_beta", "r_r_alpha", "r_r_beta")),
        ("inductance", ("l_s_alpha", "l_s_beta", "l_r_alpha", "l_r_beta", "l_m_alpha", "l_m_beta")),
        ("turns ratio", ("turns_ratio_a",)),
        ("inertia", ("inertia_j",)),
    ):
        for name in names:
            value = getattr(p, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"{kind} must be positive and finite: {name} = {value}")
    if isinstance(p.pole_pairs, bool) or not (isinstance(p.pole_pairs, int) and p.pole_pairs >= 1):
        raise ParameterError(f"pole_pairs must be a positive integer: pole_pairs = {p.pole_pairs}")
    if p.pole_pairs > sys.float_info.max:  # the kernels read it as a float
        raise ParameterError(f"pole_pairs must be at most {sys.float_info.max!r}: pole_pairs = {p.pole_pairs}")

    for axis in ("alpha", "beta"):
        det = getattr(p, f"det_{axis}")
        if not det > 0.0:
            raise ParameterError(
                f"leakage condition violated: l_s_{axis}*l_r_{axis} - l_m_{axis}**2 = {det:.6g} (must be > 0)"
            )
    for axis in ("alpha", "beta"):
        l_m, bound = getattr(p, f"l_m_{axis}"), min(getattr(p, f"l_s_{axis}"), getattr(p, f"l_r_{axis}"))
        if l_m > bound:
            raise ParameterError(f"magnetizing inductance exceeds self inductance: l_m_{axis} = {l_m} > {bound}")

    return params


# The machine constants, the leading arguments of each kernel that renders
# _RHS or _CHANNELS (locals, since millions of steps read them). pole_pairs is
# a float and the rotor resistances are negated; that gives the same bits,
# since int * float converts the int first and -r * i is (-r) * i. w_scale
# turns the speed state into electrical speed.
_KERNEL_CONSTANTS = (
    "r_sa r_sb neg_r_ra neg_r_rb l_sa l_sb l_ra l_rb l_ma l_mb det_a det_b a pole_pairs inv_j w_scale".split()
)


def kernel_constants(p: MachineParameters, speed_convention: str, blocked_rotor: bool) -> tuple:
    """The values of _KERNEL_CONSTANTS for p, in that order. The speed
    convention sets w_scale (pole_pairs, or 1 for "electrical_state"), and a
    blocked rotor, a shaft of infinite inertia, has inv_j = 0."""
    if speed_convention not in SPEED_CONVENTIONS:
        raise ValueError(f"unknown speed convention: {speed_convention!r}")
    pole_pairs = float(p.pole_pairs)
    return (
        p.r_s_alpha, p.r_s_beta, -p.r_r_alpha, -p.r_r_beta,
        p.l_s_alpha, p.l_s_beta, p.l_r_alpha, p.l_r_beta, p.l_m_alpha, p.l_m_beta,
        p.det_alpha, p.det_beta, p.turns_ratio_a, pole_pairs, 0.0 if blocked_rotor else 1.0 / p.inertia_j,
        1.0 if speed_convention == "electrical_state" else pole_pairs,
    )


# The flux-to-current inversion, per axis the exact inverse of the 2x2
# inductance matrix: statements setting i_sa .. i_rb from {psa} .. {prb}.
_CURRENTS = """\
i_sa = (l_ra * {psa} - l_ma * {pra}) / det_a
i_sb = (l_rb * {psb} - l_mb * {prb}) / det_b
i_ra = (l_sa * {pra} - l_ma * {psa}) / det_a
i_rb = (l_sb * {prb} - l_mb * {psb}) / det_b
"""
# The electromagnetic torque T_e = p_p * (L_m_beta*i_s_beta*i_r_alpha -
# L_m_alpha*i_s_alpha*i_r_beta), an expression over the currents.
_TE = "pole_pairs * (l_mb * i_sb * i_ra - l_ma * i_sa * i_rb)"

# The explicit time derivative of the five states, rendered by render_rhs
# once per stage of a generated kernel:
#
#     d psi_s_alpha/dt = v_s_alpha - R_s_alpha*i_s_alpha
#     d psi_s_beta/dt  = v_s_beta  - R_s_beta*i_s_beta
#     d psi_r_alpha/dt = -R_r_alpha*i_r_alpha - a*w_e*psi_r_beta
#     d psi_r_beta/dt  = -R_r_beta*i_r_beta  + (w_e/a)*psi_r_alpha
#     d omega/dt       = (T_e - T_load) / J
#
# with the currents of _CURRENTS and T_e of _TE, inline. Under the default
# convention the state speed is shaft speed and w_e = pole_pairs*omega;
# under "electrical_state" the state speed is the electrical speed and
# w_e = omega. A blocked rotor (locked-shaft fixture) is a zero 1/J.
_RHS = _CURRENTS + """\
w_e = w_scale * {w}
{d_psa} = {v_sa} - r_sa * i_sa
{d_psb} = {v_sb} - r_sb * i_sb
{d_pra} = neg_r_ra * i_ra - a * w_e * {prb}
{d_prb} = neg_r_rb * i_rb + (w_e / a) * {pra}
{d_w} = (""" + _TE + """ - {t_load}) * inv_j
"""
_RHS_NAMES = "psa psb pra prb w v_sa v_sb t_load d_psa d_psb d_pra d_prb d_w".split()


def render_rhs(names: str) -> str:
    """The right-hand side as statements over a stage's own names.

    names lists, space-separated, the five state inputs, the three source
    samples (v_s_a, v_s_b, t_load) and the five derivative outputs.
    """
    return _RHS.format(**dict(zip(_RHS_NAMES, names.split(), strict=True)))


# The derived trace channels of the recorded states: the currents; te; te_ec,
# the torque implied by the rotor speed-voltage power w_e * (a*psi_r_beta*i_r_alpha
# - psi_r_alpha*i_r_beta/a) per unit shaft speed; and the shaft speed omega_mech
# of the speed state w, whichever the convention (w_scale / pole_pairs is 1.0
# under the default one). te_ec is te for a symmetric machine; for an
# asymmetric one the divergence is reported, not hidden.
_CHANNELS = _CURRENTS.format(psa="psa", psb="psb", pra="pra", prb="prb") + f"""\
te = {_TE}
te_ec = pole_pairs * (a * prb * i_ra - pra * i_rb / a)
omega_mech = w * (w_scale / pole_pairs)
"""

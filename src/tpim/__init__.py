"""Time-domain simulator for unsymmetrical two-phase induction motors.

Integrates the stationary-frame flux-linkage state equations of a
two-phase machine with unequal stator windings, recovers currents and
torque algebraically, and post-processes traces into steady-state summaries
and energy audits. See the bundled configs for ready-to-run scenarios.
"""

from .analysis import (
    EnergyReport,
    SteadyStateNotReachedError,
    SummaryReport,
    TraceTooShortError,
    detect_steady_state,
    energy_audit,
    summarize,
)
from .config import (
    ConfigError,
    OutputOptions,
    RunConfig,
    SupplySpec,
    build_scenario,
    build_supply,
    bundled_config_names,
    load_config,
    parse_config,
    render_config,
    set_axis_value,
)
from .dynamics import (
    TRACE_CHANNELS,
    IntegrationError,
    IntegratorConfig,
    Scenario,
    SimulationTrace,
    integrate,
)
from .excitation import (
    Harmonic,
    LoadProfile,
    VoltageSource,
    quadrature_supply,
    sample_load,
    sample_voltage,
)
from .machine import (
    MachineParameters,
    MachineState,
    ParameterError,
    currents_from_fluxes,
    electromagnetic_torque,
    energy_consistent_torque,
    fluxes_from_currents,
    validate_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EnergyReport",
    "Harmonic",
    "IntegrationError",
    "IntegratorConfig",
    "LoadProfile",
    "MachineParameters",
    "MachineState",
    "OutputOptions",
    "ParameterError",
    "RunConfig",
    "Scenario",
    "SimulationTrace",
    "SteadyStateNotReachedError",
    "SummaryReport",
    "SupplySpec",
    "TRACE_CHANNELS",
    "TraceTooShortError",
    "VoltageSource",
    "build_scenario",
    "build_supply",
    "bundled_config_names",
    "currents_from_fluxes",
    "detect_steady_state",
    "electromagnetic_torque",
    "energy_audit",
    "energy_consistent_torque",
    "fluxes_from_currents",
    "integrate",
    "load_config",
    "parse_config",
    "quadrature_supply",
    "render_config",
    "sample_load",
    "sample_voltage",
    "set_axis_value",
    "summarize",
    "validate_parameters",
]

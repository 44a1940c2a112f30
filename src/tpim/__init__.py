"""Time-domain simulator for unsymmetrical two-phase induction motors.

Integrates the stationary-frame flux-linkage state equations of a
two-phase machine with unequal stator windings, recovers currents and
torque algebraically, and post-processes traces into steady-state summaries
and energy audits. See the bundled configs for ready-to-run scenarios.

The package exports what the command line and a library run need; the
rest is imported from tpim.config, tpim.analysis, tpim.machine,
tpim.excitation and tpim.output. None of them imports numpy at module
top: it loads at a run's first array, not on import.
"""

from .analysis import SteadyStateNotReachedError, energy_audit, summarize
from .config import ConfigError, build_scenario, load_config
from .dynamics import (
    TRACE_CHANNELS,
    IntegrationError,
    IntegratorConfig,
    Scenario,
    SimulationTrace,
    integrate,
)
from .excitation import Harmonic, LoadProfile, VoltageSource, quadrature_supply
from .machine import MachineParameters, MachineState, ParameterError, validate_parameters

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Harmonic",
    "IntegrationError",
    "IntegratorConfig",
    "LoadProfile",
    "MachineParameters",
    "MachineState",
    "ParameterError",
    "Scenario",
    "SimulationTrace",
    "SteadyStateNotReachedError",
    "TRACE_CHANNELS",
    "VoltageSource",
    "build_scenario",
    "energy_audit",
    "integrate",
    "load_config",
    "quadrature_supply",
    "summarize",
    "validate_parameters",
]

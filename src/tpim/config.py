"""Plain-text run configuration: parsing, validation and rendering.

The format is line-based `dotted.key = value` with `#` comments. Unknown
keys are hard errors so typos never pass silently; every omitted optional
key takes a documented default, and render_config writes the fully
resolved form back out (the round-trip re-parses to an equal RunConfig).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .dynamics import INTEGRATION_METHODS, IntegratorConfig, Scenario
from .excitation import Harmonic, LoadProfile, VoltageSource, quadrature_supply
from .machine import SPEED_CONVENTIONS, MachineParameters, MachineState, validate_parameters

__all__ = [
    "ConfigError",
    "SupplySpec",
    "OutputOptions",
    "RunConfig",
    "parse_config",
    "render_config",
    "load_config",
    "bundled_config_names",
    "build_supply",
    "build_scenario",
    "set_axis_value",
    "sweepable_axes",
]

SUPPLY_MODES = ("quadrature", "harmonics")

_MACHINE_KEYS = (
    "r_s_alpha",
    "r_s_beta",
    "r_r_alpha",
    "r_r_beta",
    "l_s_alpha",
    "l_s_beta",
    "l_r_alpha",
    "l_r_beta",
    "l_m_alpha",
    "l_m_beta",
    "turns_ratio_a",
    "pole_pairs",
    "inertia_j",
)

_STATE_KEYS = ("psi_s_alpha", "psi_s_beta", "psi_r_alpha", "psi_r_beta", "omega_mech")

_KNOWN_KEYS = frozenset(
    [f"machine.{key}" for key in _MACHINE_KEYS]
    + ["supply.mode", "supply.voltage", "supply.frequency", "supply.alpha", "supply.beta"]
    + ["load.torque", "load.breakpoints"]
    + [
        "integrator.method",
        "integrator.step_size",
        "integrator.duration",
        "integrator.record_every",
    ]
    + [f"initial_state.{key}" for key in _STATE_KEYS]
    + ["speed_convention", "amplitude_is_peak", "blocked_rotor"]
    + ["output.directory", "output.prefix", "output.emit_plot_script"]
)


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""


@dataclass(frozen=True)
class SupplySpec:
    """Declarative supply description kept alongside the compiled source."""

    mode: str = "quadrature"
    frequency: float = 50.0
    voltage: float = 0.0
    alpha: tuple[Harmonic, ...] = ()
    beta: tuple[Harmonic, ...] = ()


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "."
    prefix: str = "run"
    emit_plot_script: bool = False


@dataclass(frozen=True)
class RunConfig:
    machine: MachineParameters
    supply: SupplySpec
    load: LoadProfile
    integrator: IntegratorConfig
    initial_state: MachineState = field(default_factory=MachineState.at_rest)
    speed_convention: str = "mechanical_state"
    amplitude_is_peak: bool = False
    blocked_rotor: bool = False
    output: OutputOptions = field(default_factory=OutputOptions)


class _Entries:
    """Key store with typed, destructive reads of already-known keys."""

    _REQUIRED = object()

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self._entries = dict(entries)

    def _take(self, key, default):
        if key in self._entries:
            return self._entries.pop(key)
        if default is self._REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return None

    def has(self, key: str) -> bool:
        return key in self._entries

    def take_float(self, key, default=_REQUIRED):
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        try:
            result = float(value)
        except ValueError:
            raise ConfigError(f"line {line}: invalid number for '{key}': {value!r}") from None
        if not math.isfinite(result):
            raise ConfigError(f"line {line}: '{key}' must be finite, got {value!r}")
        return result

    def take_int(self, key, default=_REQUIRED):
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {line}: invalid integer for '{key}': {value!r}") from None

    def take_bool(self, key, default=_REQUIRED):
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        if value not in ("true", "false"):
            raise ConfigError(f"line {line}: '{key}' must be true or false, got {value!r}")
        return value == "true"

    def take_choice(self, key, choices, default=_REQUIRED):
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        if value not in choices:
            raise ConfigError(f"line {line}: '{key}' must be one of {choices}, got {value!r}")
        return value

    def take_str(self, key, default=_REQUIRED):
        item = self._take(key, default)
        if item is None:
            return default
        return item[0]

    def take_pairs(self, key, default=_REQUIRED):
        """Parse 't:torque, t:torque, ...' breakpoint lists."""
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        pairs = []
        for chunk in value.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 2:
                raise ConfigError(
                    f"line {line}: '{key}' entries must look like 't:torque', got {chunk.strip()!r}"
                )
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ConfigError(f"line {line}: invalid number in '{key}': {chunk.strip()!r}") from None
        return tuple(pairs)

    def take_harmonics(self, key, default=_REQUIRED):
        """Parse 'order:amplitude:phase, ...' harmonic lists."""
        item = self._take(key, default)
        if item is None:
            return default
        value, line = item
        harmonics = []
        for chunk in value.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 3:
                raise ConfigError(
                    f"line {line}: '{key}' entries must look like 'order:amplitude:phase', "
                    f"got {chunk.strip()!r}"
                )
            try:
                harmonics.append(Harmonic(int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise ConfigError(f"line {line}: invalid number in '{key}': {chunk.strip()!r}") from None
        return tuple(harmonics)


def _scan_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: missing key before '='")
        if not value:
            raise ConfigError(f"line {line_no}: empty value for '{key}'")
        if key in entries:
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' (first set on line {entries[key][1]})"
            )
        entries[key] = (value, line_no)
    return entries


def parse_config(text: str, name: str = "run") -> RunConfig:
    """Parse and fully validate one configuration document.

    `name` seeds the default output prefix (the stem of the file the text
    came from). Raises ConfigError with a line number where one applies.
    """
    entries = _scan_lines(text)
    for key, (_, line) in sorted(entries.items(), key=lambda kv: kv[1][1]):
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {line}: unknown key '{key}'")
    box = _Entries(entries)

    machine_values = {}
    for key in _MACHINE_KEYS:
        full = f"machine.{key}"
        if key == "pole_pairs":
            machine_values[key] = box.take_int(full)
        else:
            machine_values[key] = box.take_float(full)
    machine = MachineParameters(**machine_values)
    try:
        validate_parameters(machine)
    except ValueError as exc:
        raise ConfigError(f"machine: {exc}") from None

    mode = box.take_choice("supply.mode", SUPPLY_MODES, default="quadrature")
    frequency = box.take_float("supply.frequency")
    if not frequency > 0.0:
        raise ConfigError(f"supply.frequency must be positive: {frequency}")
    if mode == "quadrature":
        for forbidden in ("supply.alpha", "supply.beta"):
            if box.has(forbidden):
                raise ConfigError(f"'{forbidden}' requires supply.mode = harmonics")
        voltage = box.take_float("supply.voltage")
        if not voltage > 0.0:
            raise ConfigError(f"supply.voltage must be positive: {voltage}")
        supply = SupplySpec(mode="quadrature", frequency=frequency, voltage=voltage)
    else:
        if box.has("supply.voltage"):
            raise ConfigError("'supply.voltage' requires supply.mode = quadrature")
        alpha = box.take_harmonics("supply.alpha", default=())
        beta = box.take_harmonics("supply.beta", default=())
        supply = SupplySpec(mode="harmonics", frequency=frequency, alpha=alpha, beta=beta)

    if box.has("load.torque") and box.has("load.breakpoints"):
        raise ConfigError("'load.torque' and 'load.breakpoints' are mutually exclusive")
    if box.has("load.breakpoints"):
        breakpoints = box.take_pairs("load.breakpoints")
    else:
        breakpoints = ((0.0, box.take_float("load.torque", default=0.0)),)
    try:
        load = LoadProfile(breakpoints)
    except ValueError as exc:
        raise ConfigError(f"load: {exc}") from None

    try:
        integrator = IntegratorConfig(
            method=box.take_choice("integrator.method", INTEGRATION_METHODS, default="rk4"),
            step_size=box.take_float("integrator.step_size", default=1e-4),
            duration=box.take_float("integrator.duration"),
            record_every=box.take_int("integrator.record_every", default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from None

    state_values = {key: box.take_float(f"initial_state.{key}", default=0.0) for key in _STATE_KEYS}
    initial_state = MachineState(**state_values)

    speed_convention = box.take_choice(
        "speed_convention", SPEED_CONVENTIONS, default="mechanical_state"
    )
    amplitude_is_peak = box.take_bool("amplitude_is_peak", default=False)
    blocked_rotor = box.take_bool("blocked_rotor", default=False)

    output = OutputOptions(
        directory=box.take_str("output.directory", default="."),
        prefix=box.take_str("output.prefix", default=name),
        emit_plot_script=box.take_bool("output.emit_plot_script", default=False),
    )

    config = RunConfig(
        machine=machine,
        supply=supply,
        load=load,
        integrator=integrator,
        initial_state=initial_state,
        speed_convention=speed_convention,
        amplitude_is_peak=amplitude_is_peak,
        blocked_rotor=blocked_rotor,
        output=output,
    )
    try:  # the source checks what the spec cannot, such as a finite 2*pi*f*order
        build_supply(config)
    except ValueError as exc:
        raise ConfigError(f"supply: {exc}") from None
    return config


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_config(config: RunConfig) -> str:
    """Serialize the fully resolved configuration; re-parses to an equal RunConfig."""
    lines = []
    for key in _MACHINE_KEYS:
        lines.append(f"machine.{key} = {_fmt(getattr(config.machine, key))}")
    s = config.supply
    lines.append(f"supply.mode = {s.mode}")
    lines.append(f"supply.frequency = {_fmt(s.frequency)}")
    if s.mode == "quadrature":
        lines.append(f"supply.voltage = {_fmt(s.voltage)}")
    else:
        for phase_name, harmonics in (("alpha", s.alpha), ("beta", s.beta)):
            if harmonics:
                text = ", ".join(
                    f"{h.order}:{_fmt(h.amplitude)}:{_fmt(h.phase)}" for h in harmonics
                )
                lines.append(f"supply.{phase_name} = {text}")
    if len(config.load.breakpoints) == 1:
        lines.append(f"load.torque = {_fmt(config.load.breakpoints[0][1])}")
    else:
        text = ", ".join(f"{_fmt(t)}:{_fmt(tq)}" for t, tq in config.load.breakpoints)
        lines.append(f"load.breakpoints = {text}")
    cfg = config.integrator
    lines.append(f"integrator.method = {cfg.method}")
    lines.append(f"integrator.step_size = {_fmt(cfg.step_size)}")
    lines.append(f"integrator.duration = {_fmt(cfg.duration)}")
    lines.append(f"integrator.record_every = {cfg.record_every}")
    for key in _STATE_KEYS:
        lines.append(f"initial_state.{key} = {_fmt(getattr(config.initial_state, key))}")
    lines.append(f"speed_convention = {config.speed_convention}")
    lines.append(f"amplitude_is_peak = {_fmt(config.amplitude_is_peak)}")
    lines.append(f"blocked_rotor = {_fmt(config.blocked_rotor)}")
    lines.append(f"output.directory = {config.output.directory}")
    lines.append(f"output.prefix = {config.output.prefix}")
    lines.append(f"output.emit_plot_script = {_fmt(config.output.emit_plot_script)}")
    return "\n".join(lines) + "\n"


def bundled_config_names() -> tuple[str, ...]:
    root = resources.files("tpim").joinpath("configs")
    return tuple(sorted(r.name[:-4] for r in root.iterdir() if r.name.endswith(".cfg")))


def load_config(name_or_path: str) -> RunConfig:
    """Load a config file by path, or a bundled config by bare name."""
    path = Path(name_or_path)
    if path.is_file():
        return parse_config(path.read_text(), name=path.stem)
    resource = resources.files("tpim").joinpath("configs", f"{name_or_path}.cfg")
    if resource.is_file():
        return parse_config(resource.read_text(), name=name_or_path)
    raise ConfigError(
        f"config not found: {name_or_path!r} is neither a file nor one of "
        f"the bundled configs {bundled_config_names()}"
    )


def build_supply(config: RunConfig) -> VoltageSource:
    s = config.supply
    if s.mode == "quadrature":
        return quadrature_supply(s.voltage, s.frequency, amplitude_is_peak=config.amplitude_is_peak)
    return VoltageSource(alpha=s.alpha, beta=s.beta, frequency=s.frequency)


def build_scenario(config: RunConfig) -> Scenario:
    return Scenario(
        supply=build_supply(config),
        load=config.load,
        integrator=config.integrator,
        initial_state=config.initial_state,
        speed_convention=config.speed_convention,
        blocked_rotor=config.blocked_rotor,
    )


def sweepable_axes(config: RunConfig) -> tuple[str, ...]:
    axes = [f"machine.{key}" for key in _MACHINE_KEYS]
    axes.append("supply.frequency")
    if config.supply.mode == "quadrature":
        axes.append("supply.voltage")
    axes.append("load.torque")
    axes.extend(("integrator.step_size", "integrator.duration"))
    axes.extend(f"initial_state.{key}" for key in _STATE_KEYS)
    return tuple(axes)


def set_axis_value(config: RunConfig, axis: str, value: float) -> RunConfig:
    """Return a copy of config with one numeric parameter replaced.

    Raises ConfigError for axes that do not name a sweepable numeric
    parameter of this configuration.
    """
    if axis not in sweepable_axes(config):
        raise ConfigError(
            f"unknown sweep axis {axis!r}; choose one of {sweepable_axes(config)}"
        )
    section, _, key = axis.partition(".")
    if section == "machine":
        if key == "pole_pairs":
            if not float(value).is_integer():
                raise ConfigError(f"machine.pole_pairs must be an integer, got {value}")
            return replace(config, machine=replace(config.machine, pole_pairs=int(value)))
        return replace(config, machine=replace(config.machine, **{key: float(value)}))
    if section == "supply":
        return replace(config, supply=replace(config.supply, **{key: float(value)}))
    if axis == "load.torque":
        return replace(config, load=LoadProfile.constant(float(value)))
    if section == "integrator":
        return replace(config, integrator=replace(config.integrator, **{key: float(value)}))
    return replace(config, initial_state=replace(config.initial_state, **{key: float(value)}))

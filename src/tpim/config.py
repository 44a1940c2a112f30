"""Plain-text run configuration: parsing, validation and rendering.

The format is line-based `dotted.key = value` with `#` comments. The key
table _KEYS is the one definition of the schema: it lists every key, in
parse and render order, with the reader of its value, and the known-key
check, render_config and the sweep axes all come from it; SUPPLY_MODES is
the one definition of the keys only one supply mode reads. Unknown keys are
hard errors so typos never pass silently; every omitted optional key takes
its dataclass default, and render_config writes the fully resolved form
back out (the round-trip re-parses to an equal RunConfig). The types the
values build check their ranges, once: validate_parameters, the supply,
LoadProfile, IntegratorConfig and Scenario.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
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

SUPPLY_MODES = {"quadrature": ("supply.voltage",), "harmonics": ("supply.alpha", "supply.beta")}


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""


@dataclass(frozen=True)
class SupplySpec:
    """The supply as the config file declares it; build_supply turns it into a VoltageSource."""

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
    initial_state: MachineState = field(default_factory=MachineState)
    speed_convention: str = "mechanical_state"
    amplitude_is_peak: bool = False
    blocked_rotor: bool = False
    output: OutputOptions = field(default_factory=OutputOptions)


# Readers turn the text of one key's value into its typed value.
def _float(key: str, value: str, line: int) -> float:
    try:
        result = float(value)
    except ValueError:
        raise ConfigError(f"line {line}: invalid number for '{key}': {value!r}") from None
    if not math.isfinite(result):
        raise ConfigError(f"line {line}: '{key}' must be finite, got {value!r}")
    return result


def _int(key: str, value: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {line}: invalid integer for '{key}': {value!r}") from None


def _bool(key: str, value: str, line: int) -> bool:
    if value not in ("true", "false"):
        raise ConfigError(f"line {line}: '{key}' must be true or false, got {value!r}")
    return value == "true"


def _str(key: str, value: str, line: int) -> str:
    return value


def _choice(choices: tuple[str, ...]):
    def read(key: str, value: str, line: int) -> str:
        if value not in choices:
            raise ConfigError(f"line {line}: '{key}' must be one of {choices}, got {value!r}")
        return value

    return read


def _entries(form: str, build):
    """Reader of comma-separated entries that look like form, each built from its ':' fields."""

    def read(key: str, value: str, line: int) -> tuple:
        items = []
        for chunk in value.split(","):
            chunk = chunk.strip()
            parts = chunk.split(":")
            if len(parts) != form.count(":") + 1:
                raise ConfigError(f"line {line}: '{key}' entries must look like '{form}', got {chunk!r}")
            try:
                items.append(build(*parts))
            except ValueError:
                raise ConfigError(f"line {line}: invalid number in '{key}': {chunk!r}") from None
        return tuple(items)

    return read


_HARMONICS = _entries("order:amplitude:phase", lambda n, a, ph: Harmonic(int(n), float(a), float(ph)))
# The one definition of the schema: every key, in parse and render order, and its reader.
_KEYS = {
    **{f"machine.{f.name}": {"float": _float, "int": _int}[f.type] for f in fields(MachineParameters)},
    "supply.mode": _choice(tuple(SUPPLY_MODES)),
    "supply.frequency": _float,
    "supply.voltage": _float,
    "supply.alpha": _HARMONICS,
    "supply.beta": _HARMONICS,
    "load.torque": _float,
    "load.breakpoints": _entries("t:torque", lambda t, tq: (float(t), float(tq))),
    "integrator.method": _choice(INTEGRATION_METHODS),
    "integrator.step_size": _float,
    "integrator.duration": _float,
    "integrator.record_every": _int,
    **{f"initial_state.{f.name}": _float for f in fields(MachineState)},
    "speed_convention": _choice(SPEED_CONVENTIONS),
    "amplitude_is_peak": _bool,
    "blocked_rotor": _bool,
    "output.directory": _str,
    "output.prefix": _str,
    "output.emit_plot_script": _bool,
}
_REQUIRED = {key for key in _KEYS if key.startswith("machine.")} | {
    "supply.frequency",
    "supply.voltage",  # in quadrature mode; harmonics mode forbids it
    "integrator.duration",
}


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


def _take(entries: dict[str, tuple[str, int]], *keys: str) -> dict:
    """Remove keys from entries, in order, and read each one set into its field name."""
    values = {}
    for key in keys:
        if key in entries:
            value, line = entries.pop(key)
            values[key.rpartition(".")[2]] = _KEYS[key](key, value, line)
        elif key in _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
    return values


def _section(entries: dict[str, tuple[str, int]], section: str) -> dict:
    """_take of every key of one section; "" is the section of the undotted keys."""
    return _take(entries, *(key for key in _KEYS if key.rpartition(".")[0] == section))


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError it raises prefixed by section; the args' own errors are not."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def parse_config(text: str, name: str = "run") -> RunConfig:
    """Parse and fully validate one configuration document.

    `name` seeds the default output prefix (the stem of the file the text
    came from); a name the format cannot hold, so that the rendered config
    would not re-parse to itself, is an error unless output.prefix is set.
    Raises ConfigError with a line number where one applies.
    """
    entries = _scan_lines(text)
    for key, (_, line) in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"line {line}: unknown key '{key}'")

    machine = MachineParameters(**_section(entries, "machine"))
    _checked("machine", validate_parameters, machine)

    supply = SupplySpec(**_take(entries, "supply.mode", "supply.frequency"))
    for mode, keys in SUPPLY_MODES.items():
        for key in keys:
            if key in entries and mode != supply.mode:
                raise ConfigError(f"'{key}' requires supply.mode = {mode}")
    supply = replace(supply, **_take(entries, *SUPPLY_MODES[supply.mode]))

    if "load.torque" in entries and "load.breakpoints" in entries:
        raise ConfigError("'load.torque' and 'load.breakpoints' are mutually exclusive")
    given = _section(entries, "load")
    load = _checked("load", LoadProfile, given.get("breakpoints", ((0.0, given.get("torque", 0.0)),)))
    integrator = _checked("integrator", IntegratorConfig, **_section(entries, "integrator"))

    output = OutputOptions(**{"prefix": name, **_section(entries, "output")})
    # A value read from a line has no '#', no line break and no whitespace at either end.
    if "#" in output.prefix or output.prefix.strip() != output.prefix or len(output.prefix.splitlines()) != 1:
        raise ConfigError(f"output.prefix: the default, the file name {name!r}, cannot be written as a value "
                          "(a '#', a line break or whitespace at either end); set output.prefix")
    if {"\0", os.sep, os.altsep} & set(output.prefix):
        raise ConfigError(f"output.prefix: {output.prefix!r} is a file name stem; it cannot hold a separator or NUL")
    if "\0" in output.directory:
        raise ConfigError(f"output.directory: {output.directory!r} cannot hold a NUL byte")
    config = RunConfig(
        machine=machine,
        supply=supply,
        load=load,
        integrator=integrator,
        initial_state=MachineState(**_section(entries, "initial_state")),
        **_section(entries, ""),
        output=output,
    )
    _checked("supply", build_scenario, config)  # the source and scenario check the supply, as a sweep row's
    return config


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, Harmonic):
        return f"{value.order}:{_fmt(value.amplitude)}:{_fmt(value.phase)}"
    if isinstance(value, tuple):  # harmonics, or (start, torque) breakpoints
        return ", ".join(_fmt(v) if isinstance(v, Harmonic) else ":".join(map(_fmt, v)) for v in value)
    return repr(float(value))


def render_config(config: RunConfig) -> str:
    """Serialize the fully resolved configuration; re-parses to an equal RunConfig."""
    s = config.supply
    omit = {key for mode, keys in SUPPLY_MODES.items() if mode != s.mode for key in keys}
    omit |= {f"supply.{phase}" for phase in ("alpha", "beta") if not getattr(s, phase)}
    omit.add("load.breakpoints" if len(config.load.breakpoints) == 1 else "load.torque")
    return "".join(f"{key} = {_fmt(_value(config, key))}\n" for key in _KEYS if key not in omit)


def _value(config: RunConfig, key: str):
    """The value of config that key sets."""
    if key == "load.torque":
        return config.load.breakpoints[0][1]
    section, _, name = key.rpartition(".")
    return getattr(getattr(config, section) if section else config, name)


def bundled_config_names() -> tuple[str, ...]:
    root = resources.files("tpim").joinpath("configs")
    return tuple(sorted(r.name[:-4] for r in root.iterdir() if r.name.endswith(".cfg")))


def load_config(name_or_path: str) -> RunConfig:
    """Load a UTF-8 config file by path, or a bundled config by bare name; a
    leading byte-order mark is dropped."""
    path = Path(name_or_path)
    if path.is_file():
        return parse_config(_read_text(path), name=path.stem)
    resource = resources.files("tpim").joinpath("configs", f"{name_or_path}.cfg")
    if resource.is_file():
        return parse_config(_read_text(resource), name=name_or_path)
    raise ConfigError(
        f"config not found: {name_or_path!r} is neither a file nor one of "
        f"the bundled configs {bundled_config_names()}"
    )


def _read_text(file) -> str:
    try:
        return file.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{str(file)!r} is not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None


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
    """Every float key and machine.pole_pairs that the config's supply mode reads."""
    other = {key for mode, keys in SUPPLY_MODES.items() if mode != config.supply.mode for key in keys}
    return tuple(
        key for key, read in _KEYS.items()
        if (read is _float or key == "machine.pole_pairs") and key not in other
    )


def set_axis_value(config: RunConfig, axis: str, value: float) -> RunConfig:
    """Return a copy of config with one numeric parameter replaced.

    Raises ConfigError for axes that do not name a sweepable numeric
    parameter of this configuration.
    """
    if axis not in sweepable_axes(config):
        raise ConfigError(
            f"unknown sweep axis {axis!r}; choose one of {sweepable_axes(config)}"
        )
    if axis == "load.torque":
        return replace(config, load=LoadProfile.constant(float(value)))
    if axis == "machine.pole_pairs":
        if not float(value).is_integer():
            raise ConfigError(f"machine.pole_pairs must be an integer, got {value}")
        value = int(value)
    else:
        value = float(value)
    section, _, name = axis.partition(".")
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})

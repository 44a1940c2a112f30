"""Config parsing, validation, rendering and sweep axis application."""

import itertools
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import tpim
from tpim import ConfigError, LoadProfile, load_config
from tpim.config import (
    build_supply,
    bundled_config_names,
    parse_config,
    render_config,
    set_axis_value,
    sweepable_axes,
)

from support import TABLE1

MINIMAL = """
machine.r_s_alpha = 7.14
machine.r_s_beta = 2.02
machine.r_r_alpha = 5.74
machine.r_r_beta = 4.12
machine.l_s_alpha = 0.2549
machine.l_s_beta = 0.1846
machine.l_r_alpha = 0.2542
machine.l_r_beta = 0.1828
machine.l_m_alpha = 0.2464
machine.l_m_beta = 0.1772
machine.turns_ratio_a = 1.18
machine.pole_pairs = 2
machine.inertia_j = 2.92e-3
supply.voltage = 230.0
supply.frequency = 50.0
load.torque = 1.0096
integrator.duration = 1.0
"""

MACHINE_AXES = (
    "machine.r_s_alpha",
    "machine.r_s_beta",
    "machine.r_r_alpha",
    "machine.r_r_beta",
    "machine.l_s_alpha",
    "machine.l_s_beta",
    "machine.l_r_alpha",
    "machine.l_r_beta",
    "machine.l_m_alpha",
    "machine.l_m_beta",
    "machine.turns_ratio_a",
    "machine.pole_pairs",
    "machine.inertia_j",
)
STATE_AXES = (
    "initial_state.psi_s_alpha",
    "initial_state.psi_s_beta",
    "initial_state.psi_r_alpha",
    "initial_state.psi_r_beta",
    "initial_state.omega_mech",
)

# Every optional key at a value other than its default, for each supply mode
# and each load form.
SUPPLIES = {
    "quadrature": "supply.mode = quadrature\nsupply.voltage = 230.0",
    "harmonics": "supply.mode = harmonics\nsupply.alpha = 1:325.0:0.0, 5:6.5:-0.2\n"
    "supply.beta = 1:325.0:-1.5",
}
LOADS = {"torque": "load.torque = 0.5", "breakpoints": "load.breakpoints = 0.0:0.4, 0.001:1.0096"}
EVERY_KEY_REST = """
integrator.method = euler
integrator.step_size = 1e-05
integrator.record_every = 7
initial_state.psi_s_alpha = 0.01
initial_state.psi_s_beta = -0.02
initial_state.psi_r_alpha = 0.03
initial_state.psi_r_beta = -0.04
initial_state.omega_mech = 60.0
speed_convention = electrical_state
amplitude_is_peak = true
blocked_rotor = true
output.directory = out/every_key
output.prefix = every_key
output.emit_plot_script = true
"""


def every_key_config(supply: str, load: str) -> str:
    base = MINIMAL.replace("supply.voltage = 230.0", SUPPLIES[supply])
    return base.replace("load.torque = 1.0096", LOADS[load]) + EVERY_KEY_REST


def test_bundled_configs_present():
    assert bundled_config_names() == ("blocked_rotor", "paper_s3", "symmetric_check")


def test_bundled_reference_config_parses_to_benchmark_machine():
    config = load_config("paper_s3")
    assert config.machine == TABLE1
    assert config.supply.voltage == 230.0
    assert config.supply.frequency == 50.0
    assert config.load == LoadProfile.constant(1.0096)
    assert config.integrator.step_size == 1e-4
    assert config.integrator.duration == 1.0
    assert config.speed_convention == "mechanical_state"
    assert not config.amplitude_is_peak and not config.blocked_rotor


def test_minimal_config_fills_defaults():
    config = parse_config(MINIMAL, name="minimal")
    assert config.integrator.method == "rk4"
    assert config.integrator.step_size == 1e-4
    assert config.integrator.record_every == 1
    assert config.initial_state.omega_mech == 0.0
    assert config.output.prefix == "minimal"
    assert config.output.directory == "."


def test_misspelled_key_is_an_error_with_line_number():
    text = MINIMAL.replace("machine.inertia_j", "machine.interia_j")
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'machine.interia_j'"):
        parse_config(text)


def test_missing_pole_pairs_is_an_error():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith("machine.pole_pairs")
    )
    with pytest.raises(ConfigError, match="missing required key 'machine.pole_pairs'"):
        parse_config(text)


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(MINIMAL + "\nload.torque = 2.0\n")


def test_invalid_number_reports_line():
    with pytest.raises(ConfigError, match="invalid number"):
        parse_config(MINIMAL.replace("230.0", "twohundred"))


def test_machine_invariants_surface_as_config_errors():
    with pytest.raises(ConfigError, match="leakage condition violated"):
        parse_config(MINIMAL.replace("machine.l_m_alpha = 0.2464", "machine.l_m_alpha = 0.30"))


def test_supply_mode_key_exclusivity():
    with pytest.raises(ConfigError, match="requires supply.mode = harmonics"):
        parse_config(MINIMAL + "\nsupply.alpha = 1:100.0:0.0\n")
    harm = MINIMAL.replace("supply.voltage = 230.0", "supply.mode = harmonics")
    with pytest.raises(ConfigError):  # voltage missing is fine, but torque+breakpoints not
        parse_config(harm + "\nload.breakpoints = 0.0:0.0, 0.5:1.0\n")


def test_harmonics_mode_round_trip():
    text = MINIMAL.replace(
        "supply.voltage = 230.0",
        "supply.mode = harmonics\nsupply.alpha = 1:100.0:0.0, 3:20.0:0.5\nsupply.beta = 1:90.0:-1.5707963267948966",
    )
    config = parse_config(text, name="h")
    assert len(config.supply.alpha) == 2 and config.supply.alpha[1].order == 3
    again = parse_config(render_config(config), name="h")
    assert again == config


def test_invalid_harmonic_supply_is_a_config_error():
    text = MINIMAL.replace(
        "supply.voltage = 230.0", "supply.mode = harmonics\nsupply.alpha = 1:-5.0:0.0"
    )
    with pytest.raises(ConfigError, match="supply: harmonic amplitude"):
        parse_config(text)


@pytest.mark.parametrize(
    "supply",
    ["supply.frequency = 1e308", "supply.frequency = 1e306\nsupply.mode = harmonics\nsupply.alpha = 1000:1.0:0.0"],
    ids=["quadrature", "harmonics"],
)
def test_overflowing_angular_frequency_is_a_config_error(supply):
    text = MINIMAL.replace("supply.frequency = 50.0", supply)
    if "harmonics" in supply:
        text = text.replace("supply.voltage = 230.0\n", "")
    with pytest.raises(ConfigError, match="supply: angular frequency .* is not finite"):
        parse_config(text)


def test_supply_is_checked_as_the_run_builds_it():
    # sqrt(2) * 1.5e308 overflows, the peak 1.5e308 itself does not.
    text = MINIMAL.replace("supply.voltage = 230.0", "supply.voltage = 1.5e308")
    with pytest.raises(ConfigError, match="supply: harmonic amplitude must be finite"):
        parse_config(text)
    config = parse_config(text + "amplitude_is_peak = true\n")
    assert build_supply(config).alpha[0].amplitude == 1.5e308


def test_breakpoint_load_round_trip():
    text = MINIMAL.replace("load.torque = 1.0096", "load.breakpoints = 0.0:0.0, 0.5:1.0096")
    config = parse_config(text, name="steps")
    assert config.load.breakpoints == ((0.0, 0.0), (0.5, 1.0096))
    assert parse_config(render_config(config), name="steps") == config


@pytest.mark.parametrize("name", ["paper_s3", "symmetric_check", "blocked_rotor"])
def test_bundled_configs_round_trip(name):
    config = load_config(name)
    assert parse_config(render_config(config), name=name) == config


def test_rendered_config_echoes_all_machine_parameters():
    rendered = render_config(load_config("paper_s3"))
    machine_lines = [l for l in rendered.splitlines() if l.startswith("machine.")]
    assert len(machine_lines) == 13


def test_unknown_config_name_lists_bundled():
    with pytest.raises(ConfigError, match="config not found"):
        load_config("no_such_config")


def test_config_file_loading(tmp_path):
    path = tmp_path / "mine.cfg"
    path.write_text(MINIMAL)
    config = load_config(str(path))
    assert config.output.prefix == "mine"


def test_leading_byte_order_mark_is_dropped(tmp_path):
    # As some editors save UTF-8; a byte offset still counts from the file's start.
    text = resources.files("tpim").joinpath("configs", "paper_s3.cfg").read_bytes()
    path = tmp_path / "paper_s3.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert load_config(str(path)) == load_config("paper_s3")
    path.write_bytes(b"\xef\xbb\xbf# \xff\n")
    with pytest.raises(ConfigError, match=r"is not UTF-8 text: invalid start byte at byte offset 5$"):
        load_config(str(path))


@pytest.mark.parametrize("name", ["a#b", " ab", "ab ", "a\nb", "a\u2028b", ""])
def test_default_prefix_must_be_a_value_the_format_holds(name):
    with pytest.raises(ConfigError, match=r"^output\.prefix: .*; set output\.prefix$"):
        parse_config(MINIMAL, name=name)
    config = parse_config(MINIMAL + "output.prefix = ab\n", name=name)
    assert config.output.prefix == "ab"
    assert parse_config(render_config(config), name=name) == config


def test_set_axis_value_machine_and_load():
    base = load_config("paper_s3")
    swept = set_axis_value(base, "machine.turns_ratio_a", 1.0)
    assert swept.machine.turns_ratio_a == 1.0
    assert swept.machine.r_s_alpha == base.machine.r_s_alpha
    loaded = set_axis_value(base, "load.torque", 0.5)
    assert loaded.load == LoadProfile.constant(0.5)
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        set_axis_value(base, "machine.bogus", 1.0)
    with pytest.raises(ConfigError, match="integer"):
        set_axis_value(base, "machine.pole_pairs", 2.5)
    assert set_axis_value(base, "machine.pole_pairs", 3.0).machine.pole_pairs == 3


def test_blocked_rotor_config_flags():
    config = load_config("blocked_rotor")
    assert config.blocked_rotor
    assert config.load == LoadProfile.constant(0.0)


def test_amplitude_is_peak_changes_supply_amplitude():
    import math

    from tpim.config import build_supply

    rms_cfg = parse_config(MINIMAL, name="rms")
    peak_cfg = parse_config(MINIMAL + "\namplitude_is_peak = true\n", name="peak")
    assert build_supply(rms_cfg).alpha[0].amplitude == pytest.approx(math.sqrt(2) * 230.0)
    assert build_supply(peak_cfg).alpha[0].amplitude == 230.0
    assert parse_config(render_config(peak_cfg), name="peak") == peak_cfg


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL.replace("duration = 1.0", "duration = abc"),
         "line 18: invalid number for 'integrator.duration': 'abc'"),
        (MINIMAL.replace("integrator.duration = 1.0\n", ""), "missing required key 'integrator.duration'"),
        (MINIMAL + "integrator.method = rk5\n",
         "line 19: 'integrator.method' must be one of ('rk4', 'euler'), got 'rk5'"),
        (MINIMAL.replace("duration = 1.0", "duration = 1.00005"),
         "integrator: duration 1.00005 is not a whole number"),
        (MINIMAL + f"integrator.record_every = {sys.maxsize + 1}\n",
         f"integrator: record_every {sys.maxsize + 1} is more than an index can hold ({sys.maxsize})"),
    ],
    ids=["invalid_number", "missing", "invalid_choice", "not_whole_steps", "record_every_past_an_index"],
)
def test_integrator_errors_are_prefixed_only_by_the_integrator_check(text, message):
    # A key that does not read reports its line like every other section;
    # only IntegratorConfig's own checks name the section.
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(message)


HARMONICS = MINIMAL.replace("supply.voltage = 230.0", "supply.mode = harmonics")
# An integer past the largest float, which float() cannot convert.
HUGE = "1" + "0" * 400


# Every rejection of parse_config, with the whole message. MINIMAL has 18
# lines (the first is blank), so an appended line is line 19.
@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "load.torque 2.0\n", "line 19: expected 'key = value', got 'load.torque 2.0'"),
        (MINIMAL + "= 2.0\n", "line 19: missing key before '='"),
        (MINIMAL + "output.prefix =\n", "line 19: empty value for 'output.prefix'"),
        (MINIMAL + "load.torque = 2.0\n", "line 19: duplicate key 'load.torque' (first set on line 17)"),
        (MINIMAL + "machine.interia_j = 1.0\n", "line 19: unknown key 'machine.interia_j'"),
        (MINIMAL.replace("machine.inertia_j = 2.92e-3\n", ""), "missing required key 'machine.inertia_j'"),
        (MINIMAL.replace("pole_pairs = 2", "pole_pairs = 2.5"),
         "line 13: invalid integer for 'machine.pole_pairs': '2.5'"),
        (MINIMAL.replace("= 230.0", "= twohundred"), "line 15: invalid number for 'supply.voltage': 'twohundred'"),
        (MINIMAL.replace("frequency = 50.0", "frequency = inf"), "line 16: 'supply.frequency' must be finite, got 'inf'"),
        (MINIMAL + "amplitude_is_peak = yes\n", "line 19: 'amplitude_is_peak' must be true or false, got 'yes'"),
        (MINIMAL + "supply.mode = dc\n",
         "line 19: 'supply.mode' must be one of ('quadrature', 'harmonics'), got 'dc'"),
        (HARMONICS + "supply.alpha = 1:100.0\n",
         "line 19: 'supply.alpha' entries must look like 'order:amplitude:phase', got '1:100.0'"),
        (HARMONICS + "supply.alpha = 1:abc:0.0\n", "line 19: invalid number in 'supply.alpha': '1:abc:0.0'"),
        (MINIMAL.replace("inertia_j = 2.92e-3", "inertia_j = 0.0"),
         "machine: inertia must be positive and finite: inertia_j = 0.0"),
        (MINIMAL + "supply.beta = 1:100.0:0.0\n", "'supply.beta' requires supply.mode = harmonics"),
        (HARMONICS + "supply.voltage = 230.0\n", "'supply.voltage' requires supply.mode = quadrature"),
        (MINIMAL + "load.breakpoints = 0.0:1.0\n", "'load.torque' and 'load.breakpoints' are mutually exclusive"),
        (MINIMAL.replace("load.torque = 1.0096", "load.breakpoints = 0.1:1.0"),
         "load: first load breakpoint must start at t = 0, got 0.1"),
        (MINIMAL.replace("duration = 1.0", "duration = -1.0"), "integrator: duration must be finite and >= 0: -1.0"),
        (MINIMAL.replace("frequency = 50.0", "frequency = -50.0"),
         "supply: frequency must be finite and positive: -50.0"),
        (MINIMAL.replace("voltage = 230.0", "voltage = 0.0"), "supply: voltage must be positive: 0.0"),
        (HARMONICS + f"supply.alpha = {HUGE}:1.0:0.0\n",
         f"supply: angular frequency 2*pi*50.0*{HUGE} of harmonic {HUGE} on phase alpha is not finite"),
    ],
    ids=[
        "no_equals", "no_key", "empty_value", "duplicate", "unknown_key", "missing_key", "invalid_integer",
        "invalid_number", "non_finite", "invalid_bool", "invalid_choice", "malformed_entry",
        "invalid_entry_number", "machine", "alpha_beta_need_harmonics", "voltage_needs_quadrature",
        "torque_and_breakpoints", "load", "integrator", "frequency", "voltage", "order_past_float",
    ],
)
def test_every_rejection_names_its_cause(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize("supply, load", itertools.product(SUPPLIES, LOADS))
def test_every_key_round_trips(supply, load):
    text = every_key_config(supply, load)
    config = parse_config(text)
    rendered = render_config(config)
    assert parse_config(rendered) == config
    rendered_keys = [line.split(" = ")[0] for line in rendered.splitlines()]
    assert len(rendered_keys) == len(set(rendered_keys))
    set_keys = {line.split("=")[0].strip() for line in text.splitlines() if "=" in line}
    assert set(rendered_keys) == set_keys


def test_sweepable_axes_are_pinned():
    tail = ("load.torque", "integrator.step_size", "integrator.duration", *STATE_AXES)
    quadrature = MACHINE_AXES + ("supply.frequency", "supply.voltage", *tail)
    assert sweepable_axes(parse_config(every_key_config("quadrature", "torque"))) == quadrature
    harmonics = MACHINE_AXES + ("supply.frequency", *tail)
    assert sweepable_axes(parse_config(every_key_config("harmonics", "breakpoints"))) == harmonics


def test_the_config_path_loads_no_numpy(tmp_path):
    # Parsing, validating and building a scenario need no array library:
    # numpy loads at a run's first array, in integrate.
    rejected = tmp_path / "rejected.cfg"
    rejected.write_text(MINIMAL.replace("machine.r_s_alpha = 7.14", "machine.r_s_alpha = -7.14"))
    src = str(Path(tpim.__file__).resolve().parent.parent)
    code = f"""
import sys
sys.path.insert(0, {src!r})
import tpim
from tpim.config import bundled_config_names
configs = {{name: tpim.load_config(name) for name in bundled_config_names()}}
for config in configs.values():
    tpim.validate_parameters(config.machine)
    tpim.build_scenario(config)
scenario = tpim.Scenario(tpim.quadrature_supply(230.0, 50.0), tpim.LoadProfile.constant(1.0096),
                         tpim.IntegratorConfig(step_size=1e-4, duration=0.01))
try:
    tpim.load_config({str(rejected)!r})
except tpim.ConfigError as error:
    assert "r_s_alpha" in str(error), error
else:
    raise AssertionError("a negative resistance loaded")
assert "numpy" not in sys.modules
assert "tpim._native" not in sys.modules
trace = tpim.integrate(configs["paper_s3"].machine, scenario)
assert "numpy" in sys.modules and isinstance(trace, tpim.SimulationTrace) and len(trace) == 101
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

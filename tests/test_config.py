"""Config parsing, validation, rendering and sweep axis application."""

import pytest

from tpim import (
    ConfigError,
    LoadProfile,
    bundled_config_names,
    load_config,
    parse_config,
    render_config,
    set_axis_value,
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

    from tpim import build_supply

    rms_cfg = parse_config(MINIMAL, name="rms")
    peak_cfg = parse_config(MINIMAL + "\namplitude_is_peak = true\n", name="peak")
    assert build_supply(rms_cfg).alpha[0].amplitude == pytest.approx(math.sqrt(2) * 230.0)
    assert build_supply(peak_cfg).alpha[0].amplitude == 230.0
    assert parse_config(render_config(peak_cfg), name="peak") == peak_cfg

"""CLI contract: files written, schemas, exit codes."""

import csv
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from tpim import TRACE_CHANNELS, integrate, load_config
from tpim.cli import main
from tpim.config import build_scenario
from tpim.output import CSV_HEADER


def _reference_text():
    return resources.files("tpim").joinpath("configs", "paper_s3.cfg").read_text()


def _short_config(tmp_path, name="short", duration="0.05", extra=""):
    text = _reference_text().replace("integrator.duration = 1.0", f"integrator.duration = {duration}")
    path = tmp_path / f"{name}.cfg"
    path.write_text(text + extra)
    return path


def test_run_writes_trace_and_summary(tmp_path):
    path = _short_config(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "short_trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 == 501
    summary = (tmp_path / "short_summary.txt").read_text()
    assert "audit_te_ec.residual:" in summary
    assert "audit_te.residual:" in summary


def test_csv_header_is_stable():
    assert CSV_HEADER == "t,v_sa,v_sb,i_sa,i_sb,i_ra,i_rb,psi_sa,psi_sb,psi_ra,psi_rb,te,te_ec,omega_mech,tl"


def test_csv_values_round_trip_exactly(tmp_path, table1):
    path = _short_config(tmp_path, duration="0.01")
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
    trace = integrate(table1, build_scenario(load_config(str(path))))
    with open(tmp_path / "short_trace.csv", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    assert header == list(TRACE_CHANNELS)
    got = np.array([[float(v) for v in row] for row in rows])
    for j, name in enumerate(TRACE_CHANNELS):
        assert np.array_equal(got[:, j], trace.channel(name)), name


def test_record_every_override(tmp_path):
    path = _short_config(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path), "--record-every", "5"]) == 0
    lines = (tmp_path / "short_trace.csv").read_text().splitlines()
    assert len(lines) - 1 == 101


@pytest.mark.parametrize("every", ["0", "-1"])
def test_invalid_record_every_override_exits_1(tmp_path, capsys, every):
    path = _short_config(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path), "--record-every", every]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record_every" in err
    assert not (tmp_path / "short_trace.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_invalid_speed_tol_exits_1_before_the_run(tmp_path, capsys, command, tol):
    path = _short_config(tmp_path)
    argv = [command, str(path), "--output-dir", str(tmp_path), f"--speed-tol={tol}"]
    if command == "sweep":
        argv += ["--axis", "load.torque", "--values", "0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: argument --speed-tol:")
    assert list(tmp_path.glob("*.csv")) == []


def test_zero_duration_run(tmp_path):
    path = _short_config(tmp_path, name="zero", duration="0.0")
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "zero_trace.csv").read_text().splitlines()
    assert len(lines) - 1 == 1


def test_validation_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_reference_text().replace("machine.l_m_alpha = 0.2464", "machine.l_m_alpha = 0.30"))
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == 1
    assert "leakage condition violated" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys):
    blow = tmp_path / "blow.cfg"
    blow.write_text(_reference_text().replace("integrator.step_size = 1e-4", "integrator.step_size = 0.02"))
    assert main(["run", str(blow), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure at t = 0.06" in err


def test_unknown_config_exits_1(capsys):
    assert main(["run", "no_such_config"]) == 1
    assert "config not found" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_round_trips(capsys):
    assert main(["validate", "paper_s3"]) == 0
    echoed = capsys.readouterr().out
    from tpim import parse_config

    assert parse_config(echoed, name="paper_s3") == load_config("paper_s3")
    machine_lines = [l for l in echoed.splitlines() if l.startswith("machine.")]
    assert len(machine_lines) == 13


def test_validate_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(_reference_text() + "\nmachine.interia_j = 1.0\n")
    assert main(["validate", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_sweep_over_load_torque(tmp_path):
    assert (
        main(
            [
                "sweep",
                "paper_s3",
                "--axis",
                "load.torque",
                "--values",
                "0.0,0.5,1.0096",
                "--output-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "load.torque"
    assert rows[0][-1] == "status"
    assert len(rows) == 4
    assert all(row[-1] == "ok" for row in rows[1:])
    speeds = [float(row[1]) for row in rows[1:]]
    assert speeds[0] > speeds[1] > speeds[2], f"speeds not decreasing with load: {speeds}"


def test_sweep_over_turns_ratio(tmp_path):
    assert (
        main(
            [
                "sweep",
                "paper_s3",
                "--axis",
                "machine.turns_ratio_a",
                "--values",
                "1.0,1.18",
                "--output-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3
    assert all(row[-1] == "ok" for row in rows[1:])


def test_sweep_row_failure_is_recorded_not_fatal(tmp_path):
    assert (
        main(
            [
                "sweep",
                "paper_s3",
                "--axis",
                "machine.inertia_j",
                "--values=-1.0,2.92e-3",
                "--output-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][-1].startswith("failed:")
    assert rows[2][-1] == "ok"


def test_sweep_invalid_first_value_is_a_failed_row(tmp_path):
    # Values are not trial-applied before the sweep, so a bad first value
    # fails only its own row.
    argv = ["sweep", "paper_s3", "--axis", "integrator.step_size", "--values=-1,1e-4"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][-1].startswith("failed:")
    assert rows[2][-1] == "ok"


def test_sweep_spec_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "paper_s3", "--axis", "load.torque", "--values", " "]) == 1
    assert main(["sweep", "paper_s3", "--axis", "machine.bogus", "--values", "1.0"]) == 1
    assert main(
        ["sweep", "paper_s3", "--axis", "load.torque", "--values", "1.0", "--fields", "bogus"]
    ) == 1
    capsys.readouterr()


def test_emitted_plot_script_renders_pngs(tmp_path):
    pytest.importorskip("matplotlib")
    path = _short_config(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path), "--emit-plot-script"]) == 0
    script = tmp_path / "short_plot.py"
    assert script.is_file()
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for stem in ("supply_voltage", "stator_current", "rotor_current", "torque", "rotor_speed"):
        assert (tmp_path / f"short_{stem}.png").is_file()

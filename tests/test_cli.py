"""CLI contract: files written, schemas, exit codes."""

import csv
import io
import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tpim
import tpim.output
from tpim import TRACE_CHANNELS, integrate, load_config
from tpim.cli import main, usable_cpus
from tpim.config import build_scenario
from tpim.dynamics import IntegrationError
from tpim.output import CSV_HEADER, write_trace_csv

from support import reference_trace_csv


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


def test_overflowing_supply_frequency_exits_1_before_the_run(tmp_path, capsys):
    # 2*pi*f is inf, and cos(inf) would stop the run with a bare traceback.
    fast = tmp_path / "fast.cfg"
    fast.write_text(_reference_text().replace("supply.frequency = 50.0", "supply.frequency = 1e308"))
    for argv in (["validate", str(fast)], ["run", str(fast), "--output-dir", str(tmp_path)]):
        assert main(argv) == 1
        assert "error: supply: angular frequency 2*pi*1e+308*1" in capsys.readouterr().err
    assert not (tmp_path / "fast_trace.csv").exists()
    argv = ["sweep", "paper_s3", "--axis", "supply.frequency", "--values=1e308,50.0"]
    assert main(argv + ["--output-dir", str(tmp_path), "--fields", "final_speed_mech"]) == 0
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][-1].startswith("failed: angular frequency")
    assert rows[2][-1] == "ok"


def _refuse_terabytes(monkeypatch):
    # 1e-11 asks for 6.55 TiB of records, which fails only where the OS
    # refuses to overcommit; this stand-in for numpy.empty refuses it anywhere.
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError("Unable to allocate 6.55 TiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)


# 1e-18 asks for 1e18 records, more bytes than numpy can index.
@pytest.mark.parametrize("step_size", ["1e-18", "1e-11"])
def test_records_that_cannot_be_allocated_exit_1(tmp_path, capsys, monkeypatch, step_size):
    if step_size == "1e-11":
        _refuse_terabytes(monkeypatch)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(_reference_text().replace("integrator.step_size = 1e-4", f"integrator.step_size = {step_size}"))
    records = load_config(str(tiny)).integrator.n_steps + 1
    assert main(["run", str(tiny), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate") and err.count("\n") == 1
    assert f"{records} records of 8 floats ({records * 64} bytes)" in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("step_size", ["1e-18", "1e-11"])
def test_sweep_row_that_cannot_be_allocated_fails_alone(tmp_path, monkeypatch, step_size):
    if step_size == "1e-11":
        _refuse_terabytes(monkeypatch)
    argv = ["sweep", "paper_s3", "--axis", "integrator.step_size", f"--values={step_size},1e-4"]
    assert main(argv + ["--output-dir", str(tmp_path), "--fields", "final_speed_mech"]) == 0
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][-1].startswith("failed: cannot allocate")
    assert rows[2][-1] == "ok"


def test_numerical_failure_exits_2(tmp_path, capsys):
    blow = tmp_path / "blow.cfg"
    blow.write_text(_reference_text().replace("integrator.step_size = 1e-4", "integrator.step_size = 0.02"))
    assert main(["run", str(blow), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure at t = 0.06" in err


def test_numerical_failure_leaves_the_partial_trace(tmp_path, capsys):
    # The run fails at t = 0.06 s; what it recorded before is the trace of
    # the same run stopped at 0.04 s, byte for byte.
    blow = tmp_path / "blow.cfg"
    blow.write_text(_reference_text().replace("integrator.step_size = 1e-4", "integrator.step_size = 0.02"))
    stop = tmp_path / "stop.cfg"
    stop.write_text(blow.read_text().replace("integrator.duration = 1.0", "integrator.duration = 0.04"))
    assert main(["run", str(blow), "--output-dir", str(tmp_path)]) == 2
    partial = tmp_path / "blow_partial_trace.csv"
    assert str(partial) in capsys.readouterr().err
    assert not (tmp_path / "blow_trace.csv").exists()
    assert main(["run", str(stop), "--output-dir", str(tmp_path)]) == 0
    assert partial.read_bytes() == (tmp_path / "stop_trace.csv").read_bytes()


def _first_rows(trace, rows):
    return replace(trace, **{name: trace.channel(name)[:rows] for name in TRACE_CHANNELS})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1, 1023, 1024, 2047, 2048, 2049, 10001])
def test_trace_csv_bytes_do_not_depend_on_the_cpus(tmp_path, rated_trace, rows):
    # One writer in process: its bytes are the reference writer's, whatever
    # the CPUs. The row counts straddle its 1,024-row blocks.
    trace = _first_rows(rated_trace, rows)
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(trace)
    assert [path.name for path in tmp_path.iterdir()] == ["trace.csv"]


# Where the shortest round-trip texts of orjson and repr part ways
# (0 < |v| < 1e-4, |v| >= 1e16, nan, inf), and their neighbours.
_EDGE_VALUES = (
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 9.999999999999999e-05,
    1e-4, 1.0000000000000002e-4, 0.1, 1.0, 9999999999999998.0, 1e16,
    1.0000000000000002e16, 1.7976931348623157e308, math.inf, math.nan,
)
_SIGNED_EDGES = np.resize(np.outer((1.0, -1.0), _EDGE_VALUES), (3, len(TRACE_CHANNELS)))
_cells = st.one_of(st.sampled_from(_SIGNED_EDGES.ravel().tolist()), st.floats())
_tables = arrays(
    np.float64, st.tuples(st.integers(1, 3), st.just(len(TRACE_CHANNELS))), elements=_cells
)


@settings(max_examples=60, deadline=None, database=None)
@example(table=_SIGNED_EDGES)
@given(table=_tables)
def test_trace_csv_is_repr_of_every_value(tmp_path_factory, rated_trace, table):
    trace = replace(rated_trace, **dict(zip(TRACE_CHANNELS, table.T)))
    path = tmp_path_factory.getbasetemp() / "property_trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == reference_trace_csv(trace)


def test_partial_trace_bytes_do_not_depend_on_the_cpus(tmp_path, capsys, monkeypatch):
    # Bundled configs fail within a few records, so a run that fails after
    # 2,049 records stands in for a numerical failure late in a run. Its
    # partial trace comes from the same in-process writer as a full one.
    recorded = []

    def integrate_then_fail(p, scenario):
        recorded.append(_first_rows(integrate(p, scenario), 2049))
        raise IntegrationError(recorded[0].t[-1], None, recorded[0])

    monkeypatch.setattr("tpim.cli.integrate", integrate_then_fail)
    path = _short_config(tmp_path, duration="0.25")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 2
    assert "partial trace written to" in capsys.readouterr().err
    assert [item.name for item in out.iterdir()] == ["short_partial_trace.csv"]
    assert (out / "short_partial_trace.csv").read_bytes() == reference_trace_csv(recorded[0])


def test_run_starts_no_process(tmp_path, monkeypatch, table1):
    def refuse(*args, **kwargs):
        raise AssertionError("tpim run starts no process")

    for name in ("fork", "posix_spawn", "posix_spawnp"):
        monkeypatch.setattr(os, name, refuse, raising=False)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    path = _short_config(tmp_path, duration="0.25")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    _assert_no_child_left()
    assert sorted(item.name for item in out.iterdir()) == ["short_summary.txt", "short_trace.csv"]
    trace = integrate(table1, build_scenario(load_config(str(path))))
    assert (out / "short_trace.csv").read_bytes() == reference_trace_csv(trace)


def test_failing_trace_write_exits_1(tmp_path, capsys, monkeypatch):
    class FullDisk(io.BufferedWriter):
        def write(self, data):
            if self.tell() > 0:  # the disk fills after the header
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(
        tpim.output, "open", lambda path, mode: FullDisk(io.FileIO(path, "w")), raising=False
    )
    path = _short_config(tmp_path, duration="0.25")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 1
    # The failing write leaves its trace file as the OS left it; nothing else.
    assert [item.name for item in out.iterdir()] == ["short_trace.csv"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_usable_cpus_count_the_affinity_and_need_fork(monkeypatch):
    # The size of the sweep pool: `taskset` limits it, and without fork the
    # rows run in process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert usable_cpus() == 2
    monkeypatch.delattr(os, "fork", raising=False)
    assert usable_cpus() == 1


def test_unknown_config_exits_1(capsys):
    assert main(["run", "no_such_config"]) == 1
    assert "config not found" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_round_trips(capsys):
    assert main(["validate", "paper_s3"]) == 0
    echoed = capsys.readouterr().out
    from tpim.config import parse_config

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


def _sweep_torques(tmp_path, values):
    argv = ["sweep", "paper_s3", "--axis", "load.torque", f"--values={values}"]
    code = main(argv + ["--output-dir", str(tmp_path)])
    # A worker left running would outlive the command.
    assert multiprocessing.active_children() == []
    return code, (tmp_path / "paper_s3_sweep.csv").read_bytes()


def test_pooled_and_in_process_sweeps_write_the_same_bytes(tmp_path, monkeypatch):
    values = "0.0,-50.0,0.5,1.0096,0.75"  # -50 N*m never settles: a failed row
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = _sweep_torques(tmp_path / "pool", values)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    in_process = _sweep_torques(tmp_path / "one", values)
    assert pooled == in_process
    rows = list(csv.reader(pooled[1].decode().splitlines()))
    assert [row[0] for row in rows[1:]] == values.split(",")
    assert [row[-1][:7] for row in rows[1:]] == ["ok", "failed:", "ok", "ok", "ok"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="rows run in process")
def test_dead_sweep_worker_exits_1_and_keeps_the_rows_before_it(tmp_path, capsys, monkeypatch):
    # The patch reaches the forked workers: the row for 0.9 N*m ends its
    # worker as a crash would, once both earlier rows are integrated and a
    # grace period has let their results reach the parent.
    done = tmp_path / "done"
    done.mkdir()

    def integrate_or_die(p, scenario):
        torque = scenario.load.breakpoints[0][1]
        if torque == 0.9:
            deadline = time.monotonic() + 60.0
            while len(list(done.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(3)
        trace = integrate(p, scenario)
        (done / repr(torque)).touch()
        return trace

    monkeypatch.setattr("tpim.cli.integrate", integrate_or_die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, table = _sweep_torques(tmp_path, "0.0,0.5,0.9,1.0")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker died; no row from load.torque = 0.9 on: ")
    assert err.count("\n") == 1
    rows = list(csv.reader(table.decode().splitlines()))
    assert [(row[0], row[-1]) for row in rows[1:]] == [("0.0", "ok"), ("0.5", "ok")]


def test_writer_error_drops_the_queued_rows(tmp_path, capsys, monkeypatch):
    # A table that cannot be written stops the sweep: the rows still queued
    # for the workers are cancelled, not run to the end.
    ran = tmp_path / "ran"
    ran.mkdir()

    def integrate_and_count(p, scenario):
        (ran / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
        return integrate(p, scenario)

    class FullDisk:
        def __init__(self, f):
            self.rows = 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                raise OSError(28, "No space left on device")

    monkeypatch.setattr("tpim.cli.integrate", integrate_and_count)
    monkeypatch.setattr("tpim.cli.csv.writer", FullDisk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, _ = _sweep_torques(tmp_path, ",".join(["0.5"] * 20))
    assert code == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert 2 <= len(list(ran.iterdir())) < 20


@cache
def _modules_after_import() -> frozenset[str]:
    """The modules a fresh interpreter holds after `import tpim, tpim.cli`."""
    src = str(Path(tpim.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import tpim, tpim.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def test_importing_the_cli_loads_no_process_pool():
    # Only `sweep` imports the pool: at module top it adds import time and
    # peak memory to every command.
    loaded = _modules_after_import()
    assert "tpim.cli" in loaded
    assert not {"concurrent.futures", "multiprocessing"} & loaded


def test_importing_the_cli_loads_no_orjson():
    # Only the trace writer imports orjson, so `validate`, `sweep` and the
    # library's setup do not pay for it.
    assert "orjson" not in _modules_after_import()


def test_sweep_spec_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "paper_s3", "--axis", "load.torque", "--values", " "]) == 1
    assert main(["sweep", "paper_s3", "--axis", "machine.bogus", "--values", "1.0"]) == 1
    assert main(
        ["sweep", "paper_s3", "--axis", "load.torque", "--values", "1.0", "--fields", "bogus"]
    ) == 1
    # Non-finite values are rejected before any row runs or the table is written.
    for axis, values in (("supply.frequency", "inf,50"), ("initial_state.omega_mech", "nan")):
        argv = ["sweep", "paper_s3", "--axis", axis, "--values", values]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "paper_s3_sweep.csv").exists()
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

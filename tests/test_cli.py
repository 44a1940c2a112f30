"""CLI contract: files written, schemas, exit codes."""

import ast
import csv
import io
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tpim
import tpim.output
from tpim import TRACE_CHANNELS, LoadProfile, dynamics, integrate, load_config, validate_parameters
from tpim.cli import main
from tpim.config import build_scenario
from tpim.dynamics import IntegrationError
from tpim.output import CSV_HEADER, REPORT_SPEED_TOL, usable_cpus, write_trace_csv

from support import reference_trace_csv, shoot, state_at, summary_bounds


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


@pytest.mark.parametrize("duration, speed_tol, note", [
    ("0.05", "0.05", "trace spans 0.05 s, steady-state detection needs >= 0.2 s"),
    ("1.0", "0.001", "speed never settled within 0.001 of its window mean"),
])
def test_summary_without_a_steady_state_says_why_and_keeps_its_audits(tmp_path, duration, speed_tol, note):
    path = _short_config(tmp_path, duration=duration)
    assert main(["run", str(path), "--output-dir", str(tmp_path), "--speed-tol", speed_tol]) == 0
    lines = (tmp_path / "short_summary.txt").read_text().splitlines()
    assert lines[:3] == [f"steady_state_tolerance: {float(speed_tol)!r}", "steady_state_reached: false",
                         f"steady_state_note: {note}"]
    assert lines[3].startswith("audit_te_ec.stator_input_energy: ")


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


@pytest.mark.parametrize("every", ["0", "-1", str(2**64 + 1)])
def test_invalid_record_every_override_exits_1(tmp_path, capsys, every):
    path = _short_config(tmp_path)
    assert main(["run", str(path), "--output-dir", str(tmp_path), "--record-every", every]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record_every" in err
    assert not (tmp_path / "short_trace.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf", "abc"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_invalid_speed_tol_exits_1_before_the_run(tmp_path, capsys, command, tol):
    path = _short_config(tmp_path)
    argv = [command, str(path), "--output-dir", str(tmp_path), f"--speed-tol={tol}"]
    if command == "sweep":
        argv += ["--axis", "load.torque", "--values", "0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: argument --speed-tol:")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_empty_output_dir_exits_1_before_the_run(tmp_path, capsys, command):
    # An empty --output-dir is no directory; it must not fall back to
    # output.directory unnoticed.
    path = _short_config(tmp_path, extra=f"output.directory = {tmp_path / 'configured'}\n")
    argv = [command, str(path), "--output-dir", ""]
    if command == "sweep":
        argv += ["--axis", "load.torque", "--values", "0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: argument --output-dir: must not be empty\n"
    assert not (tmp_path / "configured").exists()


def test_output_dir_that_cannot_be_made_exits_1_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("integrate ran before the output directory was made")

    monkeypatch.setattr(tpim.cli, "integrate", no_run)
    regular = tmp_path / "regular"
    regular.write_text("")
    assert main(["run", str(_short_config(tmp_path)), "--output-dir", str(regular / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _argv(command, path, out):
    """command on the config at path, writing to out."""
    return [command, str(path), *{"validate": [], "run": ["--output-dir", str(out)],
                                  "sweep": ["--output-dir", str(out), "--axis", "load.torque", "--values", "0.5"]}[command]]


@pytest.mark.parametrize("key, value", [("output.prefix", "sub/x"), ("output.prefix", "x\0y"),
                                        ("output.directory", "out\0")], ids=["separator", "nul", "nul_directory"])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_output_name_that_names_no_file_exits_1_before_the_run(tmp_path, capsys, monkeypatch, command, key, value):
    # The prefix is a file name stem: a separator would also break the plot
    # script's PNG paths, even where the subdirectory exists.
    def no_run(*args):
        raise AssertionError("integrate ran with an output name that names no file")

    monkeypatch.setattr(tpim.cli, "integrate", no_run)
    (tmp_path / "out" / "sub").mkdir(parents=True)
    settings = {"output.directory": tmp_path / "out", key: value}
    path = _short_config(tmp_path, extra="".join(f"{k} = {v}\n" for k, v in settings.items()))
    sweep = ["--axis", "load.torque", "--values", "0.5"] if command == "sweep" else []
    assert main([command, str(path), *sweep]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert repr(value) in err
    assert [item.name for item in (tmp_path / "out").iterdir()] == ["sub"]


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    text = _short_config(tmp_path).read_bytes() + b"# \xff\n"
    path = tmp_path / "latin.cfg"
    path.write_bytes(text)
    assert main(_argv(command, path, tmp_path / "out")) == 1
    offset = text.index(b"\xff")
    assert capsys.readouterr() == ("", f"error: {str(path)!r} is not UTF-8 text: invalid start byte at byte offset "
                                       f"{offset}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stem", ["a#b", " ab", "ab "])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_stem_that_a_config_cannot_hold_needs_a_prefix(tmp_path, capsys, command, stem):
    # The default output.prefix is the stem, and validate echoes it: a '#' or
    # whitespace at either end would not re-parse to the same prefix.
    path = _short_config(tmp_path, name=stem)
    assert main(_argv(command, path, tmp_path / "out")) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: output.prefix:") and err.count("\n") == 1
    assert f"{stem!r}" in err and "set output.prefix" in err
    assert not (tmp_path / "out").exists()
    path.write_text(path.read_text() + "output.prefix = ab\n")
    assert main(_argv(command, path, tmp_path / "out")) == 0


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


def test_supply_phase_overflowing_during_the_run_exits_1_before_the_run(tmp_path, capsys):
    # 2*pi*f is finite, but 2*pi*f*t overflows near t = 1.43 s, where cos(inf)
    # would stop the run with a bare traceback.
    text = (_reference_text().replace("supply.frequency = 50.0", "supply.frequency = 2e307")
            .replace("integrator.duration = 1.0", "integrator.duration = 2.0")
            .replace("integrator.step_size = 1e-4", "integrator.step_size = 0.5"))
    fast = tmp_path / "fast.cfg"
    fast.write_text(text)
    cause = "phase argument 2*pi*2e+307*1*t + 0.0 of harmonic 1 on phase alpha is not finite at t = 2.0"
    out = tmp_path / "out"
    for argv in (["validate", str(fast)], ["run", str(fast), "--output-dir", str(out)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: supply: {cause}\n"
    assert not out.exists()
    argv = ["sweep", "symmetric_check", "--axis", "supply.frequency", "--values", "2e307"]
    assert main(argv + ["--output-dir", str(out), "--fields", "final_speed_mech"]) == 0
    with open(out / "symmetric_check_sweep.csv", newline="") as f:
        assert list(csv.reader(f))[1][-1] == f"failed: {cause}"
    supply, load = tpim.quadrature_supply(230.0, 2e307), tpim.LoadProfile.constant(0.0)
    tpim.Scenario(supply, load, tpim.IntegratorConfig(step_size=0.5, duration=1.0))  # 2*pi*f*t is finite
    with pytest.raises(ValueError, match=r"phase argument .* at t = 2\.0"):
        tpim.Scenario(supply, load, tpim.IntegratorConfig(step_size=0.5, duration=2.0))


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
    assert f"{records} records of 15 floats ({records * 120} bytes)" in err
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
    return replace(trace, records=trace.records[:, :rows])


def _each_writer():
    """Run the loop body with the trace writer a run takes, the C formatter
    where it can be built, then with its fallback, repr's; yield the name."""
    yield "default"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tpim.output, "_c_format_rows", lambda: None)
        yield "repr"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 1023, 1024, 1055, 2047, 2048, 2049, 10001])
def test_trace_csv_blocks_match_the_reference_writer(tmp_path, rated_trace, monkeypatch, rows):
    # Both writers format 1,024-row blocks, and the C formatter each block in
    # runs of 32 rows; the row counts straddle both boundaries. The C
    # formatter's blocks go to a thread per usable CPU, up to one per full
    # block (1,024 rows) and to _CSV_LANES (2), so 10,001 rows take 2 lanes
    # of 3 or 8 CPUs, with a last round of one block. At every lane count the
    # bytes are the reference writer's, and no thread outlives the write.
    trace = _first_rows(rated_trace, rows)
    threads = threading.active_count()
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for writer in _each_writer():
            write_trace_csv(trace, tmp_path / "trace.csv")
            assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(trace), (cpus, writer)
            assert [path.name for path in tmp_path.iterdir()] == ["trace.csv"]
            assert threading.active_count() == threads


def test_a_failing_lane_raises_its_error_once_its_thread_has_ended(tmp_path, rated_trace, monkeypatch):
    format_rows = tpim.output._c_format_rows()
    if format_rows is None:
        pytest.skip("no C formatter: no cc on PATH")
    caller = threading.current_thread()
    lane_threads = []
    failure = RuntimeError("the lane's second block fails")

    def format_or_fail(*args):
        if threading.current_thread() is not caller:
            lane_threads.append(threading.current_thread())
            if len(lane_threads) == 2:
                raise failure
        return format_rows(*args)

    monkeypatch.setattr(tpim.output, "_c_format_rows", lambda: format_or_fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        write_trace_csv(rated_trace, tmp_path / "trace.csv")
    assert raised.value is failure
    assert len(lane_threads) == 2 and not lane_threads[0].is_alive()
    assert threading.active_count() == threads


def test_trace_csv_keeps_its_bytes_on_more_lanes_than_cores(tmp_path, rated_trace, monkeypatch):
    # What the reference-writer test does not: the lanes' interleavings
    # shuffled by a thread switch every 10 us, so a block written out of
    # order or a buffer reused before its write changes the bytes; 8 lanes,
    # past the _CSV_LANES cap, which limits memory, not the schedule; and a
    # deadline on each write, so lanes that wait on each other fail the
    # test rather than hang it.
    monkeypatch.setattr(tpim.output, "_CSV_LANES", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    expected = reference_trace_csv(rated_trace)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            writer = threading.Thread(target=write_trace_csv, args=(rated_trace, tmp_path / "trace.csv"), daemon=True)
            writer.start()
            writer.join(60)
            assert not writer.is_alive()
            assert (tmp_path / "trace.csv").read_bytes() == expected
    finally:
        sys.setswitchinterval(interval)


def test_trace_csv_formats_on_at_most_two_lanes(tmp_path, rated_trace, monkeypatch):
    # Each lane holds its own text buffer: 8 usable CPUs still start one
    # thread besides the caller, so peak RSS does not grow with the host.
    if tpim.output._c_format_rows() is None:
        pytest.skip("no C formatter: no cc on PATH")
    start = threading.Thread.start
    started = []

    def count_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", count_start)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    write_trace_csv(rated_trace, tmp_path / "trace.csv")
    assert len(started) == 1


def test_a_lane_that_cannot_start_leaves_no_thread_behind(monkeypatch):
    # Three lanes, whose second thread cannot start (as when a process runs
    # out of threads): the error reaches the caller once the lane that did
    # start has ended, and no block is written. The write runs on a daemon
    # thread, whose lanes are daemons too, so a lane left waiting fails the
    # test rather than hang it.
    start = threading.Thread.start
    started, raised = [], []

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        start(thread)
        started.append(thread)

    def write():
        try:
            tpim.output._write_blocks(f, range(6), lambda lane, start: b"%d\n" % start, 3)
        except RuntimeError as exc:
            raised.append(exc)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    threads = threading.active_count()
    f = io.BytesIO()
    writer = threading.Thread(target=write, daemon=True)
    start(writer)
    writer.join(60)
    assert not writer.is_alive()
    assert [str(exc) for exc in raised] == ["can't start new thread"]
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == threads
    assert f.getvalue() == b""


def test_trace_csv_rejects_a_float32_trace_before_writing(tmp_path, rated_trace):
    # The C formatter reads doubles, and repr would spell the widened doubles
    # (1e-4 as 9.999999747378752e-05). A trace refuses records of any dtype
    # or shape but the writers' where it is made, naming both.
    records = rated_trace.records
    for wrong in (records.astype(np.float32), records[0], records[:14]):
        layout = re.escape(f"not {wrong.dtype} of shape {wrong.shape}")
        with pytest.raises(TypeError, match=f"float64 of shape \\(15, records\\), {layout}"):
            write_trace_csv(replace(rated_trace, records=wrong), tmp_path / "trace.csv")
    assert list(tmp_path.iterdir()) == []


# Where repr's layout changes and their neighbours: fixed notation for
# 1e-4 <= |v| < 1e16, an exponent outside it, padded to two digits (1e-05,
# 1e-09) or not (9.999999999999999e-10, 1e-300), subnormals, nan and inf.
_EDGE_VALUES = (
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 9.999999999999999e-10,
    1e-9, 9.999999999999999e-06, 1e-5, 9.999999999999999e-05, 1e-4, 1.0000000000000002e-4,
    0.1, 1.0, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1.7976931348623157e308,
    math.inf, math.nan,
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
    trace = replace(rated_trace, records=table.T)
    path = tmp_path_factory.getbasetemp() / "property_trace.csv"
    for writer in _each_writer():
        write_trace_csv(trace, path)
        assert path.read_bytes() == reference_trace_csv(trace), writer


def _formatter_values() -> np.ndarray:
    """Doubles of every exponent and digit count: random bit patterns; and,
    of either sign, each power of ten times 1, 1.5, 5 and 9.999999999999999
    and each power of two, with both neighbours, the integers below 1e5 and
    around 2**53, m * 10**e for m < 1000, zero, infinity, the smallest
    subnormal and nans with a payload."""
    rng = np.random.default_rng(22)
    tens = [float(f"1e{e}") * m for e in range(-324, 309) for m in (1.0, 1.5, 5.0, 9.999999999999999)]
    steps = np.concatenate([tens, np.ldexp(1.0, np.arange(-1074, 1024))])
    nans = np.array([0x7FF0_0000_0000_0001, 0x7FF8_DEAD_BEEF_0001], np.uint64).view(np.float64)
    values = np.concatenate([
        steps, np.nextafter(steps, math.inf), np.nextafter(steps, -math.inf),
        np.arange(100_000.0), np.arange(2.0**53 - 2000, 2.0**53 + 2000),
        [float(f"{m}e{e}") for m in range(1000) for e in range(-324, 309, 11)],
        [0.0, math.inf, 5e-324, math.nan], nans,
    ])
    return np.concatenate([rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64), values, -values])


def test_c_formatter_spells_each_value_as_repr():
    format_rows = tpim.output._c_format_rows()
    if format_rows is None:
        pytest.skip("no C formatter: no cc on PATH")
    values = _formatter_values()
    assert len(values) >= 300_000
    text = np.empty(tpim.output._CELL_BYTES * len(values) + tpim.output._TEXT_SLACK, np.uint8)
    written = format_rows(values.ctypes.data, len(values), 1, 1, text.ctypes.data)
    spelled = bytes(text[:written]).decode().split("\n")
    expected = [*map(repr, values.tolist()), ""]
    if spelled != expected:
        wrong = [(value, got) for value, got, want in zip(values.tolist(), spelled, expected) if got != want]
        pytest.fail(f"{len(spelled) - 1} lines for {len(values)} values; unlike repr: {wrong[:10]}")
    # The same values as three channel rows of m records, read in place at
    # stride m: the lines are the repr rows of the transpose. Then the first
    # 33 records of each, a run of 32 rows and one more, at that stride.
    channels = values[:len(values) // 3 * 3].reshape(3, -1)
    m = channels.shape[1]
    for rows in (m, 33):
        written = format_rows(channels.ctypes.data, rows, 3, m, text.ctypes.data)
        spelled = bytes(text[:written]).decode().split("\n")
        expected = [*(",".join(map(repr, row)) for row in channels[:, :rows].T.tolist()), ""]
        if spelled != expected:
            wrong = [(got, want) for got, want in zip(spelled, expected) if got != want]
            pytest.fail(f"{len(spelled) - 1} lines for {rows} rows at stride {m}; unlike repr: {wrong[:10]}")


def test_c_formatter_writes_within_its_text_and_slack(monkeypatch, rated_trace):
    # A text buffer holds _CELL_BYTES a value and _TEXT_SLACK: the canary
    # bytes after it stay as they were, for rows made only of the longest
    # reprs and for each edge value alone. A columns past the formatter's
    # scratch is refused before a byte is written, and the writer raises.
    format_rows = tpim.output._c_format_rows()
    if format_rows is None:
        pytest.skip("no C formatter: no cc on PATH")
    cell, slack, canary = tpim.output._CELL_BYTES, tpim.output._TEXT_SLACK, b"\xa5" * 64

    def format_into_exact_buffer(values, rows, columns, size):
        buffer = np.frombuffer(bytearray(size) + canary, np.uint8)
        written = format_rows(values.ctypes.data, rows, columns, rows, buffer.ctypes.data)
        assert bytes(buffer[size:]) == canary, values.tolist()
        return bytes(buffer[:written])

    longest = np.resize([-2.2250738585072014e-308, -1.7976931348623157e+308, -1.0000000000000002e-100], (15, 40))
    text = format_into_exact_buffer(longest, 40, 15, cell * longest.size + slack)
    assert text == b"".join(",".join(map(repr, row)).encode() + b"\n" for row in longest.T.tolist())
    assert len(text) == cell * longest.size
    for value in _SIGNED_EDGES.ravel().tolist() + [0.1, -0.1, 1.5, 0.001, 12.0]:
        spelled = repr(value).encode() + b"\n"
        assert format_into_exact_buffer(np.array([value]), 1, 1, len(spelled) + slack) == spelled

    columns = tpim.output._FORMAT_COLUMNS + 1
    values = np.ones((columns, 2))
    text = np.frombuffer(bytearray(canary), np.uint8)
    assert format_rows(values.ctypes.data, 2, columns, 2, text.ctypes.data) == -1
    assert bytes(text) == canary
    monkeypatch.setattr(tpim.output, "_c_format_rows", lambda: lambda *args: -1)
    with pytest.raises(ValueError, match="the C formatter takes 1 to 16 columns, not 15"):
        write_trace_csv(rated_trace, os.devnull)


def test_late_partial_trace_matches_the_reference_writer(tmp_path, capsys, monkeypatch):
    # Bundled configs fail within a few records, so a run that fails after
    # 2,049 records stands in for a numerical failure late in a run. Its
    # partial trace comes from the same in-process writer as a full one.
    recorded = []

    def integrate_then_fail(p, scenario):
        recorded.append(_first_rows(integrate(p, scenario), 2049))
        raise IntegrationError(recorded[0].t[-1], None, recorded[0])

    monkeypatch.setattr("tpim.cli.integrate", integrate_then_fail)
    path = _short_config(tmp_path, duration="0.25")
    for writer in _each_writer():
        recorded.clear()
        out = tmp_path / writer
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert "partial trace written to" in capsys.readouterr().err
        assert [item.name for item in out.iterdir()] == ["short_partial_trace.csv"]
        assert (out / "short_partial_trace.csv").read_bytes() == reference_trace_csv(recorded[0]), writer


def test_run_starts_no_process(tmp_path, monkeypatch, table1):
    # On a warm cache: the libraries of the step loop and the trace
    # formatter are loaded from the cache directory, not compiled, once this
    # process has forgotten them.
    path = _short_config(tmp_path, duration="0.25")
    integrate(table1, build_scenario(load_config(str(path))))
    tpim.output._c_format_rows()
    dynamics._step_loop.cache_clear()
    dynamics._c_loop.cache_clear()
    tpim.output._c_format_rows.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("tpim run starts no process")

    for name in ("fork", "posix_spawn", "posix_spawnp"):
        monkeypatch.setattr(os, name, refuse, raising=False)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    _assert_no_child_left()
    if shutil.which("cc"):
        assert dynamics._step_loop("rk4", (1, 1)) is dynamics._c_loop("rk4", (1, 1)) is not None
        assert tpim.output._c_format_rows() is not None
    assert sorted(item.name for item in out.iterdir()) == ["short_summary.txt", "short_trace.csv"]
    trace = integrate(table1, build_scenario(load_config(str(path))))
    assert (out / "short_trace.csv").read_bytes() == reference_trace_csv(trace)


def _fill_the_disk(monkeypatch):
    """Make every file the writers open fail with ENOSPC after its header."""
    class FullDisk(io.BufferedWriter):
        def write(self, data):
            if self.tell() > 0:  # the disk fills after the header
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(
        tpim.output, "open", lambda path, mode: FullDisk(io.FileIO(path, "w")), raising=False
    )


def test_failing_trace_write_exits_1(tmp_path, capsys, monkeypatch):
    # 2,049 records: two lanes of 2 CPUs. The first block's write fails in
    # the calling thread, and the second lane's thread ends with the run.
    _fill_the_disk(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = _short_config(tmp_path, duration="0.2048")
    out = tmp_path / "out"
    threads = threading.active_count()
    assert main(["run", str(path), "--output-dir", str(out)]) == 1
    assert threading.active_count() == threads
    # The failing write leaves its trace file as the OS left it; nothing else.
    assert [item.name for item in out.iterdir()] == ["short_trace.csv"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_partial_trace_that_cannot_be_written_keeps_exit_2(tmp_path, capsys, monkeypatch):
    # The write's error is reported, but the numerical failure stays the error.
    _fill_the_disk(monkeypatch)
    blow = tmp_path / "blow.cfg"
    blow.write_text(_reference_text().replace("integrator.step_size = 1e-4", "integrator.step_size = 0.02"))
    assert main(["run", str(blow), "--output-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    written, failed = err.splitlines()
    assert written == "error: partial trace not written: [Errno 28] No space left on device"
    assert failed.startswith("numerical failure at t = 0.06 s: ")
    # The header the full disk let through is removed: no file passes for the partial trace.
    assert [item.name for item in tmp_path.iterdir()] == ["blow.cfg"]


def test_usable_cpus_count_the_affinity(monkeypatch):
    # The trace formatter's lanes and the sweep pool's workers: `taskset`
    # limits them, and a platform that cannot say gets one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1


def test_sweep_without_fork_runs_its_rows_in_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep without fork starts no pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    code, table = _sweep_torques(tmp_path, "0.5,1.0")
    assert code == 0
    assert [row[-1] for row in csv.reader(table.decode().splitlines())] == ["status", "ok", "ok"]


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


def test_sweep_rows_match_their_free_rotor_orbits(tmp_path):
    # Each row's summary against the orbit of its torque, shot from the
    # rated run's end, within what its settle time allows (summary_bounds).
    torques = (0.5, 1.0, 1.5)
    fields = "settle_time,final_speed_mech,mean_torque"
    argv = ["sweep", "paper_s3", "--axis", "load.torque", "--values", ",".join(map(repr, torques)), "--fields", fields]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    config = load_config("paper_s3")
    p, rated = validate_parameters(config.machine), build_scenario(config)
    start = state_at(integrate(p, rated), -1)
    for torque, row in zip(torques, rows, strict=True):
        assert row[0] == repr(torque) and row[-1] == "ok", row
        settle_time, speed, mean_torque = map(float, row[1:4])
        orbit = shoot(p, replace(rated, load=LoadProfile.constant(torque)), start)
        speed_bound, torque_bound = summary_bounds(p, orbit, settle_time, config.integrator.duration, REPORT_SPEED_TOL)
        assert abs(speed - orbit.mean("omega_mech")) <= speed_bound, torque
        assert abs(mean_torque - orbit.mean("te")) <= torque_bound, torque


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


def _modules_after(*argv) -> frozenset[str]:
    """The modules a fresh interpreter holds after `import tpim, tpim.cli`
    and, given argv, a `tpim.cli.main(argv)` that returns 0."""
    src = str(Path(tpim.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import tpim, tpim.cli; "
            f"assert not {list(argv)!r} or tpim.cli.main({list(argv)!r}) == 0; print(*sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # Only `sweep` imports the pool: at module top it adds import time and
    # peak memory to every command. A run formats its trace on threads,
    # which need neither.
    path = _short_config(tmp_path, duration="0.25")
    for argv in ((), ("run", str(path), "--output-dir", str(tmp_path))):
        loaded = _modules_after(*argv)
        assert "tpim.cli" in loaded
        assert not {"concurrent.futures", "multiprocessing"} & loaded, argv


def test_commands_that_integrate_nothing_load_no_numpy(tmp_path):
    # validate, --help and a rejected config or command line only parse and
    # check: numpy loads at a run's first array. sweep imports it before it
    # forks, so that its workers share it rather than each importing it.
    path = _short_config(tmp_path, duration="0.25")
    rejected = _short_config(tmp_path, name="rejected", extra="machine.no_such_field = 1.0\n")
    src = str(Path(tpim.__file__).resolve().parent.parent)
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
from tpim.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["validate", "paper_s3"]) == 0
    assert main(["validate", {str(rejected)!r}]) == 1
    assert main(["run", "paper_s3", "--no-such-option"]) == 1
    try:
        main(["--help"])
    except SystemExit as exit:
        assert exit.code == 0
    assert "numpy" not in sys.modules
    assert "tpim._native" not in sys.modules
    assert main(["sweep", {str(path)!r}, "--axis", "load.torque", "--values", "1.0,1.1",
                 "--output-dir", {str(tmp_path)!r}]) == 0
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "short_sweep.csv").read_text().splitlines()) == 3


def test_run_writes_its_trace_by_the_c_formatter(tmp_path):
    # Where cc is on PATH the C formatter writes the trace; without cc,
    # the fallback writes it by repr.
    path = _short_config(tmp_path)
    src = str(Path(tpim.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); from tpim import output; from tpim.cli import main; "
            f"assert main(['run', {str(path)!r}, '--output-dir', {str(tmp_path)!r}]) == 0; "
            "print(output._c_format_rows() is not None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(shutil.which("cc") is not None)
    assert (tmp_path / "short_trace.csv").read_text().splitlines()[0] == CSV_HEADER


def test_sweep_spec_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "paper_s3", "--axis", "load.torque", "--values", " "]) == 1
    assert main(["sweep", "paper_s3", "--axis", "load.torque", "--values", "1,x"]) == 1
    assert "error: --values must be comma-separated numbers: '1,x'" in capsys.readouterr().err
    assert main(["sweep", "paper_s3", "--axis", "load.torque", "--values", "1.0", "--fields", ","]) == 1
    assert "error: --fields must name at least one summary field" in capsys.readouterr().err
    assert main(["sweep", "paper_s3", "--axis", "machine.bogus", "--values", "1.0"]) == 1
    assert main(
        ["sweep", "paper_s3", "--axis", "load.torque", "--values", "1.0", "--fields", "bogus"]
    ) == 1
    # steady_state_reached is a summary-file line, not a report field: a
    # tabulated row is always a report, so it could only read True.
    argv = ["sweep", "paper_s3", "--axis", "load.torque", "--values", "0.5,1.0", "--output-dir", str(tmp_path)]
    assert main(argv + ["--fields", "steady_state_reached,settle_time"]) == 1
    assert ("error: unknown summary field 'steady_state_reached'; choose from ('settle_time', "
            "'final_speed_mech', 'slip', 'mean_torque', 'torque_ripple_pp', 'stator_current_rms_alpha', "
            "'stator_current_rms_beta')") in capsys.readouterr().err
    # Non-finite values are rejected before any row runs or the table is written.
    for axis, values in (("supply.frequency", "inf,50"), ("initial_state.omega_mech", "nan")):
        argv = ["sweep", "paper_s3", "--axis", axis, "--values", values]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "paper_s3_sweep.csv").exists()
    capsys.readouterr()


def _plot_script_names(text: str) -> tuple[str, str]:
    """The CSV file name and the PNG prefix an emitted plot script holds."""
    constants = {node.targets[0].id: node.value for node in ast.parse(text).body if isinstance(node, ast.Assign)}
    return ast.literal_eval(constants["CSV"].right), ast.literal_eval(constants["PREFIX"])


@pytest.mark.parametrize("how", ["flag", "key", "prefix"])
def test_run_writes_a_plot_script_that_reads_its_trace(tmp_path, capsys, how):
    # Without matplotlib: the script is written, printed, compiles and names
    # the CSV and the PNG prefix, also a prefix that breaks a string literal,
    # an f-string or a \N escape pasted raw.
    prefix = r"""a"b{x}\N'c""" if how == "prefix" else "short"
    extra = {"flag": "", "key": "output.emit_plot_script = true\n", "prefix": f"output.prefix = {prefix}\n"}[how]
    flags = [] if how == "key" else ["--emit-plot-script"]
    path = _short_config(tmp_path, extra=extra)
    assert main(["run", str(path), "--output-dir", str(tmp_path), *flags]) == 0
    script = tmp_path / f"{prefix}_plot.py"
    assert capsys.readouterr().out.splitlines()[-1] == str(script)
    text = script.read_text()
    compile(text, str(script), "exec")
    assert _plot_script_names(text) == (f"{prefix}_trace.csv", prefix)


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

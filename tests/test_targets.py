"""The two targets of the step loop: C, and Python, its fallback and reference.

Both render the same statements, so the C loop must give the Python loop's
bits: the records, every call's time, records filled and state, and the failure
of a run that goes non-finite, on fixed scenarios and on random ones. Where
the C loop cannot be built (no cc on PATH, a compile that fails or runs past
its timeout, a compiler that evaluates doubles in excess precision, a cache
directory that is not the user's own) a run takes the Python loop and writes
the trace CSV by repr, silently, with the same output bytes.
"""

import itertools
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import astuple, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpim import (
    Harmonic,
    IntegrationError,
    LoadProfile,
    MachineParameters,
    MachineState,
    VoltageSource,
    _native,
    dynamics,
    integrate,
    output,
    validate_parameters,
)
from tpim.cli import main
from tpim.excitation import sample_binding
from tpim.machine import SPEED_CONVENTIONS, kernel_constants
from tpim.output import _repr_rows as repr_rows

from support import F_SUPPLY, SOURCE_SHAPES, T_LOAD, TABLE1, V_PEAK, rated_supply, scenario

HAS_CC = shutil.which("cc") is not None

SUPPLIES = {
    "quadrature": rated_supply(),  # (1, 1)
    "harmonics": SOURCE_SHAPES["harmonics"][0],  # (3, 3)
    "zero_amplitude": SOURCE_SHAPES["zero_amplitude"][0],  # (2, 1) once its zero amplitudes are left out
    "silent_phase": VoltageSource(alpha=(Harmonic(1, V_PEAK),), beta=(), frequency=F_SUPPLY),  # (1, 0)
    "silent": VoltageSource(alpha=(), beta=(), frequency=F_SUPPLY),  # (0, 0): a C loop of no harmonic parameters
}
DT = 1e-4
# The first step k whose end (k - 1) * dt + dt is not the float k * dt.
K = next(k for k in itertools.count(2) if (k - 1) * DT + DT != k * DT)
LOADS = {
    "constant": LoadProfile.constant(T_LOAD),
    "on_the_grid_and_inside_a_step": LoadProfile(((0.0, 0.4), (12 * DT, 0.7), (0.00123, T_LOAD))),
    "at_k_dt": LoadProfile(((0.0, 0.4), (K * DT, T_LOAD))),
    "one_ulp_past_k_dt": LoadProfile(((0.0, 0.4), ((K - 1) * DT + DT, T_LOAD))),
}
# A turning start, so that every coupling term counts, also on a blocked rotor.
START = MachineState(0.4, -0.3, 0.35, 0.2, 60.0)


def exact(value):
    """value with each number as its type and, for a float, its bytes, so
    that == compares bits (-0.0 is not 0.0) and types."""
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    return type(value), struct.pack("<d", value) if isinstance(value, float) else value


def outcome(p, run, step_loop, monkeypatch):
    """integrate(p, run) with step_loop(method, shape) as its loops: the
    bytes of the trace's records (of the partial trace on a failure), each
    loop call's results and the failure's time and state, exactly."""
    results = []

    def spied(method, shape):
        loop = step_loop(method, shape)

        def call(*arguments):
            results.append(loop(*arguments))
            return results[-1]
        return call

    monkeypatch.setattr(dynamics, "_step_loop", spied)
    try:
        trace, failure = integrate(p, run), None
    except IntegrationError as exc:
        trace, failure = exc.partial_trace, (exc.time, astuple(exc.state))
    return trace.records.tobytes(), exact(tuple(results)), exact(failure)


def target(method, shape):
    """The loop integrate runs; where cc is on PATH, the C loop."""
    loop = dynamics._step_loop(method, shape)
    if HAS_CC:
        assert loop is dynamics._c_loop(method, shape) is not None
    return loop


@pytest.mark.parametrize("blocked", [False, True], ids=["free", "blocked"])
@pytest.mark.parametrize("convention", SPEED_CONVENTIONS)
@pytest.mark.parametrize("supply", SUPPLIES)
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_c_loop_gives_the_python_loops_bits(table1, monkeypatch, method, supply, convention, blocked):
    assert K * DT < 0.005
    loop = target(method, sample_binding(SUPPLIES[supply])[0])
    for (name, load), every in itertools.product(LOADS.items(), (1, 3)):
        run = replace(
            scenario(supply=SUPPLIES[supply], method=method, dt=DT, duration=0.005, record_every=every,
                     initial_state=START, speed_convention=convention, blocked_rotor=blocked),
            load=load,
        )
        c = outcome(table1, run, lambda method, shape: loop, monkeypatch)
        python = outcome(table1, run, dynamics._python_loop, monkeypatch)
        assert c == python, (name, every)


def test_largest_c_loop_gives_the_python_loops_bits(table1, monkeypatch):
    # The most harmonics _step_loop compiles C for, each three parameters of
    # the loop; one harmonic more takes the Python loop.
    def supply(shape):
        alpha, beta = ([Harmonic(k, V_PEAK / k, 0.1 * k + shift) for k in range(1, n + 1)]
                       for n, shift in zip(shape, (0.0, -0.5 * math.pi)))
        return VoltageSource(alpha=tuple(alpha), beta=tuple(beta), frequency=F_SUPPLY)

    assert 32 + 32 == dynamics._C_MAX_HARMONICS
    assert dynamics._step_loop("rk4", (32, 33)) is dynamics._python_loop("rk4", (32, 33))
    if not HAS_CC:
        pytest.skip("no cc on PATH")
    run = scenario(supply=supply((32, 32)), method="rk4", dt=DT, duration=0.01)
    assert sample_binding(run.supply)[0] == (32, 32)
    loop = target("rk4", (32, 32))
    assert outcome(table1, run, lambda method, shape: loop, monkeypatch) == outcome(
        table1, run, dynamics._python_loop, monkeypatch)


@pytest.mark.parametrize("split", [False, True], ids=["whole_steps", "split_step"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_c_loop_fails_as_the_python_loop(table1, monkeypatch, method, split):
    # dt = 0.02 goes non-finite within 1 s; a load step at 0.05 splits the
    # step from 0.04 to 0.06 s.
    run = scenario(method=method, dt=0.02, duration=1.0)
    if split:
        run = replace(run, load=LoadProfile(((0.0, T_LOAD), (0.05, 0.5))))
    loop = target(method, (1, 1))
    c = outcome(table1, run, lambda method, shape: loop, monkeypatch)
    assert c == outcome(table1, run, dynamics._python_loop, monkeypatch)
    (time_type, _), state = c[2]  # type(exc.time), and each state value's type
    assert time_type is float
    assert all(kind is float for kind, _ in state)


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _machines(draw):
    """A valid machine: each self inductance is its axis's magnetizing
    inductance times 1 + leakage, a leakage from 0.001 to 10, so that the
    leakage condition holds."""
    values = {name: draw(_POSITIVE) for name in ("r_s_alpha", "r_s_beta", "r_r_alpha", "r_r_beta", "turns_ratio_a",
                                                 "inertia_j")}
    for axis in ("alpha", "beta"):
        values[f"l_m_{axis}"] = l_m = draw(_POSITIVE)
        for winding in ("s", "r"):
            values[f"l_{winding}_{axis}"] = l_m * (1.0 + draw(st.floats(min_value=1e-3, max_value=10.0)))
    return validate_parameters(MachineParameters(**values, pole_pairs=draw(st.integers(1, 8))))


@st.composite
def _runs(draw):
    """A scenario of any method, supply of SUPPLIES, speed convention and
    rotor, step, length, decimation, start and load, whose breakpoints fall
    on grid times k * dt, on (k - 1) * dt + dt, or anywhere up to a step
    past the end."""
    dt, n = draw(st.floats(min_value=1e-6, max_value=1e-2)), draw(st.integers(0, 300))
    grid = st.integers(1, n + 1)
    starts = draw(st.lists(st.one_of(grid.map(lambda k: k * dt), grid.map(lambda k: (k - 1) * dt + dt),
                                     st.floats(min_value=0.0, max_value=(n + 1) * dt, exclude_min=True)),
                           max_size=3, unique=True))
    torques = st.floats(min_value=-50.0, max_value=50.0)
    run = scenario(
        supply=SUPPLIES[draw(st.sampled_from(sorted(SUPPLIES)))], method=draw(st.sampled_from(["rk4", "euler"])),
        dt=dt, duration=n * dt, record_every=draw(st.integers(1, 5)),
        initial_state=MachineState(*draw(st.tuples(*[st.floats(-5.0, 5.0)] * 4, st.floats(-500.0, 500.0)))),
        speed_convention=draw(st.sampled_from(SPEED_CONVENTIONS)), blocked_rotor=draw(st.booleans()),
    )
    return replace(run, load=LoadProfile(tuple((start, draw(torques)) for start in [0.0, *sorted(starts)])))


@pytest.mark.skipif(not HAS_CC, reason="no cc on PATH")
@settings(max_examples=100, deadline=None, database=None)
@given(p=_machines(), run=_runs())
def test_c_loop_gives_the_python_loops_bits_on_random_runs(p, run):
    with pytest.MonkeyPatch.context() as patch:
        assert outcome(p, run, dynamics._c_loop, patch) == outcome(p, run, dynamics._python_loop, patch)


def test_both_loops_refuse_records_past_their_buffer():
    shape, voltages = sample_binding(rated_supply())
    constants = kernel_constants(TABLE1, "mechanical_state", False)
    # Steps 0 .. 3 record 4 times into room for 3: both store 3 records, then
    # refuse the 4th, and leave the same buffer.
    arguments = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, DT, 0, 3, 0, 1, T_LOAD, *voltages)
    loops = [dynamics._python_loop("euler", shape), dynamics._c_loop("euler", shape)]
    buffers = []
    for loop in filter(None, loops):
        buffers.append(np.zeros((len(dynamics._RECORDED), 3)))
        with pytest.raises(IndexError):
            loop(*constants, *arguments, buffers[-1])
    assert HAS_CC is (loops[1] is not None)
    assert np.all(buffers[0][0] == [0.0, DT, 2 * DT]) and buffers[0][1].all()
    assert all(buffer.tobytes() == buffers[0].tobytes() for buffer in buffers)
    # A call that starts with the buffer full refuses its start record, before
    # any step, and stores nothing.
    arguments = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, DT, 3, 5, 3, 1, T_LOAD, *voltages)
    for loop in filter(None, loops):
        buffer = np.zeros((len(dynamics._RECORDED), 3))
        with pytest.raises(IndexError):
            loop(*constants, *arguments, buffer)
        assert buffer.tobytes() == bytes(buffer.nbytes)


@pytest.mark.skipif(not HAS_CC, reason="no cc on PATH")
def test_c_loop_refuses_a_buffer_of_another_layout():
    # The C loop writes doubles through the buffer's address, row by row, so
    # it refuses another dtype, row count or order before the first step.
    shape, voltages = sample_binding(rated_supply())
    constants = kernel_constants(TABLE1, "mechanical_state", False)
    arguments = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, DT, 0, 3, 0, 1, T_LOAD, *voltages)
    rows = len(dynamics._RECORDED)
    for wrong in (np.zeros((rows, 4), np.float32), np.zeros((rows - 1, 4)), np.zeros((4, rows)).T):
        with pytest.raises(IndexError, match="not the loop's layout"):
            dynamics._c_loop("euler", shape)(*constants, *arguments, wrong)
        assert not wrong.any()


@pytest.fixture
def fresh_loops():
    """The loops and the trace formatter built anew in the test, and again
    after it."""
    def clear():
        dynamics._step_loop.cache_clear()
        dynamics._c_loop.cache_clear()
        output._c_format_rows.cache_clear()

    clear()
    yield
    clear()


@pytest.mark.skipif(not HAS_CC, reason="no cc on PATH")
@pytest.mark.parametrize("xdg_cache_home", [None, "cache"], ids=["unset", "relative"])
def test_c_loop_is_cached_under_the_home_directory_by_default(tmp_path, monkeypatch, fresh_loops, xdg_cache_home):
    # Unset or relative, XDG_CACHE_HOME gives way to ~/.cache, and nothing is
    # cached under the working directory.
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    if xdg_cache_home is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg_cache_home)
    assert dynamics._c_loop("euler", (1, 1)) is not None
    assert [path.suffix for path in (home / ".cache" / "tpim").iterdir()] == [".so"]
    assert list(work.iterdir()) == []


@pytest.fixture(scope="module")
def reference_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert main(["run", "paper_s3", "--output-dir", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def without_cc(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def with_failing_cc(tmp_path, monkeypatch):
    cc = tmp_path / "bin" / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: cannot compile' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(cc.parent))


def with_group_writable_cache(tmp_path, monkeypatch):
    (tmp_path / "cache" / "tpim").mkdir()
    (tmp_path / "cache" / "tpim").chmod(0o770)


def with_x87_math(tmp_path, monkeypatch):
    # x87 arithmetic keeps doubles in 80 bits (FLT_EVAL_METHOD 2), which the
    # guard in every generated C source refuses to compile.
    probe = subprocess.run(["cc", "-mfpmath=387", "-x", "c", "-E", "-"], input="#include <float.h>\nFLT_EVAL_METHOD\n",
                           capture_output=True, text=True) if HAS_CC else None
    if not (probe and probe.returncode == 0 and probe.stdout.split()[-1:] == ["2"]):
        pytest.skip("cc -mfpmath=387 does not evaluate doubles in excess precision")
    monkeypatch.setattr(_native, "_CC_FLAGS", (*_native._CC_FLAGS, "-mfpmath=387"))


def with_fast_math(tmp_path, monkeypatch):
    # -ffast-math implies -ffinite-math-only, so a loop built under it folds
    # its isfinite test away and runs on past a failure; the guard refuses it.
    monkeypatch.setattr(_native, "_CC_FLAGS", (*_native._CC_FLAGS, "-ffast-math"))


def with_hanging_cc(tmp_path, monkeypatch):
    # A compile past the timeout is killed, and leaves no library.
    sleep = shutil.which("sleep")
    if sleep is None:
        pytest.skip("no sleep on PATH")
    cc = tmp_path / "bin" / "cc"
    cc.write_text(f"#!/bin/sh\nexec {sleep} 30\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(cc.parent))
    monkeypatch.setattr(_native, "_CC_TIMEOUT_S", 0.3)


@pytest.mark.parametrize("unusable", [without_cc, with_failing_cc, with_group_writable_cache, with_x87_math,
                                      with_fast_math, with_hanging_cc])
def test_run_falls_back_to_the_python_loop(tmp_path, monkeypatch, capfd, fresh_loops, reference_outputs, unusable):
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    unusable(tmp_path, monkeypatch)
    repr_blocks = []
    monkeypatch.setattr(output, "_repr_rows", lambda block: repr_blocks.append(block) or repr_rows(block))
    capfd.readouterr()
    out = tmp_path / "out"
    assert main(["run", "paper_s3", "--output-dir", str(out)]) == 0
    assert capfd.readouterr().err == ""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == reference_outputs
    assert dynamics._step_loop("rk4", (1, 1)) is dynamics._python_loop("rk4", (1, 1))
    assert output._c_format_rows() is None and sum(block.shape[1] for block in repr_blocks) == 10001
    # The state goes non-finite at t = 0.06 s at dt = 0.02, and the run says so.
    blow = tmp_path / "blow.cfg"
    blow.write_text(resources.files("tpim").joinpath("configs", "paper_s3.cfg").read_text()
                    .replace("step_size = 1e-4", "step_size = 0.02"))
    assert main(["run", str(blow), "--output-dir", str(out)]) == 2
    assert len((out / "blow_partial_trace.csv").read_text().splitlines()) == 4  # the header, t = 0, 0.02, 0.04
    assert [path.name for path in (tmp_path / "cache").rglob("*") if path.is_file()] == []
    with pytest.raises(ChildProcessError):  # no compile left running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_concurrent_builders_share_one_library(tmp_path):
    # Four builders compile the same loop into one empty cache at once; each
    # must load a whole library, and one is left, with no temporary file.
    # None loads OpenSSL (hashlib's _hashlib), 3.6 MB of memory, for the key.
    if not HAS_CC:
        pytest.skip("no cc on PATH")
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, tpim.dynamics as d; assert d._c_loop('euler', (1, 1)) is not None; "
            "assert '_hashlib' not in sys.modules")
    builders = [subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, text=True)
                for _ in range(4)]
    for builder in builders:
        _, err = builder.communicate(timeout=120)
        assert builder.returncode == 0, err
    assert [path.suffix for path in (tmp_path / "tpim").iterdir()] == [".so"]

"""Fixed-step time integration of the machine states.

The production method is classical fourth-order Runge-Kutta; a forward
Euler stepper is kept alongside as an independent verification oracle and
for convergence-order measurements. Each runs as one loop per supply
shape, generated from the right-hand-side template of tpim.machine and the
voltage sampler template of tpim.excitation, inlined at every stage and
sample point. The speed convention, a blocked rotor and the load torque are
constants of one loop call. Each load segment is stepped at its torque, and
a step that a breakpoint falls in is split there (Hairer, Norsett and
Wanner, Solving ODEs I, II.6), so RK4 keeps its order across a load step.
RK4 starts each step from the previous step's end sample where the two
times are the same float. At each record the loop derives the currents,
both torques and the shaft speed from the state, by the current and torque
templates it inlines per stage, and stores the record whole into the
trace's channel-major buffer, all its rows but tl's. Both are
deterministic: identical inputs give bit-identical traces.

Generated Python is compiled here, by _kernel: the step loops and the
templates' one-point forms, compile_derivative and compile_sources. Every
name a template reads is an argument of the compiled function, but cos and
isfinite, which it imports when called. Each step loop is rendered once
more, in a C frame around the same statements, and built by tpim._native.
The C loop gives the Python loop's bits, and integrate runs it. The Python
loop is the reference the tests hold the C loop to, and it runs, silently,
where the C loop cannot be built or the supply has more than 64 harmonics.
numpy is imported where a run makes or checks its first array, not with
this module.
"""

from __future__ import annotations

import math
import sys
import textwrap
from dataclasses import astuple, dataclass, field
from functools import cache, partial

from .excitation import LoadProfile, VoltageSource, render_sample, sample_arguments, sample_binding
from .machine import (
    _CHANNELS,
    _KERNEL_CONSTANTS,
    _RHS_NAMES,
    SPEED_CONVENTIONS,
    MachineParameters,
    MachineState,
    kernel_constants,
    render_rhs,
)

__all__ = [
    "INTEGRATION_METHODS",
    "TRACE_CHANNELS",
    "IntegratorConfig",
    "Scenario",
    "SimulationTrace",
    "IntegrationError",
    "integrate",
]

INTEGRATION_METHODS = ("rk4", "euler")


class IntegrationError(RuntimeError):
    """The state went non-finite; carries the failure time, state and partial trace."""

    def __init__(self, time: float, state: MachineState, partial_trace: "SimulationTrace"):
        super().__init__(f"non-finite state at t = {time:.9g}: {state}")
        self.time = time
        self.state = state
        self.partial_trace = partial_trace


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    duration may be exactly 0 (single-record trace of the initial state);
    a positive duration must be a whole number (at least one) of steps.
    record_every decimates recording only, never the integration grid.
    """

    method: str = "rk4"
    step_size: float = 1e-4
    duration: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
            raise ValueError(f"method must be one of {INTEGRATION_METHODS}: {self.method!r}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive: {self.step_size}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0: {self.duration}")
        if 0.0 < self.duration < self.step_size * (1.0 - 1e-12):
            raise ValueError(
                f"duration {self.duration} is shorter than one step ({self.step_size})"
            )
        steps = self.duration / self.step_size
        if steps >= sys.maxsize:
            raise ValueError(f"duration {self.duration} is {steps!r} steps of {self.step_size}, "
                             f"more than an index can hold ({sys.maxsize})")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"duration {self.duration} is not a whole number of steps of "
                f"{self.step_size} ({steps!r} steps)"
            )
        every = self.record_every
        if isinstance(every, bool) or not (isinstance(every, int) and every >= 1):
            raise ValueError(f"record_every must be a positive integer: {every}")
        if every > sys.maxsize:
            raise ValueError(f"record_every {every} is more than an index can hold ({sys.maxsize})")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.step_size))


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs besides the machine parameters."""

    supply: VoltageSource
    load: LoadProfile
    integrator: IntegratorConfig
    initial_state: MachineState = field(default_factory=MachineState)
    speed_convention: str = "mechanical_state"
    blocked_rotor: bool = False

    def __post_init__(self):
        if self.speed_convention not in SPEED_CONVENTIONS:
            raise ValueError(f"unknown speed convention: {self.speed_convention!r}")
        for name, value in vars(self.initial_state).items():
            if not math.isfinite(value):
                raise ValueError(f"initial state must be finite: {name} = {value}")
        # The last time a step loop samples the supply, the end of its last
        # step: n * dt, or RK4's (n - 1) * dt + dt. cos of an infinite phase
        # argument raises, so it must stay finite up to there.
        n, dt, f = self.integrator.n_steps, self.integrator.step_size, self.supply.frequency
        end = max(n * dt, (n - 1) * dt + dt)
        for phase_name, harmonics in (("alpha", self.supply.alpha), ("beta", self.supply.beta)):
            for h in harmonics:
                if not math.isfinite(2.0 * math.pi * f * h.order * end + abs(h.phase)):
                    raise ValueError(f"phase argument 2*pi*{f!r}*{h.order}*t + {h.phase!r} of harmonic "
                                     f"{h.order} on phase {phase_name} is not finite at t = {end!r}")


TRACE_CHANNELS = ("t", "v_sa", "v_sb", "i_sa", "i_sb", "i_ra", "i_rb",
                  "psi_sa", "psi_sb", "psi_ra", "psi_rb", "te", "te_ec", "omega_mech", "tl")


@dataclass(frozen=True)
class SimulationTrace:
    """Uniformly spaced records of every plotted/audited channel: records
    is a read-only, C-contiguous float64 array of a row per channel, in
    TRACE_CHANNELS order (the CSV's columns), and a column per record; a
    view, so the array the trace was built from stays writable. Each row
    reads as trace.te or trace.channel("te"). The omega_mech channel is
    always shaft speed, whichever speed convention drove the integration."""

    records: np.ndarray
    step_size: float
    record_every: int
    supply_frequency: float

    def __post_init__(self):
        import numpy as np

        records = np.ascontiguousarray(self.records).view()
        if records.dtype != np.float64 or records.ndim != 2 or len(records) != len(TRACE_CHANNELS):
            raise TypeError(f"trace records must be float64 of shape ({len(TRACE_CHANNELS)}, records), "
                            f"not {records.dtype} of shape {records.shape}")
        records.flags.writeable = False
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return self.records.shape[1]

    @property
    def record_spacing(self) -> float:
        return self.step_size * self.record_every

    def channel(self, name: str) -> np.ndarray:
        if name not in TRACE_CHANNELS:
            raise KeyError(f"unknown trace channel: {name!r}")
        return self.records[TRACE_CHANNELS.index(name)]


for _row, _name in enumerate(TRACE_CHANNELS):
    setattr(SimulationTrace, _name, property(lambda trace, row=_row: trace.records[row], doc=f"The {_name} channel."))


# The step loop around one method's step: steps first + 1 .. last of length
# dt from the time base, at one load torque. A step reads the state psa..w
# and the voltages sampled at its start (va0, vb0), and leaves the next state
# in the same names. Every every-th step from step 0 records, so the record
# after filled ones is at step filled * every (none for a negative filled).
# k runs from first to last and steps only past first, so that every record,
# the start's too, is derived and stored at one site: item by item through
# one memoryview per row of records, the channel-major buffer that
# _derive_trace wraps, which raises IndexError past its end. The loop
# returns at the end or at the first non-finite state: whether it was finite,
# the time, the records filled and the state.
_LOOP = """\
{views} = map(memoryview, records)
next_record = filled * every
t = base + first * dt
{sample}\
for k in range(first, last + 1):
    if k > first:
        # Step k starts at t = base + (k - 1) * dt, where the voltages were last sampled.
{step}\
        t = base + k * dt
        if not ({finite}):
            return False, t, filled, ({state})
{resample}\
    if k == next_record:
        next_record += every
{store}\
return True, t, filled, ({state})
"""
# The same loop in C, around the same statements and with the same
# parameters, but records is the buffer's address and its row length. After
# them, out receives the time and the state, and stored the records filled.
# It returns whether the state stayed finite, or -1, with the record's index
# in stored, where a store finds the buffer full.
_C_LOOP = """\
int finite = 1;
double {declared};
{views}\
int64_t next_record = filled * every;
double t = base + first * dt;
{sample}\
for (int64_t k = first; k <= last; k++) {{
    if (k > first) {{
{step}\
        t = base + k * dt;
        if (!({finite})) {{
            finite = 0;
            break;
        }}
{resample}\
    }}
    if (k == next_record) {{
        next_record += every;
{store}\
    }}
}}
{out}\
*stored = filled;
return finite;
"""
# The loop's arguments between the machine constants and the voltages, and the integers among them.
_STATES = _RHS_NAMES[:5]
_SETTINGS = [*_STATES, "base", "dt", "first", "last", "filled", "every", "torque"]
_INTEGERS = {"first", "last", "filled", "every"}
# The recorded values, in the row order of records and the trace's column
# order, and the statements that derive and store one record.
_RECORDED = ("t", "va0", "vb0", "i_sa", "i_sb", "i_ra", "i_rb", *_STATES[:4], "te", "te_ec", "omega_mech")
_STORE = _CHANNELS + "".join(f"r_{v}[filled] = {v}\n" for v in _RECORDED) + "filled += 1\n"
_indent = partial(textwrap.indent, prefix="    ")


def _rk4_step(sample) -> str:
    step = "t_half = t + half\n" + sample("t_half", "vah vbh")
    step += "t_end = t + dt\n" + sample("t_end", "va1 vb1")
    step += render_rhs("psa psb pra prb w va0 vb0 torque a1 b1 c1 d1 e1")
    stages = ((1, "half", "vah vbh"), (2, "half", "vah vbh"), (3, "dt", "va1 vb1"))
    for k, scale, sampled in stages:
        step += "".join(f"x_{s} = {s} + {scale} * {d}{k}\n" for s, d in zip(_STATES, "abcde"))
        step += render_rhs(f"x_psa x_psb x_pra x_prb x_w {sampled} torque a{k + 1} b{k + 1} c{k + 1} d{k + 1} e{k + 1}")
    return step + "".join(
        f"{s} = {s} + sixth * ({d}1 + 2.0 * ({d}2 + {d}3) + {d}4)\n" for s, d in zip(_STATES, "abcde")
    )


def _euler_step() -> str:
    update = "".join(f"{s} = {s} + dt * {d}1\n" for s, d in zip(_STATES, "abcde"))
    return render_rhs("psa psb pra prb w va0 vb0 torque a1 b1 c1 d1 e1") + update


def _kernel(name: str, arguments: list[str], body: str):
    """Compile `def name(arguments): body`, the one way generated Python is
    compiled. The body starts by importing cos and isfinite, at call time;
    every other name it reads must be one of the arguments, a list of names."""
    body = "from math import cos, isfinite\n" + body
    source = f"def {name}({', '.join(arguments)}):\n" + _indent(body)
    scope = {}
    exec(compile(source, f"<tpim {name}>", "exec"), scope)
    return scope[name]


def compile_derivative(p: MachineParameters, speed_convention: str = "mechanical_state",
                       blocked_rotor: bool = False):
    """The state derivative of tpim.machine._RHS as a plain-float function
    mapping (psi_s_a, psi_s_b, psi_r_a, psi_r_b, omega, v_s_a, v_s_b, t_load)
    to the five-tuple of derivatives. It is the one-stage rendering of the
    template that the step loops inline once per stage, so it computes the
    same bits as they do."""
    constants = kernel_constants(p, speed_convention, blocked_rotor)
    body = render_rhs(" ".join(_RHS_NAMES)) + "return d_psa, d_psb, d_pra, d_prb, d_w\n"
    return partial(_kernel("deriv", [*_KERNEL_CONSTANTS, *_RHS_NAMES[:8]], body), *constants)


def compile_sources(supply: VoltageSource):
    """A (v_alpha, v_beta) sampler of times t >= 0: the sampler template of
    tpim.excitation rendered at one point, so it gives the bits the step
    loops compute."""
    shape, values = sample_binding(supply)
    body = render_sample(shape, "t", "v_sa v_sb") + "return v_sa, v_sb\n"
    return partial(_kernel("sources", [*sample_arguments(shape), "t"], body), *values)


def _python_branch(condition: str, then: str, otherwise: str) -> str:
    return f"if {condition}:\n{_indent(then)}else:\n{_indent(otherwise)}"


def _c_branch(condition: str, then: str, otherwise: str) -> str:
    return f"if ({condition}) {{\n{_indent(then)}}} else {{\n{_indent(otherwise)}}}\n"


def _c_statements(statements: str) -> str:
    """Statements as C: a line that opens or closes no block ends with ;."""
    return "".join(line + ("" if line.endswith(("{", "}")) else ";") + "\n" for line in statements.splitlines())


def _loop_statements(method: str, shape: tuple[int, int], branch) -> tuple[str, str, str]:
    """The statements of the loop of one method and supply shape, the same
    for both targets: those before the loop (the sample at the start, and
    RK4's half and sixth of dt), one step, and the sample after the step.
    branch(condition, then, otherwise) renders an if."""
    sample = partial(render_sample, shape)
    start = sample("t", "va0 vb0")
    if method == "euler":
        return start, _euler_step(), start
    # The sampler is a pure function of one float: where t is the float the
    # last stage sampled at, its sample is reused, bit for bit.
    resample = branch("t == t_end", "va0 = va1\nvb0 = vb1\n", start)
    return "half = 0.5 * dt\nsixth = dt / 6.0\n" + start, _rk4_step(sample), resample


def _loop_arguments(shape: tuple[int, int]) -> list[str]:
    """The arguments of the loop of a supply shape, in either target."""
    return [*_KERNEL_CONSTANTS, *_SETTINGS, *sample_arguments(shape), "records"]


@cache
def _python_loop(method: str, shape: tuple[int, int]):
    """The generated loop of one method and supply shape, in Python: the
    reference of the C loop, and the loop that runs where that cannot be
    built. Its arguments are the machine constants, the initial state, the
    step indices first .. last, the records already filled (-1 stores none),
    every, the load torque, the voltages and then the records buffer. It
    returns (finite, t, filled, state); a record past the buffer's end raises
    IndexError where it is stored, with the records before it stored."""
    start, step, resample = _loop_statements(method, shape, _python_branch)
    body = _LOOP.format(
        views=", ".join(f"r_{v}" for v in _RECORDED), sample=start, step=_indent(_indent(step)),
        resample=_indent(_indent(resample)), store=_indent(_indent(_STORE)),
        finite=" and ".join(f"isfinite({s})" for s in _STATES), state=", ".join(_STATES),
    )
    return _kernel("step_loop", _loop_arguments(shape), body)


@cache
def _c_loop(method: str, shape: tuple[int, int]):
    """The loop of _python_loop compiled from C, with the same arguments,
    results and IndexError, or None where it cannot be built."""
    start, step, resample, store = (_c_statements(s) for s in (*_loop_statements(method, shape, _c_branch), _STORE))
    # A record past the buffer's end is refused where it is stored, as Python's memoryviews refuse it.
    store = "if (!(0 <= filled && filled < n_records)) {\n    *stored = filled;\n    return -1;\n}\n" + store
    # The names the statements assign, which the loop declares; the store's r_...[filled] are not names.
    assigned = {line.split(" = ", 1)[0].strip() for line in (start + step + resample + store).splitlines()
                if " = " in line}
    parameters = [f"{'int64_t' if v in _INTEGERS else 'double'} {v}" for v in _loop_arguments(shape)[:-1]]
    parameters += ["double *records", "int64_t n_records", "double *out", "int64_t *stored"]
    body = _C_LOOP.format(
        declared=", ".join(sorted(name for name in assigned - set(_SETTINGS) if name.isidentifier())),
        views="".join(f"double *r_{v} = records + {i} * n_records;\n" for i, v in enumerate(_RECORDED)),
        sample=start, step=_indent(_indent(step)), resample=_indent(_indent(resample)), store=_indent(_indent(store)),
        finite=" && ".join(f"isfinite({s})" for s in _STATES),
        out="".join(f"out[{i}] = {v};\n" for i, v in enumerate(["t", *_STATES])),
    )
    from ._native import load

    function = load("step_loop", parameters, body)
    if function is None:
        return None
    import ctypes
    import numpy as np

    def step_loop(*arguments):
        # The C loop trusts the layout; the bound of each record it checks itself.
        records = arguments[-1]
        if not (records.dtype == np.float64 and records.flags.c_contiguous and len(records) == len(_RECORDED)):
            raise IndexError(f"records of {records.dtype} and shape {records.shape} are not the loop's layout")
        out, stored = (ctypes.c_double * 6)(), (ctypes.c_int64 * 1)()
        finite = function(*arguments[:-1], records.ctypes.data, records.shape[1], out, stored)
        if finite < 0:
            raise IndexError(f"record {stored[0]} does not fit in a buffer of shape {records.shape}")
        return bool(finite), out[0], stored[0], tuple(out[1:])

    return step_loop


# The most harmonics a C loop is built for. cc's time and memory grow faster
# than the statements: 0.1 s for 3 harmonics, 0.6 s for 64, 3.6 s for 300,
# and past 2 minutes and 800 MB for 5000 (gcc 12 -O2, RK4).
_C_MAX_HARMONICS = 64


@cache
def _step_loop(method: str, shape: tuple[int, int]):
    """The loop integrate runs for one method and supply shape: the C loop,
    or the Python loop where that cannot be built or has too many harmonics."""
    return (sum(shape) <= _C_MAX_HARMONICS and _c_loop(method, shape)) or _python_loop(method, shape)


def _load_pieces(load: LoadProfile, dt: float, n_steps: int):
    """The step loop calls of a run, as (torque, base, step, first, last,
    records): the runs of whole grid steps inside a load segment, which record
    (an empty run records at its start), and the substeps of a grid step that
    breakpoints fall in, one per segment it crosses, which do not. Breakpoints
    at or past the last grid time change only the recorded load channel."""
    end = n_steps * dt
    (_, torque), *changes = load.breakpoints
    k, t = 0, 0.0  # the time reached: the grid time k * dt, or inside step k + 1
    for start, next_torque in [*(change for change in changes if change[0] < end), (end, None)]:
        j = round(start / dt)
        j -= j * dt > start  # so that j * dt <= start < (j + 1) * dt
        if t != k * dt and j > k:
            yield torque, t, (k + 1) * dt - t, 0, 1, False
            k, t = k + 1, (k + 1) * dt
        if t == k * dt:
            yield torque, 0.0, dt, k, j, True
            k, t = j, j * dt
        if t < start:
            yield torque, t, start - t, 0, 1, False
            t = start
        torque = next_torque


def _derive_trace(scenario: Scenario, records: np.ndarray) -> SimulationTrace:
    """The trace of records, once their last row, tl, is written."""
    # The load at each record time, right-continuous: each torque from the
    # first record at or after its breakpoint to the first at or after the
    # next. A record on a breakpoint was stored by the segment before it.
    starts, torques = zip(*scenario.load.breakpoints)
    bounds = [*records[0].searchsorted(starts).tolist(), records.shape[1]]
    for torque, first, end in zip(torques, bounds, bounds[1:]):
        records[-1, first:end] = torque
    cfg = scenario.integrator
    return SimulationTrace(records, cfg.step_size, cfg.record_every, scenario.supply.frequency)


def integrate(p: MachineParameters, scenario: Scenario) -> SimulationTrace:
    """Run the scenario from its initial state over the configured duration.

    Deterministic: identical inputs give bit-identical traces. On a
    non-finite state the run aborts with IntegrationError carrying the
    failure time and the partial trace recorded so far. Records that do not
    fit in memory raise MemoryError, naming their count and bytes, before
    the first step.
    """
    import numpy as np

    cfg = scenario.integrator
    shape, voltages = sample_binding(scenario.supply)
    # One column per record; the loop fills every row but tl's.
    n_records, rows = cfg.n_steps // cfg.record_every + 1, len(TRACE_CHANNELS)
    try:
        records = np.empty((rows, n_records))
    except (MemoryError, ValueError) as exc:  # numpy's ValueError: the size overflows its index
        raise MemoryError(f"cannot allocate {n_records} records of {rows} floats "
                          f"({n_records * rows * 8} bytes) for {cfg.n_steps} steps") from exc
    constants = kernel_constants(p, scenario.speed_convention, scenario.blocked_rotor)
    loop = partial(_step_loop(cfg.method, shape), *constants)
    state, filled = astuple(scenario.initial_state), 0
    for torque, base, step, first, last, recording in _load_pieces(scenario.load, cfg.step_size, cfg.n_steps):
        # A substep is given -1 records filled, so it stores none.
        finite, t, stored, state = loop(*state, base, step, first, last, filled if recording else -1,
                                        cfg.record_every, torque, *voltages, records[:len(_RECORDED)])
        filled = stored if recording else filled
        if not finite:
            raise IntegrationError(t, MachineState(*state), _derive_trace(scenario, records[:, :filled]))
    return _derive_trace(scenario, records)

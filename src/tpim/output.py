"""File outputs: trace CSV, plain-text summary and the emitted plot script.

The CSV is the single source of truth for downstream tooling: fixed header,
fixed column order, each value as its repr, the shortest round-trip decimal
text (values re-read equal the in-memory doubles exactly): the columns of
the trace's records, whose layout SimulationTrace checks. A C formatter
writes that text, Ryu's shortest digits in repr's layout, on up to two
threads, one per usable CPU; the file gets its blocks in order, so its
bytes do not depend on the number of threads. The formatter is compiled by
tpim._native and cached with the step loops; where it cannot be built,
repr itself writes the values, and the bytes are the same. The plot script
is an emitted artifact that operates on the CSV; this package never imports
a plotting library.
"""

from __future__ import annotations

import os
import threading
from dataclasses import fields
from functools import cache
from pathlib import Path

from .analysis import SteadyStateNotReachedError, energy_audit, summarize
from .dynamics import TRACE_CHANNELS, SimulationTrace
from .machine import MachineParameters

__all__ = [
    "CSV_HEADER",
    "REPORT_SPEED_TOL",
    "write_trace_csv",
    "write_summary",
    "write_plot_script",
]

CSV_HEADER = ",".join(TRACE_CHANNELS)


# Rows formatted per write: the text held at once stays a small fraction of
# the file.
_CSV_BLOCK_ROWS = 1024
# Most lanes a trace write formats on. Each lane holds a 384 KB text buffer,
# and two lanes are what was measured: on a 2-core host rated_run's peak RSS
# is 35.1-35.3 MB at 1 to 3 lanes, 35.5-35.7 at 4 and 36.7-36.8 at 9 (lanes
# forced by a patched affinity). More lanes wait on measurements of the
# write time on a host with more cores.
_CSV_LANES = 2
# The longest repr of a double, 24 bytes as in -2.2250738585072014e-308, and
# its separator.
_CELL_BYTES = 25

# Ryu's shortest digits (Adams, "Ryu: fast float-to-string conversion", PLDI
# 2018; its d2d, with 128-bit products) and the layout of repr around them.
# POW5_INV and POW5 are the tables _ryu_tables generates; the bit length of
# 5**e and the floors of log10(2**e) and log10(5**e) are Ryu's
# approximations, exact over the exponents of a double.
_RYU = """\
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const unsigned __int128 low = (unsigned __int128)m * mul[0], high = (unsigned __int128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

static int32_t pow5_bits(int32_t e) { return ((e * 1217359) >> 19) + 1; }

static int32_t pow5_factor(uint64_t v)
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5) count++;
    return count;
}

/* The shortest m * 10**e10 that reads back as the finite nonzero double of
   bits, rounded to the nearest and to even on a tie. */
static uint64_t shortest(uint64_t bits, int32_t *e10)
{
    const uint64_t fraction = bits & ((1ull << 52) - 1);
    const int32_t exponent = (int32_t)(bits >> 52 & 0x7ff);
    const int32_t e2 = (exponent ? exponent : 1) - 1023 - 52 - 2;
    const uint64_t mv = 4 * (exponent ? fraction | 1ull << 52 : fraction);
    const int even = (mv & 4) == 0;
    const uint64_t mm_shift = fraction != 0 || exponent <= 1;
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = ((e2 * 78913) >> 18) - (e2 > 3);
        const int32_t j = -e2 + q + 125 + pow5_bits(q) - 1;
        *e10 = q;
        vr = mul_shift(mv, POW5_INV[q], j);
        vp = mul_shift(mv + 2, POW5_INV[q], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV[q], j);
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else
                vp -= pow5_factor(mv + 2) >= q;
        }
    } else {
        const int32_t q = ((-e2 * 732923) >> 20) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - pow5_bits(i) + 125;
        *e10 = q + e2;
        vr = mul_shift(mv, POW5[i], j);
        vp = mul_shift(mv + 2, POW5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5[i], j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }
    int last = 0;
    if (!vm_zeros && !vr_zeros) {  /* most values: no tie to break, two digits at a time */
        for (; vp / 100 > vm / 100; *e10 += 2) {
            last = vr % 100 / 10;
            vr /= 100, vp /= 100, vm /= 100;
        }
        for (; vp / 10 > vm / 10; ++*e10) {
            last = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        return vr + (vr == vm || last >= 5);
    }
    for (; vp / 10 > vm / 10; ++*e10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = vr % 10;
        vr /= 10, vp /= 10, vm /= 10;
    }
    for (; vm_zeros && vm % 10 == 0; ++*e10) {
        vr_zeros &= last == 0;
        last = vr % 10;
        vr /= 10, vp /= 10, vm /= 10;
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* The number of decimal digits of m > 0. */
static int32_t digit_count(uint64_t m)
{
    const int32_t guess = (64 - __builtin_clzll(m)) * 1233 >> 12;  /* 1233 / 4096 < log10(2) */
    return guess + (m >= POW10[guess]);
}

/* The decimal digits of m, ending at end. */
static void write_digits(uint64_t m, char *end)
{
    for (; m >= 100; m /= 100)
        memcpy(end -= 2, DIGIT_PAIRS + 2 * (m % 100), 2);
    if (m >= 10)
        memcpy(end - 2, DIGIT_PAIRS + 2 * m, 2);
    else
        end[-1] = '0' + m;
}

/* repr(v) at p; the end of the text. Fixed notation where 1e-4 <= |v| <
   1e16, with .0 on an integer, else d.ddde-XX; nan whatever its sign. A
   text of t bytes may write up to max(t, 5) bytes at p. */
static char *format_double(double v, char *p)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (isnan(v))
        return memcpy(p, "nan", 3), p + 3;
    if (bits >> 63)
        *p++ = '-';
    if (isinf(v))
        return memcpy(p, "inf", 3), p + 3;
    if (v == 0.0)
        return memcpy(p, "0.0", 3), p + 3;
    int32_t e10;
    const uint64_t m = shortest(bits, &e10);
    const int32_t n = digit_count(m), point = n + e10;  /* |v| = 0.digits * 10**point */
    if (point <= -4 || point > 16) {
        write_digits(m, p + n + 1);
        p[0] = p[1];
        p[1] = '.';
        p += n + (n > 1);
        int32_t x = point > 0 ? point - 1 : 1 - point;
        *p++ = 'e';
        *p++ = point > 0 ? '+' : '-';
        if (x >= 100) {
            *p++ = '0' + x / 100;
            x %= 100;
        }
        memcpy(p, DIGIT_PAIRS + 2 * x, 2);
        return p + 2;
    }
    if (point <= 0) {
        memcpy(p, "0.000", 5);
        p += 2 - point + n;
        write_digits(m, p);
    } else if (point < n) {
        write_digits(m, p + n + 1);
        for (int32_t i = 0; i < point; i++)
            p[i] = p[i + 1];
        p[point] = '.';
        p += n + 1;
    } else {
        write_digits(m, p + n);
        p = (char *)memset(p + n, '0', point - n) + point - n;
        p = (char *)memcpy(p, ".0", 2) + 2;
    }
    return p;
}

"""
# rows lines of columns values as CSV at text, value k of row r read at
# values[k * stride + r]; the bytes written.
_FORMAT_ROWS = """\
char *p = text;
for (int64_t row = 0; row < rows; row++) {
    for (int64_t k = 0; k < columns; k++) {
        p = format_double(values[k * stride + row], p);
        *p++ = ',';
    }
    p[-1] = '\\n';
}
return p - text;
"""


def _ryu_tables() -> str:
    """The formatter's tables as C, from exact integers: Ryu's POW5_INV[q],
    2**(125 + bits - 1) // 5**q + 1 where bits is the bit length of 5**q,
    for q < 342, and POW5[i], 5**i scaled to 125 bits, for i < 326, each low
    word first; the powers of ten below 10**20 and the two-digit pairs."""

    def table(name: str, values: list[int]) -> str:
        rows = ",\n".join(f"    {{{value & (1 << 64) - 1:#x}u, {value >> 64:#x}u}}" for value in values)
        return f"static const uint64_t {name}[{len(values)}][2] = {{\n{rows}\n}};\n"

    powers = [5**q for q in range(342)]
    inverses = [(1 << power.bit_length() - 1 + 125) // power + 1 for power in powers]
    scaled = [power * 2**125 >> power.bit_length() for power in powers[:326]]
    tens = ", ".join(f"{10**k}u" for k in range(20))
    pairs = "".join(f"{k:02d}" for k in range(100))
    return (table("POW5_INV", inverses) + table("POW5", scaled)
            + f"static const uint64_t POW10[20] = {{{tens}}};\nstatic const char DIGIT_PAIRS[] = \"{pairs}\";\n")


@cache
def _c_format_rows():
    """The C trace formatter, or None where it cannot be built."""
    from ._native import load

    return load(
        "format_rows", ["const double *values", "int64_t rows", "int64_t columns", "int64_t stride", "char *text"],
        _FORMAT_ROWS, _ryu_tables() + _RYU,
    )


def usable_cpus() -> int:
    """CPUs this process may run on (`taskset` limits them); 1 where the
    platform does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _repr_rows(block: np.ndarray) -> bytes:
    """The CSV lines of block, a column per line, each value as its repr,
    the CSV's own definition: the writer where the C formatter cannot be
    built."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.T.tolist()).encode()


def _write_blocks(f, starts: range, format_block, lanes: int) -> None:
    """Write format_block(lane, start) for each start to f, in order, with
    block i formatted on lane i % lanes: lane 0 is this thread, each other
    lane a thread of its own. A lane formats its next block only once f
    holds its last one, so format_block may reuse one buffer per lane. A
    lane's error, or a thread that cannot start, is raised here once every
    lane's thread that started has ended."""
    free = [threading.Semaphore(1) for _ in range(lanes)]  # the lane's last text is written
    done = [threading.Semaphore(0) for _ in range(lanes)]  # the lane's next text is ready
    formatted = [None] * lanes
    stopped = False

    def run_lane(lane):
        for start in starts[lane::lanes]:
            free[lane].acquire()
            if stopped:
                return
            try:
                formatted[lane] = format_block(lane, start)
            except BaseException as exc:  # raised again in the writing thread
                formatted[lane] = exc
            done[lane].release()

    threads = []  # the lanes' threads that started
    try:
        for lane in range(1, lanes):
            thread = threading.Thread(target=run_lane, args=(lane,))
            thread.start()
            threads.append(thread)
        for i, start in enumerate(starts):
            lane = i % lanes
            if lane == 0:
                f.write(format_block(0, start))
                continue
            done[lane].acquire()
            if isinstance(formatted[lane], BaseException):
                raise formatted[lane]
            f.write(formatted[lane])
            free[lane].release()
    finally:
        stopped = True
        for semaphore in free:
            semaphore.release()
        for thread in threads:
            thread.join()


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the trace CSV, _CSV_BLOCK_ROWS rows at a time, each value as
    its repr, read in place from the records' channel rows. The C
    formatter formats the blocks on min(usable_cpus(), full blocks,
    _CSV_LANES) lanes, one text buffer each, or on this thread alone where
    that is below 2; repr, where the C formatter cannot be built, on this
    thread. Either way the blocks are written in order, and the bytes are
    the same."""
    format_rows = _c_format_rows()
    if format_rows is None:
        lanes = 1

        def format_block(lane, start):
            return _repr_rows(trace.records[:, start:start + _CSV_BLOCK_ROWS])
    else:
        import numpy as np

        lanes = max(1, min(usable_cpus(), len(trace) // _CSV_BLOCK_ROWS, _CSV_LANES))
        texts = [np.empty(_CELL_BYTES * _CSV_BLOCK_ROWS * len(TRACE_CHANNELS), np.uint8) for _ in range(lanes)]

        def format_block(lane, start):
            rows, text = min(_CSV_BLOCK_ROWS, len(trace) - start), texts[lane]
            values = trace.records[:, start:].ctypes.data
            return memoryview(text)[:format_rows(values, rows, len(TRACE_CHANNELS), len(trace), text.ctypes.data)]
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        _write_blocks(f, range(0, len(trace), _CSV_BLOCK_ROWS), format_block, lanes)


# An unsymmetrical machine carries an inherent double-supply-frequency
# speed oscillation of a few percent, so reporting tools use a wider
# steady-state tolerance than the strict library default.
REPORT_SPEED_TOL = 0.05


def _report_lines(report, prefix: str = "") -> list[str]:
    """`name: repr(value)` for each field of a report but torque_channel,
    which an audit block's key prefix names."""
    return [f"{prefix}{f.name}: {getattr(report, f.name)!r}"
            for f in fields(report) if f.name != "torque_channel"]


def write_summary(
    trace: SimulationTrace,
    p: MachineParameters,
    path,
    speed_tol: float = REPORT_SPEED_TOL,
) -> None:
    """Write the key: value report of the steady-state summary plus both energy audits.

    The summary block opens with `steady_state_reached: true` and the
    report's fields. A run with no steady state (SteadyStateNotReachedError:
    too short to judge, or never settled) still gets its audits; its
    summary block reads `steady_state_reached: false` and the error's
    message.
    """
    lines = [f"steady_state_tolerance: {speed_tol!r}"]
    try:
        report = summarize(trace, p, speed_tol=speed_tol)
    except SteadyStateNotReachedError as exc:
        lines.append("steady_state_reached: false")
        lines.append(f"steady_state_note: {exc}")
    else:
        lines.append("steady_state_reached: true")
        lines += _report_lines(report)
    for channel in ("te_ec", "te"):
        lines += _report_lines(energy_audit(trace, p, torque_channel=channel), f"audit_{channel}.")
    Path(path).write_text("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render the standard channel plots from the trace CSV next to this script."""

import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
CSV = HERE / {csv_name!r}
PREFIX = {prefix!r}

PANELS = [
    ("supply_voltage", ["v_sa", "v_sb"], "supply voltage [V]"),
    ("stator_current", ["i_sa", "i_sb"], "stator current [A]"),
    ("rotor_current", ["i_ra", "i_rb"], "rotor current [A]"),
    ("torque", ["te", "te_ec"], "torque [N m]"),
    ("rotor_speed", ["omega_mech"], "rotor speed [rad/s]"),
]

with open(CSV, newline="") as f:
    reader = csv.reader(f)
    header = next(reader)
    columns = {{name: [] for name in header}}
    for row in reader:
        for name, value in zip(header, row):
            columns[name].append(float(value))

t = columns["t"]
for stem, names, ylabel in PANELS:
    fig, ax = plt.subplots(figsize=(9, 4))
    for name in names:
        ax.plot(t, columns[name], label=name, linewidth=0.8)
    ax.set_xlabel("time [s]")
    ax.set_ylabel(ylabel)
    ax.grid(True)
    ax.legend()
    fig.tight_layout()
    out = HERE / f"{{PREFIX}}_{{stem}}.png"
    fig.savefig(out, dpi=150)
    plt.close(fig)
    print(out)
'''


def write_plot_script(path, csv_name: str, prefix: str) -> None:
    # The names are embedded as literals, so any name gives a valid script.
    Path(path).write_text(_PLOT_TEMPLATE.format(csv_name=csv_name, prefix=prefix), encoding="utf-8")

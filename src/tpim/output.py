"""File outputs: trace CSV, plain-text summary and the emitted plot script.

The CSV is the single source of truth for downstream tooling: fixed header,
fixed column order, each value as its repr, the shortest round-trip decimal
text (values re-read equal the in-memory doubles exactly): the columns of
the trace's records, whose layout SimulationTrace checks. A C formatter
writes that text, Schubfach's shortest digits in repr's layout, in two
passes over each run of 32 rows (the digit searches down each channel, then
the rows), on up to two threads, one per usable CPU; the file gets its
blocks in order, so its bytes do not depend on the number of threads. The
formatter is compiled by tpim._native and cached with the step loops; where
it cannot be built, repr itself writes the values, and the bytes are the
same. The plot script is an emitted artifact that operates on the CSV; this
package never imports a plotting library.
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
# Most bytes a format_rows call writes past the end of its text: its last
# value's fixed-width stores of 16 digits may end 16 bytes past the value,
# 15 past the newline after it. A text buffer holds the text and this.
_TEXT_SLACK = 15
# Most columns format_rows takes: its scratch holds 32 rows of each on the C
# stack, 6 KB. It refuses more by returning -1.
_FORMAT_COLUMNS = 16

# Schubfach's shortest digits (Giulietti, "The Schubfach way to render
# doubles", 2020) and the layout of repr around them, in two passes over each
# run of up to 32 rows: shortest down each channel's values, then layout
# along each row. shortest selects by flags and masks, and layout writes the
# digits as two 8-digit words by fixed-width stores, branching only on the
# notation and on zero, inf and nan; no digit search waits on the last
# value's end, so the CPU overlaps them. Both stay out of line: inlined into
# format_rows' loops, gcc 12 -O2 spilled their registers and a value took
# 51 ns against 35 (paper_s3's trace, 2 cores). The words are little-endian;
# elsewhere the compile stops, and repr writes the values.
#
# G is the table _format_tables generates; k and h take the floors of
# log10(2**q), log10(3/4 * 2**q) and log2(10**-k) by Schubfach's
# multiply-and-shift, exact over the exponents of a double. The core departs
# from the Java reference (JDK 19+ DoubleToDecimal) in three ways. repr's
# digits need one: the candidate one digit shorter is tried from s >= 10,
# not 100 (5e-323, not 4.9e-323). Two are deletions, whose paths give the
# same digits as the general one here: the branch that writes the two
# smallest subnormals with two digits, and the fast path for integers below
# 2**53.
_FORMAT_DOUBLE = """\
#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the trace formatter writes little-endian words"
#endif
/* g * x / 2**127 rounded to odd, g = g[0] * 2**63 + g[1]. */
static uint64_t rop(const uint64_t *g, uint64_t x)
{
    const unsigned __int128 y = (unsigned __int128)g[0] * x;
    const uint64_t z = ((uint64_t)y >> 1) + (uint64_t)((unsigned __int128)g[1] * x >> 64);
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & ~(1ull << 63)) + ~(1ull << 63)) >> 63);
}

/* The shortest m * 10**k that reads back as the finite nonzero double v of
   bits, rounded to the nearest and to even on a tie, as m's digits to 17
   places, m * 10**(17 - digits), and *point, where |v| = 0.ddd * 10**point. */
__attribute__((noinline)) static uint64_t shortest(uint64_t bits, int32_t *point)
{
    const uint64_t f = bits & ((1ull << 52) - 1), e = bits >> 52 & 0x7ff;
    const uint64_t closer = (f == 0) & (e > 1);  /* the doubles below lie twice as close */
    const int32_t q = (int32_t)(e + (e == 0)) - 1075;
    const uint64_t c = f | (uint64_t)(e != 0) << 52, cb = c << 2, cbl = cb - 2 + closer, cbr = cb + 2;
    const uint64_t out = c & 1;  /* an odd c's interval excludes its bounds */
    const int32_t k = (int32_t)(((int64_t)q * 661971961083 - (int64_t)closer * 274743187321) >> 41);
    const int32_t h = q + (int32_t)((-(int64_t)k * 913124641741) >> 38) + 2;
    const uint64_t *g = G[k + 324];
    const uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h), vbr = rop(g, cbr << h), s = vb >> 2;
    const uint64_t u = s / 10 * 10;  /* s and s + 1, or u and u + 10, bracket v */
    const uint64_t u_in = vbl + out <= (u << 2), u10_in = ((u + 10) << 2) + out <= vbr;
    const uint64_t s_in = vbl + out <= (s << 2), s1_in = ((s + 1) << 2) + out <= vbr;
    /* s + 1 where it alone is in, or both are and it is nearer, or as near and even */
    const uint64_t up = (s1_in > s_in) | ((s1_in == s_in) & ((vb & 3) + (s & 1) > 2));
    const uint64_t by_u = -((s >= 10) & (u_in != u10_in));  /* one of u and u + 10 is in */
    const uint64_t m = ((u + 10 - 10 * u_in) & by_u) | ((s + up) & ~by_u);
    const int32_t guess = (64 - __builtin_clzll(m | 1)) * 1233 >> 12;  /* 1233 / 4096 < log10(2) */
    const int32_t digits = guess + (m >= POW10[guess]);
    *point = k + digits;
    return m * POW10[17 - digits];
}

/* The 8 decimal digits of x < 10**8 as the bytes of a word, by
   multiply-and-shift in lanes: 2 of 4 digits, 4 of 2 and 8 of 1. */
static uint64_t eight_digits(uint64_t x)
{
    const uint64_t y = x / 10000 | x % 10000 << 32, y100 = (y * 10486 >> 20) & 0x7f0000007f;
    const uint64_t z = y100 | (y - 100 * y100) << 16, z10 = (z * 103 >> 10) & 0xf000f000f000f;
    return (z10 | (z - 10 * z10) << 8) + 0x3030303030303030;
}

/* repr(v) at p, v the double of bits, from shortest's m17 and point; the
   end of the text. Fixed notation where 1e-4 <= |v| < 1e16, with .0 on an
   integer, else d.ddde-XX; nan whatever its sign. The fixed-width stores
   may write up to 16 bytes past the end. */
__attribute__((noinline)) static char *layout(uint64_t bits, uint64_t m17, int32_t point, char *p)
{
    *p = '-';
    if ((bits << 1) - 1 >= (0x7ffull << 53) - 1) {  /* zero, inf or nan */
        if (bits << 1 > 0x7ffull << 53)
            return memcpy(p, "nan", 3), p + 3;
        p += bits >> 63;
        return memcpy(p, bits << 1 ? "inf" : "0.0", 3), p + 3;
    }
    p += bits >> 63;
    /* the first digit d, then 16 in the bytes of x */
    const uint64_t d = m17 / 10000000000000000, rest = m17 - d * 10000000000000000;
    const uint64_t hi = eight_digits(rest / 100000000), lo = eight_digits(rest % 100000000);
    const unsigned __int128 x = (unsigned __int128)lo << 64 | hi;
    /* the significant digits: 17 less the '0' bytes that end lo, then hi */
    const uint64_t zl = lo ^ 0x3030303030303030, zh = hi ^ 0x3030303030303030;
    const int32_t n_lo = 17 - (__builtin_clzll(zl | 1) >> 3), n_hi = 9 - (__builtin_clzll(zh | 1) >> 3) - (zh == 0);
    const int32_t n = zl ? n_lo : n_hi;
    /* |point - 1|: the exponent, or in fixed notation the digits before the
       dot less one (whole) or the zeros after 0. plus one */
    const int32_t a = point > 0 ? point - 1 : 1 - point, whole = point > 0;
    if (point <= -4 || point > 16) {
        const uint64_t ex = ('0' + a / 100) | ('0' + a / 10 % 10) << 8 | ('0' + a % 10) << 16;
        const uint64_t tail = 'e' | (uint64_t)('-' - 2 * whole) << 8 | ex >> 8 * (a < 100) << 16;
        p[0] = (char)('0' + d);
        p[1] = '.';
        memcpy(p + 2, &x, 16);
        p += n + (n > 1);
        memcpy(p, &tail, 8);
        return p + 4 + (a >= 100);
    }
    /* 0.000ddd, or ddd with a dot put in by copying the digits after it again */
    const int32_t dot = 1 + a * whole, after = n - point > 1 ? n - point : 1;
    const unsigned __int128 shifted = x >> 8 * a * whole;
    memcpy(p, "0.000000", 8);
    p[(a + 1) * !whole] = (char)('0' + d);
    memcpy(p + (a + 1) * !whole + 1, &x, 16);
    p[dot] = '.';
    memcpy(p + a + 2, &shifted, 16);
    return p + dot + 1 + after;
}

"""
# rows lines of columns values as CSV at text, value k of row r read at
# values[k * stride + r]; the bytes written, or -1 for a columns outside 1
# to COLUMNS. Each run of up to 32 rows takes two passes: shortest down each
# channel into scratch, then layout along each row.
_FORMAT_ROWS = """\
if (columns < 1 || columns > COLUMNS)
    return -1;
char *p = text;
for (int64_t start = 0; start < rows; start += 32) {
    const int64_t run = rows - start < 32 ? rows - start : 32;
    uint64_t m17[COLUMNS][32], bits;
    int32_t point[COLUMNS][32];
    for (int64_t k = 0; k < columns; k++)
        for (int64_t r = 0; r < run; r++) {
            memcpy(&bits, values + k * stride + start + r, 8);
            m17[k][r] = shortest(bits, &point[k][r]);
        }
    for (int64_t r = 0; r < run; r++) {
        for (int64_t k = 0; k < columns; k++) {
            memcpy(&bits, values + k * stride + start + r, 8);
            p = layout(bits, m17[k][r], point[k][r], p);
            *p++ = ',';
        }
        p[-1] = '\\n';
    }
}
return p - text;
"""


def _format_tables() -> str:
    """The formatter's tables as C, from exact integers: Schubfach's G[k +
    324] for -324 <= k <= 292, g = floor(10**-k * 2**-r) + 1 where r =
    floor(log2(10**-k)) - 125, so that 2**125 <= g < 2**126, stored as
    g >> 63 and g mod 2**63; and the powers of ten below 10**18."""
    tens = [1]  # 10**0 to 10**324, each from the last: a power each is slower
    for _ in range(324):
        tens.append(10 * tens[-1])
    rows = []
    for k in range(-324, 293):
        power = tens[abs(k)]
        if k <= 0:  # 10**-k is the integer power: r = its bit length - 126
            shift = power.bit_length() - 126
            g = (power >> shift if shift >= 0 else power << -shift) + 1
        else:  # 10**-k = 1 / power: r = -(power's bit length) - 125
            g = (1 << power.bit_length() + 125) // power + 1
        rows.append(f"    {{{g >> 63:#x}u, {g & (1 << 63) - 1:#x}u}}")
    table = ",\n".join(rows)
    powers = ", ".join(f"{power}u" for power in tens[:18])
    return f"static const uint64_t G[617][2] = {{\n{table}\n}};\nstatic const uint64_t POW10[18] = {{{powers}}};\n"


@cache
def _c_format_rows():
    """The C trace formatter, or None where it cannot be built."""
    from ._native import load

    return load(
        "format_rows", ["const double *values", "int64_t rows", "int64_t columns", "int64_t stride", "char *text"],
        _FORMAT_ROWS, f"#define COLUMNS {_FORMAT_COLUMNS}\n" + _format_tables() + _FORMAT_DOUBLE,
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
        size = _CELL_BYTES * _CSV_BLOCK_ROWS * len(TRACE_CHANNELS) + _TEXT_SLACK
        texts = [np.empty(size, np.uint8) for _ in range(lanes)]

        def format_block(lane, start):
            rows, text = min(_CSV_BLOCK_ROWS, len(trace) - start), texts[lane]
            values = trace.records[:, start:].ctypes.data
            written = format_rows(values, rows, len(TRACE_CHANNELS), len(trace), text.ctypes.data)
            if written < 0:
                raise ValueError(f"the C formatter takes 1 to {_FORMAT_COLUMNS} columns, not {len(TRACE_CHANNELS)}")
            return memoryview(text)[:written]
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

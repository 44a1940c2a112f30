"""File outputs: trace CSV, plain-text summary and the emitted plot script.

The CSV is the single source of truth for downstream tooling: fixed header,
fixed column order, shortest round-trip decimal text (values re-read equal
the in-memory doubles exactly). The plot script is an emitted artifact that
operates on the CSV; this package never imports a plotting library.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

from .analysis import (
    SteadyStateNotReachedError,
    TraceTooShortError,
    energy_audit,
    summarize,
)
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


def usable_cpus() -> int:
    """CPUs this process may run on (`taskset` limits them); 1 without `fork`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# Rows formatted per write: whole columns go through repr at C speed, while
# the text held at once stays a small fraction of the file. Also the fewest
# rows a writer process formats: below about 600 rows the fork costs more
# than the second core saves.
_CSV_BLOCK_ROWS = 1024


def _write_rows(f, channels, start: int, stop: int) -> None:
    # tolist() yields Python floats, whose repr is the shortest decimal
    # that round-trips to the same double.
    for block in range(start, stop, _CSV_BLOCK_ROWS):
        end = min(block + _CSV_BLOCK_ROWS, stop)
        columns = [map(repr, channel[block:end].tolist()) for channel in channels]
        f.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _write_parts(f, channels, bounds: list[int], directory: Path) -> None:
    """Rows bounds[0]:bounds[1] in process, each later part in a forked
    process writing an unnamed temporary file in `directory`; the parts are
    appended in order, so the file holds the bytes of one in-process part."""
    children = []  # (pid, temporary file) of parts 2 on
    with ExitStack() as stack:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                part = stack.enter_context(tempfile.TemporaryFile("w+", dir=directory))
                pid = os.fork()
                if pid == 0:  # ends in os._exit: never returns or flushes inherited files
                    status = 1
                    try:
                        _write_rows(part, channels, start, stop)
                        part.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, part))
            _write_rows(f, channels, bounds[0], bounds[1])
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for number, status in enumerate(statuses, 2):
            if status != 0:
                raise OSError(
                    f"trace writer process for part {number} of {len(bounds) - 1} "
                    f"ended with status {status}"
                )
        for _, part in children:
            part.seek(0)
            shutil.copyfileobj(part, f)


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the trace CSV, formatting contiguous row parts of at least
    _CSV_BLOCK_ROWS rows on every usable CPU; one part runs in process."""
    channels = [trace.channel(name) for name in TRACE_CHANNELS]
    rows = len(trace)
    parts = min(usable_cpus(), rows // _CSV_BLOCK_ROWS)
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        if parts < 2:
            _write_rows(f, channels, 0, rows)
        else:
            bounds = [rows * k // parts for k in range(parts + 1)]
            _write_parts(f, channels, bounds, Path(path).parent)


# An unsymmetrical machine carries an inherent double-supply-frequency
# speed oscillation of a few percent, so reporting tools use a wider
# steady-state tolerance than the strict library default.
REPORT_SPEED_TOL = 0.05


def _report_lines(report, prefix: str = "") -> list[str]:
    """`name: repr(value)` for each field of a report but the first, which
    says what the report is (steady_state_reached, torque_channel)."""
    return [f"{prefix}{f.name}: {getattr(report, f.name)!r}" for f in fields(report)[1:]]


def write_summary(
    trace: SimulationTrace,
    p: MachineParameters,
    path,
    speed_tol: float = REPORT_SPEED_TOL,
) -> None:
    """Write the key: value report of the steady-state summary plus both energy audits.

    A run whose speed never settles (or is too short to judge) still gets
    its audits; the summary block then only records why it is missing.
    """
    lines = [f"steady_state_tolerance: {speed_tol!r}"]
    try:
        report = summarize(trace, p, speed_tol=speed_tol)
    except (TraceTooShortError, SteadyStateNotReachedError) as exc:
        lines.append("steady_state_reached: false")
        lines.append(f"steady_state_note: {exc}")
    else:
        lines.append("steady_state_reached: true")
        lines += _report_lines(report)
    for channel in ("te_ec", "te"):
        lines += _report_lines(energy_audit(trace, p, torque_channel=channel), f"audit_{channel}.")
    Path(path).write_text("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render the standard channel plots from {csv_name} (written next to it)."""

import csv
from dataclasses import fields
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
CSV = HERE / "{csv_name}"

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
    out = HERE / f"{prefix}_{{stem}}.png"
    fig.savefig(out, dpi=150)
    plt.close(fig)
    print(out)
'''


def write_plot_script(path, csv_name: str, prefix: str) -> None:
    Path(path).write_text(_PLOT_TEMPLATE.format(csv_name=csv_name, prefix=prefix))

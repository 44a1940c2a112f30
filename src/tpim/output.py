"""File outputs: trace CSV, plain-text summary and the emitted plot script.

The CSV is the single source of truth for downstream tooling: fixed header,
fixed column order, shortest round-trip decimal text (values re-read equal
the in-memory doubles exactly). The plot script is an emitted artifact that
operates on the CSV; this package never imports a plotting library.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

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


# Rows serialized per write: orjson formats a whole block in C, while the
# text held at once stays a small fraction of the file.
_CSV_BLOCK_ROWS = 1024


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the trace CSV, _CSV_BLOCK_ROWS rows at a time.

    orjson writes each double as Ryu's shortest round-trip digits, which are
    repr's wherever 1e-4 <= |v| < 1e16 or v == 0; a row holding any other
    value (subnormal or tiny, huge, nan, inf) is formatted by repr instead.
    """
    # Imported here: at module top it adds import time and memory to every command.
    import orjson

    channels = [trace.channel(name) for name in TRACE_CHANNELS]
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, len(trace), _CSV_BLOCK_ROWS):
            block = np.column_stack([channel[start:start + _CSV_BLOCK_ROWS] for channel in channels])
            lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            size = np.abs(block)
            unlike_repr = ((size > 0.0) & (size < 1e-4)) | ~(size < 1e16)  # nan fails both
            for row in np.flatnonzero(unlike_repr.any(axis=1)):
                lines[row] = ",".join(map(repr, block[row].tolist())).encode()
            f.write(b"\n".join(lines) + b"\n")


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

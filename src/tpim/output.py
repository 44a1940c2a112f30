"""File outputs: trace CSV, plain-text summary and the emitted plot script.

The CSV is the single source of truth for downstream tooling: fixed header,
fixed column order, shortest round-trip decimal text (values re-read equal
the in-memory doubles exactly). The plot script is an emitted artifact that
operates on the CSV; this package never imports a plotting library.
"""

from __future__ import annotations

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
    "summary_text",
    "write_summary",
    "plot_script_text",
    "write_plot_script",
]

CSV_HEADER = ",".join(TRACE_CHANNELS)


def write_trace_csv(trace: SimulationTrace, path) -> None:
    # tolist() yields Python floats, whose repr is the shortest decimal
    # that round-trips to the same double.
    columns = [trace.channel(name).tolist() for name in TRACE_CHANNELS]
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in zip(*columns):
            f.write(",".join(repr(v) for v in row) + "\n")


# An unsymmetrical machine carries an inherent double-supply-frequency
# speed oscillation of a few percent, so reporting tools use a wider
# steady-state tolerance than the strict library default.
REPORT_SPEED_TOL = 0.05


def summary_text(
    trace: SimulationTrace,
    p: MachineParameters,
    speed_tol: float = REPORT_SPEED_TOL,
    window: float = 0.1,
) -> str:
    """Key: value report of the steady-state summary plus both energy audits.

    A run whose speed never settles (or is too short to judge) still gets
    its audits; the summary block then only records why it is missing.
    """
    lines = [f"steady_state_tolerance: {speed_tol!r}"]
    try:
        report = summarize(trace, p, speed_tol=speed_tol, window=window)
    except (TraceTooShortError, SteadyStateNotReachedError) as exc:
        lines.append("steady_state_reached: false")
        lines.append(f"steady_state_note: {exc}")
    else:
        lines.append("steady_state_reached: true")
        lines.append(f"settle_time: {report.settle_time!r}")
        lines.append(f"final_speed_mech: {report.final_speed_mech!r}")
        lines.append(f"slip: {report.slip!r}")
        lines.append(f"mean_torque: {report.mean_torque!r}")
        lines.append(f"torque_ripple_pp: {report.torque_ripple_pp!r}")
        lines.append(f"stator_current_rms_alpha: {report.stator_current_rms_alpha!r}")
        lines.append(f"stator_current_rms_beta: {report.stator_current_rms_beta!r}")
    for channel in ("te_ec", "te"):
        audit = energy_audit(trace, p, torque_channel=channel)
        prefix = f"audit_{channel}"
        lines.append(f"{prefix}.stator_input_energy: {audit.stator_input_energy!r}")
        lines.append(f"{prefix}.stator_copper_loss: {audit.stator_copper_loss!r}")
        lines.append(f"{prefix}.rotor_copper_loss: {audit.rotor_copper_loss!r}")
        lines.append(f"{prefix}.field_energy_delta: {audit.field_energy_delta!r}")
        lines.append(f"{prefix}.mechanical_energy_out: {audit.mechanical_energy_out!r}")
        lines.append(f"{prefix}.residual: {audit.residual!r}")
    return "\n".join(lines) + "\n"


def write_summary(
    trace: SimulationTrace,
    p: MachineParameters,
    path,
    speed_tol: float = REPORT_SPEED_TOL,
) -> None:
    Path(path).write_text(summary_text(trace, p, speed_tol=speed_tol))


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render the standard channel plots from {csv_name} (written next to it)."""

import csv
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


def plot_script_text(csv_name: str, prefix: str) -> str:
    return _PLOT_TEMPLATE.format(csv_name=csv_name, prefix=prefix)


def write_plot_script(path, csv_name: str, prefix: str) -> None:
    Path(path).write_text(plot_script_text(csv_name, prefix))

#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose answers are the
reference (about a minute):

    python3 perfbench/record_references.py

It writes perfbench/references.json: the rated summary, one sweep row per
grid torque, the summary of every harmonic variant and the Euler oracle's
final record and audit. Re-record only when a change of answers is
intended, and say why in the change that does it.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tpim.cli  # noqa: E402
import workloads as w  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"cannot record references: {message}")


def summary_values(path) -> dict[str, float]:
    values = {}
    for key, text in w.read_summary(path).items():
        try:
            values[key] = float(text)
        except ValueError:
            pass  # steady_state_reached, checked as a flag
    return values


def main() -> int:
    work = ROOT / ".perfbench_work" / "references"
    refs = {}

    rated = w.RatedRun(0, work / "rated_run")
    require(rated.run() == 0, "tpim run paper_s3 failed")
    _, final_row = w.check_trace_csv(rated.csv_path, rated.records)
    refs["rated_run"] = {"summary": summary_values(rated.summary_path), "final_row": final_row}

    argv = [
        "sweep", "paper_s3", "--axis", "load.torque",
        "--values", ",".join(repr(t) for t in w.SWEEP_GRID), "--output-dir", str(work),
    ]
    with redirect_stdout(io.StringIO()):
        require(tpim.cli.main(argv) == 0, "tpim sweep failed")
    with open(work / "paper_s3_sweep.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    require(all(row[-1] == "ok" for row in rows), "a sweep row failed")
    refs["load_sweep"] = {
        f"{float(row[0]):.2f}": dict(zip(w.SWEEP_FIELDS, map(float, row[1:-1]))) for row in rows
    }

    refs["harmonic_step_run"] = []
    for variant in range(w.HARMONIC_VARIANTS):
        run = w.HarmonicStepRun(variant, work / "harmonic_step_run")
        require(run.run() == 0, f"harmonic variant {variant} failed")
        values = summary_values(run.summary_path)
        require("settle_time" in values, f"harmonic variant {variant} never settles")
        refs["harmonic_step_run"].append({"summary": values})

    trace, audit = w.EulerOracle(0, work / "euler_oracle").run()
    refs["euler_oracle"] = {
        "final": {name: float(trace.channel(name)[-1]) for name in tpim.TRACE_CHANNELS},
        "scale": {name: float(abs(trace.channel(name)).max()) for name in tpim.TRACE_CHANNELS},
        "audit_te_ec": {
            key: getattr(audit, key)
            for key in ("stator_input_energy", "stator_copper_loss", "rotor_copper_loss",
                        "field_energy_delta", "mechanical_energy_out", "residual")
        },
    }
    w.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(w.REFERENCES)
    return 0


if __name__ == "__main__":
    sys.exit(main())

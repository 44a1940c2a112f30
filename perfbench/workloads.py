"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload turns a seed into config files and CLI arguments, runs one
operation through tpim's public surface and verifies what it produced.
Import this module only after `src` of the checkout is on sys.path.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import tpim
import tpim.cli
from tpim.output import CSV_HEADER, REPORT_SPEED_TOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER_S3 = ROOT / "src" / "tpim" / "configs" / "paper_s3.cfg"
REFERENCES = HERE / "references.json"

# Reference tolerances. The measured effect of a legitimate accuracy change
# (halving dt, or moving the off-grid load breakpoint onto the grid) on the
# steady-state summary is below 2e-5 relative, and recording at full
# resolution moves audit energies by about the decimated te_ec residual,
# 1.2e-3 of the input energy. A 1% error in one winding resistance moves
# slip, rms current or input energy by 4e-3 to 8e-3 relative. So:
SUMMARY_RTOL = 1e-4  # steady-state values, relative
SETTLE_ATOL = 0.02  # settle_time, seconds: one period of the 10 ms speed ripple, plus margin
AUDIT_TOL = 1e-2  # audit energies, as a share of the stator input energy
AUDIT_GATE = 5e-3  # |te_ec residual| / stator input energy must stay below this
ORACLE_RTOL = 1e-6  # final Euler record, as a share of each channel's max |value|
# The rated trace has no load step, so no planned change moves it; this only
# allows last-ulp differences, and catches a writer that loses digits.
ROW_RTOL = 1e-12  # final rated CSV row, relative to max(|value|, 1)

SWEEP_FIELDS = ("final_speed_mech", "slip", "mean_torque", "torque_ripple_pp", "settle_time")
SWEEP_GRID = tuple(round(0.2 + 0.01 * i, 2) for i in range(111))  # 0.20 .. 1.30 N*m
SWEEP_SIZE = 32
HARMONIC_VARIANTS = 64
HARMONIC_SPEED_TOL = 0.06
DT = 1e-4
PEAK = math.sqrt(2.0) * 230.0


def config_text(**keys) -> str:
    """paper_s3.cfg with `key = value` lines replaced or appended; None drops a key."""
    keys = {k.replace("__", "."): v for k, v in keys.items()}
    lines = []
    for line in PAPER_S3.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key in keys:
            if keys[key] is not None:
                lines.append(f"{key} = {keys.pop(key)}")
            continue
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in keys.items() if v is not None]
    return "\n".join(lines) + "\n"


def sweep_torques(seed: int) -> tuple[float, ...]:
    """SWEEP_SIZE distinct grid torques, one from each of SWEEP_SIZE strata."""
    rng = random.Random(seed)
    n = len(SWEEP_GRID)
    return tuple(
        SWEEP_GRID[rng.randrange(i * n // SWEEP_SIZE, (i + 1) * n // SWEEP_SIZE)]
        for i in range(SWEEP_SIZE)
    )


def harmonic_config(variant: int) -> str:
    """Harmonic supply (fundamental + 3rd + 5th) and three load breakpoints.

    The ranges are narrow on purpose: the te_ec audit residual depends on
    the harmonic phases and load levels, and it is an end-to-end metric
    that must stay steady from seed to seed.
    """
    rng = random.Random(variant)

    def jitter(nominal, share):
        return nominal * (1.0 + share * rng.uniform(-1.0, 1.0))

    a3, a5 = jitter(0.03 * PEAK, 0.1), jitter(0.02 * PEAK, 0.1)
    ph3, ph5 = rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
    t1 = rng.randrange(1500, 2501) * DT  # on the step grid
    t2 = (rng.randrange(6000, 8000) + rng.uniform(0.2, 0.8)) * DT  # off the grid
    t0_load, t1_load, t2_load = jitter(0.4, 0.05), jitter(0.7, 0.05), jitter(0.9, 0.05)
    # A balanced quadrature set: beta is alpha delayed by a quarter period,
    # which delays the k-th harmonic by k quarter turns.
    q = 0.5 * math.pi
    return config_text(
        supply__mode="harmonics",
        supply__voltage=None,
        supply__alpha=f"1:{PEAK!r}:0.0, 3:{a3!r}:{ph3!r}, 5:{a5!r}:{ph5!r}",
        supply__beta=f"1:{PEAK!r}:{-q!r}, 3:{a3!r}:{ph3 - 3 * q!r}, 5:{a5!r}:{ph5 - 5 * q!r}",
        load__torque=None,
        load__breakpoints=f"0.0:{t0_load!r}, {t1!r}:{t1_load!r}, {t2!r}:{t2_load!r}",
        integrator__duration="1.5",
        integrator__record_every="10",
    )


def references() -> dict:
    return json.loads(REFERENCES.read_text())


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_summary(path) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in Path(path).read_text().splitlines())


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def check_trace_csv(path, n_rows: int) -> tuple[list[str], dict[str, float]]:
    """Header, row count and finiteness problems, and the last row by channel."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path}: header differs from tpim.output.CSV_HEADER"], {}
    problems = []
    if len(lines) - 1 != n_rows:
        problems.append(f"{path}: {len(lines) - 1} rows, expected {n_rows}")
    names = CSV_HEADER.split(",")
    for number, line in enumerate(lines[1:], start=2):
        values = [float(c) for c in line.split(",")]
        if len(values) != len(names) or not all(math.isfinite(v) for v in values):
            problems.append(f"{path}: line {number} is short or not finite")
            return problems, {}
    return problems, dict(zip(names, values))


def check_summary(summary: dict[str, str], ref: dict[str, float]) -> list[str]:
    """Compare a summary file's values with the reference recorded at the baseline."""
    problems = []
    if summary.get("steady_state_reached") != "true":
        problems.append("steady state not reached")
    input_energy = ref["audit_te_ec.stator_input_energy"]
    for key, expected in ref.items():
        if key not in summary:
            problems.append(f"summary lacks {key}")
            continue
        value = float(summary[key])
        if key == "audit_te_ec.residual":
            continue  # gated by audit_residual_rel instead; full-resolution audits shrink it
        if key.startswith("audit_"):
            tol = AUDIT_TOL * input_energy
        elif key == "settle_time":
            tol = SETTLE_ATOL
        else:
            tol = SUMMARY_RTOL * abs(expected)
        if not _close(value, expected, tol):
            problems.append(f"{key} = {value!r}, reference {expected!r}")
    return problems


def summary_residual(summary: dict[str, str]) -> float:
    return abs(float(summary["audit_te_ec.residual"])) / float(
        summary["audit_te_ec.stator_input_energy"]
    )


def gate_residual(residual: float) -> list[str]:
    if not residual < AUDIT_GATE:
        return [f"te_ec audit residual {residual:.3g} of input is not below {AUDIT_GATE}"]
    return []


class Workload:
    """One kind of operation on seeded inputs.

    steps is the number of integration steps one operation runs;
    setup_config is what the set-up probe passes to load_config.
    """

    name = ""
    why = ""
    steps = 0
    setup_config = "paper_s3"
    csv_path: Path | None = None

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def run(self):
        """One operation; returns what digest() and verify() inspect."""
        raise NotImplementedError

    def digest(self, outcome) -> str:
        """Hash of everything the operation produced, for the determinism check."""
        raise NotImplementedError

    def verify(self, outcome) -> tuple[list[str], float]:
        """Output problems, and |te_ec audit residual| / stator input energy."""
        raise NotImplementedError


class _CliWorkload(Workload):
    argv: list[str] = []

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return tpim.cli.main(self.argv)


class _CliRun(_CliWorkload):
    """`tpim run` writing a trace CSV and a summary into the work directory."""

    prefix = ""
    records = 0

    def __init__(self, seed, work, config, extra_args=()):
        super().__init__(seed, work)
        self.argv = ["run", config, "--output-dir", str(work), *extra_args]
        self.csv_path = work / f"{self.prefix}_trace.csv"
        self.summary_path = work / f"{self.prefix}_summary.txt"

    def digest(self, outcome):
        return f"{outcome}:{file_digest(self.csv_path, self.summary_path)}"

    def reference(self) -> dict:
        """{"summary": values, and for rated_run "final_row": last CSV row}."""
        raise NotImplementedError

    def verify(self, outcome):
        if outcome != 0:
            return [f"exit code {outcome}"], math.nan
        summary = read_summary(self.summary_path)
        residual = summary_residual(summary)
        ref = self.reference()
        problems, last_row = check_trace_csv(self.csv_path, self.records)
        problems += check_summary(summary, ref["summary"])
        for name, expected in ref.get("final_row", {}).items():
            if not _close(last_row.get(name, math.nan), expected, ROW_RTOL * max(abs(expected), 1.0)):
                problems.append(f"last CSV row: {name} = {last_row.get(name)!r}, reference {expected!r}")
        return problems + gate_residual(residual), residual


class RatedRun(_CliRun):
    name = "rated_run"
    why = "canonical one-shot tpim run paper_s3 at record_every 1; writer and per-record derivation dominate"
    steps = 10_000
    records = 10_001
    prefix = "paper_s3"

    def __init__(self, seed, work):
        super().__init__(seed, work, "paper_s3", ("--record-every", "1"))

    def reference(self):
        return references()["rated_run"]


class HarmonicStepRun(_CliRun):
    name = "harmonic_step_run"
    why = "seeded harmonic supply with load steps; the only generic-sampler and load-step path, decimated output"
    steps = 15_000
    records = 1_501
    prefix = "harmonic_step_run"

    def __init__(self, seed, work):
        # The generator has HARMONIC_VARIANTS variants, each with a summary
        # recorded at the baseline, so every seed's output can be checked.
        self.variant = seed % HARMONIC_VARIANTS
        config = work / f"{self.prefix}.cfg"
        # Harmonics push the double-frequency speed ripple to about 5% of
        # the mean, the CLI default tolerance; 6% lets every variant settle.
        super().__init__(seed, work, str(config), ("--speed-tol", repr(HARMONIC_SPEED_TOL)))
        config.write_text(harmonic_config(self.variant))
        self.setup_config = str(config)

    def reference(self):
        return references()["harmonic_step_run"][self.variant]


class LoadSweep(_CliWorkload):
    name = "load_sweep"
    why = "tpim sweep over 32 seeded load torques; integrate and summarize per row, no trace CSV"
    steps = SWEEP_SIZE * 10_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.torques = sweep_torques(seed)
        self.argv = [
            "sweep", "paper_s3", "--axis", "load.torque",
            "--values", ",".join(repr(t) for t in self.torques),
            "--output-dir", str(work),
        ]
        self.table_path = work / "paper_s3_sweep.csv"

    def digest(self, outcome):
        return f"{outcome}:{file_digest(self.table_path)}"

    def verify(self, outcome):
        if outcome != 0:
            return [f"exit code {outcome}"], math.nan
        with open(self.table_path, newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["load.torque", *SWEEP_FIELDS, "status"]:
            return [f"sweep header {rows[0]}"], math.nan
        rows = rows[1:]
        if [float(r[0]) for r in rows] != list(self.torques):
            return ["sweep rows do not follow the requested torques"], math.nan
        ref = references()["load_sweep"]
        problems = []
        for row in rows:
            if row[-1] != "ok":
                problems.append(f"torque {row[0]}: {row[-1]}")
                continue
            expected = ref[f"{float(row[0]):.2f}"]
            for name, cell in zip(SWEEP_FIELDS, row[1:]):
                tol = SETTLE_ATOL if name == "settle_time" else SUMMARY_RTOL * abs(expected[name])
                if not _close(float(cell), expected[name], tol):
                    problems.append(f"torque {row[0]}: {name} = {cell}, reference {expected[name]!r}")
        # The sweep table carries no audit, so the median-torque row is rerun
        # through the library: its audit gives the residual, and its summary
        # must equal the CLI row exactly.
        middle = sorted(range(len(rows)), key=lambda i: self.torques[i])[len(rows) // 2]
        torque = self.torques[middle]
        config_path = self.work / "median_row.cfg"
        config_path.write_text(config_text(load__torque=repr(torque)))
        config = tpim.load_config(str(config_path))
        p = tpim.validate_parameters(config.machine)
        trace = tpim.integrate(p, tpim.build_scenario(config))
        report = tpim.summarize(trace, p, speed_tol=REPORT_SPEED_TOL)
        library_row = [repr(getattr(report, name)) for name in SWEEP_FIELDS]
        if library_row != rows[middle][1:-1]:
            problems.append(f"torque {torque!r}: library summary {library_row} != sweep row")
        audit = tpim.energy_audit(trace, p)
        residual = abs(audit.residual) / audit.stator_input_energy
        return problems + gate_residual(residual), residual


class EulerOracle(Workload):
    name = "euler_oracle"
    why = "forward-Euler oracle at dt 1e-7 (the euler_reference fixture); almost pure step loop, no output layers"
    steps = 2_000_000
    records = 2_001

    def __init__(self, seed, work):
        super().__init__(seed, work)
        config = work / "euler_oracle.cfg"
        config.write_text(
            config_text(
                integrator__method="euler",
                integrator__step_size="1e-07",
                integrator__duration="0.2",
                integrator__record_every="1000",
            )
        )
        self.setup_config = str(config)

    def run(self):
        config = tpim.load_config(self.setup_config)
        p = tpim.validate_parameters(config.machine)
        trace = tpim.integrate(p, tpim.build_scenario(config))
        return trace, tpim.energy_audit(trace, p)

    def digest(self, outcome):
        trace, _ = outcome
        h = hashlib.sha256()
        for name in tpim.TRACE_CHANNELS:
            h.update(trace.channel(name).tobytes())
        return h.hexdigest()

    def verify(self, outcome):
        trace, audit = outcome
        ref = references()["euler_oracle"]
        problems = []
        if len(trace) != self.records:
            problems.append(f"{len(trace)} records, expected {self.records}")
        for name in tpim.TRACE_CHANNELS:
            values = trace.channel(name)
            if not all(math.isfinite(v) for v in values.tolist()):
                problems.append(f"channel {name} is not finite")
            elif not _close(float(values[-1]), ref["final"][name], ORACLE_RTOL * ref["scale"][name]):
                problems.append(f"final {name} = {values[-1]!r}, reference {ref['final'][name]!r}")
        input_energy = ref["audit_te_ec"]["stator_input_energy"]
        for key, expected in ref["audit_te_ec"].items():
            if key != "residual" and not _close(getattr(audit, key), expected, AUDIT_TOL * input_energy):
                problems.append(f"audit {key} = {getattr(audit, key)!r}, reference {expected!r}")
        residual = abs(audit.residual) / audit.stator_input_energy
        return problems + gate_residual(residual), residual


WORKLOADS = {w.name: w for w in (RatedRun, LoadSweep, EulerOracle, HarmonicStepRun)}

"""Print `sha256  artifact` for every output the bit-identity check compares.

Run it on two checkouts and diff the outputs; identical lines mean identical
traces, CSV bytes, summaries and `tpim validate` output, and the exit code of
each command is part of its artifact name. From the root of a checkout:

    python3 tools/identity_digests.py > digests.txt

It imports tpim from `src/` of the checkout it lives in, and the seeded
configs of `perfbench/workloads.py` (without changing them). Outputs go to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tpim  # noqa: E402
from tpim.cli import main  # noqa: E402
from workloads import config_text, harmonic_config, sweep_torques  # noqa: E402

BUNDLED = ("paper_s3", "symmetric_check", "blocked_rotor")
HARMONIC_VARIANTS = (0, 7, 33)
SWEEP_SEED = 1  # the load_sweep workload's torques at seed 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_digests(work: Path, label: str, config: str, *extra):
    code, _ = cli(["run", config, "--output-dir", str(work), *extra])
    prefix = Path(config).stem
    for suffix in ("trace.csv", "summary.txt"):
        path = work / f"{prefix}_{suffix}"
        digest = sha256(path.read_bytes()) if path.exists() else "missing"
        yield digest, f"run {label} (exit {code}) {suffix}"


def channel_digest(trace) -> str:
    h = hashlib.sha256()
    for name in tpim.TRACE_CHANNELS:
        h.update(trace.channel(name).tobytes())
    return h.hexdigest()


def digests(work: Path):
    for name in BUNDLED:
        yield from run_digests(work, name, name)
    for variant in HARMONIC_VARIANTS:
        config = work / f"harmonic_{variant}.cfg"
        config.write_text(harmonic_config(variant))
        yield from run_digests(work, f"harmonic variant {variant}", str(config), "--speed-tol", "0.06")
    variants = {
        "electrical_state": config_text(speed_convention="electrical_state", integrator__record_every="3"),
        "euler": config_text(
            integrator__method="euler", integrator__step_size="1e-06", integrator__record_every="7"
        ),
    }
    for name, text in variants.items():
        config = work / f"{name}.cfg"
        config.write_text(text)
        yield from run_digests(work, name, str(config))

    torques = ",".join(repr(t) for t in sweep_torques(SWEEP_SEED))
    code, _ = cli(["sweep", "paper_s3", "--axis", "load.torque", "--values", torques,
                   "--output-dir", str(work)])
    table = (work / "paper_s3_sweep.csv").read_bytes()
    yield sha256(table), f"sweep load.torque seed {SWEEP_SEED} (exit {code}) sweep.csv"

    config = work / "unstable.cfg"
    config.write_text(config_text(integrator__step_size="0.02"))
    run = tpim.load_config(str(config))
    p = tpim.validate_parameters(run.machine)
    try:
        tpim.integrate(p, tpim.build_scenario(run))
        yield "no failure", "dt=0.02 partial trace channels"
    except tpim.IntegrationError as exc:
        yield channel_digest(exc.partial_trace), f"dt=0.02 partial trace channels (t = {exc.time!r})"

    for name in BUNDLED:
        code, out = cli(["validate", name])
        yield sha256(out.encode()), f"validate {name} (exit {code}) stdout"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for digest, artifact in digests(Path(tmp)):
            print(f"{digest}  {artifact}", flush=True)

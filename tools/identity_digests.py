"""Print `sha256  artifact` for every output the bit-identity check compares.

Identical lines mean identical traces, CSV bytes, summaries and `tpim
validate` output, and the exit code of each command is part of its artifact
name. Between them the runs cover every generated step loop, rk4 and euler
for each kind of supply shape: one harmonic per phase or several, as many
on each phase or not, and one phase only. The zero-amplitude variants check
the sampler's binding, which leaves those harmonics out of the loop; what
one of them keeps is two harmonics on alpha and one on beta. They also
cover each value that the run settings give the loop's constants: each
speed convention, and free and blocked rotor. Both methods run a constant and a stepped load, with
breakpoints on the step grid and inside a step, which splits there. The
`validate` outputs cover every branch of the rendered config: both supply
modes, a phase with no harmonics, both load forms and every optional key set
away from its default. Two RK4 runs put a load step on either side of the
one-ulp gap between a step's end time and the next step's start time.

This module is the one producer of the digests. Its output is committed as
tools/identity_digests.txt, and tests/test_identity.py runs `digests` and
checks every line of that file against it. A change that alters an output
on purpose writes the file again, from the root of a checkout:

    python3 tools/identity_digests.py > tools/identity_digests.txt

It imports tpim from `src/` of the checkout it lives in, and the seeded
configs of `perfbench/workloads.py` (without changing them); importing it
leaves sys.path as it was. `digests(work)` writes the outputs into work;
run as a script, it uses a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_sys_path = sys.path[:]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
try:
    import tpim
    from tpim.cli import main
    from workloads import PEAK, config_text, harmonic_config, sweep_torques
finally:
    sys.path[:] = _sys_path

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


def run_digests(work: Path, label: str, config: str, *extra, suffixes=("trace.csv", "summary.txt")):
    code, _ = cli(["run", config, "--output-dir", str(work), *extra])
    prefix = Path(config).stem
    for suffix in suffixes:
        path = work / f"{prefix}_{suffix}"
        digest = sha256(path.read_bytes()) if path.exists() else "missing"
        yield digest, f"run {label} (exit {code}) {suffix}"


def digests(work: Path):
    for name in BUNDLED:
        yield from run_digests(work, name, name)
    for variant in HARMONIC_VARIANTS:
        config = work / f"harmonic_{variant}.cfg"
        config.write_text(harmonic_config(variant))
        yield from run_digests(work, f"harmonic variant {variant}", str(config), "--speed-tol", "0.06")
    euler = dict(integrator__method="euler", integrator__step_size="1e-06", integrator__record_every="7")
    # A blocked rotor that turns, so that its speed voltages are not zero.
    blocked = dict(blocked_rotor="true", initial_state__omega_mech="60.0", integrator__duration="0.2")
    electrical = dict(speed_convention="electrical_state")
    q = 0.5 * math.pi

    def harmonics(alpha, beta, breakpoints=None, duration="0.3"):
        load = dict(load__torque=None, load__breakpoints=breakpoints) if breakpoints else {}
        return dict(supply__mode="harmonics", supply__voltage=None, supply__alpha=alpha, supply__beta=beta,
                    integrator__duration=duration, **load)

    def stepped(at):
        return dict(load__torque=None, load__breakpoints=f"0.0:0.4, {at}:1.0096", integrator__duration="0.3")

    three = f"1:{PEAK!r}:0.0, 3:9.5:0.1, 5:6.5:-0.2"
    three_beta = f"1:{PEAK!r}:{-q!r}, 3:9.5:{0.1 - 3 * q!r}, 5:6.5:{-0.2 - 5 * q!r}"
    variants = {
        "electrical_state": config_text(**electrical, integrator__record_every="3"),
        "euler": config_text(**euler),
        "euler_electrical_state": config_text(**euler, **electrical, integrator__duration="0.2"),
        "rk4_blocked": config_text(**blocked),
        "rk4_electrical_state_blocked": config_text(**blocked, **electrical),
        "euler_blocked": config_text(**euler, **blocked),
        "euler_electrical_state_blocked": config_text(**euler, **blocked, **electrical),
        # Supply shapes other than one harmonic per phase under a constant load.
        "harmonics_constant_load": config_text(**harmonics(three, three_beta)),
        "single_harmonic_load_step": config_text(
            **harmonics(f"1:{PEAK!r}:0.0", f"1:{PEAK!r}:{-q!r}", "0.0:0.4, 0.15003:1.0096")
        ),
        "zero_amplitude_harmonic": config_text(**harmonics(f"1:{PEAK!r}:0.0, 3:0.0:0.0", "1:0.0:0.0")),
        "zero_amplitude_single_harmonic": config_text(**harmonics("1:0.0:0.0", f"1:{PEAK!r}:{-q!r}")),
        # Zero amplitudes beside a loop of two harmonics on alpha and one on beta.
        "zero_amplitude_two_and_one": config_text(
            **harmonics(f"1:{PEAK!r}:0.0, 3:0.0:0.4, 5:6.5:-0.2", f"1:{PEAK!r}:{-q!r}, 3:0.0:0.1")
        ),
        # The paper's single-phase running mode, on the main winding, from near speed.
        "one_phase_supply": config_text(**harmonics(None, f"1:{PEAK!r}:{-q!r}"), initial_state__omega_mech="150.0"),
        "euler_harmonics": config_text(
            **harmonics(three, three_beta, "0.0:0.4, 0.02:0.7, 0.0350003:0.9", "0.05"), **euler
        ),
        # RK4 starts step k + 1 from step k's end sample where (k - 1) * dt + dt
        # is the float k * dt. At k = 1003 it is not: a load step at k * dt, on
        # the grid, and one at (k - 1) * dt + dt, one ulp later, inside step k + 1.
        "rk4_load_step_at_k_dt": config_text(**stepped(repr(1003 * 1e-4))),
        "rk4_load_step_past_k_dt": config_text(**stepped(repr(1002 * 1e-4 + 1e-4))),
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
    yield from run_digests(work, "dt=0.02", str(config), suffixes=("trace.csv", "summary.txt", "partial_trace.csv"))
    run = tpim.load_config(str(config))
    p = tpim.validate_parameters(run.machine)
    try:
        tpim.integrate(p, tpim.build_scenario(run))
        yield "no failure", "dt=0.02 partial trace channels"
    except tpim.IntegrationError as exc:
        yield sha256(exc.partial_trace.records.tobytes()), f"dt=0.02 partial trace channels (t = {exc.time!r})"

    # Every render branch: both supply modes, both load forms, every optional key.
    every_key = dict(
        integrator__method="euler", integrator__step_size="1e-05", integrator__record_every="7",
        initial_state__psi_s_alpha="0.01", initial_state__psi_s_beta="-0.02",
        initial_state__psi_r_alpha="0.03", initial_state__psi_r_beta="-0.04",
        initial_state__omega_mech="60.0", speed_convention="electrical_state",
        amplitude_is_peak="true", blocked_rotor="true", output__directory="out/every_key",
        output__prefix="every_key", output__emit_plot_script="true",
    )
    variant = HARMONIC_VARIANTS[0]
    validated = {name: name for name in BUNDLED}
    validated[f"harmonic variant {variant}"] = str(work / f"harmonic_{variant}.cfg")
    validated["one_phase_supply"] = str(work / "one_phase_supply.cfg")  # a phase with no harmonics
    for name, text in {
        "every_key_quadrature": config_text(**every_key),
        "every_key_harmonics": config_text(
            **every_key, **harmonics(three, three_beta, "0.0:0.4, 0.02:0.7")
        ),
    }.items():
        config = work / f"{name}.cfg"
        config.write_text(text)
        validated[name] = str(config)
    for name, config in validated.items():
        code, out = cli(["validate", config])
        yield sha256(out.encode()), f"validate {name} (exit {code}) stdout"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for digest, artifact in digests(Path(tmp)):
            print(f"{digest}  {artifact}", flush=True)

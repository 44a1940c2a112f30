"""Bit-identity of the bundled configs' outputs against tools/identity_digests.txt.

The committed file is the output of tools/identity_digests.py. This test
recomputes some of its lines through the command line and compares them with
the file: for the bundled configs, the `run` trace CSV and summary and the
`validate` stdout, and the table of the seed-1 load sweep, whose rows the
sweep's worker processes must return in value order. A change that alters an
output on purpose regenerates the file in the same commit and names each
changed line.
"""

import hashlib
import importlib.util
from pathlib import Path

from tpim.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "identity_digests.txt"
BUNDLED = ("paper_s3", "symmetric_check", "blocked_rotor")
SWEEP_SEED = 1  # as in tools/identity_digests.py


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_committed(digests: dict) -> None:
    committed = dict(reversed(line.split("  ", 1)) for line in DIGESTS.read_text().splitlines())
    assert digests == {artifact: committed.get(artifact) for artifact in digests}, (
        "outputs differ from tools/identity_digests.txt. The digests are specific to the host "
        "that wrote them (libm cos and numpy's reductions can round differently elsewhere); "
        "on that host, a difference is a change of output"
    )


def test_bundled_outputs_match_committed_digests(tmp_path, capsys):
    digests = {}  # artifact -> sha256, as tools/identity_digests.py names them
    for name in BUNDLED:
        code = main(["run", name, "--output-dir", str(tmp_path)])
        for suffix in ("trace.csv", "summary.txt"):
            path = tmp_path / f"{name}_{suffix}"
            digest = sha256(path.read_bytes()) if path.exists() else "missing"
            digests[f"run {name} (exit {code}) {suffix}"] = digest
    for name in BUNDLED:
        capsys.readouterr()
        code = main(["validate", name])
        digests[f"validate {name} (exit {code}) stdout"] = sha256(capsys.readouterr().out.encode())
    assert_committed(digests)


def test_load_sweep_table_matches_committed_digest(tmp_path):
    # The torques of the load_sweep benchmark workload, from its own module.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    torques = ",".join(repr(t) for t in workloads.sweep_torques(SWEEP_SEED))
    code = main(["sweep", "paper_s3", "--axis", "load.torque", "--values", torques,
                 "--output-dir", str(tmp_path)])
    table = sha256((tmp_path / "paper_s3_sweep.csv").read_bytes())
    assert_committed({f"sweep load.torque seed {SWEEP_SEED} (exit {code}) sweep.csv": table})

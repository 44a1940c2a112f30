"""Bit-identity of the bundled configs' outputs against tools/identity_digests.txt.

The committed file is the output of tools/identity_digests.py. This test
recomputes its lines for the bundled configs, the `run` trace CSV and
summary and the `validate` stdout, through the command line, and compares
them with the file. A change that alters an output on purpose regenerates
the file in the same commit and names each changed line.
"""

import hashlib
from pathlib import Path

from tpim.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "identity_digests.txt"
BUNDLED = ("paper_s3", "symmetric_check", "blocked_rotor")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    committed = dict(reversed(line.split("  ", 1)) for line in DIGESTS.read_text().splitlines())
    assert digests == {artifact: committed.get(artifact) for artifact in digests}, (
        "outputs differ from tools/identity_digests.txt. The digests are specific to the host "
        "that wrote them (libm cos and numpy's reductions can round differently elsewhere); "
        "on that host, a difference is a change of output"
    )

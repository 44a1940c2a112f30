"""Bit-identity of every digested output against tools/identity_digests.txt.

tools/identity_digests.py is the one producer of the digests; these tests
only check them. The tool's generator runs once per module, and its {artifact:
sha256} is compared with the committed file, both ways: a changed, missing or
extra artifact fails and is named. The outputs are split between the tests:
the bundled configs' `run` and `validate` outputs, the table of the seed-1
load sweep, and every other line. The generator runs once more with every
C target off (every step loop in Python, the trace CSV by repr), and all
its lines are checked. A change that alters an output on purpose
regenerates the file (`python3 tools/identity_digests.py >
tools/identity_digests.txt`) in the same commit and names each changed line.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tpim import dynamics, output

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool():
    path = sys.path[:]
    spec = importlib.util.spec_from_file_location("identity_digests", TOOLS / "identity_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sys.path == path
    return tool


TOOL = load_tool()


def command(artifact: str) -> str:
    """The artifact's name without its exit code and file: `run paper_s3`."""
    return artifact.split(" (exit ", 1)[0]


def is_bundled(artifact: str) -> bool:
    return command(artifact) in {f"{verb} {name}" for verb in ("run", "validate") for name in TOOL.BUNDLED}


def is_load_sweep(artifact: str) -> bool:
    return command(artifact) == f"sweep load.torque seed {TOOL.SWEEP_SEED}"


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return {artifact: digest for digest, artifact in TOOL.digests(tmp_path_factory.mktemp("identity"))}


def assert_committed(digests: dict, selected) -> None:
    lines = (TOOLS / "identity_digests.txt").read_text().splitlines()
    committed = {a: d for d, a in (line.split("  ", 1) for line in lines) if selected(a)}
    digests = {a: d for a, d in digests.items() if selected(a)}
    assert committed, "no committed line is selected"
    differences = [f"changed: {a}" for a in digests.keys() & committed.keys() if digests[a] != committed[a]]
    differences += [f"not produced: {a}" for a in committed.keys() - digests.keys()]
    differences += [f"not in the file: {a}" for a in digests.keys() - committed.keys()]
    assert not differences, (
        "outputs differ from tools/identity_digests.txt. The digests are specific to the host "
        "that wrote them (libm cos and numpy's reductions can round differently elsewhere); "
        "on that host, a difference is a change of output:\n" + "\n".join(sorted(differences))
    )


def test_bundled_outputs_match_committed_digests(produced):
    assert_committed(produced, is_bundled)


def test_load_sweep_table_matches_committed_digest(produced):
    assert_committed(produced, is_load_sweep)


def test_outputs_match_committed_digests(produced):
    assert_committed(produced, lambda a: not (is_bundled(a) or is_load_sweep(a)))


def test_python_loop_outputs_match_committed_digests(tmp_path, monkeypatch):
    # Every output again with every C target off, as where no cc is on PATH:
    # the step loops in Python, their reference, and the trace CSV by repr,
    # the fallback writer.
    monkeypatch.setattr(dynamics, "_step_loop", dynamics._python_loop)
    monkeypatch.setattr(output, "_c_format_rows", lambda: None)
    assert_committed({artifact: digest for digest, artifact in TOOL.digests(tmp_path)}, lambda a: True)

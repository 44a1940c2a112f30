"""The README's library example, CLI synopsis and install dependencies, the exported names and perfbench's wrapped
names match the code, and every source file parses at the declared Python floor."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import tpim
from tpim.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs_and_exports_resolve():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert "SummaryReport(settle_time=" in out.getvalue()
    assert "EnergyReport(torque_channel='te_ec'" in out.getvalue()

    modules = [tpim] + [
        importlib.import_module(f"tpim.{info.name}") for info in pkgutil.iter_modules(tpim.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_perfbench_entry_points_resolve():
    # `perfbench/run.py --trace 1` wraps each (module, name) it lists by
    # getattr; a name the program no longer has would crash the traced run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(m, name) for m, name, _ in spans.ENTRY_POINTS if not hasattr(importlib.import_module(m), name)]
    assert not missing


def test_readme_cli_synopsis_matches_the_parser():
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) for line in block.splitlines()}
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    options = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in subparsers.items()
    }
    assert synopsis == options


def test_readme_names_the_install_dependencies():
    # A regex, not tomllib: tomllib needs Python 3.11 and tpim supports 3.10.
    listed = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.S | re.M).group(1)
    sentence = re.search(r"^tpim needs (.*?)[;.]\s", README.read_text(), re.S | re.M).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(re.findall(r'"([A-Za-z0-9_.-]+)', listed))


def test_every_source_parses_at_the_declared_python_floor():
    # The suite runs on one interpreter; this catches syntax newer than the
    # floor pyproject.toml declares (except* in 3.11, def f[T] in 3.12).
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    version = (int(floor.group(1)), int(floor.group(2)))
    paths = [path for top in ("src", "tests", "tools", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=version)

"""The README's library example and the exported names match the code."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import tpim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_exports_resolve():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert "SummaryReport(steady_state_reached=True" in out.getvalue()
    assert "EnergyReport(torque_channel='te_ec'" in out.getvalue()

    modules = [tpim] + [
        importlib.import_module(f"tpim.{info.name}") for info in pkgutil.iter_modules(tpim.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)

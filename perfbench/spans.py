"""Span recording around tpim's layer entry points, kept in memory.

The wrappers replace names where the program looks them up at call time
(module globals of tpim.cli, tpim.output, tpim.analysis, tpim.dynamics and
tpim.config, plus the package names the library workload calls), so no
file under src/ changes.
"""

from __future__ import annotations

import importlib
import json
import time
from bisect import bisect_left
from contextlib import contextmanager

# (module, global name, span name). A span is named after the module that
# defines the function, which is the layer it belongs to.
ENTRY_POINTS = (
    ("tpim.cli", "main", "cli.main"),
    ("tpim.cli", "load_config", "config.load_config"),
    ("tpim.cli", "set_axis_value", "config.set_axis_value"),
    ("tpim.cli", "build_scenario", "config.build_scenario"),
    ("tpim.cli", "validate_parameters", "machine.validate_parameters"),
    ("tpim.config", "validate_parameters", "machine.validate_parameters"),
    ("tpim.cli", "integrate", "dynamics.integrate"),
    ("tpim.dynamics", "compile_derivative", "machine.compile_derivative"),
    ("tpim.dynamics", "compile_sources", "excitation.compile_sources"),
    ("tpim.cli", "summarize", "analysis.summarize"),
    ("tpim.output", "summarize", "analysis.summarize"),
    ("tpim.output", "energy_audit", "analysis.energy_audit"),
    ("tpim.analysis", "detect_steady_state", "analysis.detect_steady_state"),
    ("tpim.cli", "write_trace_csv", "output.write_trace_csv"),
    ("tpim.cli", "write_summary", "output.write_summary"),
    ("tpim", "load_config", "config.load_config"),
    ("tpim", "validate_parameters", "machine.validate_parameters"),
    ("tpim", "build_scenario", "config.build_scenario"),
    ("tpim", "integrate", "dynamics.integrate"),
    ("tpim", "energy_audit", "analysis.energy_audit"),
)

ROOT_SPAN = "operation"


@contextmanager
def patched(replacements):
    """Set (module name, global name) -> object for the duration of the block."""
    saved = []
    try:
        for (module_name, attr), new in replacements.items():
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def original(module_name: str, attr: str):
    return getattr(importlib.import_module(module_name), attr)


def paused_ns(pauses: list[tuple[int, int]], start: int, end: int) -> int:
    """Nanoseconds of the time-ordered, disjoint pauses that lie within [start, end]."""
    total = 0
    for a, b in pauses[bisect_left(pauses, (start,)):]:
        if b > end:
            break
        total += b - a
    return total


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def installed(self):
        return patched(
            {(m, attr): self.wrap(span, original(m, attr)) for m, attr, span in ENTRY_POINTS}
        )

    @contextmanager
    def operation(self, op_id: int):
        self._op = op_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def per_operation(self, pauses=()) -> dict[int, dict[str, dict[str, float]]]:
        """For each operation: total and self seconds per span name.

        A span's duration leaves out the pauses (time-ordered (start_ns,
        end_ns) intervals the benchmark spent on itself) that it contains.
        Self time is a span's duration minus the durations of its children;
        children run inside their parent and one after another, so that is
        the part of the parent's interval no child covers. The self times
        of one operation add up to its root span's duration.
        """
        pauses = list(pauses)
        duration = [end - start - paused_ns(pauses, start, end) for _, start, end, _, _ in self.spans]
        child_ns = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child_ns[span[3]] += duration[index]
        ops: dict[int, dict[str, dict[str, float]]] = {}
        for index, (name, _, _, _, op) in enumerate(self.spans):
            entry = ops.setdefault(op, {"total": {}, "self": {}})
            total, self_ = entry["total"], entry["self"]
            total[name] = total.get(name, 0.0) + duration[index] * 1e-9
            self_[name] = self_.get(name, 0.0) + (duration[index] - child_ns[index]) * 1e-9
        return ops

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class CallCounter:
    """Calls of the compiled closures, and the nanoseconds spent inside them."""

    def __init__(self):
        self.calls = 0
        self.ns = 0

    def timed_factory(self, factory):
        """Wrap a closure factory so every closure it returns is counted and timed."""
        clock = time.perf_counter_ns

        def make(*args, **kwargs):
            fn = factory(*args, **kwargs)

            def timed(*a):
                start = clock()
                out = fn(*a)
                self.ns += clock() - start
                self.calls += 1
                return out

            return timed

        return make

    @property
    def ns_per_call(self) -> float:
        return self.ns / self.calls if self.calls else 0.0

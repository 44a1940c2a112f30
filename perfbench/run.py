#!/usr/bin/env python3
"""tpim benchmark: one workload per invocation, as a closed loop in one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rated_run --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from calibration import CAL_REF_S, SpeedGauge, normalise
from spans import ROOT_SPAN, CallCounter, Tracer, original, patched, paused_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("rated_run", "load_sweep", "euler_oracle", "harmonic_step_run")
MIN_OPS = 3  # timed operations per run, however long they take
SETUP_SAMPLES = 7  # fresh interpreters per run for setup_s, after one discarded
CHILD_TIMEOUT_S = 150

# Times a fresh interpreter from before `import tpim` to a built scenario,
# which is what every CLI call pays before integrating. The calibration
# loop runs in the same interpreter, on the core the import ran on.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from calibration import calibration_loop
before = calibration_loop()
start = time.perf_counter()
import tpim
config = tpim.load_config(sys.argv[1])
tpim.validate_parameters(config.machine)
tpim.build_scenario(config)
setup = time.perf_counter() - start
print(repr(setup), repr((before + calibration_loop()) / 2))
"""

# Runs one operation in a fresh interpreter and reports its peak RSS.
RSS_PROBE = """
import resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
outcome = WORKLOADS[sys.argv[2]](int(sys.argv[3]), Path(sys.argv[4])).run()
print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
sys.exit(1 if isinstance(outcome, int) and outcome != 0 else 0)
"""


def run_child(code: str, *args: str) -> list[float]:
    """Run a probe in a fresh interpreter; the numbers it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return [float(word) for word in done.stdout.split()]


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Loop:
    """Closed loop over one workload: each operation starts after the last ends.

    The first operation is the warm-up and is fully verified; every later
    one must produce byte-identical output (determinism), which makes it
    verified too. Each operation starts from a collected heap and writes
    the same files, so GC and file-system state repeat.
    """

    def __init__(self, workload, tally: Tally, gauge: SpeedGauge):
        self.workload = workload
        self.tally = tally
        self.gauge = gauge
        self.baseline = None
        self.baseline_ok = False
        self.residual = float("nan")
        self.factor = 1.0  # speed factor of the last operation
        self.raw: list[float] = []

    def op(self, context=None, sample=True) -> float | None:
        """Run one operation; its normalised wall time, or None when it failed to run."""
        gc.collect()
        sampling = self.gauge.sampling() if sample else contextlib.nullcontext()
        try:
            with sampling, context or contextlib.nullcontext():
                start = time.perf_counter_ns()
                outcome = self.workload.run()
                end = time.perf_counter_ns()
            elapsed = (end - start - paused_ns(self.gauge.pauses, start, end)) * 1e-9
            self.factor = self.gauge.factor()
            digest = self.workload.digest(outcome)
            if self.baseline is None:
                problems, self.residual = self.workload.verify(outcome)
                self.baseline, self.baseline_ok = digest, not problems
            elif digest != self.baseline:
                problems = ["output differs from the first operation of this run"]
            else:
                problems = [] if self.baseline_ok else ["same wrong output as the first operation"]
        except Exception:  # an operation that raises has failed; keep measuring
            self.tally.record([traceback.format_exc()])
            return None
        self.tally.record(problems)
        self.raw.append(elapsed)
        return elapsed * self.factor


def environment(seed: int) -> dict:
    import numpy

    sha = "unknown"  # a checkout exported without .git has no sha
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or sha
        except OSError:
            pass
    caches = {}
    try:
        libc = ctypes.CDLL(None)
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE; the values come from cpuid.
        caches = {"l2_cache_bytes": libc.sysconf(191), "l3_cache_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **caches,
        "calibration_ref_s": CAL_REF_S,
        "seed": seed,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g} / {q2:.6g} / {q3:.6g}"


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    setup, raw_setup = [], []
    try:
        run_child(SETUP_PROBE, workload.setup_config, str(HERE))  # also compiles the checkout's bytecode
        for _ in range(SETUP_SAMPLES):
            raw, per_iteration = run_child(SETUP_PROBE, workload.setup_config, str(HERE))
            raw_setup.append(raw)
            setup.append(normalise(raw, per_iteration))
        (rss,) = run_child(RSS_PROBE, str(HERE), workload.name, str(workload.seed), str(workload.work))
        tally.record([])
    except subprocess.CalledProcessError as exc:
        tally.record([f"probe failed: {exc.stderr[-2000:]}"])
        rss = float("nan")

    loop = Loop(workload, tally, SpeedGauge())
    loop.op()  # warm-up
    loop.raw.clear()
    times = []
    start = time.perf_counter()
    for count in itertools.count():
        if count >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        elapsed = loop.op()
        if elapsed is not None:
            times.append(elapsed)
    wall = median(times)
    print(f"{workload.name}: wall_s is the median of {len(times)} operations "
          f"(quartiles {quartiles(times)}); raw median {median(loop.raw):.6g} s")
    print(f"{workload.name}: setup_s is the median of {len(setup)} fresh interpreters "
          f"(quartiles {quartiles(setup)}); raw median {median(raw_setup):.6g} s")
    return {
        "wall_s": (wall, "s"),
        "steps_per_s": (workload.steps / wall if wall else 0.0, "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "audit_residual_rel": (loop.residual, "ratio"),
    }


SPAN_TOTALS = {
    "cli.main_s": "cli.main",
    "config.load_config_s": "config.load_config",
    "config.build_scenario_s": "config.build_scenario",
    "config.set_axis_value_s": "config.set_axis_value",
    "machine.validate_parameters_s": "machine.validate_parameters",
    "machine.compile_derivative_s": "machine.compile_derivative",
    "excitation.compile_sources_s": "excitation.compile_sources",
    "dynamics.integrate_s": "dynamics.integrate",
    "analysis.summarize_s": "analysis.summarize",
    "analysis.detect_steady_state_s": "analysis.detect_steady_state",
    "analysis.energy_audit_s": "analysis.energy_audit",
    "output.write_trace_csv_s": "output.write_trace_csv",
    "output.write_summary_s": "output.write_summary",
}
SPAN_SELF = {"cli.self_s": "cli.main", "output.summary_self_s": "output.write_summary"}


def per_layer(workload, seconds: float, tally: Tally) -> dict:
    import tpim

    gauge = SpeedGauge()
    loop = Loop(workload, tally, gauge)
    loop.op()  # warm-up
    tracer = Tracer()
    untraced, factors = [], {}
    # Untraced and traced operations alternate, so drift hits both alike.
    start = time.perf_counter()
    for op_id in itertools.count():
        if op_id >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        elapsed = loop.op()
        if elapsed is not None:
            untraced.append(elapsed)
        if loop.op(traced_operation(tracer, op_id)) is not None:
            factors[op_id] = loop.factor
    tracer.dump(workload.work / "spans.json")
    ops = [
        {kind: {name: s * factors[op_id] for name, s in times.items()} for kind, times in op.items()}
        for op_id, op in tracer.per_operation(gauge.pauses).items()
        if op_id in factors
    ]

    metrics = {}
    for name, span in SPAN_TOTALS.items():
        metrics[name] = (median([op["total"].get(span, 0.0) for op in ops]), "s")
    for name, span in SPAN_SELF.items():
        metrics[name] = (median([op["self"].get(span, 0.0) for op in ops]), "s")
    walls = [op["total"][ROOT_SPAN] for op in ops]
    harness = [op["self"][ROOT_SPAN] for op in ops]
    accounted = [sum(op["self"].values()) - op["self"][ROOT_SPAN] for op in ops]
    metrics["trace.wall_s"] = (median(walls), "s")
    metrics["trace.untraced_wall_s"] = (median(untraced), "s")
    metrics["trace.overhead_s"] = (median(walls) - median(untraced), "s")
    metrics["trace.harness_self_s"] = (median(harness), "s")
    metrics["trace.accounted_s"] = (median(accounted), "s")
    worst = max((abs(a + h - w) for a, h, w in zip(accounted, harness, walls)), default=0.0)
    print(f"{workload.name}: {len(ops)} traced and {len(untraced)} untraced operations; "
          f"layer self times + harness self time = traced wall within {worst:.3g} s")

    # Call-level pass: one more operation with every compiled derivative and
    # source sampler counted and timed, and every integrate call captured.
    deriv, sources, runs = CallCounter(), CallCounter(), []

    def capture(integrate):
        def captured(p, scenario):
            trace = integrate(p, scenario)
            runs.append((p, scenario, len(trace)))
            return trace
        return captured

    calls = patched({
        ("tpim.dynamics", "compile_derivative"): deriv.timed_factory(original("tpim.dynamics", "compile_derivative")),
        ("tpim.dynamics", "compile_sources"): sources.timed_factory(original("tpim.dynamics", "compile_sources")),
        ("tpim.cli", "integrate"): capture(original("tpim.cli", "integrate")),
        ("tpim", "integrate"): capture(original("tpim", "integrate")),
    })
    loop.op(calls, sample=False)  # a sample inside a timed call would count as that call's time
    call_factor = loop.factor

    # The same scenarios again, recording only the first and last state.
    step_loop = 0.0
    gauge.factor()
    for p, scenario, _ in runs:
        n_steps = scenario.integrator.n_steps
        bare = replace(scenario, integrator=replace(scenario.integrator, record_every=max(n_steps, 1)))
        gc.collect()
        with gauge.sampling():
            start = time.perf_counter_ns()
            tpim.integrate(p, bare)
            end = time.perf_counter_ns()
        step_loop += (end - start - paused_ns(gauge.pauses, start, end)) * 1e-9 * gauge.factor()

    steps = sum(s.integrator.n_steps for _, s, _ in runs)
    rk4 = sum(s.integrator.n_steps for _, s, _ in runs if s.integrator.method == "rk4")
    records = sum(s.integrator.n_steps // s.integrator.record_every + 1 for _, s, _ in runs)
    computed = {
        "machine.deriv_calls": 4 * rk4 + (steps - rk4),
        "excitation.source_calls": 3 * rk4 + (steps - rk4) + records,
        "dynamics.records": records,
    }
    csv_bytes = workload.csv_path.stat().st_size if workload.csv_path else 0
    integrate_s = metrics["dynamics.integrate_s"][0]
    write_s = metrics["output.write_trace_csv_s"][0]
    metrics.update({
        "machine.deriv_calls": (deriv.calls, "count"),
        "machine.deriv_ns": (deriv.ns_per_call * call_factor, "ns"),
        "excitation.source_calls": (sources.calls, "count"),
        "excitation.sources_ns": (sources.ns_per_call * call_factor, "ns"),
        "dynamics.steps": (steps, "count"),
        "dynamics.records": (sum(n for _, _, n in runs), "count"),
        "dynamics.us_per_step": (integrate_s / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.step_loop_s": (step_loop, "s"),
        "dynamics.record_s": (integrate_s - step_loop, "s"),
        "output.csv_bytes": (csv_bytes, "B"),
        "output.csv_mb_per_s": (csv_bytes / write_s / 1e6 if write_s else 0.0, "MB/s"),
    })
    for name, value in computed.items():
        counted = metrics[name][0]
        print(f"{workload.name}: {name} counted {counted}, computed {value}"
              f"{'' if counted == value else ' (DIFFERS)'}")
    print(f"{workload.name}: output.csv_bytes computed {csv_bytes} from the file size")
    return metrics


@contextlib.contextmanager
def traced_operation(tracer, op_id: int):
    """Spans installed and the operation's root span open."""
    with tracer.installed(), tracer.operation(op_id):
        yield


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tpim" / "__init__.py").is_file():
        print(f"error: no tpim sources at {SRC}; run from the root of a tpim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    print("environment: " + json.dumps(environment(args.seed)))
    print(f"{workload.name}: {workload.why}")
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(workload, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}: {name} = {value!r} {unit}")
    print(f"{workload.name}: failed_fraction = {tally.failed}/{tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A metric that could not be measured (a failed run) is null, not NaN.
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

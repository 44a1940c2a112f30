"""Run the benchmark on every workload and write one BENCH_<n>.json.

From the root of a checkout:

    python3 tools/bench_trajectory.py --out BENCH_8.json

It runs the command that BENCHMARK.json declares (perfbench/run.py) once per
workload, each in its own interpreter and one after the other, always at
seed 1, untraced and for BENCHMARK.json's `run_seconds`, so that points of
the trajectory are comparable. It writes the environment line the benchmark
prints (git sha, Python, numpy, nproc, cache sizes, calibration reference,
seed) with each workload's result object.
`src_clean` says whether `src/` and `perfbench/` matched the commit named
by the sha, so that a file measured on uncommitted code says so. The
benchmark itself is not changed; this script only collects its output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_PREFIX = "environment: "
SEED = 1


def run_workload(command: list[str], workload: str, seconds: float) -> tuple[dict, dict]:
    """The environment line and the result object of one benchmark run."""
    argv = [*command, "--workload", workload, "--seed", str(SEED), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"error: {workload} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    environment = next(json.loads(line[len(ENVIRONMENT_PREFIX):]) for line in lines
                       if line.startswith(ENVIRONMENT_PREFIX))
    return environment, json.loads(lines[-1])


def src_clean() -> bool | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout
    return done.stdout.strip() == ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="file to write, e.g. BENCH_8.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    command = [sys.executable if part in ("python", "python3") else part for part in benchmark["command"]]
    environment, workloads = None, {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        environment, workloads[workload] = run_workload(command, workload, seconds)
    result = {
        "environment": {**environment, "src_clean": src_clean()},
        "seconds": seconds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

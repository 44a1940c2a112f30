"""Command-line interface: run, validate and sweep simulation configs.

Exit codes are part of the contract: 0 success, 1 configuration/validation
failure, records that do not fit in memory or a `sweep` worker that died,
2 numerical failure (non-finite state, timestamp on stderr; `run` also
writes the trace recorded up to the failure as <prefix>_partial_trace.csv).

`run` works in this process alone; its trace CSV is formatted on up to two
threads, one per CPU the process may use. `sweep` runs its rows in forked
workers, one per such CPU (`taskset` limits both), and writes them in value
order, so the table's bytes do not depend on the number of workers.
On Python 3.12 and later `fork` warns of numpy's thread; no worker calls
BLAS.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import ExitStack, suppress
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

from .analysis import SteadyStateNotReachedError, SummaryReport, summarize
from .config import (
    ConfigError,
    RunConfig,
    build_scenario,
    load_config,
    render_config,
    set_axis_value,
    sweepable_axes,
)
from .dynamics import IntegrationError, integrate
from .machine import validate_parameters
from .output import REPORT_SPEED_TOL, usable_cpus, write_plot_script, write_summary, write_trace_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2

_DEFAULT_SWEEP_FIELDS = (
    "final_speed_mech",
    "slip",
    "mean_torque",
    "torque_ripple_pp",
    "settle_time",
)
_SUMMARY_FIELDS = tuple(SummaryReport.__dataclass_fields__)


class _CliError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which would collide with
    # the numerical-failure code; fold usage errors into exit 1 instead.
    def error(self, message):
        raise _CliError(message)


def _speed_tol(text: str) -> float:
    # spread < tol * |mean| never holds for tol <= 0 or nan, and holds for inf
    # wherever the mean is nonzero.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0: {text!r}")
    return value


def _directory(text: str) -> str:
    # A config file rejects an empty output.directory too.
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tpim", description="Two-phase induction motor simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output-dir", type=_directory, help="override output.directory")
    shared.add_argument(
        "--speed-tol",
        type=_speed_tol,
        default=REPORT_SPEED_TOL,
        help="steady-state speed tolerance of the summaries",
    )

    run = sub.add_parser("run", parents=[shared], help="integrate a scenario and write trace + summary")
    run.add_argument("config", help="config file path or bundled config name")
    run.add_argument("--record-every", type=int, help="override integrator.record_every")
    run.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="also write a matplotlib script rendering the trace CSV",
    )

    val = sub.add_parser("validate", help="parse + validate only, echo the resolved config")
    val.add_argument("config", help="config file path or bundled config name")

    sweep = sub.add_parser("sweep", parents=[shared], help="run the config once per axis value")
    sweep.add_argument("config", help="base config file path or bundled config name")
    sweep.add_argument("--axis", required=True, help="dotted numeric parameter path")
    sweep.add_argument("--values", required=True, help="comma-separated numbers")
    sweep.add_argument(
        "--fields",
        default=",".join(_DEFAULT_SWEEP_FIELDS),
        help="comma-separated summary fields to tabulate",
    )
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "output_dir", None):
        config = replace(config, output=replace(config.output, directory=args.output_dir))
    if getattr(args, "record_every", None) is not None:
        try:
            integrator = replace(config.integrator, record_every=args.record_every)
        except ValueError as exc:
            raise ConfigError(f"--record-every: {exc}") from None
        config = replace(config, integrator=integrator)
    if getattr(args, "emit_plot_script", False):
        config = replace(config, output=replace(config.output, emit_plot_script=True))
    return config


def _out_dir(config: RunConfig) -> Path:
    directory = Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    p = config.machine  # load_config validated it
    prefix = config.output.prefix
    scenario = build_scenario(config)
    directory = _out_dir(config)  # before the run, so that a directory that cannot be made costs no run
    try:
        trace = integrate(p, scenario)
    except IntegrationError as exc:
        partial_path = directory / f"{prefix}_partial_trace.csv"
        try:  # the failure stays the error, with its exit code
            write_trace_csv(exc.partial_trace, partial_path)
            print(f"partial trace written to {partial_path}", file=sys.stderr)
        except OSError as error:
            with suppress(OSError):  # leave no truncated file to be read as the partial trace
                partial_path.unlink()
            print(f"error: partial trace not written: {error}", file=sys.stderr)
        raise

    csv_path = directory / f"{prefix}_trace.csv"
    summary_path = directory / f"{prefix}_summary.txt"
    write_trace_csv(trace, csv_path)
    write_summary(trace, p, summary_path, speed_tol=args.speed_tol)
    print(csv_path)
    print(summary_path)
    if config.output.emit_plot_script:
        script_path = directory / f"{prefix}_plot.py"
        write_plot_script(script_path, csv_path.name, prefix)
        print(script_path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    sys.stdout.write(render_config(config))
    return EXIT_OK


def _parse_sweep(args) -> tuple[RunConfig, tuple[float, ...], tuple[str, ...]]:
    """The base config, axis values and summary fields of a sweep command line."""
    base = load_config(args.config)
    base = _apply_overrides(base, args)
    try:
        values = tuple(float(v) for v in args.values.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers: {args.values!r}") from None
    if not values:
        raise ConfigError("--values must name at least one value")
    for value in values:
        # A config file rejects a non-finite number for every key.
        if not math.isfinite(value):
            raise ConfigError(f"--values must be finite numbers, got {value!r}")
    fields = tuple(f.strip() for f in args.fields.split(",") if f.strip())
    if not fields:
        raise ConfigError("--fields must name at least one summary field")
    for name in fields:
        if name not in _SUMMARY_FIELDS:
            raise ConfigError(
                f"unknown summary field {name!r}; choose from {_SUMMARY_FIELDS}"
            )
    # Surface bad axis names before any run; bad values fail their own rows.
    axes = sweepable_axes(base)
    if args.axis not in axes:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; choose one of {axes}")
    return base, values, fields


def _sweep_row(
    base: RunConfig, axis: str, value: float, fields: tuple[str, ...], speed_tol: float
) -> tuple[list[str], str]:
    try:
        config = set_axis_value(base, axis, value)
        p = validate_parameters(config.machine)
        trace = integrate(p, build_scenario(config))
        report = summarize(trace, p, speed_tol=speed_tol)
    except (ValueError, MemoryError, IntegrationError, SteadyStateNotReachedError) as exc:
        return [""] * len(fields), f"failed: {exc}"
    return [repr(getattr(report, name)) for name in fields], "ok"


def _cmd_sweep(args) -> int:
    base, values, fields = _parse_sweep(args)
    out_path = _out_dir(base) / f"{base.output.prefix}_sweep.csv"
    # Imported here: at module top they add import time and memory to every command.
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    row = partial(_sweep_row, base, args.axis, fields=fields, speed_tol=args.speed_tol)
    workers = min(len(values), usable_cpus()) if hasattr(os, "fork") else 1
    with open(out_path, "w", newline="") as f, ExitStack() as stack:
        rows = map(row, values)
        if workers > 1:
            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)  # an error drops the queued rows
            rows = pool.map(row, values)
        writer = csv.writer(f)
        writer.writerow([args.axis, *fields, "status"])
        try:
            for value in values:
                cells, status = next(rows)
                writer.writerow([repr(value), *cells, status])
        except BrokenExecutor as exc:
            print(f"error: sweep worker died; no row from {args.axis} = {value!r} on: {exc}", file=sys.stderr)
            return EXIT_INVALID
    print(out_path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sweep(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IntegrationError as exc:
        print(f"numerical failure at t = {exc.time:.9g} s: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

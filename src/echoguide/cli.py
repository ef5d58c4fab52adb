"""Simulation harness CLI: run scenarios, report accuracy, check traces.

Subcommands:
  run         simulate a scenario script and write its trace (JSON lines)
  report      aggregate measurement accuracy from one or more traces
  assert      check eventually/never expectations against a trace
  experiment  run the fixed-grid distance-accuracy sweep
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional

from .config import SystemConfig, load_config
from .errors import ConfigError, ScenarioError
from .harness import (
    EXPERIMENT_SEED,
    assert_expectations,
    distance_error_experiment,
    error_report,
    load_expectations,
    run_scenario,
)
from .server import StorageError
from .trace import TraceLog
from .world import load_scenario


def _summarize(trace: TraceLog) -> str:
    counts = trace.kind_counts() + Counter(e["outcome"] for e in trace.kind("upload"))
    parts = [
        f"{len(trace)} events",
        f"{counts['measurement']} measurements",
        f"{counts['alert']} alerts",
        f"{counts['speak']} announcements",
        f"{counts['delivered']}/{counts['delivered'] + counts['queued']} uploads delivered",
        f"{counts['call']} calls",
    ]
    return ", ".join(parts)


def _write_trace(trace: TraceLog, path: Optional[str]) -> None:
    if path:
        trace.write(path)
        print(f"trace written to {path}")


def _print_report(traces: list[TraceLog], out: Optional[str]) -> None:
    """Print the accuracy table of the traces, and write it as JSON to out if given."""
    report = error_report(traces)
    print(report.table())
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")


def cmd_run(args: argparse.Namespace) -> int:
    script = load_scenario(args.scenario)
    config = load_config(args.config) if args.config else SystemConfig.default()
    trace = run_scenario(script, config, seed=args.seed, store_path=args.store)
    _write_trace(trace, args.trace)
    print(_summarize(trace))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _print_report([TraceLog.read(path) for path in args.trace], args.out)
    return 0


def cmd_assert(args: argparse.Namespace) -> int:
    trace = TraceLog.read(args.trace)
    patterns = load_expectations(args.expect)
    ok, message = assert_expectations(trace, patterns)
    print(("PASS: " if ok else "FAIL: ") + message)
    return 0 if ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else SystemConfig.default()
    trace = distance_error_experiment(config, seed=args.seed)
    _write_trace(trace, args.trace)
    _print_report([trace], args.out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echoguide-sim",
        description="Deterministic simulator for the ultrasonic guidance system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario script")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--config", default=None, help="system config JSON path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--trace", default=None, help="write the trace here (JSON lines)")
    p_run.add_argument("--store", default=None,
                       help="persist uploaded fixes to this JSON-lines file")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="accuracy report from trace files")
    p_report.add_argument("--trace", required=True, nargs="+",
                          help="one or more trace files")
    p_report.add_argument("--out", default=None, help="also write the report as JSON")
    p_report.set_defaults(func=cmd_report)

    p_assert = sub.add_parser("assert", help="check expectations against a trace")
    p_assert.add_argument("--trace", required=True, help="trace file")
    p_assert.add_argument("--expect", required=True, help="expectation JSON file")
    p_assert.set_defaults(func=cmd_assert)

    p_exp = sub.add_parser("experiment", help="fixed-grid distance accuracy sweep")
    p_exp.add_argument("--config", default=None, help="system config JSON path")
    p_exp.add_argument("--seed", type=int, default=EXPERIMENT_SEED)
    p_exp.add_argument("--trace", default=None, help="write the sweep trace here")
    p_exp.add_argument("--out", default=None, help="also write the report as JSON")
    p_exp.set_defaults(func=cmd_experiment)

    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # OSError: a missing or unreadable file; StorageError: a corrupt --store
    except (ScenarioError, ConfigError, StorageError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None and exc.strerror:
            message = f"{exc.filename}: {exc.strerror}"  # the file first, as the loaders put it
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

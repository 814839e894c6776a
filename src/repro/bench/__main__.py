"""CLI for the benchmark harness.

Run a suite and write a BENCH document (``run`` may be omitted)::

    python -m repro.bench --suite smoke --json-out BENCH_<rev>.json
    python -m repro.bench run --suite full --json-out results/BENCH_<rev>.json

``<rev>`` in the output path is replaced with the detected revision.

Diff two BENCH documents (exit 1 on regression)::

    python -m repro.bench compare benchmarks/baselines/BENCH_baseline.json \\
        BENCH_abc1234.json --max-slowdown 0

List the registered scenarios::

    python -m repro.bench list
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import DEFAULT_REPEATS, detect_revision, run_suite
from .scenarios import SCENARIOS, suite_names
from .schema import compare_bench, read_bench, render_compare, write_bench

_COMMANDS = ("run", "compare", "list")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run benchmark suites and diff their BENCH documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and emit a BENCH document")
    run.add_argument(
        "--suite",
        default="smoke",
        choices=suite_names(),
        help="scenario suite to run (default: smoke)",
    )
    run.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the BENCH document here; '<rev>' expands to the "
        "detected revision (default: print to stdout)",
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help=f"timing repeats per scenario (default: {DEFAULT_REPEATS})",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress"
    )
    run.add_argument(
        "--profile-out",
        metavar="PATH",
        help="run the suite under the repro.profile sampling profiler "
        "and write the stack samples here as JSONL",
    )
    run.add_argument(
        "--timeseries-out",
        metavar="PATH",
        help="run the suite under the repro.profile flight recorder "
        "(and repro.obs metrics, which its frames read) and write the "
        "telemetry frames here as JSONL",
    )

    compare = sub.add_parser(
        "compare", help="diff two BENCH documents; exit 1 on regression"
    )
    compare.add_argument("baseline", help="baseline BENCH JSON path")
    compare.add_argument("current", help="current BENCH JSON path")
    compare.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail if a median is this many times the baseline; "
        "0 disables the timing gate, e.g. across machines (default: 2.0)",
    )
    compare.add_argument(
        "--max-error-increase",
        type=float,
        default=0.05,
        help="fail if relative error grows by more than this (default: 0.05)",
    )
    compare.add_argument(
        "--max-bytes-growth",
        type=float,
        default=1.05,
        help="fail if sketch bytes exceed this ratio of baseline "
        "(default: 1.05)",
    )

    sub.add_parser("list", help="list registered scenarios and suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # `run` is the default subcommand: `python -m repro.bench --suite smoke`.
    if argv and argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for scenario in SCENARIOS:
            suites = ", ".join(sorted(scenario.suites))
            print(f"{scenario.name}  [{suites}]")
            print(f"    {scenario.description}")
        return 0

    if args.command == "run":
        profiling = bool(args.profile_out or args.timeseries_out)
        if profiling:
            from ..obs import METRICS
            from ..profile import (
                PROFILER,
                RECORDER,
                write_profile_jsonl,
                write_timeseries_jsonl,
            )

            if args.profile_out:
                PROFILER.reset()
                PROFILER.start()
            if args.timeseries_out:
                # The recorder's frames are METRICS counter deltas.
                METRICS.reset()
                METRICS.enable()
                RECORDER.reset()
                RECORDER.start()
        try:
            progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
            doc = run_suite(args.suite, repeats=args.repeats, progress=progress)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if profiling:
                PROFILER.stop()
                RECORDER.stop()
                if args.timeseries_out:
                    METRICS.disable()
        if profiling:
            try:
                if args.profile_out:
                    snap = PROFILER.snapshot()
                    write_profile_jsonl(args.profile_out, snap)
                    print(
                        f"wrote {args.profile_out} "
                        f"({len(snap['samples'])} stack samples)"
                    )
                if args.timeseries_out:
                    snap = RECORDER.snapshot()
                    write_timeseries_jsonl(args.timeseries_out, snap)
                    print(
                        f"wrote {args.timeseries_out} "
                        f"({len(snap['frames'])} telemetry frames)"
                    )
            except OSError as exc:
                print(f"error: cannot write profile output: {exc}", file=sys.stderr)
                return 1
        if args.json_out:
            path = args.json_out.replace("<rev>", detect_revision())
            try:
                write_bench(path, doc)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {path} ({len(doc['records'])} records)")
        else:
            print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    # compare
    try:
        baseline = read_bench(args.baseline)
        current = read_bench(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows, regressions = compare_bench(
        baseline,
        current,
        max_slowdown=args.max_slowdown,
        max_error_increase=args.max_error_increase,
        max_bytes_growth=args.max_bytes_growth,
    )
    print(
        f"baseline {baseline['revision']} ({baseline['suite']}) vs "
        f"current {current['revision']} ({current['suite']})"
    )
    print(render_compare(rows, regressions))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI for the adversarial-workload accuracy harness.

Run a suite and write an ACCURACY document (``run`` may be omitted)::

    python -m repro.workloads --suite smoke --json-out ACCURACY_<rev>.json
    python -m repro.workloads run --suite full --json-out out/ACCURACY_<rev>.json

``<rev>`` in the output path is replaced with the detected revision.

Diff two ACCURACY documents (exit 1 on accuracy regression)::

    python -m repro.workloads compare \\
        benchmarks/baselines/ACCURACY_baseline.json ACCURACY_abc1234.json

List the corpus families::

    python -m repro.workloads list

Prove the corpus/harness invariants end-to-end (determinism, audit
coverage)::

    python -m repro.workloads selfcheck
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import FAMILIES, build_workload, family_names, suite_names
from .harness import (
    DEFAULT_DEPTH,
    DEFAULT_ENGINE_SEED,
    DEFAULT_WIDTH,
    detect_revision,
    run_suite,
    run_workload,
)
from .schema import (
    DEFAULT_MAX_COVERAGE_DROP,
    DEFAULT_MAX_ERROR_INCREASE,
    compare_accuracy,
    read_accuracy,
    render_compare,
    write_accuracy,
)

_COMMANDS = ("run", "compare", "list", "selfcheck")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run adversarial workload suites and gate their "
        "ACCURACY trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and emit an ACCURACY document")
    run.add_argument(
        "--suite",
        default="smoke",
        choices=suite_names(),
        help="corpus suite to run (default: smoke)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default: 0)"
    )
    run.add_argument(
        "--width",
        type=int,
        default=DEFAULT_WIDTH,
        help=f"sketch width (default: {DEFAULT_WIDTH})",
    )
    run.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_DEPTH,
        help=f"sketch depth (default: {DEFAULT_DEPTH})",
    )
    run.add_argument(
        "--engine-seed",
        type=int,
        default=DEFAULT_ENGINE_SEED,
        help=f"hash-family seed (default: {DEFAULT_ENGINE_SEED})",
    )
    run.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the ACCURACY document here; '<rev>' expands to the "
        "detected revision (default: print to stdout)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-workload progress"
    )

    compare = sub.add_parser(
        "compare", help="diff two ACCURACY documents; exit 1 on regression"
    )
    compare.add_argument("baseline", help="baseline ACCURACY JSON path")
    compare.add_argument("current", help="current ACCURACY JSON path")
    compare.add_argument(
        "--max-error-increase",
        type=float,
        default=DEFAULT_MAX_ERROR_INCREASE,
        help="fail if a workload's max realized relative error grows by "
        f"more than this (default: {DEFAULT_MAX_ERROR_INCREASE})",
    )
    compare.add_argument(
        "--max-coverage-drop",
        type=float,
        default=DEFAULT_MAX_COVERAGE_DROP,
        help="fail if a workload's CI-coverage rate drops by more than "
        f"this (default: {DEFAULT_MAX_COVERAGE_DROP})",
    )

    sub.add_parser("list", help="list corpus families and suites")

    sub.add_parser(
        "selfcheck",
        help="prove corpus determinism and audit coverage",
    )
    return parser


def _cmd_list() -> int:
    for name in family_names():
        family = FAMILIES[name]
        suites = ", ".join(sorted(family.suites))
        print(f"{name}  [{suites}]")
        print(f"    {family.description}")
    return 0


def _cmd_selfcheck() -> int:
    """Exercise the full corpus + harness contract; print PASS/FAIL lines."""
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"  {status}  {label}{suffix}")
        if not ok:
            failures += 1

    print("repro.workloads selfcheck")
    for name in family_names():
        first = build_workload(name, seed=0)
        again = build_workload(name, seed=0)
        other = build_workload(name, seed=1)
        check(
            f"{name}: same seed => byte-identical corpus",
            first.fingerprint() == again.fingerprint(),
        )
        check(
            f"{name}: different seed => different corpus",
            first.fingerprint() != other.fingerprint(),
        )

    record = run_workload(build_workload("delete_churn", seed=0))
    check(
        "delete_churn: every query audited with exact ground truth",
        all("exact" in q and "covered" in q for q in record["queries"]),
        f"{len(record['queries'])} queries",
    )
    check(
        "delete_churn: realized errors finite",
        all(
            q["realized_relative_error"] == q["realized_relative_error"]
            and q["realized_relative_error"] != float("inf")
            for q in record["queries"]
        ),
        f"max={record['max_realized_relative_error']:.4f}",
    )
    if failures:
        print(f"selfcheck FAILED ({failures} checks)")
        return 1
    print("selfcheck OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # `run` is the default subcommand: `python -m repro.workloads --suite smoke`.
    if argv and argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        return _cmd_list()

    if args.command == "selfcheck":
        return _cmd_selfcheck()

    if args.command == "run":
        try:
            progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
            doc = run_suite(
                args.suite,
                seed=args.seed,
                width=args.width,
                depth=args.depth,
                engine_seed=args.engine_seed,
                progress=progress,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.json_out:
            path = args.json_out.replace("<rev>", detect_revision())
            try:
                write_accuracy(path, doc)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {path} ({len(doc['records'])} records)")
        else:
            print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    # compare
    try:
        baseline = read_accuracy(args.baseline)
        current = read_accuracy(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows, regressions = compare_accuracy(
        baseline,
        current,
        max_error_increase=args.max_error_increase,
        max_coverage_drop=args.max_coverage_drop,
    )
    print(
        f"baseline {baseline['revision']} ({baseline['suite']}) vs "
        f"current {current['revision']} ({current['suite']})"
    )
    print(render_compare(rows, regressions))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.analysis`` — the linter's command-line front end.

Exit codes (stable contract, relied on by ``make lint`` and CI):

* ``0`` — every analysed file is clean;
* ``1`` — at least one finding survived suppression (or, for the
  ``suppressions`` subcommand with ``--strict``, a reason-less
  suppression exists);
* ``2`` — usage error (unknown flag, unknown rule id, missing path).

Besides linting, the CLI exports machine-readable artifacts: ``--json``
(the native report), ``--sarif FILE`` (SARIF 2.1.0 for GitHub code
scanning, written before the exit code is returned, so a failing run
still leaves its SARIF behind), and the ``suppressions`` audit
subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .engine import analyze_paths
from .registry import all_rules, catalogue


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (separate for testability/docs)."""
    rule_ids = ", ".join(rule.rule_id for rule in all_rules())
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Domain-invariant static analysis for the skimmed-sketch "
            f"kernels (rules: {rule_ids}; see docs/STATIC_ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--catalogue",
        action="store_true",
        help="print the rule catalogue (derived from rule docstrings) and exit",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="also write the report as SARIF 2.1.0 to FILE ('-' for stdout)",
    )
    return parser


def build_suppressions_parser() -> argparse.ArgumentParser:
    """Parser for the ``suppressions`` audit subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis suppressions",
        description=(
            "Audit every '# repro: noqa' site: rule(s), git-blame age, and "
            "the reason comment.  With --strict, reason-less suppressions "
            "fail the run (exit 1)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to audit (default: src)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any suppression lacks a reason comment",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the audit as JSON instead of text",
    )
    parser.add_argument(
        "--no-blame",
        action="store_true",
        help="skip git blame (faster; age reported as 'unknown')",
    )
    return parser


def _write_artifact(path: str, payload: dict[str, object]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _suppressions_main(argv: Sequence[str]) -> int:
    from .suppress import audit

    parser = build_suppressions_parser()
    args = parser.parse_args(argv)
    try:
        suppressions, exit_code = audit(
            args.paths, strict=args.strict, with_age=not args.no_blame
        )
    except FileNotFoundError as exc:
        parser.error(f"no such file or directory: {exc.args[0]}")
    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": [
                        {
                            "path": s.path,
                            "line": s.line,
                            "rules": list(s.rules),
                            "reason": s.reason,
                            "age": s.age,
                        }
                        for s in suppressions
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for suppression in suppressions:
            print(suppression.render())
        reasonless = sum(1 for s in suppressions if not s.reason)
        print(
            f"{len(suppressions)} suppression(s), {reasonless} without a reason",
            file=sys.stderr,
        )
    return exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "suppressions":
        return _suppressions_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.catalogue:
        try:
            print("\n".join(catalogue()))
        except BrokenPipeError:  # `... --catalogue | head` closed the pipe
            sys.stderr.close()
        return 0

    select: list[str] | None = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        if not select:
            parser.error("--select given but no rule ids parsed")

    try:
        report = analyze_paths(args.paths, select=select)
    except KeyError as exc:
        parser.error(f"unknown rule id {exc.args[0]!r}")
    except FileNotFoundError as exc:
        parser.error(f"no such file or directory: {exc.args[0]}")

    if args.sarif:
        from .sarif import to_sarif

        _write_artifact(args.sarif, to_sarif(report))

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} "
            f"file(s) ({report.suppressed} suppressed)"
        )
        print(summary if report.findings else f"clean: {summary}", file=sys.stderr)
    return report.exit_code()

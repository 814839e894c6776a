"""File collection and rule execution.

``analyze_paths`` is the one entry point: it expands directories into
Python files (skipping caches, VCS internals, and — crucially — the
linter's own ``analysis_fixtures``, so the shipped repo lints clean
while fixtures still fire when named explicitly), parses each file once,
runs every applicable rule, and applies ``# repro: noqa`` suppressions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .context import FIXTURE_MARKER, FileContext
from .findings import PARSE_ERROR_RULE, Finding
from .registry import Rule, get_rules

#: Directory names never descended into during a walk.  Explicitly named
#: files are always analysed, which is how the self-tests lint fixtures.
EXCLUDED_DIRS = frozenset(
    {
        FIXTURE_MARKER,
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        "build",
        "dist",
    }
)


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def counts(self) -> dict[str, int]:
        """Findings per rule id, sorted by id."""
        out: dict[str, int] = {}
        for f in sorted(self.findings, key=lambda f: f.rule):
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def exit_code(self) -> int:
        """0 when clean, 1 when any finding survived suppression."""
        return 1 if self.findings else 0

    def to_dict(self) -> dict[str, object]:
        """The JSON report schema (see ``docs/STATIC_ANALYSIS.md``)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "counts": self.counts,
            "findings": [f.to_dict() for f in self.findings],
        }


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand ``paths`` into Python files, deterministically ordered.

    Directories are walked recursively minus :data:`EXCLUDED_DIRS` and
    hidden directories; explicitly named files are yielded as-is (even
    fixtures).  Raises ``FileNotFoundError`` for a path that does not
    exist — the CLI maps that to a usage error.
    """
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in EXCLUDED_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise FileNotFoundError(path)


def analyze_source(
    source: str, path: str = "<string>", rules: Iterable[Rule] | None = None
) -> tuple[list[Finding], int]:
    """Run rules over one source string; returns (findings, suppressed)."""
    chosen = list(rules) if rules is not None else get_rules()
    try:
        ctx = FileContext.from_source(path, source)
    except SyntaxError as exc:
        finding = Finding(
            PARSE_ERROR_RULE,
            path,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            f"file does not parse: {exc.msg}",
        )
        return [finding], 0
    findings: list[Finding] = []
    suppressed = 0
    for rule in chosen:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def analyze_paths(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> Report:
    """Analyse every Python file reachable from ``paths``, one at a time."""
    rules = get_rules(select)
    report = Report()
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.files_scanned += 1
        findings, suppressed = analyze_source(source, filename, rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
    report.findings.sort(key=Finding.sort_key)
    return report

"""Tests for the linter's export and audit surfaces.

Covers: SARIF 2.1.0 export (library and CLI), and the suppressions
audit (including the tokenize-based docstring-example exclusion and
``--strict`` gating).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.cli import main
from repro.analysis.sarif import to_sarif
from repro.analysis.suppress import audit, collect_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


class TestSarifExport:
    def test_sarif_schema_and_results(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/bad_r1.py")])
        sarif = to_sarif(report)
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"R1", "R2", "R3", "R4", "R5", "R6"}
        assert len(run["results"]) == len(report.findings) == 3
        for result in run["results"]:
            assert result["ruleId"] == "R1"
            assert result["level"] == "error"
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_cli_writes_sarif_file(self, tmp_path):
        out = tmp_path / "out.sarif"
        bad = FIXTURES / "src/repro/sketches/bad_r1.py"
        assert main(["--sarif", str(out), str(bad)]) == 1
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        assert len(sarif["runs"][0]["results"]) == 3


class TestSuppressionsAudit:
    def test_collect_parses_rules_and_reason(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1  # repro: noqa[R1] -- dispatch gate\n"
            "y = 2  # repro: noqa\n"
        )
        sites = collect_suppressions([str(target)], with_age=False)
        assert [(s.line, s.rules, s.reason) for s in sites] == [
            (1, ("R1",), "dispatch gate"),
            (2, (), ""),
        ]

    def test_docstring_examples_are_not_suppressions(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            '"""Docs.\n\nExample::\n\n    x = 1  # repro: noqa[R1]\n"""\n'
        )
        assert collect_suppressions([str(target)], with_age=False) == []

    def test_strict_fails_on_reasonless(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("y = 2  # repro: noqa[R2]\n")
        _, exit_code = audit([str(target)], strict=True, with_age=False)
        assert exit_code == 1
        _, exit_code = audit([str(target)], strict=False, with_age=False)
        assert exit_code == 0

    def test_cli_subcommand(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro: noqa[R1] -- why not\n")
        assert main(["suppressions", str(target), "--strict", "--no-blame"]) == 0
        out = capsys.readouterr().out
        assert "noqa[R1]" in out
        assert "why not" in out

    def test_cli_subcommand_json(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro: noqa[R1]\n")
        assert (
            main(["suppressions", str(target), "--json", "--no-blame"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["suppressions"][0]["rules"] == ["R1"]
        assert payload["suppressions"][0]["reason"] == ""

    def test_repo_suppressions_all_have_reasons(self):
        _, exit_code = audit(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "examples"),
                str(REPO_ROOT / "benchmarks"),
            ],
            strict=True,
            with_age=False,
        )
        assert exit_code == 0

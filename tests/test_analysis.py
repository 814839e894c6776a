"""Tests for ``repro.analysis`` — the domain-invariant linter.

Covers: every rule firing on a bad fixture and staying quiet on a good
one, suppression comments, role classification, CLI exit-code semantics
(0 clean / 1 findings / 2 usage error), the JSON report schema, the
docstring-derived catalogue, the dependency-free import constraint, and
a meta-test asserting the shipped repository lints clean.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Role,
    all_rules,
    analyze_paths,
    analyze_source,
    classify,
)
from repro.analysis.cli import main
from repro.analysis.context import parse_suppressions, subpackage
from repro.analysis.engine import iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
RULE_IDS = ["R1", "R2", "R3", "R4", "R5", "R6"]

#: fixture id -> (rule id, bad fixture, expected finding count, good fixture)
FIXTURE_MAP = {
    "R1": ("R1", "src/repro/sketches/bad_r1.py", 3, "src/repro/sketches/good_r1.py"),
    "R2": ("R2", "src/repro/sketches/bad_r2.py", 4, "src/repro/sketches/good_r2.py"),
    "R3": ("R3", "src/repro/streams/bad_r3.py", 3, "src/repro/streams/good_r3.py"),
    "R3-TRACER": (
        "R3",
        "src/repro/streams/bad_r3_tracer.py",
        2,
        "src/repro/streams/good_r3_tracer.py",
    ),
    "R3-AUDIT": (
        "R3",
        "src/repro/streams/bad_r3_audit.py",
        2,
        "src/repro/streams/good_r3_audit.py",
    ),
    "R4": ("R4", "src/repro/streams/bad_r4.py", 2, "src/repro/streams/good_r4.py"),
    "R5": ("R5", "src/repro/streams/bad_r5.py", 2, "src/repro/streams/good_r5.py"),
    "R6": ("R6", "src/repro/streams/bad_r6.py", 3, "src/repro/streams/good_r6.py"),
}


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI exactly as `make lint` / CI invoke it (module subprocess)."""
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


class TestRegistry:
    def test_all_rules_registered(self):
        assert [r.rule_id for r in all_rules()] == RULE_IDS

    def test_rules_have_titles_and_docstrings(self):
        for rule in all_rules():
            assert rule.title, rule.rule_id
            assert rule.__doc__ and "Example violation" in rule.__doc__


class TestRulesOnFixtures:
    @pytest.mark.parametrize("fixture_id", sorted(FIXTURE_MAP))
    def test_bad_fixture_fires(self, fixture_id):
        rule_id, bad, expected, _ = FIXTURE_MAP[fixture_id]
        report = analyze_paths([str(FIXTURES / bad)])
        assert {f.rule for f in report.findings} == {rule_id}
        assert len(report.findings) == expected

    @pytest.mark.parametrize("fixture_id", sorted(FIXTURE_MAP))
    def test_good_fixture_is_clean(self, fixture_id):
        _, _, _, good = FIXTURE_MAP[fixture_id]
        report = analyze_paths([str(FIXTURES / good)])
        assert report.findings == []

    def test_every_rule_has_a_fixture(self):
        assert sorted({rule for rule, _, _, _ in FIXTURE_MAP.values()}) == RULE_IDS

    def test_findings_carry_location(self):
        _, bad, _, _ = FIXTURE_MAP["R1"]
        report = analyze_paths([str(FIXTURES / bad)])
        for finding in report.findings:
            assert finding.line > 0
            assert finding.path.endswith("bad_r1.py")
            assert "dtype" in finding.message

    def test_syntax_error_reported_as_e1(self):
        report = analyze_paths([str(FIXTURES / "src/repro/streams/bad_syntax.py")])
        assert [f.rule for f in report.findings] == ["E1"]

    def test_test_role_is_exempt(self):
        report = analyze_paths([str(FIXTURES / "tests/test_role_exempt.py")])
        assert report.findings == []


class TestWorkloadsPackageFixtures:
    """R6 coverage for the repro.workloads corpus package.

    The seeded-RNG rule is load-bearing there: an unseeded generator in a
    family builder would break corpus byte-determinism and with it the
    whole ACCURACY compare gate.
    """

    def test_unseeded_corpus_builder_fires_r6(self):
        report = analyze_paths(
            [str(FIXTURES / "src/repro/workloads/bad_r6.py")]
        )
        assert [f.rule for f in report.findings] == ["R6"]

    def test_seeded_corpus_builder_is_clean(self):
        report = analyze_paths(
            [str(FIXTURES / "src/repro/workloads/good_r6.py")]
        )
        assert report.findings == []


class TestSuppression:
    def test_noqa_comments_suppress(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/suppressed.py")])
        assert report.findings == []
        assert report.suppressed == 2

    def test_noqa_is_rule_specific(self):
        findings, suppressed = analyze_source(
            "import numpy as np\n"
            "x = np.zeros(3)  # repro: noqa[R5]\n",
            path="src/repro/sketches/fake.py",
        )
        assert [f.rule for f in findings] == ["R1"]
        assert suppressed == 0

    def test_parse_suppressions_forms(self):
        sup = parse_suppressions(
            "a = 1  # repro: noqa\n"
            "b = 2  # repro: noqa[R1,R3]\n"
            "c = 3  # unrelated comment\n"
        )
        assert sup[1] is None
        assert sup[2] == frozenset({"R1", "R3"})
        assert 3 not in sup


class TestClassification:
    @pytest.mark.parametrize(
        "path,role",
        [
            ("src/repro/sketches/hash_sketch.py", Role.KERNEL),
            ("src/repro/hashing/kwise.py", Role.KERNEL),
            ("src/repro/core/skim.py", Role.KERNEL),
            ("src/repro/streams/engine.py", Role.LIBRARY),
            ("src/repro/errors.py", Role.LIBRARY),
            ("tests/test_skim.py", Role.TEST),
            ("tests/conftest.py", Role.TEST),
            ("examples/quickstart.py", Role.SCRIPT),
            ("benchmarks/bench_update.py", Role.SCRIPT),
            ("setup.py", Role.UNKNOWN),
            ("src/repro/workloads/corpus.py", Role.LIBRARY),
            # Fixtures mirror the repo layout below the marker.
            ("tests/analysis_fixtures/src/repro/sketches/bad_r1.py", Role.KERNEL),
            ("tests/analysis_fixtures/tests/test_role_exempt.py", Role.TEST),
        ],
    )
    def test_classify(self, path, role):
        assert classify(path) is role

    def test_subpackage(self):
        assert subpackage("src/repro/sketches/hash_sketch.py") == "sketches"
        assert subpackage("src/repro/errors.py") == ""
        assert subpackage("examples/quickstart.py") is None

    def test_walk_skips_fixture_dirs(self):
        files = list(iter_python_files(["tests"]))
        assert files, "tests directory should contain python files"
        assert not any("analysis_fixtures" in f for f in files)


class TestCLI:
    def test_exit_zero_on_clean_file(self, capsys):
        _, _, _, good = FIXTURE_MAP["R1"]
        assert main([str(FIXTURES / good)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_exit_one_on_findings(self, capsys):
        _, bad, expected, _ = FIXTURE_MAP["R5"]
        assert main([str(FIXTURES / bad)]) == 1
        out = capsys.readouterr().out
        assert out.count(" R5 ") == expected

    def test_exit_two_on_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2

    def test_exit_two_on_missing_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no/such/path.py"])
        assert exc.value.code == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--select", "R99", "src"])
        assert exc.value.code == 2

    def test_select_restricts_rules(self, capsys):
        _, bad, _, _ = FIXTURE_MAP["R1"]
        assert main(["--select", "R5", str(FIXTURES / bad)]) == 0

    def test_catalogue_lists_every_rule(self, capsys):
        assert main(["--catalogue"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^(R\d+) — ", out, flags=re.MULTILINE)
        assert sorted(listed) == RULE_IDS

    def test_json_report_schema(self, capsys):
        _, bad, expected, _ = FIXTURE_MAP["R3"]
        assert main(["--json", str(FIXTURES / bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["files_scanned"] == 1
        assert report["counts"] == {"R3": expected}
        assert len(report["findings"]) == expected
        for finding in report["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_module_invocation_matches_make_lint(self):
        proc = run_cli("src", "tests")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_module_invocation_exit_one(self):
        _, bad, _, _ = FIXTURE_MAP["R2"]
        proc = run_cli(str(FIXTURES / bad))
        assert proc.returncode == 1


class TestRepositoryIsClean:
    def test_shipped_repo_lints_clean(self):
        report = analyze_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

    def test_examples_and_benchmarks_lint_clean(self):
        report = analyze_paths(
            [str(REPO_ROOT / "examples"), str(REPO_ROOT / "benchmarks")]
        )
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )


def _mypy_available() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(
    not _mypy_available(), reason="mypy not installed (pip install -e .[lint])"
)
def test_mypy_strict_on_kernels():
    """`[tool.mypy]` in pyproject.toml holds: kernels pass strict mode."""
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDependencyFreedom:
    """repro.analysis must be importable with no numpy and no repro deps."""

    def _analysis_parent_dir(self) -> str:
        import repro.analysis

        return str(Path(repro.analysis.__file__).resolve().parent.parent)

    def test_analysis_does_not_import_numpy(self):
        code = (
            "import sys; sys.path.insert(0, {path!r}); import analysis; "
            "assert 'numpy' not in sys.modules, "
            "'repro.analysis must not import numpy'; "
            "assert 'repro' not in sys.modules, "
            "'repro.analysis must not import the parent package'"
        ).format(path=self._analysis_parent_dir())
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_standalone_analysis_still_lints(self, tmp_path):
        bad = FIXTURES / "src/repro/sketches/bad_r1.py"
        code = (
            "import sys; sys.path.insert(0, {path!r}); import analysis; "
            "report = analysis.analyze_paths([{bad!r}]); "
            "assert len(report.findings) == 3, report.findings"
        ).format(path=self._analysis_parent_dir(), bad=str(bad))
        subprocess.run([sys.executable, "-c", code], check=True)

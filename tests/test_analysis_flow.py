"""Tests for ``repro.analysis.flow`` and the interprocedural passes.

Covers: call-graph name resolution (imports, relative imports, package
re-exports, CHA method dispatch), call-path queries, the dtype lattice
(hypothesis-checked algebraic laws) and abstract interpreter, R9/R11
finding messages naming the offending call path, SARIF 2.1.0 export,
and the suppressions audit (including the tokenize-based
docstring-example exclusion and ``--strict`` gating).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.cli import main
from repro.analysis.context import FileContext
from repro.analysis.flow import (
    BOTTOM,
    DTYPES,
    UNKNOWN,
    CallGraph,
    DtypeInterpreter,
    ProjectContext,
    join,
    module_name_for_path,
)
from repro.analysis.rules.r9_linearity import classify_purity
from repro.analysis.sarif import to_sarif
from repro.analysis.suppress import audit, collect_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def _project(*files: tuple[str, str]) -> ProjectContext:
    return ProjectContext(
        [FileContext.from_source(path, source) for path, source in files]
    )


class TestModuleNames:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/repro/sketches/hash_sketch.py", "repro.sketches.hash_sketch"),
            ("src/repro/hashing/__init__.py", "repro.hashing"),
            ("src/repro/errors.py", "repro.errors"),
            (
                "tests/analysis_fixtures/src/repro/sketches/bad_r9.py",
                "repro.sketches.bad_r9",
            ),
            ("benchmarks/bench_update.py", "bench_update"),
        ],
    )
    def test_module_name_for_path(self, path, expected):
        assert module_name_for_path(path) == expected


class TestCallGraphResolution:
    def test_absolute_import_resolves_cross_module(self):
        project = _project(
            (
                "src/repro/hashing/util.py",
                "def helper():\n    return 1\n",
            ),
            (
                "src/repro/sketches/mod.py",
                "from repro.hashing.util import helper\n"
                "def caller():\n    return helper()\n",
            ),
        )
        graph = project.graph
        assert graph.edges["repro.sketches.mod.caller"] == {
            "repro.hashing.util.helper"
        }

    def test_relative_import_resolves(self):
        project = _project(
            ("src/repro/alpha/util.py", "def helper():\n    return 1\n"),
            (
                "src/repro/alpha/mod.py",
                "from .util import helper\n"
                "def caller():\n    return helper()\n",
            ),
        )
        assert project.graph.edges["repro.alpha.mod.caller"] == {
            "repro.alpha.util.helper"
        }

    def test_package_reexport_followed(self):
        project = _project(
            ("src/repro/alpha/util.py", "def helper():\n    return 1\n"),
            ("src/repro/alpha/__init__.py", "from .util import helper\n"),
            (
                "src/repro/beta.py",
                "from repro.alpha import helper\n"
                "def caller():\n    return helper()\n",
            ),
        )
        assert project.graph.edges["repro.beta.caller"] == {
            "repro.alpha.util.helper"
        }

    def test_self_dispatch_includes_subclass_overrides(self):
        project = _project(
            (
                "src/repro/alpha/mod.py",
                "class Base:\n"
                "    def run(self):\n"
                "        return self.step()\n"
                "    def step(self):\n"
                "        return 0\n"
                "class Child(Base):\n"
                "    def step(self):\n"
                "        return 1\n",
            ),
        )
        graph = project.graph
        assert graph.edges["repro.alpha.mod.Base.run"] == {
            "repro.alpha.mod.Base.step",
            "repro.alpha.mod.Child.step",
        }

    def test_unknown_receiver_uses_cha(self):
        project = _project(
            (
                "src/repro/alpha/mod.py",
                "class A:\n"
                "    def poke(self):\n"
                "        return 1\n"
                "def caller(obj):\n"
                "    return obj.poke()\n",
            ),
        )
        assert project.graph.edges["repro.alpha.mod.caller"] == {
            "repro.alpha.mod.A.poke"
        }

    def test_callable_reference_argument_is_an_edge(self):
        project = _project(
            (
                "src/repro/alpha/mod.py",
                "def task():\n    return 1\n"
                "def submit(fn):\n    return fn\n"
                "def caller():\n    return submit(task)\n",
            ),
        )
        assert "repro.alpha.mod.task" in project.graph.edges[
            "repro.alpha.mod.caller"
        ]

    def test_instantiation_links_init(self):
        project = _project(
            (
                "src/repro/alpha/mod.py",
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
                "def build():\n    return Thing()\n",
            ),
        )
        assert project.graph.edges["repro.alpha.mod.build"] == {
            "repro.alpha.mod.Thing.__init__"
        }

    def test_reachability_and_call_path(self):
        project = _project(
            (
                "src/repro/alpha/mod.py",
                "def leaf():\n    return 1\n"
                "def middle():\n    return leaf()\n"
                "def entry():\n    return middle()\n",
            ),
        )
        graph = project.graph
        assert graph.call_path_to("repro.alpha.mod.leaf") == [
            "repro.alpha.mod.entry",
            "repro.alpha.mod.middle",
            "repro.alpha.mod.leaf",
        ]


_ELEMENTS = st.sampled_from([BOTTOM, UNKNOWN, *DTYPES])


class TestDtypeLattice:
    @given(_ELEMENTS, _ELEMENTS)
    def test_join_commutative(self, a, b):
        assert join(a, b) == join(b, a)

    @given(_ELEMENTS)
    def test_join_idempotent(self, a):
        assert join(a, a) == a

    @given(_ELEMENTS, _ELEMENTS, _ELEMENTS)
    def test_join_associative(self, a, b, c):
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(_ELEMENTS)
    def test_bottom_is_identity_and_unknown_absorbs(self, a):
        assert join(BOTTOM, a) == a
        assert join(UNKNOWN, a) == UNKNOWN

    def test_numpy_promotion_cases(self):
        assert join("int64", "float64") == "float64"
        assert join("bool", "int8") == "int8"
        assert join("uint64", "bool") == "uint64"
        assert join("uint64", "int64") == "float64"


class TestDtypeInterpreter:
    def _analyze(self, source: str, qualname: str):
        project = _project(("src/repro/sketches/toy.py", source))
        interp = DtypeInterpreter(project.graph)
        return interp, project.graph.functions[qualname]

    def test_locals_and_astype(self):
        interp, fn = self._analyze(
            "import numpy as np\n"
            "def f(n):\n"
            "    x = np.zeros(n, dtype=np.int64)\n"
            "    return x.astype(np.float64)\n",
            "repro.sketches.toy.f",
        )
        assert interp.analyze(fn).return_value.dtype == "float64"

    def test_interprocedural_summary(self):
        interp, fn = self._analyze(
            "import numpy as np\n"
            "def make(n):\n"
            "    return np.zeros(n, dtype=np.int64)\n"
            "def g(n):\n"
            "    return make(n) + make(n)\n",
            "repro.sketches.toy.g",
        )
        assert interp.analyze(fn).return_value.dtype == "int64"

    def test_branch_join_promotes(self):
        interp, fn = self._analyze(
            "import numpy as np\n"
            "def f(n, flag):\n"
            "    x = np.zeros(n, dtype=np.int64)\n"
            "    if flag:\n"
            "        x = np.zeros(n, dtype=np.float64)\n"
            "    return x\n",
            "repro.sketches.toy.f",
        )
        assert interp.analyze(fn).return_value.dtype == "float64"

    def test_tuple_returns_unpack(self):
        interp, fn = self._analyze(
            "import numpy as np\n"
            "def pair(n):\n"
            "    return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.float64)\n"
            "def g(n):\n"
            "    a, b = pair(n)\n"
            "    return b\n",
            "repro.sketches.toy.g",
        )
        assert interp.analyze(fn).return_value.dtype == "float64"

    def test_unknown_stays_unknown(self):
        interp, fn = self._analyze(
            "def f(x):\n    return x\n",
            "repro.sketches.toy.f",
        )
        assert interp.analyze(fn).return_value.dtype == UNKNOWN


class TestInterproceduralRuleMessages:
    def test_r9_names_the_call_path(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/bad_r9.py")])
        messages = [f.message for f in report.findings if f.rule == "R9"]
        assert any(
            "rebalance -> repro.sketches.bad_r9.sneaky_boost" in m
            for m in messages
        )

    def test_r11_names_the_dtype_origin(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/bad_r11.py")])
        messages = [f.message for f in report.findings if f.rule == "R11"]
        assert any("np.asarray(dtype=...)" in m for m in messages)
        assert any("call path:" in m for m in messages)

    def test_r9_suppressible_with_noqa(self):
        findings, suppressed = analyze_source(
            "import numpy as np\n"
            "def sneaky(sketch):\n"
            "    sketch._counters[0] += 1.0  # repro: noqa[R9] -- test\n",
            path="src/repro/sketches/fake.py",
        )
        assert not any(f.rule == "R9" for f in findings)
        assert suppressed == 1

    def test_purity_classification(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/bad_r9.py")])
        purity = classify_purity(report.project)
        assert purity["repro.sketches.bad_r9.sneaky_boost"] == "mutates-counters"
        assert purity["repro.sketches.bad_r9.rebalance"] == "calls-mutator"


class TestSarifExport:
    def test_sarif_schema_and_results(self):
        report = analyze_paths([str(FIXTURES / "src/repro/sketches/bad_r1.py")])
        sarif = to_sarif(report)
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R1", "R9", "R11"} <= rule_ids
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

    def test_cli_graph_out(self, tmp_path):
        out = tmp_path / "graph.json"
        bad = FIXTURES / "src/repro/sketches/bad_r9.py"
        assert main(["--graph-out", str(out), str(bad)]) == 1
        graph = json.loads(out.read_text())
        assert graph["version"] == 1
        by_name = {f["qualname"]: f for f in graph["functions"]}
        assert (
            by_name["repro.sketches.bad_r9.sneaky_boost"]["purity"]
            == "mutates-counters"
        )
        assert [
            "repro.sketches.bad_r9.rebalance",
            "repro.sketches.bad_r9.sneaky_boost",
        ] in graph["edges"]


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


class TestInterproceduralRepoIsClean:
    def test_new_passes_clean_on_repo(self):
        report = analyze_paths(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "examples"),
                str(REPO_ROOT / "benchmarks"),
            ],
            select=["R9", "R11"],
        )
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

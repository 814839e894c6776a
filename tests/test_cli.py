"""Tests for the ``python -m repro.eval`` experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.eval.__main__ import EXPERIMENTS, main
from repro.obs import METRICS, validate_snapshot


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_example1_runs(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "improvement_factor" in out
        assert "took" in out

    def test_dyadic_cost_runs(self, capsys):
        assert main(["dyadic-cost"]) == 0
        assert "saving_factor" in capsys.readouterr().out

    def test_multiple_experiments(self, capsys):
        assert main(["example1", "example1"]) == 0
        assert capsys.readouterr().out.count("== example1 ==") == 2

    def test_trials_flag_parses(self, capsys):
        assert main(["example1", "--trials", "2"]) == 0

    def test_smoke_experiment_runs(self, capsys):
        assert main(["smoke"]) == 0
        assert "Smoke" in capsys.readouterr().out


class TestMetricsOut:
    def test_metrics_out_writes_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["smoke", "--metrics-out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"metrics snapshot written to {out}" in stdout
        snap = validate_snapshot(json.loads(out.read_text()))
        # The smoke workload must exercise update, skim and estimate paths.
        assert snap["counters"]["sketch.update.elements"] > 0
        assert snap["counters"]["skim.passes"] > 0
        assert snap["counters"]["estimate.joins"] > 0
        assert snap["counters"]["eval.experiments"] == 1
        assert snap["histograms"]["eval.experiment.seconds"]["count"] == 1
        assert snap["histograms"]["skim.seconds"]["count"] > 0

    def test_metrics_out_disables_registry_afterwards(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["example1", "--metrics-out", str(out)]) == 0
        assert not METRICS.enabled
        validate_snapshot(json.loads(out.read_text()))

    def test_snapshot_validator_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        out = tmp_path / "m.json"
        assert main(["smoke", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        assert obs_main([str(out), "sketch.update.elements", "skim.passes"]) == 0
        assert obs_main([str(out), "no.such.metric"]) == 1
        assert obs_main([]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert obs_main([str(bad)]) == 1

    def test_without_metrics_out_nothing_is_recorded(self, capsys):
        assert main(["example1"]) == 0
        assert list(METRICS.metric_names()) == []


class TestTraceOut:
    def test_smoke_trace_validates_and_shows_the_engine(self, tmp_path, capsys):
        """The trace `make monitor-smoke` captures starts at the engine,
        as the span tree in docs/OBSERVABILITY.md does."""
        from repro.trace import TRACER, read_trace_jsonl
        from repro.trace.__main__ import main as trace_main

        out = tmp_path / "t.jsonl"
        assert main(["smoke", "--trace-out", str(out)]) == 0
        assert not TRACER.enabled
        assert trace_main(["validate", str(out)]) == 0
        names = {span["name"] for span in read_trace_jsonl(str(out))["spans"]}
        assert {"engine.ingest", "engine.answer", "estimate.skim_join"} <= names


class TestObsDiffCLI:
    def _write_snapshot(self, path, queries: int) -> None:
        from repro.obs import MetricsRegistry, write_snapshot

        reg = MetricsRegistry(enabled=True)
        reg.count("engine.queries", queries)
        reg.gauge("skim.threshold", 5.0)
        reg.observe("engine.answer.seconds", 0.01 * queries)
        write_snapshot(str(path), reg.snapshot())

    def test_diff_reports_deltas(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        before, after = tmp_path / "before.json", tmp_path / "after.json"
        self._write_snapshot(before, 2)
        self._write_snapshot(after, 7)
        assert obs_main(["diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "engine.queries: 2 -> 7 (+5)" in out
        assert "skim.threshold: 5 -> 5 (+0)" in out
        assert "engine.answer.seconds" in out

    def test_diff_json_output_is_machine_readable(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        before, after = tmp_path / "before.json", tmp_path / "after.json"
        self._write_snapshot(before, 1)
        self._write_snapshot(after, 4)
        assert obs_main(["diff", str(before), str(after), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["kind"] == "repro.obs-diff"
        assert diff["counters"]["engine.queries"]["delta"] == 3.0

    def test_diff_usage_and_error_paths(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        good = tmp_path / "good.json"
        self._write_snapshot(good, 1)
        assert obs_main(["diff", str(good)]) == 2  # needs two files
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert obs_main(["diff", str(good), str(bad)]) == 1
        assert obs_main(["diff", str(good), str(tmp_path / "missing.json")]) == 1


class TestFigureOutput:
    def test_figure5_output_includes_table_and_chart(self):
        from repro.eval.__main__ import _figure5_output
        from repro.eval.figures import ExperimentScale, run_figure5
        from repro.eval.runner import SweepConfig

        tiny = ExperimentScale(
            domain_size=1 << 10,
            stream_total=10_000,
            sweep=SweepConfig(
                widths=(32,), depths=(3,), space_budgets=(96,), trials=1, seed=1
            ),
            label="tiny",
        )
        results = run_figure5(1.0, (5,), tiny, methods=("skimmed",))
        text = _figure5_output("Figure 5 (tiny)", results)
        assert "space (words)" in text  # the table
        assert "x = skimmed s=5" in text  # the chart legend

"""Tests of the end-to-end benchmark itself (run: ``PYTHONPATH=src pytest benchmarks/e2e``).

The runs here are tiny (``--scale 0.1``, one episode), so they check the
plumbing and the correctness gates, not the speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from workloads import WORKLOADS, InputSource

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path: Path, *args: str) -> tuple[dict, dict]:
    """Run ``run.py`` at tiny scale; its last stdout line and ``--json-out``."""
    out = tmp_path / f"result-{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--seconds", "0", "--scale", "0.1", "--json-out", str(out), *args,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_completes(tmp_path, workload):
    last, document = _run(tmp_path, "--workload", workload)
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    record = document["workloads"][workload]
    assert record["episodes"] >= 1 and record["answers"] >= 1
    assert record["metrics"]["failure_rate"] == 0.0
    assert record["metrics"]["rel_error"] == record["rel_error"]
    assert set(document["host"]) >= {"cores", "cpu_model", "python", "numpy", "revision"}


def test_printed_metrics_are_those_of_benchmark_json(tmp_path):
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    last, _ = _run(tmp_path, "--workload", "standing_join")
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] != 0 for v in last["metrics"].values())

    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    last, _ = _run(tmp_path, "--workload", "wide_dyadic", "--trace")
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_benchmark_json_names_this_benchmark():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_same_seed_repeats_and_another_seed_differs(tmp_path):
    args = ("--workload", "churn_small_batch")
    records = [
        _run(tmp_path, *args, "--seed", seed)[1]["workloads"]["churn_small_batch"]
        for seed in ("0", "0", "1")
    ]
    first, again, other = records
    for key in ("rel_error", "fingerprint"):
        assert first[key] == again[key]
    assert first["metrics"]["sketch_kib"] == again["metrics"]["sketch_kib"]
    assert first["fingerprint"] != other["fingerprint"]


def test_inputs_repeat_per_episode_and_churn_deletes():
    source = InputSource(WORKLOADS["churn_small_batch"].scaled(0.1), seed=3)
    first, second = list(source.episode()), list(source.episode())
    batches = [step for step in first if step is not None]
    assert len(first) == len(second)
    assert all(
        (a is None and b is None) or np.array_equal(a.values, b.values)
        for a, b in zip(first, second)
    )
    deletes = [b for b in batches if b.weights is not None]
    assert deletes and all((b.weights == -1.0).all() for b in deletes)


def test_compare_bounds_accuracy_and_failures_on_one_seed():
    from compare import RECORD_BOUNDS, judge

    bounds = {m["name"]: m for m in RECORD_BOUNDS}
    error = bounds["rel_error"]
    assert judge([0.005] * 5, [0.005] * 5, error["bound"], "lower")["verdict"] == "unchanged"
    assert judge([0.005] * 5, [0.09] * 5, error["bound"], "lower")["verdict"] == "regressed"
    failures = bounds["failure_rate"]
    assert judge([0.0] * 5, [0.0] * 5, failures["bound"], "lower")["verdict"] == "unchanged"
    one_failed = [0.0, 0.0, 0.0, 0.0, 1e-4]
    assert judge([0.0] * 5, one_failed, failures["bound"], "lower")["verdict"] == "regressed"


def test_bit_identity_check_rejects_a_perturbed_counter():
    from replay import ReplayMismatch, check_identical

    import target

    spec = WORKLOADS["standing_join"]
    program = target.build(spec)
    for batch in InputSource(spec, seed=0).warmup():
        program.ingest(batch.stream, batch.values, batch.weights)
    blocks = program.synopsis("f").counters_view()
    copies = [block.copy() for block in blocks]
    check_identical("f", blocks, copies)
    copies[0][0, 0] = np.nextafter(copies[0][0, 0], np.inf)
    with pytest.raises(ReplayMismatch):
        check_identical("f", blocks, copies)


def test_benchmark_lints_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(HERE)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.glob("*.py"):
        (bare / "benchmarks" / "e2e" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest_skewed"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

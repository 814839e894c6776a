"""End-to-end engine benchmark: ingest -> COUNT(f ⋈ g), split by layer.

Runs each workload of ``workloads.py`` in fresh processes with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``: five set-up probes, then one
measured run of ``--seconds`` (see ``measure.py``).  Prints every metric
of ``BENCHMARK.json`` by name and unit, checks every answer against exact
ground truth, and prints one JSON object as its last line::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--json-out FILE]

Without ``--workload`` it runs all four.  ``--trace`` (or ``--trace 1``)
runs the traced replay instead and reports the per-layer metrics.
``--json-out`` also writes the results with a host block.  It exits 2
when the program's sources are missing, and 1 when a run fails or an
answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Names the command, the workloads and every metric with its unit.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Fresh-process set-up probes per workload; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Ceiling on any one child process, so a hung child cannot stall a run.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A probe or measured run exited non-zero, timed out, or printed no result."""


def _child(args: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    command = [sys.executable, str(HERE / "measure.py"), *args]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Probe set-up (untraced runs only), then measure; one record."""
    common = ["--workload", name, "--seed", str(seed)]
    probes = (
        []
        if trace
        else [_child([*common, "--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
    )
    args = [*common, "--seconds", str(seconds), "--scale", str(scale)]
    result = _child([*args, "--trace"] if trace else args)
    if probes:
        result["metrics"]["setup_s"] = statistics.median(probes)
        result["setup_probes_s"] = probes
    result["failure_rate"] = result["failed"] / result["attempted"]
    if not trace:
        result["metrics"]["failure_rate"] = result["failure_rate"]
    return result


def report(record: dict, units: dict[str, str]) -> None:
    """Print one workload's metrics, one per line, by name and unit."""
    name = record["workload"]
    print(
        f"== {name}: seed {record['seed']}, {record['episodes']} episodes, "
        f"input sha256 {record['fingerprint']}"
    )
    metrics = record["metrics"]
    for metric, unit in units.items():
        if metric in metrics:
            print(f"  {metric:<36} {metrics[metric]:>16.6g} {unit}")
    if "answer_p95_ms" in record and not record["trace"]:
        answers = record["answers"]
        note = "" if answers >= 200 else ", fewer than 10 beyond p95"
        print(
            f"  answer_p95_ms (not bounded) {record['answer_p95_ms']:.6g} ms"
            f" ({answers} answers{note})"
        )
    print(f"  rel_error (median, first episode): {record['rel_error']:.6g}")
    print(
        f"  failure_rate: {record['failed']}/{record['attempted']} calls"
        f" = {record['failure_rate']:.6g}"
    )
    print(f"  correct: {record['correct']} {'; '.join(record['problems'])}")


def host_block() -> dict:
    """Facts about the machine and checkout a result was measured on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            models = (
                line.split(":", 1)[1].strip()
                for line in cpuinfo
                if line.startswith("model name")
            )
            cpu = next(models, cpu)
    except OSError:
        pass

    def git(*args: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""

    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": git("rev-parse", "HEAD") or "unknown",
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds in BENCHMARK.json"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--json-out", type=Path)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink episodes (smoke tests)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in metrics}
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace), args.scale)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(record, units)
        records[name] = record

    if args.json_out is not None:
        document = {
            "kind": "repro.e2e-bench",
            "version": 1,
            "host": host_block(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "scale": args.scale,
            "units": units,
            "workloads": records,
        }
        args.json_out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    correct = all(r["correct"] for r in records.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (metric if len(records) == 1 else f"{name}/{metric}"): {
                "value": record["metrics"][metric],
                "unit": unit,
            }
            for name, record in records.items()
            for metric, unit in units.items()
            if metric in record["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

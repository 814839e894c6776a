"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.eval list
    python -m repro.eval figure5a
    python -m repro.eval figure5b --full-scale
    python -m repro.eval census --trials 5
    python -m repro.eval example1 dyadic-cost baseline-panel
    python -m repro.eval smoke --metrics-out metrics.json
    python -m repro.eval smoke --trace-out trace.jsonl
    python -m repro.eval smoke --audit-out audits.jsonl
    python -m repro.eval smoke --profile-out run.prof.jsonl

Each experiment prints the same table its ``benchmarks/`` counterpart
emits; ``--full-scale`` switches the workload sizes exactly like setting
``REPRO_FULL_SCALE=1``.  ``--metrics-out PATH`` enables the
:mod:`repro.obs` instrumentation for the run and writes the metrics
snapshot to ``PATH`` as JSON; ``--trace-out PATH`` enables the
:mod:`repro.trace` span tracer and writes the trace as JSONL (convert it
with ``python -m repro.trace convert``); ``--audit-out PATH`` enables the
:mod:`repro.monitor` estimate-quality audits and writes every
``QueryAudit`` (plus drift alerts) to ``PATH`` as JSONL — serve it with
``python -m repro.monitor serve``.  ``--profile-out PATH`` starts the
:mod:`repro.profile` sampling profiler for the run and writes the stack
samples as JSONL (inspect with ``python -m repro.profile top``, serve
with ``python -m repro.monitor serve --profile``).  The
``smoke`` experiment also answers queries through a shadow-audited
:class:`~repro.streams.engine.StreamEngine`, so a ``--trace-out`` trace
holds ``engine.ingest``/``engine.answer`` spans and an ``--audit-out``
JSONL holds realized-error verdicts.
See docs/OBSERVABILITY.md and DESIGN.md for the catalogue and experiment
index.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from ..monitor import AUDIT
from ..obs import METRICS, write_snapshot
from ..profile import PROFILER, write_profile_jsonl
from ..trace import TRACER, write_trace_jsonl

from .figures import (
    ExperimentScale,
    default_scale,
    full_scale,
    render_figure5,
    render_rows,
    run_baseline_panel,
    run_census,
    run_dyadic_cost,
    run_example1,
    run_figure5,
    run_space_scaling,
    run_threshold_ablation,
)
from .plots import render_ascii_plot
from .reporting import render_series, render_table


def _figure5_output(title: str, results) -> str:
    table = render_figure5(title, results)
    series = {}
    for shift, result in results.items():
        for method, points in result.series_by_space().items():
            series[f"{method} s={shift}"] = points
    chart = render_ascii_plot(title, "space (words)", "error", series)
    return f"{table}\n\n{chart}"


def _figure5a(scale: ExperimentScale, trials: int | None) -> str:
    if trials:
        scale = scale.with_trials(trials)
    results = run_figure5(1.0, (100, 200, 300), scale)
    return _figure5_output(f"Figure 5(a) [{scale.label}]", results)


def _figure5b(scale: ExperimentScale, trials: int | None) -> str:
    if trials:
        scale = scale.with_trials(trials)
    results = run_figure5(1.5, (30, 50), scale)
    return _figure5_output(f"Figure 5(b) [{scale.label}]", results)


def _census(scale: ExperimentScale, trials: int | None) -> str:
    result = run_census(trials=trials or 3)
    return render_series(
        "Census (synthetic stand-in)", "space (words)", result.series_by_space()
    )


def _example1(scale: ExperimentScale, trials: int | None) -> str:
    result = run_example1()
    return render_table(
        ["quantity", "value"],
        [[key, value] for key, value in result.items()],
        title="Example 1 (reconstructed)",
    )


def _space_scaling(scale: ExperimentScale, trials: int | None) -> str:
    rows = run_space_scaling(1.0, (20, 100, 300, 1000), scale, trials=trials or 3)
    return render_rows("Space for 15% error vs join size", rows)


def _dyadic_cost(scale: ExperimentScale, trials: int | None) -> str:
    return render_rows("Dyadic SKIMDENSE descent cost", run_dyadic_cost())


def _threshold_ablation(scale: ExperimentScale, trials: int | None) -> str:
    rows = run_threshold_ablation(
        (0.1, 0.3, 1.0, 3.0, 10.0, 1e6), 1.2, 50, scale, trials=trials or 3
    )
    return render_rows("Skim-threshold ablation", rows)


def _baseline_panel(scale: ExperimentScale, trials: int | None) -> str:
    rows = run_baseline_panel(scale, trials=trials or 3)
    return render_rows("Baseline panel (equal space)", rows)


def _smoke(scale: ExperimentScale, trials: int | None) -> str:
    """Seconds-scale end-to-end workload; drives the update, skim and join
    estimation paths, directly and through the engine, so ``--metrics-out``
    snapshots and ``--trace-out`` traces cover them (this is what
    ``make metrics-smoke`` and ``make monitor-smoke`` run)."""
    from .runner import SweepConfig

    tiny = ExperimentScale(
        domain_size=1 << 10,
        stream_total=10_000,
        sweep=SweepConfig(
            widths=(32,), depths=(3,), space_budgets=(96,), trials=trials or 1, seed=1
        ),
        label="smoke",
    )
    results = run_figure5(1.0, (5,), tiny, methods=("skimmed",))
    output = _figure5_output("Smoke (tiny Figure 5 workload)", results)
    audit_lines = _audited_query_segment()
    if AUDIT.enabled:
        output += "\n\n" + audit_lines
    return output


def _audited_query_segment() -> str:
    """Shadow-audited engine workload; returns its audit summary lines.

    Registers several Zipf streams on one engine with a
    :class:`~repro.monitor.shadow.ShadowAuditor` attached (sample rate
    1.0 — exact on this tiny domain), then answers a battery of join and
    self-join queries.  While audits are on, every answer lands in
    ``repro.monitor.AUDIT`` with a realized-error verdict, which is what
    ``--audit-out`` writes and ``make monitor-smoke`` scrapes.
    """
    import numpy as np

    from ..core.config import SketchParameters
    from ..monitor import ShadowAuditor
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery
    from ..streams.generators import shifted_zipf_pair

    domain_size = 1 << 10
    engine = StreamEngine(
        domain_size, SketchParameters(width=128, depth=7), synopsis="skimmed", seed=7
    )
    shadow = ShadowAuditor(sample_rate=1.0, window=64, coverage_target=0.9)
    engine.attach_shadow(shadow)

    rng = np.random.default_rng(2026)
    names: list[str] = []
    for index, shift in enumerate((0, 16, 32, 48, 64, 80)):
        vec, _ = shifted_zipf_pair(domain_size, 5_000, 1.0, shift, rng)
        name = f"s{index}"
        engine.register_stream(name)
        values = vec.support()
        engine.process_bulk(name, values, vec.counts[values])
        names.append(name)

    queries = [
        JoinCountQuery(left, right)
        for left, right in zip(names, names[1:] + names[:1])
    ] + [SelfJoinQuery(name) for name in names]
    for query in queries:
        engine.answer(query)

    audits = [a for a in AUDIT.audits() if a.covered is not None]
    covered = sum(1 for a in audits if a.covered)
    lines = [
        "Shadow-audited queries (engine + ShadowAuditor, exact mirror):",
        f"  queries audited        : {len(audits)}",
        f"  realized error in CI   : {covered}/{len(audits)}",
        f"  drift alerts           : {len(AUDIT.alerts)}",
    ]
    return "\n".join(lines)


EXPERIMENTS: dict[str, Callable[[ExperimentScale, int | None], str]] = {
    "figure5a": _figure5a,
    "figure5b": _figure5b,
    "census": _census,
    "example1": _example1,
    "space-scaling": _space_scaling,
    "dyadic-cost": _dyadic_cost,
    "threshold-ablation": _threshold_ablation,
    "baseline-panel": _baseline_panel,
    "smoke": _smoke,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation artifacts.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids, or 'list'; known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="use the larger workload configuration (slower)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override the trial count"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable repro.obs instrumentation and write the metrics "
        "snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="enable repro.trace span tracing and write the trace to "
        "PATH as JSONL",
    )
    parser.add_argument(
        "--audit-out",
        metavar="PATH",
        default=None,
        help="enable repro.monitor estimate-quality audits and write "
        "every QueryAudit to PATH as JSONL",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="start the repro.profile sampling profiler and write the "
        "stack samples to PATH as JSONL",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; try 'list'")

    scale = full_scale() if args.full_scale else default_scale()
    # Fail fast on unwritable paths: outputs are written *after* the
    # experiments, and losing a long run to a typo would sting.
    for flag, path in (
        ("--metrics-out", args.metrics_out),
        ("--trace-out", args.trace_out),
        ("--audit-out", args.audit_out),
        ("--profile-out", args.profile_out),
    ):
        if path:
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write {flag} path: {exc}")
    if args.metrics_out:
        METRICS.reset()
        METRICS.enable()
    if args.trace_out:
        TRACER.reset()
        TRACER.enable()
    if args.audit_out:
        AUDIT.reset()
        AUDIT.enable()
    if args.profile_out:
        PROFILER.reset()
        PROFILER.start()
    try:
        for name in args.experiments:
            # Timer powers the printed wall-clock line even with telemetry
            # off (it only *records* when enabled).
            timer = METRICS.timer("eval.experiment.seconds")  # repro: noqa[R3] -- timer also powers the printed wall-clock line with telemetry off
            print(f"== {name} ==")
            with timer:
                if METRICS.enabled:
                    METRICS.count("eval.experiments")
                print(EXPERIMENTS[name](scale, args.trials))
            print(f"[{name} took {timer.elapsed:.1f}s]\n")
        if args.metrics_out:
            write_snapshot(args.metrics_out, METRICS.snapshot())
            print(f"[metrics snapshot written to {args.metrics_out}]")
        if args.trace_out:
            write_trace_jsonl(args.trace_out, TRACER.snapshot())
            print(f"[trace written to {args.trace_out}]")
        if args.audit_out:
            lines = AUDIT.write_jsonl(args.audit_out)
            print(f"[{lines} audit records written to {args.audit_out}]")
        if args.profile_out:
            PROFILER.stop()
            snapshot = PROFILER.snapshot()
            write_profile_jsonl(args.profile_out, snapshot)
            print(
                f"[{len(snapshot['samples'])} stack samples written to "
                f"{args.profile_out}]"
            )
    finally:
        if args.metrics_out:
            METRICS.disable()
        if args.trace_out:
            TRACER.disable()
        if args.audit_out:
            AUDIT.disable()
        if args.profile_out:
            PROFILER.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

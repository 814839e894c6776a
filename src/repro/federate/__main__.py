"""CLI for per-origin telemetry.

Subcommands::

    python -m repro.federate selfcheck
        Prove scope attribution and the wire contracts end to end with
        three origins recording through scopes of one shared registry and
        tracer (no numpy needed): each origin's export carries only its
        own counters and spans, exports JSON round-trip and validate,
        merges commute and counters associate, and the Perfetto export
        gives each origin its own lane.  Exit 0 when every check passes.

    python -m repro.federate validate FILE...
        Validate telemetry snapshot files against the wire schema.

    python -m repro.federate merge FILE... [--out OUT]
        Merge snapshot files of distinct origins into one (printed or
        written to OUT).

    python -m repro.federate run --sites N --rounds R --out-dir DIR
        Multi-site distributed demo in one process (needs numpy): N
        sites ingest and report over R coordinator-minted rounds; writes
        DIR/metrics.json (coordinator counters plus per-origin prefixed
        site counters), DIR/trace.chrome.json (one Perfetto timeline,
        one lane per site), and DIR/telemetry.<origin>.json (one export
        per site).  Exits 1 unless the per-origin
        ``sketch.update.elements`` add up to the updates ingested, with
        none recorded outside a site's scope.
"""

from __future__ import annotations

import argparse
import json
import sys

try:  # package layout
    from ..obs.registry import MetricsRegistry
    from ..trace.export import trace_to_chrome
    from ..trace.tracer import SpanTracer
    from .snapshot import (
        export_telemetry,
        merge_all_telemetry,
        merge_telemetry,
        telemetry_from_json,
        telemetry_to_json,
        validate_telemetry,
    )
except ImportError:  # pragma: no cover - standalone layout
    from obs.registry import MetricsRegistry  # type: ignore
    from trace.export import trace_to_chrome  # type: ignore
    from trace.tracer import SpanTracer  # type: ignore
    from federate.snapshot import (  # type: ignore
        export_telemetry,
        merge_all_telemetry,
        merge_telemetry,
        telemetry_from_json,
        telemetry_to_json,
        validate_telemetry,
    )

_ORIGINS = ("site.alpha", "site.beta", "site.gamma")


def _record_origins(registry: MetricsRegistry, tracer: SpanTracer) -> dict[str, float]:
    """Record each origin inside its scopes, beside unscoped local activity.

    Every origin records three span records; returns each origin's
    ``demo.updates`` total.
    """
    updates = {}
    with tracer.span("coordinator.round"):
        registry.count("demo.updates", 1000)
        for seed, name in enumerate(_ORIGINS):
            with registry.scope(name), tracer.scope(name):
                for i in range(1 + seed):
                    registry.count("demo.updates", 10 + i)
                registry.gauge("demo.round", seed + 1)
                for i in range(5):
                    registry.observe("demo.latency", 0.01 * (seed + 1) * (i + 1))
                with tracer.span("demo.round", site=name):
                    with tracer.span("demo.ingest"):
                        tracer.instant("demo.mark", step=seed)
            updates[name] = float(sum(10 + i for i in range(1 + seed)))
    return updates


def _cmd_selfcheck(_args: argparse.Namespace) -> int:
    failures = 0

    def check(ok: bool, label: str) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} - {label}")
        if not ok:
            failures += 1

    registry = MetricsRegistry(enabled=True)
    tracer = SpanTracer(enabled=True)
    updates = _record_origins(registry, tracer)
    docs = {name: export_telemetry(name, registry, tracer) for name in _ORIGINS}
    a, b, c = (docs[name] for name in _ORIGINS)

    # 1. Scope isolation: an export carries its own origin and nothing else.
    isolated = all(
        doc["counters"] == {"demo.updates": updates[name]}
        and len(doc["spans"]) == 3
        and all(span["attrs"]["origin"] == name for span in doc["spans"])
        for name, doc in docs.items()
    )
    check(isolated, "each origin's export carries only its own counters and spans")

    # 2. Wire round-trip.
    try:
        round_tripped = all(
            telemetry_from_json(telemetry_to_json(doc)) == doc
            for doc in docs.values()
        )
    except ValueError as exc:
        round_tripped = False
        print(f"     round-trip raised: {exc}")
    check(round_tripped, "wire schema validates and JSON round-trips exactly")

    # 3. Merge commutativity (whole document).
    check(
        merge_telemetry(a, b) == merge_telemetry(b, a),
        "merge_telemetry(a, b) == merge_telemetry(b, a)",
    )

    # 4. Counter associativity (integer-valued counters are exact).
    left = merge_telemetry(merge_telemetry(a, b), c)["counters"]
    right = merge_telemetry(a, merge_telemetry(b, c))["counters"]
    check(left == right, "counter merge is associative across three origins")

    # 5. Perfetto export gives every origin its own lane.
    chrome = trace_to_chrome(tracer.snapshot())
    pids = {
        event["pid"]
        for event in chrome["traceEvents"]
        if event.get("ph") in ("X", "i")
    }
    check(len(pids) == 4, "chrome export has one lane per origin plus local")

    print(f"selfcheck: {5 - failures}/5 checks passed")
    return 1 if failures else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                validate_telemetry(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"FAIL - {path}: {exc}")
            status = 1
        else:
            print(f"ok - {path}")
    return status


def _cmd_merge(args: argparse.Namespace) -> int:
    docs = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    try:
        merged = merge_all_telemetry(docs)
    except ValueError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    text = telemetry_to_json(merged)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(
            f"merged {len(docs)} snapshots -> {args.out} "
            f"(origin {merged['origin']!r})"
        )
    else:
        print(text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    import numpy as np

    from ..core.estimator import SkimmedSketchSchema
    from ..distributed import SketchCoordinator, SketchSite
    from ..obs import METRICS, write_snapshot
    from ..trace import TRACER, write_trace_chrome

    os.makedirs(args.out_dir, exist_ok=True)
    schema = SkimmedSketchSchema(
        width=128, depth=7, domain_size=1 << 12, seed=args.seed
    )
    coordinator = SketchCoordinator(schema)
    sites = [
        SketchSite(f"edge-{i}", schema, streams=["R", "S"])
        for i in range(args.sites)
    ]
    METRICS.reset()
    METRICS.enable()
    TRACER.reset()
    TRACER.enable()
    try:
        summaries = []
        for round_index in range(args.rounds):
            context = coordinator.mint_trace_context()
            batch = []
            for site_index, site in enumerate(sites):
                rng = np.random.default_rng(
                    args.seed + round_index * args.sites + site_index
                )
                for stream in ("R", "S"):
                    values = rng.integers(0, schema.domain_size, args.updates)
                    site.observe_bulk(stream, values.astype(np.int64))
                batch.extend(site.close_round(context))
            summaries.append(coordinator.receive_all(batch))
        estimate = coordinator.est_join_size("R", "S")
    finally:
        METRICS.disable()
        TRACER.disable()

    metrics_path = os.path.join(args.out_dir, "metrics.json")
    write_snapshot(metrics_path, METRICS.snapshot())
    chrome_path = os.path.join(args.out_dir, "trace.chrome.json")
    write_trace_chrome(chrome_path, TRACER.snapshot())
    by_origin = coordinator.telemetry_by_origin()
    telemetry_paths = {}
    for origin, doc in sorted(by_origin.items()):
        path = os.path.join(args.out_dir, f"telemetry.{origin}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(telemetry_to_json(doc) + "\n")
        telemetry_paths[origin] = path

    reports, payload_bytes = coordinator.communication_stats()
    last = summaries[-1]
    print(
        f"rounds={len(summaries)} sites={len(sites)} "
        f"reports={reports} payload_bytes={payload_bytes}"
    )
    print(
        f"last round: number={last.round_number} "
        f"sites={','.join(last.sites_reporting)}"
    )
    print(f"est |R join S| = {estimate:.1f}")
    print(f"wrote {metrics_path}")
    print(f"wrote {chrome_path}")
    for origin, path in telemetry_paths.items():
        print(f"wrote {path}")

    ingested = len(sites) * args.rounds * 2 * args.updates
    attributed = sum(
        doc["counters"].get("sketch.update.elements", 0.0)
        for doc in by_origin.values()
    )
    unscoped = METRICS.counter_value("sketch.update.elements")
    ok = len(by_origin) == len(sites) and attributed == ingested and unscoped == 0
    print(
        f"{'ok' if ok else 'FAIL'} - attribution: {attributed:.0f} of "
        f"{ingested} ingested updates across {len(by_origin)} origins, "
        f"{unscoped:.0f} outside a scope"
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.federate",
        description="Per-origin telemetry tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "selfcheck", help="prove scope attribution, merge algebra and wire contracts"
    )

    p_validate = sub.add_parser("validate", help="validate telemetry files")
    p_validate.add_argument("files", nargs="+", help="telemetry JSON files")

    p_merge = sub.add_parser("merge", help="merge telemetry files into one")
    p_merge.add_argument("files", nargs="+", help="telemetry JSON files")
    p_merge.add_argument("--out", help="write merged snapshot here")

    p_run = sub.add_parser("run", help="multi-site federated demo (needs numpy)")
    p_run.add_argument("--sites", type=int, default=3)
    p_run.add_argument("--rounds", type=int, default=2)
    p_run.add_argument("--updates", type=int, default=2000, help="per stream per round")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--out-dir", required=True)

    args = parser.parse_args(argv)
    handler = {
        "selfcheck": _cmd_selfcheck,
        "validate": _cmd_validate,
        "merge": _cmd_merge,
        "run": _cmd_run,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

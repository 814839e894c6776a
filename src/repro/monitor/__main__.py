"""CLI for the estimate-quality monitor.

Serve audits + metrics over HTTP (files from an audited run, or the
empty live registries of this process)::

    python -m repro.monitor serve --metrics metrics.json \\
        --audits audits.jsonl --profile run.prof.jsonl --port 8000

Then scrape ``http://127.0.0.1:8000/metrics`` (Prometheus exposition),
``/health``, ``/audits``, ``/snapshot`` and ``/profile``.  Successive
``/metrics`` scrapes are the time series: ``rate()`` over the
``_total`` counters, plus the ``monitor.audit.ci_coverage`` and
``monitor.drift.alerts`` gauges.

One-shot scrape round trip (what ``make monitor-smoke`` and ``make
profile-smoke`` run): start the server on an ephemeral port, scrape all
five endpoints, check the exposition parses and at least one audit is
served, then exit::

    python -m repro.monitor selfcheck --metrics metrics.json \\
        --audits audits.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request

from .audit import audit_from_dict
from .service import MonitorServer, file_source, parse_prometheus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.monitor",
        description="Serve and check estimate-quality audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="serve /metrics, /health, /audits, /snapshot, /profile"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--metrics", metavar="PATH", help="metrics snapshot JSON (--metrics-out file)"
    )
    serve.add_argument(
        "--audits", metavar="PATH", help="audit JSONL (--audit-out file)"
    )
    serve.add_argument(
        "--profile", metavar="PATH", help="profile JSONL (--profile-out file)"
    )
    serve.add_argument(
        "--prefix", default="repro", help="Prometheus name prefix (default: repro)"
    )

    selfcheck = sub.add_parser(
        "selfcheck",
        help="serve on an ephemeral port, scrape every endpoint, exit 0/1",
    )
    selfcheck.add_argument("--metrics", metavar="PATH", help="metrics snapshot JSON")
    selfcheck.add_argument("--audits", metavar="PATH", help="audit JSONL")
    selfcheck.add_argument("--profile", metavar="PATH", help="profile JSONL")
    selfcheck.add_argument(
        "--min-audits",
        type=int,
        default=1,
        help="require at least this many served audits (default: 1)",
    )
    return parser


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


def _selfcheck(args: argparse.Namespace) -> int:
    try:
        source = file_source(args.metrics, args.audits, args.profile)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return 1
    with MonitorServer(source, port=0) as server:
        failures: list[str] = []

        status, body = _get(f"{server.url}/metrics")
        samples = []
        if status != 200:
            failures.append(f"/metrics returned {status}")
        else:
            try:
                samples = parse_prometheus(body)
            except ValueError as exc:
                failures.append(f"/metrics exposition invalid: {exc}")
        if not samples and not failures:
            failures.append("/metrics served no samples")
        if not failures:
            for origin in source.metrics_snapshot().get("origins", []):
                label = f'origin="{origin}"'
                if not any(label in name for name, _ in samples):
                    failures.append(f"/metrics has no samples labelled {label}")

        status, body = _get(f"{server.url}/health")
        if status != 200 or json.loads(body).get("status") != "ok":
            failures.append(f"/health not ok (status {status}: {body.strip()})")

        status, body = _get(f"{server.url}/audits")
        audits = []
        if status != 200:
            failures.append(f"/audits returned {status}")
        else:
            payload = json.loads(body)
            try:
                audits = [audit_from_dict(a) for a in payload.get("audits", [])]
            except ValueError as exc:
                failures.append(f"/audits schema invalid: {exc}")
        if len(audits) < args.min_audits and not failures:
            failures.append(
                f"/audits served {len(audits)} audits "
                f"(need >= {args.min_audits})"
            )

        status, body = _get(f"{server.url}/snapshot")
        if status != 200 or json.loads(body).get("version") != 1:
            failures.append(f"/snapshot not a version-1 snapshot (status {status})")

        status, body = _get(f"{server.url}/profile")
        if status != 200 or json.loads(body).get("kind") != "repro.profile":
            failures.append(f"/profile not a profile snapshot (status {status})")

    if failures:
        for failure in failures:
            print(f"selfcheck FAILED: {failure}", file=sys.stderr)
        return 1
    bound_ok = sum(1 for a in audits if a.residual_bound_ok)
    covered = [a for a in audits if a.covered is not None]
    print(
        f"selfcheck ok: {len(samples)} metric samples, {len(audits)} audits "
        f"({bound_ok} residual-bound ok, "
        f"{sum(1 for a in covered if a.covered)}/{len(covered)} shadow-covered)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "selfcheck":
        return _selfcheck(args)
    # serve
    try:
        source = file_source(args.metrics, args.audits, args.profile)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return 1
    server = MonitorServer(source, host=args.host, port=args.port, prefix=args.prefix)
    server.start()
    print(
        f"serving on {server.url} (endpoints: /metrics /health /audits "
        f"/snapshot /profile)"
    )
    try:
        while True:
            server._thread.join(1.0)  # noqa: SLF001 - interruptible wait
    except KeyboardInterrupt:
        print("shutting down")
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

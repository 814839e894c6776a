"""Live monitoring HTTP surface: metrics, audits, profiles.

``python -m repro.monitor serve`` turns a (running or finished) audited
experiment into something scrapeable like a production service:

* ``/metrics`` — Prometheus text exposition of the metrics snapshot via
  the existing ``repro.obs`` exporter, with monitor-level gauges
  (``monitor.audits.recorded``, ``monitor.audits.retained``,
  ``monitor.drift.alerts``, ``monitor.audit.last_realized_error``, …)
  merged in; metrics a distributed site recorded in its scope carry an
  ``origin="site.<name>"`` label;
* ``/health`` — liveness JSON (status, audit/alert counts);
* ``/audits`` — the most recent :class:`QueryAudit` records as JSON
  (``?n=`` limits the count; any other query parameter is a 400);
* ``/snapshot`` — the raw metrics snapshot JSON, for ``repro.obs diff``;
* ``/profile`` — the ``repro.profile`` sample snapshot JSON.

Successive ``/metrics`` scrapes are the time series: a scraper's
``rate()`` over the ``_total`` counters gives per-window throughput, and
the ``monitor.audit.ci_coverage`` / ``monitor.drift.alerts`` gauges give
estimate quality over time.

Every endpoint also answers ``HEAD`` (headers only, correct
``Content-Length``), and every response carries an explicit
``Content-Length`` so curl/Prometheus never wait on a silent EOF.

The server reads through a :class:`MonitorSource`, so the same handler
serves the **live** process registries (``repro.obs.METRICS`` /
``repro.monitor.AUDIT`` / ``repro.profile.PROFILER``) or **files**
written by ``--metrics-out`` / ``--audit-out`` / ``--profile-out`` —
the latter is what ``make monitor-smoke`` scrapes.

Imports are stdlib plus ``repro.obs.export`` (itself stdlib-only); the
``except ImportError`` fallback lets the module load when ``repro``'s
numpy-importing package root is unavailable (tests run it with bare
``obs`` / ``monitor`` on ``sys.path`` to enforce the no-numpy contract).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlparse

try:  # pragma: no cover - exercised via the standalone import test
    from ..obs.export import snapshot_to_prometheus, validate_snapshot
except ImportError:  # standalone import: `obs` next to `monitor` on sys.path
    from obs.export import snapshot_to_prometheus, validate_snapshot  # type: ignore

from .audit import AuditLog, read_audit_jsonl

#: Empty version-1 metrics snapshot (served when no metrics source exists).
EMPTY_SNAPSHOT: dict[str, Any] = {
    "version": 1,
    "counters": {},
    "gauges": {},
    "histograms": {},
}

#: Empty version-1 profile snapshot (served when no profile source exists).
EMPTY_PROFILE: dict[str, Any] = {
    "version": 1,
    "kind": "repro.profile",
    "hz": 0.0,
    "dropped": 0,
    "samples": [],
}


class MonitorSource:
    """What the HTTP handlers read: three snapshot thunks.

    ``metrics_snapshot`` returns a version-1 metrics snapshot dict;
    ``audit_snapshot`` an :meth:`AuditLog.snapshot` dict;
    ``profile_snapshot`` the ``repro.profile`` sampler snapshot
    (optional — it defaults to an empty document so a metrics-only
    deployment needs no profiler).  All are called per request, so live
    sources always serve fresh state.
    """

    def __init__(
        self,
        metrics_snapshot: Callable[[], dict[str, Any]],
        audit_snapshot: Callable[[], dict[str, Any]],
        profile_snapshot: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.metrics_snapshot = metrics_snapshot
        self.audit_snapshot = audit_snapshot
        self.profile_snapshot = profile_snapshot or (lambda: dict(EMPTY_PROFILE))


def live_source() -> MonitorSource:
    """Source backed by the process-wide ``METRICS``, ``AUDIT`` and
    ``PROFILER``."""
    try:
        from ..obs import METRICS
    except ImportError:  # standalone layout (see module docstring)
        from obs import METRICS  # type: ignore
    try:
        from . import AUDIT
    except ImportError:
        from monitor import AUDIT  # type: ignore
    try:
        from ..profile import PROFILER
    except ImportError:  # standalone layout: shadows stdlib `profile`
        from profile import PROFILER  # type: ignore
    return MonitorSource(METRICS.snapshot, AUDIT.snapshot, PROFILER.snapshot)


def file_source(
    metrics_path: str | None = None,
    audits_path: str | None = None,
    profile_path: str | None = None,
) -> MonitorSource:
    """Source backed by ``--metrics-out`` / ``--audit-out`` /
    ``--profile-out`` files.

    Files are read once, eagerly, so a bad path fails at startup rather
    than mid-scrape; raises ``ValueError`` / ``OSError`` on bad input.
    """
    if metrics_path is not None:
        with open(metrics_path, encoding="utf-8") as fh:
            snapshot = validate_snapshot(json.load(fh))
    else:
        snapshot = dict(EMPTY_SNAPSHOT)
    log = AuditLog(enabled=True)
    if audits_path is not None:
        audits, alerts = read_audit_jsonl(audits_path)
        for audit in audits:
            log.record(audit)
        for alert in alerts:
            log.alert(_DictAlert(alert))
    log.disable()
    if profile_path is not None:
        profile_doc = _read_profile_jsonl(profile_path)
    else:
        profile_doc = dict(EMPTY_PROFILE)
    return MonitorSource(lambda: snapshot, log.snapshot, lambda: profile_doc)


def _read_profile_jsonl(path: str) -> dict[str, Any]:
    try:
        from ..profile import read_profile_jsonl
    except ImportError:  # standalone layout (see module docstring)
        from profile import read_profile_jsonl  # type: ignore
    return read_profile_jsonl(path)


class _DictAlert:
    """Re-wraps an alert dict read back from JSONL for ``AuditLog``."""

    def __init__(self, data: dict[str, Any]) -> None:
        self._data = data

    def as_dict(self) -> dict[str, Any]:
        """The original wire dict, unchanged."""
        return self._data


def _read_stable(read: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """Call a snapshot thunk, retrying the transient ``RuntimeError`` a
    lock-free live registry raises when a hot path inserts a brand-new
    metric mid-iteration.  Retries settle it in practice (the name set
    stabilises after warm-up); the final attempt propagates so a truly
    broken source still surfaces as a 500.
    """
    for _ in range(5):
        try:
            return read()
        except RuntimeError:
            continue
    return read()


def _stable_source(source: MonitorSource) -> MonitorSource:
    """A view of ``source`` whose thunks read through :func:`_read_stable`."""
    return MonitorSource(
        lambda: _read_stable(source.metrics_snapshot),
        lambda: _read_stable(source.audit_snapshot),
        lambda: _read_stable(source.profile_snapshot),
    )


def merged_metrics_snapshot(source: MonitorSource) -> dict[str, Any]:
    """Metrics snapshot with monitor-level gauges merged in.

    The audit ring is summarised as gauges so one ``/metrics`` scrape
    carries both the engine metrics and the estimate-quality state.
    """
    snapshot = source.metrics_snapshot()
    audits = source.audit_snapshot()
    merged = {
        "version": snapshot.get("version", 1),
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": dict(snapshot.get("histograms", {})),
    }
    if "origins" in snapshot:
        merged["origins"] = list(snapshot["origins"])
    records = audits.get("audits", [])
    merged["gauges"]["monitor.audits.recorded"] = float(audits.get("recorded", 0))
    merged["gauges"]["monitor.audits.retained"] = float(len(records))
    merged["gauges"]["monitor.audits.evicted"] = float(audits.get("evicted", 0))
    merged["gauges"]["monitor.drift.alerts"] = float(len(audits.get("alerts", [])))
    if records:
        last = records[-1]
        for field, metric in (
            ("estimate", "monitor.audit.last_estimate"),
            ("ci_halfwidth", "monitor.audit.last_ci_halfwidth"),
            ("realized_error", "monitor.audit.last_realized_error"),
        ):
            value = last.get(field)
            if isinstance(value, (int, float)):
                merged["gauges"][metric] = float(value)
        bound_ok = [r.get("residual_bound_ok") for r in records]
        merged["gauges"]["monitor.audit.residual_bound_ok_fraction"] = sum(
            1.0 for b in bound_ok if b
        ) / len(records)
        covered = [r.get("covered") for r in records if r.get("covered") is not None]
        if covered:
            merged["gauges"]["monitor.audit.ci_coverage"] = sum(
                1.0 for c in covered if c
            ) / len(covered)
    return merged


def parse_prometheus(text: str) -> list[tuple[str, float]]:
    """Parse text exposition into ``(sample_name, value)`` pairs.

    A deliberately strict little parser (used by ``selfcheck`` and the
    tests): every non-comment, non-blank line must be
    ``name[{labels}] value``; raises ``ValueError`` otherwise.
    """
    samples: list[tuple[str, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: not 'name value': {line!r}")
        name, raw = parts
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(f"line {lineno}: bad sample value {raw!r}") from None
        samples.append((name, value))
    return samples


class _MonitorHandler(BaseHTTPRequestHandler):
    """Request handler for the monitoring endpoints (quiet by default)."""

    server_version = "repro-monitor/1"
    source: MonitorSource  # attached by MonitorServer
    prefix = "repro"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch ``/metrics``, ``/health``, ``/audits``, ``/snapshot``
        and ``/profile``."""
        url = urlparse(self.path)
        source = _stable_source(self.source)
        try:
            if url.path == "/metrics":
                body = snapshot_to_prometheus(
                    merged_metrics_snapshot(source), prefix=self.prefix
                )
                self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
            elif url.path == "/health":
                audits = source.audit_snapshot()
                payload = {
                    "status": "ok",
                    "audits": len(audits.get("audits", [])),
                    "recorded": audits.get("recorded", 0),
                    "alerts": len(audits.get("alerts", [])),
                }
                self._reply(200, json.dumps(payload), "application/json")
            elif url.path == "/audits":
                query = parse_qs(url.query, keep_blank_values=True)
                unknown = sorted(set(query) - {"n"})
                if unknown:
                    self._reply(
                        400,
                        f"unknown query parameter(s): {', '.join(unknown)}\n",
                        "text/plain",
                    )
                    return
                audits = source.audit_snapshot()
                if "n" in query:
                    try:
                        limit = max(0, int(query["n"][0]))
                    except ValueError:
                        self._reply(400, "bad ?n= parameter\n", "text/plain")
                        return
                    audits = dict(audits)
                    audits["audits"] = audits["audits"][-limit:] if limit else []
                self._reply(200, json.dumps(audits), "application/json")
            elif url.path == "/snapshot":
                self._reply(
                    200, json.dumps(source.metrics_snapshot()), "application/json"
                )
            elif url.path == "/profile":
                self._reply(
                    200, json.dumps(source.profile_snapshot()), "application/json"
                )
            else:
                self._reply(404, f"no such endpoint: {url.path}\n", "text/plain")
        except Exception as exc:  # defensive: a scrape must never kill the server
            self._reply(500, f"internal error: {exc}\n", "text/plain")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        """Same dispatch as GET; ``_reply`` omits the body for HEAD."""
        self.do_GET()

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are frequent)."""


class MonitorServer:
    """A threaded HTTP server wrapping :class:`_MonitorHandler`.

    ``port=0`` binds an ephemeral port (the bound port is available as
    ``.port`` after :meth:`start`).  The server runs on a daemon thread;
    call :meth:`stop` to shut it down deterministically.
    """

    def __init__(
        self,
        source: MonitorSource,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro",
    ) -> None:
        handler = type(
            "_BoundMonitorHandler",
            (_MonitorHandler,),
            {"source": source, "prefix": prefix},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """Bound host address."""
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """Bound TCP port (resolved even when constructed with 0)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MonitorServer":
        """Start serving on a daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "MonitorServer":
        """Start on context entry."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop on context exit."""
        self.stop()

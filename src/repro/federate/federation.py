"""Multi-origin federation: scrape many telemetry sources, expose one.

A :class:`FederatedSource` owns a set of named origins, each backed by a
loader (a JSON file on disk or an HTTP endpoint serving JSON).  Each
origin may serve either wire format the repo emits:

* a **telemetry snapshot** (``repro.telemetry``, :mod:`.snapshot`) —
  one origin's :func:`~.snapshot.export_telemetry`, written to a file
  or served by another process;
* a **metrics snapshot** (version-1 ``repro.obs`` shape) — what
  ``--metrics-out`` files and a plain monitor's ``/metrics.json`` hold.

Both are normalised to the metrics-snapshot shape, then rendered into
one Prometheus text exposition where every sample carries an
``origin="..."`` label and each metric family is declared exactly once
even when several origins report it.  :meth:`FederatedSource.topology`
summarises the fleet (per origin: reachability, staleness, rounds,
reports and report bytes) for the monitor's ``/topology`` endpoint and
the dashboard's per-origin rows.

Stdlib-only, like the rest of the observability plane.
"""

from __future__ import annotations

import json
import os
import time
import urllib.request
from typing import Any, Callable, Mapping

try:  # package layout
    from ..obs.export import _prom_name, _prom_value
except ImportError:  # standalone layout: `obs` next to `federate`
    from obs.export import _prom_name, _prom_value  # type: ignore

try:
    from .snapshot import TELEMETRY_KIND, telemetry_to_metrics, validate_telemetry
except ImportError:  # pragma: no cover - standalone layout
    from federate.snapshot import (  # type: ignore
        TELEMETRY_KIND,
        telemetry_to_metrics,
        validate_telemetry,
    )

#: Topology document schema version (the ``/topology`` endpoint payload).
TOPOLOGY_VERSION = 1


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _FileLoader:
    """Reads one JSON document from disk; age = file mtime."""

    kind = "file"

    def __init__(self, path: str) -> None:
        self.target = path

    def load(self) -> tuple[dict[str, Any], float | None]:
        with open(self.target, encoding="utf-8") as fh:
            doc = json.load(fh)
        age = max(0.0, time.time() - os.path.getmtime(self.target))
        return doc, age

    def __repr__(self) -> str:
        return f"_FileLoader({self.target!r})"


class _HttpLoader:
    """Fetches one JSON document over HTTP(S); age unknown (live scrape)."""

    kind = "http"

    def __init__(self, url: str, timeout: float = 5.0) -> None:
        self.target = url
        self.timeout = timeout

    def load(self) -> tuple[dict[str, Any], float | None]:
        with urllib.request.urlopen(self.target, timeout=self.timeout) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
        return doc, 0.0

    def __repr__(self) -> str:
        return f"_HttpLoader({self.target!r})"


def _make_loader(target: str) -> Any:
    if target.startswith(("http://", "https://")):
        return _HttpLoader(target)
    return _FileLoader(target)


class FederatedSource:
    """Named origins, each scraped into one normalised metrics view.

    ``origins`` maps an origin name (``site.edge-0``) to a target string
    (path or URL) or to an already-built loader / zero-arg callable
    returning ``(document, age_seconds | None)``.
    """

    def __init__(self, origins: Mapping[str, Any]) -> None:
        if not origins:
            raise ValueError("a FederatedSource needs at least one origin")
        self._loaders: dict[str, Any] = {}
        for origin, target in origins.items():
            if not origin:
                raise ValueError("origin names must be non-empty")
            if isinstance(target, str):
                self._loaders[origin] = _make_loader(target)
            else:
                self._loaders[origin] = target

    @property
    def origins(self) -> list[str]:
        """The configured origin names, sorted."""
        return sorted(self._loaders)

    def _scrape(self, origin: str) -> dict[str, Any]:
        """One origin's raw document plus scrape bookkeeping."""
        loader = self._loaders[origin]
        entry: dict[str, Any] = {
            "origin": origin,
            "kind": getattr(loader, "kind", "callable"),
            "target": getattr(loader, "target", repr(loader)),
            "ok": False,
            "error": None,
            "age_seconds": None,
            "doc": None,
        }
        try:
            if callable(loader) and not hasattr(loader, "load"):
                doc, age = loader()
            else:
                doc, age = loader.load()
            entry["doc"] = doc
            entry["age_seconds"] = age
            entry["ok"] = True
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry

    @staticmethod
    def _normalise(doc: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any] | None]:
        """(metrics snapshot, telemetry doc or None) for one raw document."""
        if doc.get("kind") == TELEMETRY_KIND:
            telemetry = validate_telemetry(doc)
            return telemetry_to_metrics(telemetry), telemetry
        if "counters" in doc and "gauges" in doc:
            return doc, None
        raise ValueError(
            "document is neither a telemetry snapshot nor a metrics snapshot"
        )

    def metrics_by_origin(self) -> dict[str, dict[str, Any]]:
        """Scrape every origin; metrics snapshot per *reachable* origin.

        Unreachable or malformed origins are skipped here (they still
        show up, flagged, in :meth:`topology`) — one dead site must not
        take down the federated exposition.
        """
        out: dict[str, dict[str, Any]] = {}
        for origin in self.origins:
            entry = self._scrape(origin)
            if not entry["ok"]:
                continue
            try:
                metrics, _ = self._normalise(entry["doc"])
            except ValueError:
                continue
            out[origin] = metrics
        return out

    def prometheus(self, prefix: str = "repro") -> str:
        """One text exposition over all reachable origins.

        Every sample is labelled ``{origin="..."}``; each family gets a
        single ``# TYPE`` declaration even when several origins carry
        it.  An extra ``<prefix>_federation_up`` gauge reports per-origin
        scrape health (1 reachable, 0 not), so the exposition itself
        records partial scrapes.
        """
        families: dict[str, tuple[str, str]] = {}  # family -> (type, source name)
        samples: dict[str, list[str]] = {}  # family -> rendered sample lines
        up: dict[str, bool] = {}

        def _declare(family: str, prom_type: str, source: str) -> None:
            held = families.get(family)
            if held is None:
                families[family] = (prom_type, source)
                samples[family] = []
            elif held[0] != prom_type or held[1] != source:
                raise ValueError(
                    f"metric names {held[1]!r} and {source!r} both sanitise "
                    f"to exposition family {family!r}"
                )

        for origin in self.origins:
            entry = self._scrape(origin)
            if not entry["ok"]:
                up[origin] = False
                continue
            try:
                metrics, _ = self._normalise(entry["doc"])
            except ValueError:
                up[origin] = False
                continue
            up[origin] = True
            label = f'origin="{_escape_label(origin)}"'
            for name, value in sorted(metrics.get("counters", {}).items()):
                family = f"{prefix}_{_prom_name(name)}_total"
                _declare(family, "counter", name)
                samples[family].append(
                    f"{family}{{{label}}} {_prom_value(float(value))}"
                )
            for name, value in sorted(metrics.get("gauges", {}).items()):
                family = f"{prefix}_{_prom_name(name)}"
                _declare(family, "gauge", name)
                samples[family].append(
                    f"{family}{{{label}}} {_prom_value(float(value))}"
                )
            for name, summary in sorted(metrics.get("histograms", {}).items()):
                family = f"{prefix}_{_prom_name(name)}"
                _declare(family, "summary", name)
                for quantile, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                    samples[family].append(
                        f'{family}{{{label},quantile="{quantile}"}} '
                        f"{_prom_value(float(summary[field]))}"
                    )
                samples[family].append(
                    f"{family}_sum{{{label}}} {_prom_value(float(summary['sum']))}"
                )
                samples[family].append(
                    f"{family}_count{{{label}}} {int(float(summary['count']))}"
                )
        lines: list[str] = []
        up_family = f"{prefix}_federation_up"
        lines.append(f"# TYPE {up_family} gauge")
        for origin in self.origins:
            lines.append(
                f'{up_family}{{origin="{_escape_label(origin)}"}} '
                f"{1 if up.get(origin) else 0}"
            )
        for family in sorted(families):
            prom_type, _ = families[family]
            lines.append(f"# TYPE {family} {prom_type}")
            lines.extend(samples[family])
        return "\n".join(lines) + "\n"

    def topology(self) -> dict[str, Any]:
        """Fleet summary for the ``/topology`` endpoint.

        Per origin: loader kind and target, scrape health, last-report
        age, and the distributed-protocol vitals derived from the
        origin's own ``dist.*`` metrics — rounds closed, and reports and
        payload bytes sent/received.
        """
        origins: dict[str, dict[str, Any]] = {}
        for origin in self.origins:
            entry = self._scrape(origin)
            row: dict[str, Any] = {
                "kind": entry["kind"],
                "target": entry["target"],
                "ok": entry["ok"],
                "error": entry["error"],
                "age_seconds": entry["age_seconds"],
                "rounds": 0,
                "reports": 0,
                "bytes": 0,
            }
            if entry["ok"]:
                try:
                    metrics, _ = self._normalise(entry["doc"])
                except ValueError as exc:
                    row["ok"] = False
                    row["error"] = f"ValueError: {exc}"
                    origins[origin] = row
                    continue
                counters = metrics.get("counters", {})
                gauges = metrics.get("gauges", {})

                def _take(*names: str) -> float:
                    return sum(float(counters.get(name, 0.0)) for name in names)

                row["rounds"] = int(
                    _take("dist.rounds.closed", "dist.rounds.merged")
                    or float(gauges.get("dist.round.max", 0.0))
                )
                row["reports"] = int(
                    _take("dist.reports.sent", "dist.reports.received")
                )
                row["bytes"] = int(_take("dist.bytes.sent", "dist.bytes.received"))
            origins[origin] = row
        return {
            "version": TOPOLOGY_VERSION,
            "kind": "repro.topology",
            "origins": origins,
        }


def federation_from_args(specs: list[str]) -> FederatedSource:
    """Build a :class:`FederatedSource` from ``ORIGIN=PATH_OR_URL`` specs
    (the ``--federate`` CLI flag, repeatable)."""
    origins: dict[str, str] = {}
    for spec in specs:
        origin, sep, target = spec.partition("=")
        if not sep or not origin or not target:
            raise ValueError(
                f"--federate spec {spec!r} must look like ORIGIN=PATH_OR_URL"
            )
        if origin in origins:
            raise ValueError(f"duplicate federation origin {origin!r}")
        origins[origin] = target
    return FederatedSource(origins)


__all__ = [
    "TOPOLOGY_VERSION",
    "FederatedSource",
    "federation_from_args",
]

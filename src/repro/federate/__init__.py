"""repro.federate — per-origin telemetry for the distributed fleet.

The observability singletons (``repro.obs.METRICS``,
``repro.trace.TRACER``) are process-wide; the paper's deployment (§1)
is many sites and one coordinator.  Attribution happens when telemetry
is recorded:

* a :class:`~repro.distributed.SketchSite` records its ingest and round
  closes inside ``METRICS.scope(origin)`` / ``TRACER.scope(origin)``
  (origin ``site.<name>``), so its counters are named
  ``site.<name>.<metric>`` and its spans carry ``origin=site.<name>`` —
  one Perfetto lane per site, correlated with the coordinator by the
  round's ``trace_id``;
* :func:`export_telemetry` reads one origin's scopes back out as a
  versioned ``repro.telemetry`` envelope of cumulative totals
  (:func:`validate_telemetry` / :func:`telemetry_to_json` round-trip
  it); :meth:`~repro.distributed.SketchCoordinator.telemetry_by_origin`
  returns one per reporting site;
* envelopes cross processes as files or HTTP documents:
  :func:`merge_telemetry` folds exports of distinct origins, and
  :class:`FederatedSource` scrapes many sources — live monitor endpoints
  or files — into one origin-labelled Prometheus exposition and a fleet
  ``/topology`` summary for ``python -m repro.monitor serve --federate``.

``python -m repro.federate`` hosts the CLI: ``selfcheck`` (scope
isolation, merge algebra, wire round-trips), ``validate`` / ``merge``
for envelope files, and ``run`` (a multi-site demo that checks per-origin
attribution and writes merged metrics, one trace, and per-origin
telemetry files).

Everything importable here is standard-library only; the ``run``
demo imports the sketch machinery (numpy) lazily.
"""

from __future__ import annotations

from .federation import TOPOLOGY_VERSION, FederatedSource, federation_from_args
from .snapshot import (
    DEFAULT_HISTOGRAM_SAMPLES,
    DEFAULT_SPAN_BATCH,
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    empty_telemetry,
    export_telemetry,
    merge_all_telemetry,
    merge_telemetry,
    telemetry_from_json,
    telemetry_to_json,
    telemetry_to_metrics,
    validate_telemetry,
)

__all__ = [
    "DEFAULT_HISTOGRAM_SAMPLES",
    "DEFAULT_SPAN_BATCH",
    "FederatedSource",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "TOPOLOGY_VERSION",
    "empty_telemetry",
    "export_telemetry",
    "federation_from_args",
    "merge_all_telemetry",
    "merge_telemetry",
    "telemetry_from_json",
    "telemetry_to_json",
    "telemetry_to_metrics",
    "validate_telemetry",
]

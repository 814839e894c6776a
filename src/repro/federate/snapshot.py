"""The ``repro.telemetry`` envelope: per-origin export, wire schema, merge.

The observability singletons (``repro.obs.METRICS``,
``repro.trace.TRACER``) are process-wide, and distributed sites share a
process with each other and with their coordinator.  Each site records
inside its own scopes (:meth:`repro.obs.MetricsRegistry.scope`,
:meth:`repro.trace.SpanTracer.scope`): its metrics are named
``<origin>.<name>`` and its spans carry ``origin=<origin>``.
:func:`export_telemetry` reads one origin back out of those scopes as a
**versioned JSON envelope** — the form telemetry takes when it leaves
the process (a file, or an HTTP endpoint scraped by ``python -m
repro.monitor serve --federate``).

Wire schema (version 1)::

    {
      "version": 1,
      "kind": "repro.telemetry",
      "origin": "site.edge-0",          # whose telemetry this is
      "seq": 0,                          # sender-defined sequence number
      "counters": {name: total},
      "gauges": {name: [value, ts]},     # wall-clock write timestamps
      "histograms": {name: {"count", "sum", "min", "max", "samples"}},
      "spans": [span records],           # bounded batch, most recent last
      "spans_dropped": 0,
    }

An export holds **cumulative totals** since the scope was first used.
Merging sums counters, so merge exports of *distinct* origins (a fleet
view); two exports of the same origin would count it twice.  Gauges
carry write timestamps so last-write-wins stays well-defined across
processes; histograms carry exact count/sum plus a bounded, evenly
strided reservoir excerpt (the one approximate section — it affects
quantile estimates, never counts or sums).  Readers ignore extra
top-level keys, so envelopes from older writers still validate.

:func:`merge_telemetry` is pure snapshot x snapshot -> snapshot (what
``python -m repro.federate merge`` uses); it is commutative, and
associative on counters.

Imports are stdlib-only, the same contract as every other
observability package.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

#: Telemetry envelope schema version.
TELEMETRY_VERSION = 1

#: The envelope ``kind`` discriminator.
TELEMETRY_KIND = "repro.telemetry"

#: Cap on spans per export (a site round emits a handful; the cap
#: bounds pathological always-on tracing).
DEFAULT_SPAN_BATCH = 512

#: Cap on reservoir samples exported per histogram.
DEFAULT_HISTOGRAM_SAMPLES = 64

_SPAN_FIELDS = ("name", "id", "parent", "start", "end", "attrs")
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "samples")


def empty_telemetry(origin: str, seq: int = 0) -> dict[str, Any]:
    """A structurally valid snapshot carrying nothing."""
    return {
        "version": TELEMETRY_VERSION,
        "kind": TELEMETRY_KIND,
        "origin": origin,
        "seq": seq,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
        "spans_dropped": 0,
    }


def validate_telemetry(snapshot: Any) -> dict[str, Any]:
    """Check a telemetry snapshot against the wire schema.

    Returns the snapshot unchanged; raises ``ValueError`` describing the
    first violation.  Span parent references may point *outside* the
    batch (a parent recorded outside the origin's scope, or cut by the
    span cap), so unlike ``validate_trace`` only id uniqueness is
    required, not parent resolution.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(
            f"telemetry must be a dict, got {type(snapshot).__name__}"
        )
    if snapshot.get("version") != TELEMETRY_VERSION:
        raise ValueError(
            f"unsupported telemetry version {snapshot.get('version')!r} "
            f"(expected {TELEMETRY_VERSION})"
        )
    if snapshot.get("kind") != TELEMETRY_KIND:
        raise ValueError(f"unexpected telemetry kind {snapshot.get('kind')!r}")
    origin = snapshot.get("origin")
    if not isinstance(origin, str) or not origin:
        raise ValueError(f"'origin' must be a non-empty string, got {origin!r}")
    seq = snapshot.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise ValueError(f"'seq' must be a non-negative int, got {seq!r}")
    counters = snapshot.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("section 'counters' missing or not a dict")
    for name, value in counters.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name {name!r} in counters")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"counters[{name!r}] is not numeric: {value!r}")
    gauges = snapshot.get("gauges")
    if not isinstance(gauges, dict):
        raise ValueError("section 'gauges' missing or not a dict")
    for name, pair in gauges.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name {name!r} in gauges")
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise ValueError(
                f"gauges[{name!r}] must be a [value, timestamp] pair, got {pair!r}"
            )
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, dict):
        raise ValueError("section 'histograms' missing or not a dict")
    for name, state in histograms.items():
        if not isinstance(state, dict):
            raise ValueError(f"histograms[{name!r}] must be a dict")
        missing = [f for f in _HISTOGRAM_FIELDS if f not in state]
        if missing:
            raise ValueError(f"histograms[{name!r}] missing fields {missing}")
        if not isinstance(state["count"], int) or state["count"] < 0:
            raise ValueError(
                f"histograms[{name!r}]['count'] must be a non-negative int"
            )
        for field in ("sum", "min", "max"):
            if not isinstance(state[field], (int, float)):
                raise ValueError(f"histograms[{name!r}][{field!r}] is not numeric")
        samples = state["samples"]
        if not isinstance(samples, list) or not all(
            isinstance(v, (int, float)) for v in samples
        ):
            raise ValueError(
                f"histograms[{name!r}]['samples'] must be a list of numbers"
            )
    spans = snapshot.get("spans")
    if not isinstance(spans, list):
        raise ValueError("section 'spans' missing or not a list")
    seen_ids: set[int] = set()
    for index, span in enumerate(spans):
        if not isinstance(span, dict):
            raise ValueError(f"spans[{index}] is not a dict")
        missing = [f for f in _SPAN_FIELDS if f not in span]
        if missing:
            raise ValueError(f"spans[{index}] missing fields {missing}")
        if not isinstance(span["name"], str) or not span["name"]:
            raise ValueError(f"spans[{index}]['name'] must be a non-empty string")
        if not isinstance(span["id"], int) or span["id"] < 1:
            raise ValueError(f"spans[{index}]['id'] must be a positive int")
        if span["id"] in seen_ids:
            raise ValueError(f"spans[{index}] reuses span id {span['id']}")
        seen_ids.add(span["id"])
        parent = span["parent"]
        if parent is not None and (not isinstance(parent, int) or parent < 1):
            raise ValueError(
                f"spans[{index}]['parent'] must be null or a positive int"
            )
        for field in ("start", "end"):
            if not isinstance(span[field], (int, float)):
                raise ValueError(f"spans[{index}][{field!r}] is not numeric")
        if span["end"] < span["start"]:
            raise ValueError(f"spans[{index}] ends before it starts")
        if not isinstance(span["attrs"], dict):
            raise ValueError(f"spans[{index}]['attrs'] must be a dict")
    dropped = snapshot.get("spans_dropped")
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(
            f"'spans_dropped' must be a non-negative int, got {dropped!r}"
        )
    return snapshot


def telemetry_to_json(snapshot: Mapping[str, Any]) -> str:
    """Serialise a telemetry snapshot compactly (the wire bytes)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def telemetry_from_json(text: str) -> dict[str, Any]:
    """Parse and validate a snapshot (inverse of :func:`telemetry_to_json`)."""
    return validate_telemetry(json.loads(text))


# -- pure merge -----------------------------------------------------------


def _merge_numeric(
    a: Mapping[str, float], b: Mapping[str, float]
) -> dict[str, float]:
    out = dict(a)
    for name, value in b.items():
        out[name] = out.get(name, 0) + value
    return out


def _merge_gauges(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, list[float]]:
    out = {name: list(pair) for name, pair in a.items()}
    for name, pair in b.items():
        held = out.get(name)
        # Last write by timestamp; ties break on value so the pick stays
        # order-independent.
        if held is None or (pair[1], pair[0]) > (held[1], held[0]):
            out[name] = list(pair)
    return out


def _merge_histograms(
    a: Mapping[str, Any], b: Mapping[str, Any], max_samples: int
) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {
        name: dict(state, samples=list(state["samples"])) for name, state in a.items()
    }
    for name, state in b.items():
        held = out.get(name)
        if held is None:
            out[name] = dict(state, samples=list(state["samples"]))
            continue
        if state["count"] == 0:
            continue
        if held["count"] == 0:
            out[name] = dict(state, samples=list(state["samples"]))
            continue
        samples = sorted(held["samples"] + list(state["samples"]))
        if len(samples) > max_samples:
            step = len(samples) / max_samples
            samples = [samples[int(i * step)] for i in range(max_samples)]
        out[name] = {
            "count": held["count"] + state["count"],
            "sum": held["sum"] + state["sum"],
            "min": min(held["min"], state["min"]),
            "max": max(held["max"], state["max"]),
            "samples": samples,
        }
    return out


def _merge_spans(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Combine two span batches, remapping ids into one id space.

    Batches are ordered by origin name so the combined list — and the
    id assignment — is independent of argument order.  Parent links are
    remapped within each batch; references outside a batch become null.
    """
    batches = sorted(
        [(a["origin"], a["spans"]), (b["origin"], b["spans"])],
        key=lambda pair: pair[0],
    )
    out: list[dict[str, Any]] = []
    next_id = 1
    for batch_origin, spans in batches:
        id_map = {span["id"]: next_id + i for i, span in enumerate(spans)}
        next_id += len(spans)
        for span in spans:
            attrs = dict(span.get("attrs") or {})
            attrs.setdefault("origin", batch_origin)
            record = dict(span)
            record["id"] = id_map[span["id"]]
            parent = span.get("parent")
            record["parent"] = id_map.get(parent) if parent is not None else None
            record["attrs"] = attrs
            out.append(record)
    return out


def merge_telemetry(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    max_histogram_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
) -> dict[str, Any]:
    """Merge two validated snapshots into one (pure; inputs untouched).

    Counters **sum** — commutative and associative, so
    exports of distinct origins fold in any order (``python -m
    repro.federate selfcheck`` proves it, the hypothesis suite fuzzes
    it).  Gauges take the last write by timestamp;
    histograms add count/sum and combine bounded reservoirs; span
    batches concatenate with ids remapped and per-span ``origin=``
    attribution preserved.  The merged ``origin`` joins the two names
    with ``+`` (sorted) when they differ.
    """
    a = validate_telemetry(dict(a))
    b = validate_telemetry(dict(b))
    if a["origin"] == b["origin"]:
        origin = a["origin"]
    else:
        origin = "+".join(sorted({a["origin"], b["origin"]}))
    return {
        "version": TELEMETRY_VERSION,
        "kind": TELEMETRY_KIND,
        "origin": origin,
        "seq": max(a["seq"], b["seq"]),
        "counters": _merge_numeric(a["counters"], b["counters"]),
        "gauges": _merge_gauges(a["gauges"], b["gauges"]),
        "histograms": _merge_histograms(
            a["histograms"], b["histograms"], max_histogram_samples
        ),
        "spans": _merge_spans(a, b),
        "spans_dropped": a["spans_dropped"] + b["spans_dropped"],
    }


def merge_all_telemetry(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Left-fold :func:`merge_telemetry` over any number of snapshots."""
    merged: dict[str, Any] | None = None
    for snapshot in snapshots:
        doc = validate_telemetry(dict(snapshot))
        merged = doc if merged is None else merge_telemetry(merged, doc)
    if merged is None:
        raise ValueError("nothing to merge (no snapshots given)")
    return merged


def telemetry_to_metrics(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Project a telemetry snapshot onto the version-1 metrics-snapshot
    shape (histogram states become summaries).

    This is what the federated ``/metrics`` exposition renders per
    origin, so a telemetry file is scrapeable exactly like a
    ``--metrics-out`` file.
    """
    snapshot = validate_telemetry(dict(snapshot))
    histograms: dict[str, dict[str, float]] = {}
    for name, state in snapshot["histograms"].items():
        count = state["count"]
        samples = sorted(state["samples"])

        def _pct(p: float) -> float:
            if not samples:
                return 0.0
            rank = max(
                0, min(len(samples) - 1, round(p / 100.0 * (len(samples) - 1)))
            )
            return float(samples[rank])

        histograms[name] = {
            "count": count,
            "sum": float(state["sum"]),
            "min": float(state["min"]),
            "max": float(state["max"]),
            "mean": float(state["sum"]) / count if count else 0.0,
            "p50": _pct(50),
            "p95": _pct(95),
            "p99": _pct(99),
        }
    return {
        "version": 1,
        "counters": {n: float(v) for n, v in snapshot["counters"].items()},
        "gauges": {n: float(pair[0]) for n, pair in snapshot["gauges"].items()},
        "histograms": histograms,
    }


# -- export ---------------------------------------------------------------


def export_telemetry(origin: str, registry: Any, tracer: Any) -> dict[str, Any]:
    """One origin's cumulative telemetry, read from its scopes.

    Metrics ``registry`` recorded inside ``registry.scope(origin)`` (named
    ``<origin>.<name>``) are exported under their bare names; spans are
    those ``tracer`` recorded inside ``tracer.scope(origin)``, the latest
    :data:`DEFAULT_SPAN_BATCH` of them (older ones count into
    ``spans_dropped``).  Readable while recording is off, like
    ``snapshot()``.
    """
    doc = empty_telemetry(origin)
    prefix = f"{origin}."
    for section, metrics, value in (
        ("counters", registry._counters, lambda c: c.value),
        ("gauges", registry._gauges, lambda g: [g.value, g.ts]),
        (
            "histograms",
            registry._histograms,
            lambda h: h.state(max_samples=DEFAULT_HISTOGRAM_SAMPLES),
        ),
    ):
        for name, metric in sorted(metrics.items()):
            if name.startswith(prefix):
                doc[section][name[len(prefix) :]] = value(metric)
    spans = [
        span.as_dict()
        for span in tracer.spans()
        if span.attributes.get("origin") == origin
    ]
    doc["spans"] = spans[-DEFAULT_SPAN_BATCH:]
    doc["spans_dropped"] = len(spans) - len(doc["spans"])
    return doc


__all__ = [
    "DEFAULT_HISTOGRAM_SAMPLES",
    "DEFAULT_SPAN_BATCH",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "empty_telemetry",
    "export_telemetry",
    "merge_all_telemetry",
    "merge_telemetry",
    "telemetry_from_json",
    "telemetry_to_json",
    "telemetry_to_metrics",
    "validate_telemetry",
]

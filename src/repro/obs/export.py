"""Exporters and schema validation for metrics snapshots.

Two wire formats:

* **JSON** — the snapshot dict verbatim (versioned, round-trippable);
  this is what ``python -m repro.eval ... --metrics-out m.json`` writes
  and what ``make metrics-smoke`` validates.
* **Prometheus text exposition** — counters as ``*_total``, gauges
  verbatim, histograms as summaries (``_count`` / ``_sum`` plus
  ``quantile`` samples), all under a configurable name prefix with
  metric names sanitised to ``[a-zA-Z0-9_]``.  A metric recorded inside
  ``METRICS.scope(origin)`` (named ``<origin>.<name>``, with ``origin``
  listed in the snapshot's ``origins``) renders in ``name``'s family
  with an ``origin="<origin>"`` label.

Both exporters operate on the *snapshot* (plain dicts), not on the
registry, so a snapshot can be captured in-process and exported later —
or shipped across a wire and exported coordinator-side.
"""

from __future__ import annotations

import json
import math
from typing import Any

#: Snapshot schema version emitted by :meth:`MetricsRegistry.snapshot`.
SNAPSHOT_VERSION = 1

_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")


def snapshot_to_json(snapshot: dict, indent: int | None = 2) -> str:
    """Serialise a snapshot as JSON (non-finite floats become strings)."""

    def _default(obj: Any):
        raise TypeError(f"snapshot contains non-serialisable value {obj!r}")

    return json.dumps(_jsonable(snapshot), indent=indent, default=_default)


def snapshot_from_json(text: str) -> dict:
    """Parse and validate a JSON snapshot (inverse of :func:`snapshot_to_json`)."""
    return validate_snapshot(json.loads(text), _restore_nonfinite=True)


def _jsonable(value: Any) -> Any:
    """Recursively replace non-finite floats (JSON has no inf/nan)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf" / "-inf" / "nan"
    return value


def _definite(value: Any) -> float:
    """Undo :func:`_jsonable`'s non-finite encoding."""
    if isinstance(value, str):
        return float(value)
    return float(value)


def validate_snapshot(snapshot: Any, _restore_nonfinite: bool = False) -> dict:
    """Check a snapshot against the schema; returns it (normalised).

    Raises ``ValueError`` describing the first violation.  Used by the
    ``make metrics-smoke`` target and the JSON round-trip path.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {snapshot.get('version')!r} "
            f"(expected {SNAPSHOT_VERSION})"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(f"snapshot section {section!r} missing or not a dict")
    out: dict = {"version": SNAPSHOT_VERSION, "counters": {}, "gauges": {}, "histograms": {}}
    if "origins" in snapshot:
        origins = snapshot["origins"]
        if not isinstance(origins, list) or not all(
            isinstance(origin, str) and origin for origin in origins
        ):
            raise ValueError(
                f"'origins' must be a list of non-empty strings, got {origins!r}"
            )
        out["origins"] = list(origins)
    for section in ("counters", "gauges"):
        for name, value in snapshot[section].items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad metric name {name!r} in {section}")
            try:
                out[section][name] = _definite(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{section}[{name!r}] is not numeric: {value!r}"
                ) from None
    for name, summary in snapshot["histograms"].items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name {name!r} in histograms")
        if not isinstance(summary, dict):
            raise ValueError(f"histograms[{name!r}] must be a dict")
        missing = [f for f in _HISTOGRAM_FIELDS if f not in summary]
        if missing:
            raise ValueError(f"histograms[{name!r}] missing fields {missing}")
        fields = {}
        for field in _HISTOGRAM_FIELDS:
            try:
                fields[field] = _definite(summary[field])
            except (TypeError, ValueError):
                raise ValueError(
                    f"histograms[{name!r}][{field!r}] is not numeric: "
                    f"{summary[field]!r}"
                ) from None
        if fields["count"] < 0 or fields["count"] != int(fields["count"]):
            raise ValueError(f"histograms[{name!r}]['count'] must be a whole number >= 0")
        fields["count"] = int(fields["count"])
        out["histograms"][name] = fields
    if not _restore_nonfinite:
        return snapshot
    return out


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(*pairs: str) -> str:
    inner = ",".join(pair for pair in pairs if pair)
    return f"{{{inner}}}" if inner else ""


def snapshot_to_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    A metric named ``<origin>.<name>`` with ``origin`` in the snapshot's
    ``origins`` renders in ``name``'s family, labelled
    ``origin="<origin>"``; the longest matching origin wins.  Each family
    is declared by one ``# TYPE`` line followed by all of its samples.

    Raises ``ValueError`` if two metric names (e.g. ``a.b`` and ``a_b``),
    or two metric types, land in the same exposition family — silently
    emitting a duplicated ``# TYPE`` family is invalid exposition text.
    """
    validate_snapshot(snapshot)
    origins = sorted(snapshot.get("origins", ()), key=len, reverse=True)
    # family -> (type, bare metric name, sample lines), in first-seen order.
    families: dict[str, tuple[str, str, list[str]]] = {}

    def _family(suffix: str, kind: str, name: str) -> tuple[str, str, list[str]]:
        label = ""
        for origin in origins:
            if name.startswith(origin + "."):
                name = name[len(origin) + 1 :]
                label = f'origin="{_escape_label(origin)}"'
                break
        full = f"{prefix}_{_prom_name(name)}{suffix}"
        held = families.setdefault(full, (kind, name, []))
        if held[:2] != (kind, name):
            raise ValueError(
                f"metric names {held[1]!r} ({held[0]}) and {name!r} ({kind}) "
                f"both sanitise to exposition family {full!r}"
            )
        return full, label, held[2]

    for name, value in snapshot["counters"].items():
        full, label, samples = _family("_total", "counter", name)
        samples.append(f"{full}{_labels(label)} {_prom_value(_definite(value))}")
    for name, value in snapshot["gauges"].items():
        full, label, samples = _family("", "gauge", name)
        samples.append(f"{full}{_labels(label)} {_prom_value(_definite(value))}")
    for name, summary in snapshot["histograms"].items():
        full, label, samples = _family("", "summary", name)
        for quantile, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            labels = _labels(label, f'quantile="{quantile}"')
            samples.append(
                f"{full}{labels} {_prom_value(_definite(summary[field]))}"
            )
        samples.append(
            f"{full}_sum{_labels(label)} {_prom_value(_definite(summary['sum']))}"
        )
        samples.append(
            f"{full}_count{_labels(label)} {int(_definite(summary['count']))}"
        )
    lines: list[str] = []
    for full, (kind, _, samples) in families.items():
        lines.append(f"# TYPE {full} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"


def diff_snapshots(old: dict, new: dict) -> dict:
    """Delta of two snapshots (``new`` relative to ``old``).

    Counters are *subtracted* (a metric absent from one side counts as
    zero, so freshly appearing counters show their full value and
    vanished ones go negative — both worth seeing in a diff).  Gauges
    report old/new/delta of their level.  Histograms are merged-compared:
    the event ``count`` and ``sum`` deltas say how much *new* activity
    happened between the snapshots, while the distribution fields
    (mean/p50/p95/p99) are shown side by side — summaries are not
    subtractable, so the comparison is the honest operation.
    """
    old = validate_snapshot(old)
    new = validate_snapshot(new)
    out: dict = {
        "version": SNAPSHOT_VERSION,
        "kind": "repro.obs-diff",
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for name in sorted(set(old["counters"]) | set(new["counters"])):
        before = _definite(old["counters"].get(name, 0.0))
        after = _definite(new["counters"].get(name, 0.0))
        out["counters"][name] = {
            "old": before,
            "new": after,
            "delta": after - before,
        }
    for name in sorted(set(old["gauges"]) | set(new["gauges"])):
        entry: dict = {}
        if name in old["gauges"]:
            entry["old"] = _definite(old["gauges"][name])
        if name in new["gauges"]:
            entry["new"] = _definite(new["gauges"][name])
        if "old" in entry and "new" in entry:
            entry["delta"] = entry["new"] - entry["old"]
        out["gauges"][name] = entry
    for name in sorted(set(old["histograms"]) | set(new["histograms"])):
        entry = {}
        before_h = old["histograms"].get(name)
        after_h = new["histograms"].get(name)
        if before_h is not None and after_h is not None:
            entry["count_delta"] = int(
                _definite(after_h["count"]) - _definite(before_h["count"])
            )
            entry["sum_delta"] = _definite(after_h["sum"]) - _definite(
                before_h["sum"]
            )
        for field in ("mean", "p50", "p95", "p99"):
            entry[field] = {
                "old": _definite(before_h[field]) if before_h else None,
                "new": _definite(after_h[field]) if after_h else None,
            }
        out["histograms"][name] = entry
    return out


def render_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_snapshots` result."""
    lines: list[str] = []
    if diff["counters"]:
        lines.append("counters:")
        for name, entry in diff["counters"].items():
            lines.append(
                f"  {name}: {entry['old']:g} -> {entry['new']:g} "
                f"({entry['delta']:+g})"
            )
    if diff["gauges"]:
        lines.append("gauges:")
        for name, entry in diff["gauges"].items():
            old_s = f"{entry['old']:g}" if "old" in entry else "-"
            new_s = f"{entry['new']:g}" if "new" in entry else "-"
            delta_s = f" ({entry['delta']:+g})" if "delta" in entry else ""
            lines.append(f"  {name}: {old_s} -> {new_s}{delta_s}")
    if diff["histograms"]:
        lines.append("histograms:")
        for name, entry in diff["histograms"].items():
            lines.append(f"  {name}:")
            if "count_delta" in entry:
                lines.append(
                    f"    events: {entry['count_delta']:+d}, "
                    f"sum: {entry['sum_delta']:+g}"
                )
            for field in ("mean", "p50", "p95", "p99"):
                old_v, new_v = entry[field]["old"], entry[field]["new"]
                old_s = f"{old_v:g}" if old_v is not None else "-"
                new_s = f"{new_v:g}" if new_v is not None else "-"
                lines.append(f"    {field}: {old_s} -> {new_s}")
    if not lines:
        lines.append("(both snapshots empty)")
    return "\n".join(lines)


def write_snapshot(path: str, snapshot: dict) -> None:
    """Write a snapshot to ``path`` as JSON (the ``--metrics-out`` format)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_to_json(snapshot))
        fh.write("\n")

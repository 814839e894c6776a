"""ACCURACY file schema, validation and the trajectory ``compare`` gate.

An ACCURACY file is one point on the repo's *estimate-quality*
trajectory: a versioned JSON document of per-workload records

.. code-block:: json

    {"version": 1, "kind": "repro.workloads", "suite": "smoke",
     "revision": "abc1234",
     "engine": {"width": 256, "depth": 5, "seed": 101, "delta": 0.05},
     "records": [{"workload": "delete_churn", "params": {...}, "seed": 0,
                  "updates": 38280,
                  "queries": [{"left": "f", "right": "g",
                               "estimate": 311.0, "exact": 309.0,
                               "realized_relative_error": 0.0065,
                               "covered": true, "ci_halfwidth": 120.5,
                               "residual_bound_ok": true}],
                  "max_realized_relative_error": 0.0065,
                  "mean_realized_relative_error": 0.0065,
                  "coverage_rate": 1.0,
                  "residual_ok_rate": 1.0,
                  "drift_alerts": 0}]}

Because the corpus and the engine seeds are fixed, every number is
bit-stable across runs and machines, so ``compare_accuracy`` gates are
meaningful in CI:

* **error**: ``max_realized_relative_error`` grew by more than
  ``max_error_increase`` (absolute delta);
* **coverage**: ``coverage_rate`` (fraction of audited queries whose
  realized error fell inside the theory CI) dropped by more than
  ``max_coverage_drop``;
* a workload disappearing from the current file is always a regression.

Records are matched across files by ``(workload, params, seed)``, so a
parameter change is a *new* trajectory point, never a silent comparison
of unlike workloads.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import ParameterError

#: ACCURACY document schema version.
ACCURACY_VERSION = 1

#: Default tolerated absolute growth of a workload's max realized
#: relative error before ``compare`` fails.
DEFAULT_MAX_ERROR_INCREASE = 0.05

#: Default tolerated absolute drop of a workload's CI-coverage rate.
DEFAULT_MAX_COVERAGE_DROP = 0.05

_RATE_FIELDS = ("coverage_rate", "residual_ok_rate")
_ERROR_FIELDS = ("max_realized_relative_error", "mean_realized_relative_error")
_QUERY_FIELDS = (
    "left",
    "right",
    "estimate",
    "exact",
    "realized_relative_error",
    "covered",
    "ci_halfwidth",
    "residual_bound_ok",
)


def validate_accuracy(doc: Any) -> dict[str, Any]:
    """Check an ACCURACY document against the schema; returns it unchanged.

    Raises :class:`~repro.errors.ParameterError` describing the first
    violation.
    """
    if not isinstance(doc, dict):
        raise ParameterError(
            f"ACCURACY document must be a dict, got {type(doc).__name__}"
        )
    if doc.get("version") != ACCURACY_VERSION:
        raise ParameterError(
            f"unsupported ACCURACY version {doc.get('version')!r} "
            f"(expected {ACCURACY_VERSION})"
        )
    if doc.get("kind") != "repro.workloads":
        raise ParameterError(f"unexpected ACCURACY kind {doc.get('kind')!r}")
    for field in ("suite", "revision"):
        if not isinstance(doc.get(field), str) or not doc[field]:
            raise ParameterError(f"ACCURACY field {field!r} missing or empty")
    if not isinstance(doc.get("engine"), dict):
        raise ParameterError("ACCURACY section 'engine' missing or not a dict")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        raise ParameterError("ACCURACY section 'records' missing or empty")
    seen: set[str] = set()
    for index, record in enumerate(records):
        where = f"records[{index}]"
        if not isinstance(record, dict):
            raise ParameterError(f"{where} is not a dict")
        if not isinstance(record.get("workload"), str) or not record["workload"]:
            raise ParameterError(f"{where}['workload'] missing or empty")
        if not isinstance(record.get("params"), dict):
            raise ParameterError(f"{where}['params'] must be a dict")
        if not isinstance(record.get("seed"), int):
            raise ParameterError(f"{where}['seed'] must be an int")
        key = record_key(record)
        if key in seen:
            raise ParameterError(f"{where} duplicates {key}")
        seen.add(key)
        if not isinstance(record.get("updates"), int) or record["updates"] < 0:
            raise ParameterError(
                f"{where}['updates'] must be a non-negative int"
            )
        queries = record.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ParameterError(f"{where}['queries'] missing or empty")
        for qindex, query in enumerate(queries):
            if not isinstance(query, dict):
                raise ParameterError(f"{where}['queries'][{qindex}] is not a dict")
            missing = [f for f in _QUERY_FIELDS if f not in query]
            if missing:
                raise ParameterError(
                    f"{where}['queries'][{qindex}] missing fields {missing}"
                )
        for field in _ERROR_FIELDS:
            value = record.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise ParameterError(
                    f"{where}[{field!r}] must be a non-negative finite "
                    f"number, got {value!r}"
                )
        for field in _RATE_FIELDS:
            value = record.get(field)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ParameterError(
                    f"{where}[{field!r}] must be a number in [0, 1], "
                    f"got {value!r}"
                )
        alerts = record.get("drift_alerts")
        if not isinstance(alerts, int) or alerts < 0:
            raise ParameterError(
                f"{where}['drift_alerts'] must be a non-negative int"
            )
    return doc


def record_key(record: dict[str, Any]) -> str:
    """Stable identity of one record: workload, canonical params, seed."""
    return (
        f"{record['workload']}"
        f"::{json.dumps(record['params'], sort_keys=True)}"
        f"::seed={record['seed']}"
    )


def compare_accuracy(
    baseline: dict[str, Any],
    current: dict[str, Any],
    max_error_increase: float = DEFAULT_MAX_ERROR_INCREASE,
    max_coverage_drop: float = DEFAULT_MAX_COVERAGE_DROP,
) -> tuple[list[dict[str, Any]], list[str]]:
    """Diff two validated ACCURACY documents.

    Returns ``(rows, regressions)``: one row per record key across both
    files (``status``: matched/added/removed plus per-axis deltas), and a
    list of human-readable regression descriptions (empty == pass).
    """
    validate_accuracy(baseline)
    validate_accuracy(current)
    base_by_key = {record_key(r): r for r in baseline["records"]}
    cur_by_key = {record_key(r): r for r in current["records"]}
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    for key in sorted(set(base_by_key) | set(cur_by_key)):
        base, cur = base_by_key.get(key), cur_by_key.get(key)
        if base is None:
            rows.append({"key": key, "status": "added"})
            continue
        if cur is None:
            rows.append({"key": key, "status": "removed"})
            regressions.append(f"{key}: workload disappeared from current file")
            continue
        row: dict[str, Any] = {"key": key, "status": "matched"}
        base_err = base["max_realized_relative_error"]
        cur_err = cur["max_realized_relative_error"]
        delta = cur_err - base_err
        row["max_realized_relative_error"] = {
            "baseline": base_err, "current": cur_err, "delta": delta,
        }
        if delta > max_error_increase:
            regressions.append(
                f"{key}: max realized relative error grew {base_err:.4f} -> "
                f"{cur_err:.4f} (+{delta:.4f}, limit +{max_error_increase:.4f})"
            )
        base_cov = base["coverage_rate"]
        cur_cov = cur["coverage_rate"]
        drop = base_cov - cur_cov
        row["coverage_rate"] = {
            "baseline": base_cov, "current": cur_cov, "drop": drop,
        }
        if drop > max_coverage_drop:
            regressions.append(
                f"{key}: CI-coverage rate dropped {base_cov:.3f} -> "
                f"{cur_cov:.3f} (-{drop:.3f}, limit -{max_coverage_drop:.3f})"
            )
        row["residual_ok_rate"] = {
            "baseline": base["residual_ok_rate"],
            "current": cur["residual_ok_rate"],
        }
        if cur["residual_ok_rate"] < base["residual_ok_rate"]:
            regressions.append(
                f"{key}: residual-bound verdict rate dropped "
                f"{base['residual_ok_rate']:.3f} -> {cur['residual_ok_rate']:.3f}"
            )
        row["drift_alerts"] = {
            "baseline": base["drift_alerts"], "current": cur["drift_alerts"],
        }
        if cur["drift_alerts"] > base["drift_alerts"]:
            regressions.append(
                f"{key}: drift alerts grew {base['drift_alerts']} -> "
                f"{cur['drift_alerts']}"
            )
        rows.append(row)
    return rows, regressions


def render_compare(rows: list[dict[str, Any]], regressions: list[str]) -> str:
    """Human-readable report for ``python -m repro.workloads compare``."""
    lines = []
    for row in rows:
        if row["status"] != "matched":
            lines.append(f"{row['status']:>8}  {row['key']}")
            continue
        err = row["max_realized_relative_error"]
        cov = row["coverage_rate"]
        res = row["residual_ok_rate"]
        lines.append(
            f" matched  {row['key']}\n"
            f"          max err {err['baseline']:.4f} -> {err['current']:.4f}; "
            f"coverage {cov['baseline']:.3f} -> {cov['current']:.3f}; "
            f"residual-ok {res['baseline']:.3f} -> {res['current']:.3f}"
        )
    if regressions:
        lines.append("")
        lines.append(f"ACCURACY REGRESSIONS ({len(regressions)}):")
        lines.extend(f"  - {r}" for r in regressions)
    else:
        lines.append("")
        lines.append("no accuracy regressions")
    return "\n".join(lines)


def write_accuracy(path: str, doc: dict[str, Any]) -> None:
    """Validate and write an ACCURACY document as JSON."""
    validate_accuracy(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_accuracy(path: str) -> dict[str, Any]:
    """Load and validate an ACCURACY document."""
    with open(path, encoding="utf-8") as fh:
        return validate_accuracy(json.load(fh))

"""Per-query estimate-quality audits: records, theory CIs, the audit log.

The paper's headline result is a *guarantee* — ESTSKIMJOINSIZE answers
within relative error ``~ 8 * sqrt(SJ(f') * SJ(g')) / (J * sqrt(s1))``
with high probability (Theorem 4.2 / Lemma 4.1), where ``SJ(f')`` /
``SJ(g')`` are the self-join sizes of the *skimmed residuals*.  At
runtime the estimator returns a bare number; this module makes the
guarantee observable per query:

* :class:`QueryAudit` — one join estimate's full quality record: the
  four sub-join terms, the residual self-join sizes, the skim thresholds,
  the residual-infinity-norm check against SKIMDENSE's ``< 2T`` contract,
  and an a-posteriori confidence interval at a configurable ``delta``;
* :func:`confidence_halfwidth` — the CI math (Chebyshev per table plus
  median boosting across the ``s2`` tables, see the function docstring);
* :class:`AuditLog` — the process-wide sink (``repro.monitor.AUDIT``):
  a bounded in-memory ring plus an optional streaming JSONL sink, **off
  by default** behind a single ``enabled`` attribute exactly like
  ``repro.obs.METRICS`` and ``repro.trace.TRACER`` (the R3 linter rule
  keeps every hook lexically guarded).

Like its sibling observability packages, this module imports **only the
standard library** — it must ride along in the thinnest serving agent
(the test suite enforces the no-numpy constraint).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, TextIO

#: Default bound on the in-memory audit ring.
DEFAULT_MAX_AUDITS = 4096

#: Default CI miss probability (the ``delta`` in a ``1 - delta`` CI).
DEFAULT_DELTA = 0.05

#: SKIMDENSE's residual contract: every skimmed frequency is below
#: ``RESIDUAL_BOUND_FACTOR * threshold`` with high probability (Thm 4.1).
RESIDUAL_BOUND_FACTOR = 2.0


def per_table_tail_probability(delta: float, depth: int) -> float:
    """Largest per-table failure probability ``p`` so the median holds.

    The estimator medians ``depth`` (the paper's ``s2``) independent
    per-table estimates.  If each table deviates beyond the CI halfwidth
    with probability at most ``p``, the *median* deviates only when at
    least half the tables do, which fails with probability at most

    * ``exp(-2 * depth * (1/2 - p)**2)`` (Hoeffding on the count of bad
      tables) — the usual boosting bound, strong for deep sketches; and
    * ``2 * p`` (Markov on the expected count ``depth * p``) — weak but
      depth-free, so shallow sketches still get a finite interval.

    We return the largest ``p`` (tightest CI) for which either bound is
    at most ``delta``: ``max(delta / 2, 1/2 - sqrt(ln(1/delta) /
    (2 * depth)))``.  Always in ``(0, 1/2]``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    hoeffding = 0.5 - math.sqrt(math.log(1.0 / delta) / (2.0 * depth))
    return min(0.5, max(delta / 2.0, hoeffding))


def confidence_halfwidth(
    sj_f_dense: float,
    sj_g_dense: float,
    sj_f_residual: float,
    sj_g_residual: float,
    width: int,
    depth: int,
    delta: float = DEFAULT_DELTA,
) -> float:
    """A-posteriori CI halfwidth for one skimmed-sketch join estimate.

    Of the four sub-join terms only three are estimated (the dense-dense
    term is exact); per Lemma 4.1 each per-table estimate of
    ``<left, right>`` has variance at most ``2 * SJ(left) * SJ(right) /
    s1``.  Chebyshev bounds the per-table deviation by
    ``sqrt(2 * SJ(left) * SJ(right) / (s1 * p))`` with probability
    ``1 - p``, and :func:`per_table_tail_probability` picks ``p`` so the
    median over the ``s2`` tables holds with probability ``1 - delta``.
    The halfwidth is the sum of the three terms' bounds — at the default
    ``delta = 0.05`` the sparse-sparse term alone contributes
    ``~ 9 * sqrt(SJ(f') * SJ(g')) / sqrt(s1)``, the shape of the
    Theorem 4.2 guarantee.

    All self-join sizes must be non-negative (clamp estimates first).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    for name, value in (
        ("sj_f_dense", sj_f_dense),
        ("sj_g_dense", sj_g_dense),
        ("sj_f_residual", sj_f_residual),
        ("sj_g_residual", sj_g_residual),
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    p = per_table_tail_probability(delta, depth)
    scale = math.sqrt(2.0 / (float(width) * p))
    return scale * (
        math.sqrt(sj_f_dense * sj_g_residual)
        + math.sqrt(sj_g_dense * sj_f_residual)
        + math.sqrt(sj_f_residual * sj_g_residual)
    )


@dataclass
class QueryAudit:
    """One join estimate's quality record (the ``/audits`` wire schema).

    One builder, :func:`repro.core.estimator.build_audit`, makes every
    record, complete, at the call that returns the estimate: origin
    ``estimator`` (``SkimmedSketch.est_join_size``), ``engine`` (stream
    names, per-stream health and, with a shadow attached, the realized
    error) or ``coordinator`` (stream and site names).  Nothing changes
    a record once it is recorded; ``None`` marks context the answering
    call does not have (e.g. stream names of a direct ``est_join_size``).
    """

    estimate: float
    dense_dense: float
    dense_sparse: float
    sparse_dense: float
    sparse_sparse: float
    sj_f_dense: float
    sj_g_dense: float
    sj_f_residual: float
    sj_g_residual: float
    width: int
    depth: int
    threshold_f: float
    threshold_g: float
    residual_linf_f: float
    residual_linf_g: float
    residual_bound_ok: bool
    delta: float
    ci_halfwidth: float
    ci_low: float
    ci_high: float
    index: int = 0
    origin: str = "estimator"
    dyadic: bool | None = None
    n_f: float | None = None
    n_g: float | None = None
    streams: tuple[str, ...] | None = None
    sites: tuple[str, ...] | None = None
    health: dict[str, dict[str, float]] | None = None
    shadow_exact: float | None = None
    realized_error: float | None = None
    realized_relative_error: float | None = None
    covered: bool | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def relative_ci_halfwidth(self) -> float:
        """``ci_halfwidth / |estimate|`` (``inf`` for a zero estimate)."""
        if self.estimate == 0:
            return float("inf")
        return self.ci_halfwidth / abs(self.estimate)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready dict (non-finite floats encoded as strings)."""
        out = asdict(self)
        out["record_type"] = "audit"
        for key in ("streams", "sites"):
            if out[key] is not None:
                out[key] = list(out[key])
        return _jsonable(out)

    def to_json(self) -> str:
        """The audit as one compact JSON line (the JSONL wire format)."""
        return json.dumps(self.as_dict(), sort_keys=True)


def _jsonable(value: Any) -> Any:
    """Recursively replace non-finite floats (JSON has no inf/nan)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf" / "-inf" / "nan"
    return value


def _definite(value: Any) -> Any:
    """Undo :func:`_jsonable`'s non-finite string encoding."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    if isinstance(value, dict):
        return {k: _definite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_definite(v) for v in value]
    return value


#: QueryAudit fields that must be present on every wire record.
_REQUIRED_AUDIT_FIELDS = (
    "estimate",
    "dense_dense",
    "dense_sparse",
    "sparse_dense",
    "sparse_sparse",
    "sj_f_residual",
    "sj_g_residual",
    "width",
    "depth",
    "threshold_f",
    "threshold_g",
    "residual_bound_ok",
    "delta",
    "ci_halfwidth",
    "ci_low",
    "ci_high",
)


def audit_from_dict(data: dict[str, Any]) -> QueryAudit:
    """Rebuild a :class:`QueryAudit` from its wire dict (inverse of
    :meth:`QueryAudit.as_dict`); raises ``ValueError`` on schema gaps."""
    if not isinstance(data, dict):
        raise ValueError(f"audit record must be a dict, got {type(data).__name__}")
    missing = [f for f in _REQUIRED_AUDIT_FIELDS if f not in data]
    if missing:
        raise ValueError(f"audit record missing fields {missing}")
    payload = {k: _definite(v) for k, v in data.items() if k != "record_type"}
    for key in ("streams", "sites"):
        if payload.get(key) is not None:
            payload[key] = tuple(payload[key])
    known = set(QueryAudit.__dataclass_fields__)
    unknown = {k: payload.pop(k) for k in list(payload) if k not in known}
    audit = QueryAudit(**payload)
    if unknown:
        audit.extra.update(unknown)
    return audit


class AuditLog:
    """Bounded ring of :class:`QueryAudit` records behind one switch.

    The process-wide instance is ``repro.monitor.AUDIT``; instrumentation
    hooks in the estimator / engine / coordinator guard every recording
    call with a plain ``if _AUDIT.enabled:`` branch (linter rule R3), so
    disabled auditing costs one attribute read per *query* — audits
    never touch the per-element path.

    ``max_audits`` bounds memory: the ring keeps the most recent records
    and counts evictions in ``evicted``.  An optional JSONL sink
    (:meth:`open_jsonl`) streams every audit, writing each record when it
    is recorded.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_audits: int = DEFAULT_MAX_AUDITS,
        delta: float = DEFAULT_DELTA,
    ) -> None:
        if max_audits < 1:
            raise ValueError(f"max_audits must be >= 1, got {max_audits}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.enabled = enabled
        self.max_audits = max_audits
        self.delta = delta
        self.evicted = 0
        self.alerts: list[Any] = []
        self._ring: deque[QueryAudit] = deque(maxlen=max_audits)
        self._next_index = 1
        self._sink: TextIO | None = None

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        """Turn audit recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn audit recording off; recorded audits are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every audit and alert, restart indices (flag kept);
        closes any open JSONL sink."""
        self._ring.clear()
        self.alerts.clear()
        self.evicted = 0
        self._next_index = 1
        self.close_jsonl()

    # -- recording ---------------------------------------------------------

    def record(self, audit: QueryAudit) -> QueryAudit:
        """Append one complete audit (no-op while disabled); returns it
        with its assigned index, after writing it to the JSONL sink."""
        if not self.enabled:
            return audit
        audit.index = self._next_index
        self._next_index += 1
        if len(self._ring) == self._ring.maxlen:
            self.evicted += 1
        if self._sink is not None:
            self._sink.write(audit.to_json())
            self._sink.write("\n")
            self._sink.flush()  # the sink exists to be tailed live
        self._ring.append(audit)
        return audit

    def alert(self, alert: Any) -> None:
        """Append one structured drift alert (no-op while disabled)."""
        if not self.enabled:
            return
        self.alerts.append(alert)

    # -- reading -----------------------------------------------------------

    def last(self) -> QueryAudit | None:
        """The most recently recorded audit (``None`` when empty)."""
        return self._ring[-1] if self._ring else None

    def audits(self) -> list[QueryAudit]:
        """Retained audits, oldest first."""
        return list(self._ring)

    def recent(self, count: int) -> list[QueryAudit]:
        """The last ``count`` audits, oldest first."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return list(self._ring)[-count:] if count else []

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[QueryAudit]:
        return iter(self._ring)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of the ring and alerts (readable while
        disabled, like a metrics snapshot).

        ``list(deque)`` runs atomically under the GIL, so materialising
        first lets a monitor thread snapshot while queries append —
        iterating the live deque directly would raise ``RuntimeError``.
        """
        audits = list(self._ring)
        alerts = list(self.alerts)
        return {
            "version": 1,
            "kind": "repro.monitor",
            "recorded": self._next_index - 1,
            "evicted": self.evicted,
            "audits": [a.as_dict() for a in audits],
            "alerts": [a.as_dict() for a in alerts],
        }

    # -- JSONL sink --------------------------------------------------------

    def open_jsonl(self, path: str) -> None:
        """Start streaming every audit to ``path`` (one JSON object per
        line).  Replaces any previously open sink."""
        self.close_jsonl()
        self._sink = open(path, "w", encoding="utf-8")

    def close_jsonl(self) -> None:
        """Close the streaming sink (no-op when none is open)."""
        if self._sink is None:
            return
        self._sink.close()
        self._sink = None

    def write_jsonl(self, path: str) -> int:
        """Dump the retained ring (and alerts) to ``path`` as JSONL;
        returns the number of lines written.  This is what ``python -m
        repro.eval --audit-out`` calls at the end of a run."""
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            for audit in self._ring:
                fh.write(audit.to_json())
                fh.write("\n")
                lines += 1
            for alert in self.alerts:
                fh.write(json.dumps(alert.as_dict(), sort_keys=True))
                fh.write("\n")
                lines += 1
        return lines

    def __repr__(self) -> str:
        return (
            f"AuditLog(enabled={self.enabled}, audits={len(self._ring)}, "
            f"alerts={len(self.alerts)}, evicted={self.evicted})"
        )


def read_audit_jsonl(path: str) -> tuple[list[QueryAudit], list[dict[str, Any]]]:
    """Load an audit JSONL file; returns ``(audits, alert_dicts)``.

    Lines whose ``record_type`` is ``"drift_alert"`` are returned as raw
    dicts (alerts are display records, not rebuilt objects).
    """
    audits: list[QueryAudit] = []
    alerts: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if isinstance(data, dict) and data.get("record_type") == "drift_alert":
                alerts.append(data)
            else:
                audits.append(audit_from_dict(data))
    return audits, alerts

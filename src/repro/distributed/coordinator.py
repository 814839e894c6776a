"""Coordinator: merge site reports, answer global join queries.

The coordinator holds, per stream, either the latest cumulative sketch per
site (``cumulative`` sites) or the running sum of deltas (``delta``
sites), and answers queries against the merged union sketch.  Because
sketches are linear, the merged estimate equals what a single centralised
sketch over all sites' traffic would produce — distribution costs
*communication only* (a few KB per site per round), which is the point of
using synopses in the paper's network-monitoring setting.

Linearity also means the merged answer hides which site did what; the
per-site view is telemetry.  Every site records inside its own
``METRICS.scope`` / ``TRACER.scope`` (origin ``site.<name>``), so the
process-wide ``METRICS`` snapshot lists each site under ``origins`` and
its Prometheus exposition labels each site's samples with ``origin=``;
the trace gives each site its own Perfetto lane.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext

from ..core.estimator import SkimmedSketch, SkimmedSketchSchema, build_audit
from ..errors import IncompatibleSketchError, ParameterError, QueryError
from ..monitor import AUDIT as _AUDIT
from ..obs import METRICS as _METRICS
from ..sketches.serialize import SerializationError
from ..trace import TRACER as _TRACER
from .protocol import ProtocolError, RoundSummary, SketchReport, TraceContext


class SketchCoordinator:
    """Fleet-wide aggregation point for site sketch reports.

    Parameters
    ----------
    schema:
        The fleet schema; incoming report sketches must be compatible
        (identical hash/sign randomness) or they are rejected.
    delta_sites:
        Names of sites reporting deltas (their reports *add*); all other
        sites are treated as cumulative (their reports *replace*).
    """

    def __init__(
        self, schema: SkimmedSketchSchema, delta_sites: set[str] | None = None
    ):
        self.schema = schema
        self.delta_sites = set(delta_sites or ())
        # stream -> site -> site's current sketch contribution.
        self._contributions: dict[str, dict[str, SkimmedSketch]] = defaultdict(dict)
        self._last_round: dict[tuple[str, str], int] = {}
        self._bytes_received = 0
        self._reports_merged = 0
        self._minted_rounds = 0

    # -- trace-context minting ---------------------------------------------

    def mint_trace_context(self, round_number: int | None = None) -> TraceContext:
        """Mint the correlation context for the next reporting round.

        The coordinator owns trace-id allocation (sites just echo it
        back), so one fleet-wide id names the round across every origin's
        span tree.  ``round_number`` defaults to an internal mint
        counter; pass it explicitly when the fleet's round numbering is
        driven elsewhere.
        """
        self._minted_rounds += 1
        n = self._minted_rounds if round_number is None else round_number
        return TraceContext(trace_id=f"fleet-round-{n:06d}", round_number=n)

    # -- ingestion ---------------------------------------------------------

    def receive(self, report: SketchReport) -> None:
        """Absorb one site report (validating payload, schema, round
        ordering and, for a delta site, the 2**53 mass ceiling of the
        merge); a refused report is counted in ``dist.reports.rejected``
        and leaves the site's contribution and round as they were."""
        with _TRACER.span(
            "dist.receive",
            site=report.site,
            stream=report.stream,
            round=report.round_number,
        ) if _TRACER.enabled else nullcontext() as span:
            self._receive(report, span)

    def _receive(self, report: SketchReport, span) -> None:
        key = (report.site, report.stream)
        last = self._last_round.get(key, 0)
        if report.round_number <= last:
            self._reject(span, "stale")
            raise ProtocolError(
                f"stale report: {key} round {report.round_number} "
                f"(already at {last})"
            )
        try:
            sketch = report.open_sketch()
        except SerializationError:
            self._reject(span, "malformed")
            raise
        if not isinstance(sketch, SkimmedSketch) or not self.schema.is_compatible(
            sketch.schema
        ):
            self._reject(span, "incompatible")
            raise IncompatibleSketchError(
                f"report from {report.site!r} carries a sketch incompatible "
                "with the fleet schema"
            )
        per_site = self._contributions[report.stream]
        if report.site in self.delta_sites and report.site in per_site:
            try:
                sketch = per_site[report.site].merged_with(sketch)
            except ParameterError:
                self._reject(span, "mass_ceiling")
                raise
        per_site[report.site] = sketch
        self._last_round[key] = report.round_number
        size = report.size_in_bytes()
        self._bytes_received += size
        self._reports_merged += 1
        if span is not None:
            span.set(bytes=size)
        if _METRICS.enabled:
            _METRICS.count("dist.reports.received")
            _METRICS.count("dist.bytes.received", size)
            _METRICS.gauge_max("dist.round.max", report.round_number)

    @staticmethod
    def _reject(span, reason: str) -> None:
        """Count a refused report and tag its ``dist.receive`` span."""
        if _METRICS.enabled:
            _METRICS.count("dist.reports.rejected")
        if span is not None:
            span.set(rejected=reason)

    def receive_all(self, reports: list[SketchReport]) -> RoundSummary:
        """Absorb a batch of reports and summarise the round."""
        trace_id = next(
            (
                r.trace_context["trace_id"]
                for r in reports
                if isinstance(r.trace_context, dict) and "trace_id" in r.trace_context
            ),
            None,
        )
        with _TRACER.span(
            "dist.merge_round", reports=len(reports)
        ) if _TRACER.enabled else nullcontext() as sp:
            if sp is not None and trace_id is not None:
                sp.set(trace_id=trace_id)
            for report in reports:
                self.receive(report)
        round_number = max((r.round_number for r in reports), default=0)
        return RoundSummary(
            round_number=round_number,
            streams=tuple(sorted({r.stream for r in reports})),
            sites_reporting=tuple(sorted({r.site for r in reports})),
            bytes_received=sum(r.size_in_bytes() for r in reports),
            reports_merged=len(reports),
        )

    # -- global state ----------------------------------------------------------

    def streams(self) -> list[str]:
        """Streams with at least one contribution."""
        return sorted(self._contributions)

    def sites_for(self, stream: str) -> list[str]:
        """Sites that have contributed to ``stream``."""
        return sorted(self._contributions.get(stream, {}))

    def global_sketch(self, stream: str) -> SkimmedSketch:
        """The union sketch of a stream across all reporting sites.

        It is merged into a sketch of the fleet schema, not of a report's
        freshly deserialised one, so the lookup tables the fleet schema
        builds serve every round's queries.
        """
        per_site = self._contributions.get(stream)
        if not per_site:
            raise QueryError(f"no reports received for stream {stream!r}")
        merged = self.schema.create_sketch()
        for sketch in per_site.values():
            merged = merged.merged_with(sketch)
        return merged

    # -- queries ------------------------------------------------------------------

    def est_join_size(self, left: str, right: str) -> float:
        """Global ``COUNT(left join right)`` across all sites' traffic; a
        self-join merges and skims its stream once."""
        if left == right:
            return self.est_self_join_size(left)
        return self._estimate(
            left, right, self.global_sketch(left), self.global_sketch(right)
        )

    def est_self_join_size(self, stream: str) -> float:
        """Global second moment of a stream across all sites."""
        sketch = self.global_sketch(stream)
        return self._estimate(stream, stream, sketch, sketch)

    def _estimate(
        self, left: str, right: str, sketch_f: SkimmedSketch, sketch_g: SkimmedSketch
    ) -> float:
        """Answer from the merged sketches; the audit names the sites whose
        traffic the answer aggregates, so a bad CI or residual-bound
        violation can be chased back to the reporting fleet."""
        breakdown = sketch_f.join_breakdown(sketch_g)
        if _AUDIT.enabled:
            sites = tuple(sorted({*self.sites_for(left), *self.sites_for(right)}))
            _AUDIT.record(
                build_audit(
                    breakdown,
                    sketch_f,
                    sketch_g,
                    origin="coordinator",
                    streams=(left, right),
                    sites=sites,
                )
            )
        return breakdown.estimate

    def point_estimate(self, stream: str, value: int) -> float:
        """Global frequency estimate of one value across all sites."""
        return self.global_sketch(stream).point_estimate(value)

    def communication_stats(self) -> tuple[int, int]:
        """``(reports merged, total bytes received)`` since start."""
        return self._reports_merged, self._bytes_received

    def __repr__(self) -> str:
        return (
            f"SketchCoordinator(streams={self.streams()}, "
            f"reports={self._reports_merged})"
        )

"""Site-side agent: sketch the local substream, report on demand.

A :class:`SketchSite` owns one sketch per declared stream (all built from
the shared schema so the coordinator can merge them), absorbs local
updates, and packages :class:`~repro.distributed.protocol.SketchReport`
messages when a reporting round closes.  Two reporting modes:

* ``cumulative`` (default) — each report carries the site's full sketch
  since start; the coordinator *replaces* its copy.  Robust to lost
  reports (the next one supersedes).
* ``delta`` — each report carries only the updates since the previous
  report (the sketch is reset after reporting); the coordinator *adds*
  deltas.  Smaller rounds, but a lost report loses data — the classic
  trade-off, both exact under linearity when delivery holds.

Telemetry is attributed where it is recorded: :meth:`SketchSite.observe`,
:meth:`~SketchSite.observe_bulk` and :meth:`~SketchSite.close_round` run
inside ``METRICS.scope(origin)`` and ``TRACER.scope(origin)`` with origin
``site.<name>``.  Every site shares its process with the other sites and
the coordinator; the scopes keep their counters and spans apart, and
``snapshot_to_prometheus`` labels each site's samples ``origin=site.<name>``.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..core.estimator import SkimmedSketchSchema
from ..errors import ParameterError, QueryError
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from .protocol import SketchReport, TraceContext, site_origin

#: Supported reporting modes.
REPORT_MODES = ("cumulative", "delta")


class SketchSite:
    """One collection point's local sketching agent.

    Parameters
    ----------
    name:
        Site identifier carried on every report.
    schema:
        The fleet-wide :class:`SkimmedSketchSchema` — every site must use
        the same one (same hash functions), or merged estimates would be
        garbage; the coordinator verifies compatibility on receipt.
    streams:
        Stream names this site observes.
    mode:
        ``"cumulative"`` or ``"delta"`` (see module docstring).

    The site's telemetry origin is ``origin`` (``site.<name>``).
    """

    def __init__(
        self,
        name: str,
        schema: SkimmedSketchSchema,
        streams: list[str],
        mode: str = "cumulative",
    ):
        if mode not in REPORT_MODES:
            raise ParameterError(f"mode must be one of {REPORT_MODES}, got {mode!r}")
        if not streams:
            raise ParameterError("a site must observe at least one stream")
        if len(set(streams)) != len(streams):
            raise ParameterError(f"duplicate stream names in {streams}")
        self.name = name
        self.origin = site_origin(name)
        self.schema = schema
        self.mode = mode
        self._sketches = {stream: schema.create_sketch() for stream in streams}
        self._round = 0

    @property
    def streams(self) -> list[str]:
        """Streams this site observes."""
        return list(self._sketches)

    @property
    def round_number(self) -> int:
        """Number of completed reporting rounds."""
        return self._round

    def observe(self, stream: str, value: int, weight: float = 1.0) -> None:
        """Absorb one local stream element (insert or delete)."""
        if stream not in self._sketches:
            raise QueryError(
                f"site {self.name!r} does not observe stream {stream!r}"
            )
        with _METRICS.scope(self.origin), _TRACER.scope(self.origin):
            self._sketches[stream].update(value, weight)

    def observe_bulk(self, stream: str, values, weights=None) -> None:
        """Absorb a batch of local elements."""
        if stream not in self._sketches:
            raise QueryError(
                f"site {self.name!r} does not observe stream {stream!r}"
            )
        with _METRICS.scope(self.origin), _TRACER.scope(self.origin):
            self._sketches[stream].update_bulk(values, weights)

    def close_round(
        self, trace_context: TraceContext | None = None
    ) -> list[SketchReport]:
        """Finish the current reporting round and emit one report per stream.

        In ``delta`` mode the local sketches are reset afterwards, so the
        next round reports only new traffic.

        ``trace_context`` (coordinator-minted, optional) is stamped on
        the round span and echoed on every report, correlating this
        site's round with the coordinator's.
        """
        with _METRICS.scope(self.origin), _TRACER.scope(self.origin):
            self._round += 1
            context_doc = trace_context.as_dict() if trace_context is not None else None
            with _TRACER.span(
                "dist.round", site=self.name, round=self._round, mode=self.mode
            ) if _TRACER.enabled else nullcontext() as sp:
                reports = [
                    SketchReport.from_sketch(
                        self.name,
                        stream,
                        self._round,
                        sketch,
                        trace_context=context_doc,
                    )
                    for stream, sketch in self._sketches.items()
                ]
                if self.mode == "delta":
                    self._sketches = {
                        stream: self.schema.create_sketch() for stream in self._sketches
                    }
                if sp is not None:
                    sp.set(
                        reports=len(reports),
                        bytes=sum(r.size_in_bytes() for r in reports),
                    )
                    if trace_context is not None:
                        sp.set(trace_id=trace_context.trace_id)
            if _METRICS.enabled:
                _METRICS.count("dist.rounds.closed")
                _METRICS.count("dist.reports.sent", len(reports))
                _METRICS.count(
                    "dist.bytes.sent", sum(r.size_in_bytes() for r in reports)
                )
            return reports

    def __repr__(self) -> str:
        return (
            f"SketchSite(name={self.name!r}, streams={self.streams}, "
            f"mode={self.mode!r}, round={self._round})"
        )

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

A site can additionally shard its *local* ingestion across workers
(``parallel_workers`` > 1): each stream's sketch is then wrapped in a
:class:`~repro.parallel.ShardedIngestor` and merged exactly when a round
closes.  Reports are bit-identical to serial ingestion either way.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

from ..core.estimator import SkimmedSketchSchema
from ..errors import ParameterError, QueryError
from ..federate import TelemetryShipper, telemetry_size_in_bytes
from ..obs import METRICS as _METRICS
from ..parallel import ShardedIngestor
from ..profile import RECORDER as _RECORDER
from ..trace import TRACER as _TRACER
from .protocol import SketchReport, TraceContext

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
    parallel_workers:
        Shard the site's local ingestion across this many worker
        processes (default 1 = plain serial sketches, no workers).
    telemetry:
        When true the site owns a
        :class:`~repro.federate.TelemetryShipper` (origin
        ``site.<name>``) and each :meth:`close_round` piggybacks one
        telemetry snapshot on the round's first report — provided any
        observability singleton is actually enabled at close time.
    """

    def __init__(
        self,
        name: str,
        schema: SkimmedSketchSchema,
        streams: list[str],
        mode: str = "cumulative",
        parallel_workers: int = 1,
        telemetry: bool = False,
    ):
        if mode not in REPORT_MODES:
            raise ParameterError(f"mode must be one of {REPORT_MODES}, got {mode!r}")
        if not streams:
            raise ParameterError("a site must observe at least one stream")
        if len(set(streams)) != len(streams):
            raise ParameterError(f"duplicate stream names in {streams}")
        if parallel_workers < 1:
            raise ParameterError(
                f"parallel_workers must be >= 1, got {parallel_workers}"
            )
        self.name = name
        self.schema = schema
        self.mode = mode
        self.parallel_workers = parallel_workers
        self._sketches = {stream: schema.create_sketch() for stream in streams}
        self._ingestors: dict[str, ShardedIngestor] | None = None
        if parallel_workers > 1:
            self._ingestors = {
                stream: ShardedIngestor(schema, workers=parallel_workers)
                for stream in streams
            }
        self.shipper = TelemetryShipper(f"site.{name}") if telemetry else None
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
        if self._ingestors is not None:
            import numpy as np

            self._ingestors[stream].ingest(
                np.asarray([value], dtype=np.int64),
                np.asarray([weight], dtype=np.float64),
            )
            return
        self._sketches[stream].update(value, weight)

    def observe_bulk(self, stream: str, values, weights=None) -> None:
        """Absorb a batch of local elements."""
        if stream not in self._sketches:
            raise QueryError(
                f"site {self.name!r} does not observe stream {stream!r}"
            )
        if self._ingestors is not None:
            self._ingestors[stream].ingest(values, weights)
            return
        self._sketches[stream].update_bulk(values, weights)

    def close_round(
        self, trace_context: TraceContext | None = None
    ) -> list[SketchReport]:
        """Finish the current reporting round and emit one report per stream.

        In ``delta`` mode the local sketches are reset afterwards, so the
        next round reports only new traffic.

        ``trace_context`` (coordinator-minted, optional) is stamped on
        the round span and echoed on every report, correlating this
        site's round with the coordinator's.  When the site was built
        with ``telemetry=True`` and any observability singleton is
        enabled, one telemetry snapshot — captured *after* the round span
        closes, so the round's own spans and counters ride along — is
        attached to the first report.
        """
        self._round += 1
        if self._ingestors is not None:
            for stream, ingestor in self._ingestors.items():
                self._sketches[stream] = ingestor.merged()
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
                if self._ingestors is not None:
                    for ingestor in self._ingestors.values():
                        ingestor.reset()
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
        if self.shipper is not None and (
            _METRICS.enabled or _TRACER.enabled or _RECORDER.enabled
        ):
            telemetry_doc = self.shipper.capture_telemetry()
            reports[0] = replace(reports[0], telemetry=telemetry_doc)
            if _METRICS.enabled:
                _METRICS.count("dist.telemetry.sent")
                _METRICS.count(
                    "dist.telemetry.bytes.sent",
                    telemetry_size_in_bytes(telemetry_doc),
                )
        return reports

    def close(self) -> None:
        """Stop parallel-ingest worker processes, if any (idempotent)."""
        if self._ingestors is not None:
            for ingestor in self._ingestors.values():
                ingestor.close()

    def __enter__(self) -> "SketchSite":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SketchSite(name={self.name!r}, streams={self.streams}, "
            f"mode={self.mode!r}, round={self._round}, "
            f"parallel_workers={self.parallel_workers})"
        )

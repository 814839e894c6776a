"""Message types for distributed sketch collection.

The paper's motivating deployment (§1) is a large ISP where "detailed
usage information from different parts of the network needs to be
continuously collected and analyzed".  Linearity makes the distributed
version of every estimator exact: each site sketches its local substream,
ships the (tiny) sketch, and the coordinator's merge *is* the sketch of
the union stream — no approximation is introduced by distribution itself.

Messages are plain dataclasses wrapping the serialised sketch state from
:mod:`repro.sketches.serialize`, so they can cross any transport that
moves bytes (the tests and example use in-memory delivery).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ReproError
from ..sketches.serialize import load_sketch, save_sketch


class ProtocolError(ReproError):
    """A malformed or out-of-order distributed-protocol message."""


def site_origin(site: str) -> str:
    """The telemetry origin a site records under (``site.<name>``)."""
    return f"site.{site}"


@dataclass(frozen=True)
class TraceContext:
    """Coordinator-minted correlation context for one reporting round.

    The coordinator mints one per round (:meth:`SketchCoordinator.
    mint_trace_context`) and hands it to the sites; each site stamps it
    on its reports and its round span, so the coordinator's round and
    every site's round (each in its own origin lane) share one
    ``trace_id``.  Plain strings/ints only — it must survive any JSON
    transport.
    """

    trace_id: str
    round_number: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready wire form (what rides on a :class:`SketchReport`)."""
        return {"trace_id": self.trace_id, "round_number": self.round_number}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TraceContext":
        """Rebuild from the wire form; raises ``ProtocolError`` if malformed."""
        trace_id = doc.get("trace_id")
        round_number = doc.get("round_number")
        if not isinstance(trace_id, str) or not trace_id:
            raise ProtocolError(f"trace_context has bad trace_id {trace_id!r}")
        if not isinstance(round_number, int) or round_number < 0:
            raise ProtocolError(
                f"trace_context has bad round_number {round_number!r}"
            )
        return cls(trace_id=trace_id, round_number=round_number)


@dataclass(frozen=True)
class SketchReport:
    """One site's synopsis for one stream at one reporting round.

    ``payload`` is the ``.npz`` archive produced by
    :func:`repro.sketches.serialize.save_sketch`; ``round_number`` lets the
    coordinator reject stale or duplicated reports.

    ``trace_context`` (optional, so senders without one interoperate
    unchanged) echoes the coordinator-minted :class:`TraceContext` wire
    dict.  Reports carry no telemetry: a site's telemetry is attributed
    where it is recorded (see :class:`~repro.distributed.SketchSite`).
    """

    site: str
    stream: str
    round_number: int
    payload: bytes
    trace_context: dict | None = field(default=None)

    @classmethod
    def from_sketch(
        cls,
        site: str,
        stream: str,
        round_number: int,
        sketch,
        trace_context: dict | None = None,
    ) -> "SketchReport":
        """Package a live sketch into a transportable report."""
        buffer = io.BytesIO()
        save_sketch(sketch, buffer)
        return cls(
            site=site,
            stream=stream,
            round_number=round_number,
            payload=buffer.getvalue(),
            trace_context=trace_context,
        )

    def open_sketch(self):
        """Rebuild the carried sketch (schema included)."""
        return load_sketch(io.BytesIO(self.payload))

    def size_in_bytes(self) -> int:
        """Wire size of the report — the communication cost a synopsis
        exists to minimise."""
        return len(self.payload)


@dataclass(frozen=True)
class RoundSummary:
    """Coordinator-side accounting for one completed merge round."""

    round_number: int
    streams: tuple[str, ...]
    sites_reporting: tuple[str, ...]
    bytes_received: int
    reports_merged: int = field(default=0)

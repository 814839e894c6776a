"""repro.trace — query-path span tracing for the sketching library.

One process-wide :class:`SpanTracer` (``TRACER``) records **nested
spans** from hooks wired through the query path: sketch maintenance
(``HashSketch.update``/``update_bulk``), SKIMDENSE (flat and dyadic,
including per-level descent spans), the four ESTSKIMJOINSIZE sub-join
terms with their per-table median boosting, ``StreamEngine``
ingest/answer/SQL, and the distributed site/coordinator round-trips.

Recording is **off by default**; every hook is guarded by a single
``TRACER.enabled`` attribute read — the same near-zero disabled-cost
contract as ``repro.obs`` (see ``tests/test_trace_overhead.py``).

Typical use::

    from repro.trace import TRACER, write_trace_jsonl

    TRACER.enable()
    engine.answer(query)            # spans accumulate
    write_trace_jsonl("q.trace.jsonl", TRACER.snapshot())
    TRACER.disable()

then inspect with the CLI (``python -m repro.trace summarize
q.trace.jsonl``) or convert for the Perfetto UI (``python -m
repro.trace convert q.trace.jsonl q.trace.json``).  Scoped capture::

    with trace.capturing() as tracer:
        engine.answer(query)
    spans = tracer.spans()

This package imports **only the standard library** (no numpy) so it can
ride along in the thinnest collection agent; the test suite enforces
that.  The span catalogue the library emits is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .export import (
    TRACE_VERSION,
    read_trace_jsonl,
    render_summary,
    summarize_trace,
    trace_from_jsonl,
    trace_origins,
    trace_to_chrome,
    trace_to_jsonl,
    validate_trace,
    write_trace_chrome,
    write_trace_jsonl,
)
from .tracer import DEFAULT_MAX_SPANS, Span, SpanTracer

#: The process-wide tracer every built-in instrumentation hook records to.
TRACER = SpanTracer(enabled=False)


@contextmanager
def capturing(fresh: bool = True) -> Iterator[SpanTracer]:
    """Enable the global tracer within a ``with`` block.

    ``fresh=True`` (default) resets the tracer on entry so the captured
    spans reflect only the block.  On exit the previous enabled state is
    restored; finished spans are kept for inspection.
    """
    was_enabled = TRACER.enabled
    if fresh:
        TRACER.reset()
    TRACER.enable()
    try:
        yield TRACER
    finally:
        TRACER.enabled = was_enabled


__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanTracer",
    "TRACER",
    "TRACE_VERSION",
    "capturing",
    "read_trace_jsonl",
    "render_summary",
    "summarize_trace",
    "trace_from_jsonl",
    "trace_origins",
    "trace_to_chrome",
    "trace_to_jsonl",
    "validate_trace",
    "write_trace_chrome",
    "write_trace_jsonl",
]

"""Dependency-free query-path span tracer.

Aggregate metrics (``repro.obs``) answer "how many / how long on
average"; they cannot answer *where one join estimate spent its time*.
The paper's cost story is inherently per-query and per-phase — O(depth)
hash-sketch updates vs O(s1*s2) AGMS (Sec. 2-3), the pruned dyadic
descent vs the flat domain scan (Fig. 3), the four ESTSKIMJOINSIZE
sub-join terms (Fig. 4) — so this module records *nested spans*: named
intervals with attributes (stream id, tracked size N, the s1 x s2 shape,
skim threshold T, sub-join term, site id) and explicit parent links.

The design contract is the same as :class:`repro.obs.MetricsRegistry`:

* one process-wide tracer (``repro.trace.TRACER``), **off by default**;
* every instrumentation hook guards on a single ``TRACER.enabled``
  attribute read, so a disabled tracer costs one branch per call site
  (``tests/test_trace_overhead.py`` enforces the bound);
* **no third-party imports** — ``repro.trace`` loads without numpy;
* bounded memory: at most ``max_spans`` finished spans are kept, the
  rest are counted in ``dropped`` instead of silently discarded.

Span nesting uses an explicit stack on the tracer (not thread-locals):
context is propagated by the call structure itself, which is exact for
the single-threaded query path the library implements.  Each span
remembers the thread that opened it, so a sampler on another thread can
tell whose span is open.  Like the metrics registry, the tracer is not
thread-synchronised.

Spans can be attributed to an *origin* (a distributed site sharing the
process) with a context-local scope: inside ``with TRACER.scope(o):``
every span and instant carries ``origin=o``, the attribute the Perfetto
exporter keys its per-origin lanes on.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

#: Default cap on retained finished spans (a traced query emits tens of
#: spans; this bounds memory even if tracing is left on during ingest).
DEFAULT_MAX_SPANS = 100_000


class Span:
    """One named, timed interval with attributes and a parent link.

    ``start`` / ``end`` are ``time.perf_counter()`` readings relative to
    the tracer's epoch (the moment of its last ``reset()``), so exported
    timestamps start near zero and survive JSON round-trips exactly.
    ``thread_id`` is the opening thread's ident for spans (``None`` for
    instants); it is process-local, so :meth:`as_dict` leaves it out.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attributes", "thread_id"
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.attributes = attributes
        self.thread_id: int | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 for instants)."""
        return self.end - self.start

    def set(self, **attributes: Any) -> None:
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self.attributes.update(attributes)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the JSONL wire format of one span)."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration:.6f}s)"
        )


class SpanTracer:
    """Process-wide recorder of nested query-path spans.

    Usage (the hooks inside the library follow exactly this shape)::

        if TRACER.enabled:
            with TRACER.span("skim", kind="flat", threshold=t) as sp:
                ...
                sp.set(dense=count)

    A span opened while the tracer is disabled is silently not recorded
    (``span`` self-guards), so a call site that forgets the enabled
    check cannot corrupt state — it only pays the cost of a no-op
    context manager.
    """

    __slots__ = (
        "enabled",
        "max_spans",
        "dropped",
        "_spans",
        "_stack",
        "_next_id",
        "_epoch",
        "_scope",
    )

    def __init__(self, enabled: bool = False, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self._scope: ContextVar[str | None] = ContextVar(
            "repro.trace.scope", default=None
        )

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        """Turn span recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn span recording off; finished spans are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all finished spans, restart ids and the timestamp epoch
        (enabled flag kept)."""
        self._spans.clear()
        self._stack.clear()
        self._next_id = 1
        self.dropped = 0
        self._epoch = time.perf_counter()

    # -- attribution -------------------------------------------------------

    @contextmanager
    def scope(self, origin: str) -> Iterator[None]:
        """Stamp ``origin=<origin>`` on every span and instant opened inside
        the block (unless the call passes its own ``origin``).

        Context-local like :meth:`repro.obs.MetricsRegistry.scope`; the
        innermost scope wins, and the lookup runs only when a span is
        actually recorded.
        """
        if not origin:
            raise ValueError("origin must be a non-empty string")
        token = self._scope.set(origin)
        try:
            yield
        finally:
            self._scope.reset(token)

    def _attribute(self, attributes: dict[str, Any]) -> dict[str, Any]:
        origin = self._scope.get()
        if origin is not None:
            attributes.setdefault("origin", origin)
        return attributes

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Open a nested span; yields the :class:`Span` (or ``None`` when
        the tracer is disabled at entry)."""
        if not self.enabled:
            yield None
            return
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter() - self._epoch,
            self._attribute(attributes),
        )
        span.thread_id = threading.get_ident()
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._epoch
            self._stack.pop()
            self._keep(span)

    def instant(self, name: str, **attributes: Any) -> None:
        """Record a zero-duration event under the current span."""
        if not self.enabled:
            return
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter() - self._epoch,
            self._attribute(attributes),
        )
        self._next_id += 1
        self._keep(span)

    def _keep(self, span: Span) -> None:
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    # -- reading -----------------------------------------------------------

    def open_span_names(self) -> dict[int, str]:
        """Innermost *open* span name per opening thread id.

        Unlike every other reader this one is also called from a foreign
        thread — the ``repro.profile`` sampler attributes each thread's
        stack sample to that thread's own open span.  The read is
        best-effort: it copies the stack in one C-level op instead of
        locking the hot path.
        """
        names: dict[int, str] = {}
        for span in reversed(self._stack[:]):
            names.setdefault(span.thread_id, span.name)
        return names

    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._spans)

    def span_count(self) -> int:
        """Number of retained finished spans."""
        return len(self._spans)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self._spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span`` among the finished spans."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: header fields plus every span record."""
        return {
            "version": 1,
            "kind": "repro.trace",
            "dropped": self.dropped,
            "spans": [s.as_dict() for s in self._spans],
        }

    def __repr__(self) -> str:
        return (
            f"SpanTracer(enabled={self.enabled}, spans={len(self._spans)}, "
            f"dropped={self.dropped})"
        )

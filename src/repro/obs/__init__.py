"""repro.obs — dependency-free observability for the sketching library.

One process-wide :class:`MetricsRegistry` (``METRICS``) collects
counters, gauges and latency histograms from instrumentation hooks wired
through the hot paths — sketch updates, SKIMDENSE passes, join
estimation, the stream engine, and the distributed sketch protocol.
Recording is **off by default**; every hook is guarded by a single
``METRICS.enabled`` attribute read, so disabled instrumentation is free
for all practical purposes (see ``tests/test_obs_overhead.py``).

Typical use::

    from repro.obs import METRICS, snapshot_to_json

    METRICS.enable()
    ...  # run sketches / engine / coordinator
    print(snapshot_to_json(METRICS.snapshot()))

or scoped::

    from repro.obs import capturing

    with capturing() as registry:
        ...
    snap = registry.snapshot()

This package imports **only the standard library** (no numpy) so it can
ride along in the thinnest collection agent; the test suite enforces
that.  The metric catalogue the library emits is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .export import (
    SNAPSHOT_VERSION,
    diff_snapshots,
    render_diff,
    snapshot_from_json,
    snapshot_to_json,
    snapshot_to_prometheus,
    validate_snapshot,
    write_snapshot,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry, Timer

#: The process-wide registry every built-in instrumentation hook records to.
METRICS = MetricsRegistry(enabled=False)


@contextmanager
def capturing(fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Enable the global registry within a ``with`` block.

    ``fresh=True`` (default) resets the registry on entry so the captured
    snapshot reflects only the block.  On exit the previous enabled state
    is restored; recorded values are kept for inspection.
    """
    was_enabled = METRICS.enabled
    if fresh:
        METRICS.reset()
    METRICS.enable()
    try:
        yield METRICS
    finally:
        METRICS.enabled = was_enabled


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
    "Timer",
    "capturing",
    "diff_snapshots",
    "render_diff",
    "snapshot_from_json",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "validate_snapshot",
    "write_snapshot",
]

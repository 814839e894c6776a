"""Dependency-free runtime metrics: counters, gauges, histograms, timers.

The registry is the library's single telemetry sink.  Instrumentation
sites in the hot paths (sketch updates, skims, join estimation, the
stream engine, the distributed protocol) guard every recording with a
plain attribute read::

    if METRICS.enabled:
        METRICS.count("sketch.update.elements")

so a disabled registry costs one attribute load and one branch per
*instrumentation site* (not per metric), which is unmeasurable next to
the numpy work those sites wrap.  Every recording method additionally
no-ops when disabled, so a call site that forgets the guard still cannot
pollute a disabled registry.

Recording can be attributed to an *origin* (a distributed site sharing
the process) with a context-local scope::

    with METRICS.scope("site.edge-0"):
        METRICS.count("dist.rounds.closed")   # -> site.edge-0.dist.rounds.closed

The snapshot lists every origin recorded under, which is how the
Prometheus exporter renders ``site.edge-0.dist.rounds.closed`` as
``dist_rounds_closed_total{origin="site.edge-0"}``.

Design constraints (enforced by the test suite):

* **no third-party imports** — ``repro.obs`` must be importable without
  numpy so embedding it in a collection agent costs nothing;
* histograms keep a bounded deterministic reservoir, so memory is O(1)
  per metric regardless of stream length and snapshots are reproducible
  for a fixed recording sequence;
* ``snapshot()`` returns plain dicts of plain floats — JSON-ready.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

#: Reservoir size for histogram percentile estimation.
DEFAULT_RESERVOIR_SIZE = 2048


class Counter:
    """A monotonically adjusted sum (increments may be any float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-written-wins scalar (thresholds, round numbers, sizes).

    Each write stamps ``ts`` with the wall-clock time; ``ts == 0`` marks
    a gauge that was never set (``MetricsRegistry.gauge_max`` reads it).
    """

    __slots__ = ("name", "value", "ts")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.ts = 0.0

    def set(self, value: float, ts: float | None = None) -> None:
        """Overwrite the gauge with ``value`` (stamping the write time)."""
        self.value = float(value)
        self.ts = time.time() if ts is None else float(ts)


class Histogram:
    """Streaming distribution summary with bounded memory.

    Tracks exact ``count`` / ``sum`` / ``min`` / ``max`` and estimates
    percentiles from a reservoir.  Reservoir replacement uses an internal
    xorshift generator (seeded from a CRC-32 of the metric name, which —
    unlike ``hash()`` — does not vary with ``PYTHONHASHSEED``) instead of
    the global ``random`` state, so snapshots are reproducible across
    processes and the registry never perturbs user-level randomness.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_samples", "_cap", "_state")

    def __init__(self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE):
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._cap = reservoir_size
        # Non-zero xorshift seed derived from the name, stable across processes.
        self._state = zlib.crc32(name.encode("utf-8")) or 0x9E3779B97F4A7C15

    def _next_rand(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def record(self, value: float) -> None:
        """Fold one observation into the summary statistics and reservoir."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            slot = self._next_rand() % self.count
            if slot < self._cap:
                self._samples[slot] = value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir (``nan`` when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        """JSON-ready summary: count/sum/min/max/mean and p50/p95/p99."""
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Timer:
    """Measure a code block (or decorated function) in seconds.

    The measurement itself always happens — ``elapsed`` is valid even
    with the registry disabled, so callers can print wall-clock figures
    unconditionally — but the duration is *recorded* into the registry's
    histogram only when the registry is enabled at exit time.

    Usable as a context manager::

        with METRICS.timer("skim.seconds") as t:
            ...
        print(t.elapsed)

    or as a decorator::

        @METRICS.timer("engine.answer.seconds")
        def answer(...): ...
    """

    __slots__ = ("name", "elapsed", "_registry", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name
        self.elapsed: float | None = None
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None
            if self._registry.enabled:
                self._registry.observe(self.name, self.elapsed)

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with Timer(self._registry, self.name):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


class MetricsRegistry:
    """Named counters, gauges and histograms behind one enable switch.

    Metrics are created lazily on first use; names are free-form
    dot-separated strings (see ``docs/OBSERVABILITY.md`` for the
    catalogue the library itself emits).
    """

    __slots__ = (
        "enabled",
        "_counters",
        "_gauges",
        "_histograms",
        "reservoir_size",
        "_lock",
        "_scope",
        "_origins",
    )

    def __init__(self, enabled: bool = False, reservoir_size: int = DEFAULT_RESERVOIR_SIZE):
        self.enabled = enabled
        self.reservoir_size = reservoir_size
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._scope: ContextVar[str | None] = ContextVar(
            "repro.obs.scope", default=None
        )
        self._origins: set[str] = set()

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        """Turn recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; existing metric values are kept."""
        self.enabled = False

    # -- attribution -------------------------------------------------------

    @contextmanager
    def scope(self, origin: str) -> Iterator[None]:
        """Attribute everything recorded inside the block to ``origin``.

        Counters, gauges and histograms recorded in the block are filed as
        ``<origin>.<name>``.  The scope is context-local (one
        :class:`~contextvars.ContextVar` per registry), so threads and
        asyncio tasks keep their own; the innermost scope wins.  The
        lookup runs only when something is actually recorded.
        """
        if not origin:
            raise ValueError("origin must be a non-empty string")
        token = self._scope.set(origin)
        try:
            yield
        finally:
            self._scope.reset(token)

    def _scoped(self, name: str) -> str:
        # Called only once a recording method has passed its ``enabled``
        # check, so a disabled registry lists no origin.
        origin = self._scope.get()
        if origin is None:
            return name
        self._origins.add(origin)
        return f"{origin}.{name}"

    # -- recording ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created (at 0) if absent."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (no-op while disabled)."""
        if self.enabled:
            self.counter(self._scoped(name)).inc(amount)

    def gauge(self, name: str, value: float | None = None) -> Gauge:
        """The named gauge; also sets it when ``value`` is given (and enabled).

        Only a write is scoped; a bare lookup reads ``name`` as given.
        """
        record = value is not None and self.enabled
        if record:
            name = self._scoped(name)
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        if record:
            found.set(value)
        return found

    def gauge_max(self, name: str, value: float) -> None:
        """Raise a gauge to ``value`` if it is currently below it.

        No-op while disabled.  The read-modify-write runs under the
        registry lock, so concurrent writers (e.g. report receipt racing
        a threaded ``/metrics`` scrape) cannot interleave a lower value
        over a higher one the way an unsynchronised compare-then-set can.
        """
        if not self.enabled:
            return
        with self._lock:
            found = self.gauge(self._scoped(name))
            if float(value) > found.value or found.ts == 0.0:
                found.set(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty if absent."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, self.reservoir_size)
        return found

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op while disabled)."""
        if self.enabled:
            self.histogram(self._scoped(name)).record(value)

    def timer(self, name: str) -> Timer:
        """A :class:`Timer` feeding the named histogram."""
        return Timer(self, name)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0.0 if it was never touched)."""
        found = self._counters.get(name)
        return found.value if found is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0.0 if it was never set)."""
        found = self._gauges.get(name)
        return found.value if found is not None else 0.0

    def metric_names(self) -> Iterator[str]:
        """All metric names currently registered, sorted."""
        yield from sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """JSON-ready dump of every metric (readable even while disabled).

        ``origins`` (sorted) is present only when something was recorded
        inside a :meth:`scope`; those metrics are named ``<origin>.<name>``.
        """
        snapshot: dict = {
            "version": 1,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }
        if self._origins:
            snapshot["origins"] = sorted(self._origins)
        return snapshot

    def reset(self) -> None:
        """Drop every metric and origin (the enabled flag is left as-is)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._origins.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )

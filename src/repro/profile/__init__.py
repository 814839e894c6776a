"""repro.profile — continuous profiling + telemetry flight recorder.

Two complementary instruments behind the observability plane's shared
off-by-default contract:

* :data:`PROFILER` (:class:`SamplingProfiler`) — a daemon thread walking
  ``sys._current_frames()`` at a configurable Hz into a bounded sample
  ring, stamping each thread's sample with the innermost ``repro.trace``
  span that thread holds open.  Exporters: collapsed stacks (flamegraph
  input), speedscope JSON, samples JSONL, and a ``top``-style aggregate
  report.
* :data:`RECORDER` (:class:`FlightRecorder`) — periodic windows diffing
  ``repro.obs`` counter totals (plus the audit ring's coverage/alert
  state) into a :class:`TelemetryRing` with Hokusai-style aging: old
  windows merge to coarser resolution so the ring holds hours of
  telemetry in a configured byte budget.

Typical use::

    from repro.obs import METRICS
    from repro.profile import PROFILER, RECORDER

    METRICS.enable()                 # frames hold what METRICS records
    PROFILER.start(hz=97)
    RECORDER.start(interval=1.0)
    ...                              # run the workload
    PROFILER.stop(); RECORDER.stop()
    write_profile_jsonl("run.prof.jsonl", PROFILER.snapshot())
    write_timeseries_jsonl("run.ts.jsonl", RECORDER.snapshot())

or let the CLIs do the wiring: ``python -m repro.eval ... --profile-out
run.prof.jsonl --timeseries-out run.ts.jsonl``, then ``python -m
repro.profile top run.prof.jsonl`` / ``python -m repro.monitor serve
--profile run.prof.jsonl`` (the ``/dashboard`` page renders both).

Both instruments are pure readers: no hot path calls them, and no
hot-path module imports this package.  They read what ``METRICS``,
``TRACER`` and ``AUDIT`` already record.  The package imports **only
the standard library** — no numpy — like obs/trace/monitor.
"""

from __future__ import annotations

from .export import (
    PROFILE_VERSION,
    aggregate_samples,
    parse_collapsed,
    profile_from_jsonl,
    profile_to_collapsed,
    profile_to_jsonl,
    profile_to_speedscope,
    read_profile_jsonl,
    render_top,
    validate_profile,
    validate_speedscope,
    write_profile_jsonl,
)
from .recorder import (
    DEFAULT_INTERVAL,
    DEFAULT_MAX_BYTES,
    DEFAULT_TIERS,
    DEFAULT_TIER_CAPACITY,
    FlightRecorder,
    TelemetryFrame,
    TelemetryRing,
    TIMESERIES_VERSION,
    read_timeseries_jsonl,
    timeseries_from_jsonl,
    timeseries_to_jsonl,
    validate_timeseries,
    write_timeseries_jsonl,
)
from .sampler import (
    DEFAULT_HZ,
    DEFAULT_MAX_SAMPLES,
    MAX_STACK_DEPTH,
    SamplingProfiler,
    StackSample,
)

#: The process-wide sampling profiler.
PROFILER = SamplingProfiler(enabled=False)

#: The process-wide flight recorder.
RECORDER = FlightRecorder(enabled=False)


__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_INTERVAL",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_TIERS",
    "DEFAULT_TIER_CAPACITY",
    "FlightRecorder",
    "MAX_STACK_DEPTH",
    "PROFILER",
    "PROFILE_VERSION",
    "RECORDER",
    "SamplingProfiler",
    "StackSample",
    "TIMESERIES_VERSION",
    "TelemetryFrame",
    "TelemetryRing",
    "aggregate_samples",
    "parse_collapsed",
    "profile_from_jsonl",
    "profile_to_collapsed",
    "profile_to_jsonl",
    "profile_to_speedscope",
    "read_profile_jsonl",
    "read_timeseries_jsonl",
    "render_top",
    "timeseries_from_jsonl",
    "timeseries_to_jsonl",
    "validate_profile",
    "validate_speedscope",
    "validate_timeseries",
    "write_profile_jsonl",
    "write_timeseries_jsonl",
]

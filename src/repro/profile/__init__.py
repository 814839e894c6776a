"""repro.profile — continuous profiling.

:data:`PROFILER` (:class:`SamplingProfiler`) is a daemon thread walking
``sys._current_frames()`` at a configurable Hz into a bounded sample
ring, stamping each thread's sample with the innermost ``repro.trace``
span that thread holds open.  Exporters: collapsed stacks (flamegraph
input), speedscope JSON, samples JSONL, and a ``top``-style aggregate
report.

Typical use::

    from repro.profile import PROFILER, write_profile_jsonl

    PROFILER.start(hz=97)
    ...                              # run the workload
    PROFILER.stop()
    write_profile_jsonl("run.prof.jsonl", PROFILER.snapshot())

or let the CLIs do the wiring: ``python -m repro.eval ... --profile-out
run.prof.jsonl``, then ``python -m repro.profile top run.prof.jsonl`` /
``python -m repro.monitor serve --profile run.prof.jsonl`` (served at
``/profile``).

The profiler is a pure reader: no hot path calls it, and no hot-path
module imports this package.  It reads the spans ``TRACER`` already
records.  The package imports **only the standard library** — no
numpy — like obs/trace/monitor.
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
from .sampler import (
    DEFAULT_HZ,
    DEFAULT_MAX_SAMPLES,
    MAX_STACK_DEPTH,
    SamplingProfiler,
    StackSample,
)

#: The process-wide sampling profiler.
PROFILER = SamplingProfiler(enabled=False)


__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_MAX_SAMPLES",
    "MAX_STACK_DEPTH",
    "PROFILER",
    "PROFILE_VERSION",
    "SamplingProfiler",
    "StackSample",
    "aggregate_samples",
    "parse_collapsed",
    "profile_from_jsonl",
    "profile_to_collapsed",
    "profile_to_jsonl",
    "profile_to_speedscope",
    "read_profile_jsonl",
    "render_top",
    "validate_profile",
    "validate_speedscope",
    "write_profile_jsonl",
]

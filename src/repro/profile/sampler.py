"""Sampling profiler: a daemon thread walking ``sys._current_frames()``.

Point-in-time BENCH numbers say *how fast* a run was; they cannot say
*where* the wall-clock went.  This module answers that with the standard
production technique — statistical stack sampling: a daemon thread wakes
``hz`` times per second, snapshots every live thread's Python stack via
``sys._current_frames()``, and folds each snapshot into a bounded sample
ring.  No tracing hooks, no per-bytecode cost — the profiled code runs
unmodified, and the profiler's own thread is excluded from its samples.

The profiler is a pure reader: no hot path calls it.  Besides the stack
frames, which already name the code, each sample carries one
attribution: when :data:`repro.trace.TRACER` is enabled, the innermost
span the *sampled thread* holds open (``engine.ingest``, ``skim.dense``,
``estimate.term`` …), linking wall-clock back to the paper's query
phases.  Threads with no open span of their own get ``None``.

The design contract matches ``repro.obs`` / ``repro.trace`` /
``repro.monitor``: one process-wide instance (``repro.profile.PROFILER``),
**off by default**, bounded memory (``max_samples`` ring + ``dropped``
counter), and **no third-party imports** — the package loads without
numpy.
"""

from __future__ import annotations

import sys
import threading
import time
from types import FrameType
from typing import Any

try:  # pragma: no cover - exercised via the standalone import test
    from ..trace import TRACER as _TRACER
except ImportError:  # standalone layout: `trace` next to `profile` on sys.path
    from trace import TRACER as _TRACER  # type: ignore

#: Default sampling frequency.  97 Hz (prime) avoids phase-locking with
#: workloads that tick at round frequencies, the classic profiler trick.
DEFAULT_HZ = 97.0

#: Default bound on retained samples (~1.5 h at 97 Hz single-threaded).
DEFAULT_MAX_SAMPLES = 500_000

#: Frames deeper than this are truncated (guards against pathological
#: recursion blowing up sample size).
MAX_STACK_DEPTH = 128


class StackSample:
    """One observation: a thread's stack at one instant, plus attribution.

    ``frames`` is outermost-first, each frame rendered as
    ``"module:function:line"`` — the orientation collapsed-stack and
    speedscope both want.  ``weight`` is the nominal seconds this sample
    represents (``1 / hz``), so aggregations sum to approximate seconds.
    """

    __slots__ = ("timestamp", "thread_id", "frames", "span", "weight")

    def __init__(
        self,
        timestamp: float,
        thread_id: int,
        frames: tuple[str, ...],
        span: str | None,
        weight: float,
    ) -> None:
        self.timestamp = timestamp
        self.thread_id = thread_id
        self.frames = frames
        self.span = span
        self.weight = weight

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the JSONL wire format of one sample)."""
        return {
            "t": self.timestamp,
            "thread": self.thread_id,
            "frames": list(self.frames),
            "span": self.span,
            "weight": self.weight,
        }

    def __repr__(self) -> str:
        leaf = self.frames[-1] if self.frames else "<empty>"
        return f"StackSample(t={self.timestamp:.3f}, leaf={leaf!r}, span={self.span!r})"


def _render_frame(frame: FrameType) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}:{frame.f_lineno}"


def _walk_stack(frame: FrameType | None) -> tuple[str, ...]:
    """Render a frame chain outermost-first, truncated at the deep end."""
    rendered: list[str] = []
    while frame is not None and len(rendered) < MAX_STACK_DEPTH:
        rendered.append(_render_frame(frame))
        frame = frame.f_back
    rendered.reverse()
    return tuple(rendered)


class SamplingProfiler:
    """Process-wide continuous profiler behind one enable switch.

    Usage (what ``--profile-out`` does under the hood)::

        from repro.profile import PROFILER

        PROFILER.enable()
        PROFILER.start(hz=97)
        ...                      # run the workload
        PROFILER.stop()
        snapshot = PROFILER.snapshot()

    ``sample_once()`` takes exactly one synchronous snapshot of the
    *other* threads plus the caller's own stack — the deterministic
    entry the tests and ``selfcheck`` drive directly.
    """

    __slots__ = (
        "enabled",
        "hz",
        "max_samples",
        "dropped",
        "_samples",
        "_thread",
        "_stop_event",
        "_epoch",
    )

    def __init__(
        self,
        enabled: bool = False,
        hz: float = DEFAULT_HZ,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be > 0, got {hz}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.enabled = enabled
        self.hz = float(hz)
        self.max_samples = max_samples
        self.dropped = 0
        self._samples: list[StackSample] = []
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._epoch = time.perf_counter()

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        """Turn sample recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn sample recording off; retained samples are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every sample, restart the epoch (enabled flag kept)."""
        self._samples.clear()
        self.dropped = 0
        self._epoch = time.perf_counter()

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> int:
        """Take one snapshot of every live thread *now*; returns the
        number of samples recorded (no-op while disabled).

        Unlike the daemon loop this includes the calling thread itself
        (its stack is exactly the caller's), which makes single-threaded
        attribution tests deterministic.
        """
        if not self.enabled:
            return 0
        return self._collect(exclude_thread=None)

    def _collect(self, exclude_thread: int | None) -> int:
        now = time.perf_counter() - self._epoch
        spans = _TRACER.open_span_names() if _TRACER.enabled else {}
        weight = 1.0 / self.hz
        recorded = 0
        for thread_id, frame in sys._current_frames().items():  # noqa: SLF001
            if thread_id == exclude_thread:
                continue
            frames = _walk_stack(frame)
            if not frames:
                continue
            self._keep(
                StackSample(now, thread_id, frames, spans.get(thread_id), weight)
            )
            recorded += 1
        return recorded

    def _keep(self, sample: StackSample) -> None:
        if len(self._samples) < self.max_samples:
            self._samples.append(sample)
        else:
            self.dropped += 1

    # -- daemon thread -----------------------------------------------------

    def start(self, hz: float | None = None) -> "SamplingProfiler":
        """Enable and launch the sampling daemon thread; returns ``self``.

        Idempotent in spirit but strict in letter: starting twice is a
        programming error and raises.
        """
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if hz is not None:
            if hz <= 0:
                raise ValueError(f"hz must be > 0, got {hz}")
            self.hz = float(hz)
        self.enable()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the daemon thread and disable recording (idempotent)."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)
            self._thread = None
        self.disable()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop_event.wait(interval):
            if self.enabled:
                self._collect(exclude_thread=me)

    # -- reading -----------------------------------------------------------

    def samples(self) -> list[StackSample]:
        """Retained samples in recording order."""
        return list(self._samples)

    def sample_count(self) -> int:
        """Number of retained samples."""
        return len(self._samples)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: header fields plus every sample record."""
        return {
            "version": 1,
            "kind": "repro.profile",
            "hz": self.hz,
            "dropped": self.dropped,
            "samples": [s.as_dict() for s in self._samples],
        }

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(enabled={self.enabled}, hz={self.hz}, "
            f"samples={len(self._samples)}, dropped={self.dropped})"
        )

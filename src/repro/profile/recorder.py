"""Telemetry flight recorder: bounded time-series of obs/audit deltas.

A metrics snapshot is a point-in-time total; it cannot show *how*
throughput, shipped bytes, estimate coverage, or drift evolved over a
stream's lifetime.  The :class:`FlightRecorder` closes that gap: a
periodic ``tick()`` (manual or from a daemon thread) diffs the
``repro.obs`` counter totals since the previous tick, reads the
registry's gauges and the ``repro.monitor`` audit ring's coverage/alert
state, and folds it all into one :class:`TelemetryFrame` — a
timestamped window of deltas.  The recorder is a pure reader: frames
hold what ``METRICS`` records, so they carry counts only while the
registry is on (``--timeseries-out`` turns it on for the run).

Frames land in a :class:`TelemetryRing` with **Hokusai-style aging**
(PAPERS.md): the ring is tiered, and when a tier fills, its two oldest
frames merge into one coarser frame in the next tier.  Recent history
stays at full tick resolution while old history degrades to 2x, 4x, …
coarser windows, so hours of telemetry fit a configured byte budget —
the same aged-resolution idea Hokusai applies to sketch time-series,
applied here to the telemetry about the sketches.

Contract matches the rest of the observability plane: one process-wide
instance (``repro.profile.RECORDER``), **off by default**, no hot-path
hook, and the module imports nothing outside the standard library.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

try:  # pragma: no cover - exercised via the standalone import test
    from ..obs import METRICS as _METRICS
except ImportError:  # standalone layout: `obs` next to `profile` on sys.path
    from obs import METRICS as _METRICS  # type: ignore

try:  # pragma: no cover - exercised via the standalone import test
    from ..monitor import AUDIT as _AUDIT
except ImportError:
    from monitor import AUDIT as _AUDIT  # type: ignore

#: Timeseries schema version emitted by :meth:`FlightRecorder.snapshot`.
TIMESERIES_VERSION = 1

#: Default seconds between daemon ticks.
DEFAULT_INTERVAL = 1.0

#: Default frames per resolution tier.
DEFAULT_TIER_CAPACITY = 64

#: Default number of resolution tiers (tier k holds ``2**k``-tick windows).
DEFAULT_TIERS = 4

#: Default byte budget for the ring (JSON-encoded frame sizes).
DEFAULT_MAX_BYTES = 512 * 1024


def _read_racy(read, fallback):
    """Best-effort read of an unsynchronised registry from the tick thread.

    The metrics registry and audit ring are deliberately lock-free on
    their hot paths, so iterating them while a hot path inserts a brand
    new metric can raise ``RuntimeError`` (size changed during
    iteration).  Ticks are periodic — retry a couple of times, then
    settle for ``fallback`` and let the next tick pick the delta up.
    """
    for _ in range(3):
        try:
            return read()
        except RuntimeError:
            continue
    return fallback


class TelemetryFrame:
    """One window of telemetry: counter deltas plus gauge readings.

    ``t0``/``t1`` bound the window (recorder-epoch seconds), ``res`` is
    the aging tier the frame sits in (0 = raw tick resolution, each
    merge bumps it), ``merged`` counts the raw ticks folded in.
    ``counts`` are deltas over the window (sum on merge); ``gauges`` are
    instantaneous readings (duration-weighted mean on merge).
    """

    __slots__ = ("t0", "t1", "res", "merged", "counts", "gauges")

    def __init__(
        self,
        t0: float,
        t1: float,
        counts: dict[str, float],
        gauges: dict[str, float],
        res: int = 0,
        merged: int = 1,
    ) -> None:
        if t1 < t0:
            raise ValueError(f"frame window inverted: t0={t0} > t1={t1}")
        self.t0 = t0
        self.t1 = t1
        self.res = res
        self.merged = merged
        self.counts = counts
        self.gauges = gauges

    @property
    def dt(self) -> float:
        """Window length in seconds."""
        return self.t1 - self.t0

    def rate(self, name: str) -> float:
        """Per-second rate of one counter over this window (0 if absent)."""
        dt = self.dt
        if dt <= 0.0:
            return 0.0
        return self.counts.get(name, 0.0) / dt

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the JSONL wire format of one frame)."""
        return {
            "t0": self.t0,
            "t1": self.t1,
            "res": self.res,
            "merged": self.merged,
            "counts": self.counts,
            "gauges": self.gauges,
        }

    def encoded_size(self) -> int:
        """Bytes this frame costs on the JSONL wire (the ring's budget unit)."""
        return len(json.dumps(self.as_dict(), separators=(",", ":")))

    def merge(self, other: "TelemetryFrame") -> "TelemetryFrame":
        """Fold two adjacent windows into one coarser frame.

        Counter deltas add; gauges average weighted by each window's
        duration (an unweighted mean would let a 1 s window outvote a
        64 s one after repeated aging).
        """
        counts = dict(self.counts)
        for name, value in other.counts.items():
            counts[name] = counts.get(name, 0.0) + value
        w_self = max(self.dt, 1e-9)
        w_other = max(other.dt, 1e-9)
        gauges: dict[str, float] = {}
        for name in set(self.gauges) | set(other.gauges):
            in_self = name in self.gauges
            in_other = name in other.gauges
            if in_self and in_other:
                gauges[name] = (
                    self.gauges[name] * w_self + other.gauges[name] * w_other
                ) / (w_self + w_other)
            else:
                gauges[name] = self.gauges[name] if in_self else other.gauges[name]
        return TelemetryFrame(
            min(self.t0, other.t0),
            max(self.t1, other.t1),
            counts,
            gauges,
            res=max(self.res, other.res) + 1,
            merged=self.merged + other.merged,
        )

    def __repr__(self) -> str:
        return (
            f"TelemetryFrame([{self.t0:.2f}, {self.t1:.2f}], res={self.res}, "
            f"merged={self.merged}, counts={len(self.counts)})"
        )


class TelemetryRing:
    """Tiered frame store with Hokusai-style aged resolution.

    Tier 0 receives raw frames; when a tier exceeds ``tier_capacity``
    its two *oldest* frames merge into one frame pushed to the next
    tier, and the final tier merges in place — so no window is ever
    discarded, it only gets coarser.  On top of the structural bound, a
    ``max_bytes`` budget (JSON-encoded frame sizes) forces extra merges
    of the oldest frames when counter cardinality makes frames fat.
    """

    def __init__(
        self,
        tier_capacity: int = DEFAULT_TIER_CAPACITY,
        tiers: int = DEFAULT_TIERS,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if tier_capacity < 2:
            raise ValueError(f"tier_capacity must be >= 2, got {tier_capacity}")
        if tiers < 1:
            raise ValueError(f"tiers must be >= 1, got {tiers}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.tier_capacity = tier_capacity
        self.max_bytes = max_bytes
        self.pushed = 0
        self.aged = 0
        # _tiers[0] is the finest/newest tier; each list runs oldest -> newest.
        self._tiers: list[list[TelemetryFrame]] = [[] for _ in range(tiers)]
        self._bytes = 0

    def push(self, frame: TelemetryFrame) -> None:
        """Append a raw frame, then age/compact until within bounds."""
        self.pushed += 1
        self._tiers[0].append(frame)
        self._bytes += frame.encoded_size()
        self._age_overflow()
        while self._bytes > self.max_bytes and self._compact_once():
            pass

    def _merge_oldest_pair(self, tier: list[TelemetryFrame]) -> TelemetryFrame:
        first, second = tier[0], tier[1]
        merged = first.merge(second)
        self._bytes += (
            merged.encoded_size() - first.encoded_size() - second.encoded_size()
        )
        del tier[0:2]
        self.aged += 1
        return merged

    def _age_overflow(self) -> None:
        for index, tier in enumerate(self._tiers):
            while len(tier) > self.tier_capacity:
                merged = self._merge_oldest_pair(tier)
                if index + 1 < len(self._tiers):
                    # Newest frame of the next-coarser tier: append at end.
                    self._tiers[index + 1].append(merged)
                else:
                    tier.insert(0, merged)  # last tier coarsens in place
                    break

    def _compact_once(self) -> bool:
        """One forced merge of the oldest mergeable frames; False when the
        ring is down to a single frame and cannot shrink further."""
        # Oldest data lives in the highest-index non-empty tier.
        for index in range(len(self._tiers) - 1, -1, -1):
            tier = self._tiers[index]
            if len(tier) >= 2:
                tier.insert(0, self._merge_oldest_pair(tier))
                return True
        # Every tier holds <= 1 frame: merge across the two oldest tiers.
        occupied = [t for t in self._tiers if t]
        if len(occupied) >= 2:
            older, newer = occupied[-1], occupied[-2]
            older.append(newer.pop(0))
            older.insert(0, self._merge_oldest_pair(older))
            return True
        return False

    # -- reading -----------------------------------------------------------

    def frames(self) -> list[TelemetryFrame]:
        """All retained frames, oldest first (coarse tiers lead)."""
        out: list[TelemetryFrame] = []
        for tier in reversed(self._tiers):
            out.extend(tier)
        return out

    def frame_count(self) -> int:
        """Number of frames currently retained across every tier."""
        return sum(len(tier) for tier in self._tiers)

    @property
    def approx_bytes(self) -> int:
        """Tracked JSON-encoded size of every retained frame."""
        return self._bytes

    def clear(self) -> None:
        """Drop every retained frame and reset the push/age counters."""
        for tier in self._tiers:
            tier.clear()
        self._bytes = 0
        self.pushed = 0
        self.aged = 0

    def __repr__(self) -> str:
        return (
            f"TelemetryRing(frames={self.frame_count()}, "
            f"bytes={self._bytes}/{self.max_bytes}, aged={self.aged})"
        )


class FlightRecorder:
    """Process-wide telemetry recorder behind one enable switch.

    Usage (what ``--timeseries-out`` does under the hood)::

        from repro.profile import RECORDER

        RECORDER.enable()
        RECORDER.start(interval=1.0)   # or call RECORDER.tick() manually
        ...                            # run the workload
        RECORDER.stop()
        snapshot = RECORDER.snapshot()

    ``tick()`` diffs ``repro.obs`` counter totals and reads the audit
    ring, then pushes the assembled frame into the aging ring.  The
    recorder never touches the registry's switch: enable ``METRICS``
    for the frames to carry counts.
    """

    __slots__ = (
        "enabled",
        "interval",
        "ring",
        "_last_counters",
        "_last_tick",
        "_thread",
        "_stop_event",
        "_epoch",
    )

    def __init__(
        self,
        enabled: bool = False,
        interval: float = DEFAULT_INTERVAL,
        tier_capacity: int = DEFAULT_TIER_CAPACITY,
        tiers: int = DEFAULT_TIERS,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.enabled = enabled
        self.interval = float(interval)
        self.ring = TelemetryRing(
            tier_capacity=tier_capacity, tiers=tiers, max_bytes=max_bytes
        )
        self._last_counters: dict[str, float] = {}
        self._last_tick = 0.0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._epoch = time.perf_counter()

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        """Turn frame recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn frame recording off; retained frames are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every frame, restart the epoch (flag kept)."""
        self.ring.clear()
        self._last_counters.clear()
        self._epoch = time.perf_counter()
        self._last_tick = 0.0

    # -- ticking -----------------------------------------------------------

    def tick(self) -> TelemetryFrame | None:
        """Close the current window into one frame (``None`` while disabled).

        The frame's ``counts`` are the deltas of every ``repro.obs``
        counter since the previous tick; ``gauges`` take the registry's
        current gauge values plus the audit ring's coverage rate and
        cumulative alert count.
        """
        if not self.enabled:
            return None
        now = time.perf_counter() - self._epoch
        metric_counters = _read_racy(
            lambda: {n: c.value for n, c in _METRICS._counters.items()},
            self._last_counters,
        )
        counts: dict[str, float] = {}
        for name, total in metric_counters.items():
            delta = total - self._last_counters.get(name, 0.0)
            if delta:
                counts[name] = delta
        self._last_counters = metric_counters

        gauges = _read_racy(
            lambda: {n: g.value for n, g in _METRICS._gauges.items()}, {}
        )
        audits = _read_racy(_AUDIT.audits, [])
        decided = [a.covered for a in audits if a.covered is not None]
        if decided:
            gauges["audit.coverage"] = sum(decided) / len(decided)
        gauges["audit.alerts"] = float(len(_AUDIT.alerts))

        frame = TelemetryFrame(self._last_tick, max(now, self._last_tick), counts, gauges)
        self._last_tick = frame.t1
        self.ring.push(frame)
        return frame

    # -- daemon thread -----------------------------------------------------

    def start(self, interval: float | None = None) -> "FlightRecorder":
        """Enable and launch the ticking daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("recorder already started")
        if interval is not None:
            if interval <= 0:
                raise ValueError(f"interval must be > 0, got {interval}")
            self.interval = float(interval)
        self.enable()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-recorder", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the daemon (closing a final window) and disable (idempotent)."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)
            self._thread = None
            self.tick()  # close the partial window so no telemetry is lost
        self.disable()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            if self.enabled:
                self.tick()

    # -- reading -----------------------------------------------------------

    def frames(self) -> list[TelemetryFrame]:
        """Retained frames, oldest first."""
        return self.ring.frames()

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: header fields plus every retained frame."""
        return {
            "version": TIMESERIES_VERSION,
            "kind": "repro.timeseries",
            "interval": self.interval,
            "pushed": self.ring.pushed,
            "aged": self.ring.aged,
            "frames": [f.as_dict() for f in self.ring.frames()],
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(enabled={self.enabled}, interval={self.interval}, "
            f"frames={self.ring.frame_count()})"
        )


# -- wire format -----------------------------------------------------------

_FRAME_FIELDS = ("t0", "t1", "res", "merged", "counts", "gauges")


def timeseries_to_jsonl(snapshot: dict[str, Any]) -> str:
    """Render a recorder snapshot as JSONL (header + one frame per line)."""
    header = {
        "version": snapshot.get("version", TIMESERIES_VERSION),
        "kind": snapshot.get("kind", "repro.timeseries"),
        "interval": snapshot.get("interval", DEFAULT_INTERVAL),
        "pushed": snapshot.get("pushed", 0),
        "aged": snapshot.get("aged", 0),
    }
    lines = [json.dumps(header)]
    for frame in snapshot.get("frames", []):
        lines.append(json.dumps(frame))
    return "\n".join(lines) + "\n"


def timeseries_from_jsonl(text: str) -> dict[str, Any]:
    """Parse and validate a JSONL timeseries (inverse of
    :func:`timeseries_to_jsonl`)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty timeseries file (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"header line is not JSON: {exc}") from None
    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            frames.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno} is not JSON: {exc}") from None
    snapshot = dict(header)
    snapshot["frames"] = frames
    return validate_timeseries(snapshot)


def validate_timeseries(snapshot: Any) -> dict[str, Any]:
    """Check a timeseries snapshot against the schema; returns it unchanged.

    Frames must be chronological and non-overlapping — the aging scheme
    preserves both, so a violation means a corrupted export.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"timeseries must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("version") != TIMESERIES_VERSION:
        raise ValueError(
            f"unsupported timeseries version {snapshot.get('version')!r} "
            f"(expected {TIMESERIES_VERSION})"
        )
    if snapshot.get("kind") != "repro.timeseries":
        raise ValueError(f"unexpected timeseries kind {snapshot.get('kind')!r}")
    frames = snapshot.get("frames")
    if not isinstance(frames, list):
        raise ValueError("timeseries section 'frames' missing or not a list")
    previous_end = float("-inf")
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict):
            raise ValueError(f"frames[{index}] is not a dict")
        missing = [f for f in _FRAME_FIELDS if f not in frame]
        if missing:
            raise ValueError(f"frames[{index}] missing fields {missing}")
        t0, t1 = frame["t0"], frame["t1"]
        if not isinstance(t0, (int, float)) or not isinstance(t1, (int, float)):
            raise ValueError(f"frames[{index}] t0/t1 not numeric")
        if t1 < t0:
            raise ValueError(f"frames[{index}] window inverted ({t0} > {t1})")
        if t0 < previous_end - 1e-9:
            raise ValueError(
                f"frames[{index}] overlaps its predecessor "
                f"({t0} < {previous_end})"
            )
        previous_end = t1
        if not isinstance(frame["res"], int) or frame["res"] < 0:
            raise ValueError(f"frames[{index}]['res'] must be a non-negative int")
        if not isinstance(frame["merged"], int) or frame["merged"] < 1:
            raise ValueError(f"frames[{index}]['merged'] must be a positive int")
        for section in ("counts", "gauges"):
            mapping = frame[section]
            if not isinstance(mapping, dict):
                raise ValueError(f"frames[{index}][{section!r}] is not a dict")
            for key, value in mapping.items():
                if not isinstance(key, str) or not isinstance(value, (int, float)):
                    raise ValueError(
                        f"frames[{index}][{section!r}] must map str -> number"
                    )
    return snapshot


def write_timeseries_jsonl(path: str, snapshot: dict[str, Any]) -> None:
    """Write a recorder snapshot to ``path`` in the JSONL wire format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(timeseries_to_jsonl(snapshot))


def read_timeseries_jsonl(path: str) -> dict[str, Any]:
    """Load and validate a JSONL timeseries file."""
    with open(path, encoding="utf-8") as fh:
        return timeseries_from_jsonl(fh.read())

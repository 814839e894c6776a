"""COUNTSKETCH top-k heavy hitters (Charikar, Chen, Farach-Colton [8]).

The paper's ``SKIMDENSE`` procedure "is a variant of the COUNTSKETCH
algorithm" (Section 4.2); this module implements the *original* algorithm —
streaming identification of the ``k`` most frequent values — both because
the library should stand alone as a sketching toolkit and because the
top-k tracker gives an online (single-pass, no post-hoc domain scan)
alternative for finding skim candidates.

The tracker pairs a :class:`~repro.sketches.hash_sketch.HashSketch` with a
bounded candidate set: each arriving value's frequency is re-estimated from
the sketch and the candidate set keeps the ``k`` values with the largest
estimates, using a min-heap with lazy invalidation.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from .base import StreamSynopsis, ingest_checked, ingest_checked_one
from .hash_sketch import HashSketch, HashSketchSchema
from ..errors import ParameterError

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector


class TopKSketch(StreamSynopsis):
    """Streaming top-``k`` frequency tracker over an update stream.

    Parameters
    ----------
    schema:
        Hash-sketch schema providing the estimation backbone.
    k:
        Number of heavy hitters to track.
    """

    def __init__(self, schema: HashSketchSchema, k: int) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.k = k
        self._sketch = HashSketch(schema)
        self._estimates: dict[int, float] = {}
        # Min-heap of (estimate, value); stale entries are skipped lazily.
        self._heap: list[tuple[float, int]] = []

    # -- synopsis contract ---------------------------------------------------

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._sketch.domain_size

    @property
    def sketch(self) -> HashSketch:
        """The underlying hash sketch (shared estimation backbone)."""
        return self._sketch

    def update(self, value: int, weight: float = 1.0) -> None:
        mass = ingest_checked_one(
            value, weight, self.domain_size, self._sketch.absolute_mass
        )
        self._sketch._ingest_one(value, weight, mass)
        self._consider(value)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Bulk path: ingest the batch, then re-rank the distinct values seen.

        Equivalent in candidate coverage to element-at-a-time processing of
        the batch (every value that appears is considered against the final
        sketch state, which only improves estimates).
        """
        values, weights, mass = ingest_checked(
            values, weights, self.domain_size, self._sketch.absolute_mass
        )
        self._sketch._ingest(values, weights, mass)
        # Top-k candidacy is per-distinct-value dict bookkeeping; the
        # numpy work happened in the sketch write above.
        for value in np.unique(values):  # repro: noqa[R2] -- per-distinct-value dict bookkeeping; numpy work done in the sketch write
            self._consider(int(value))

    def size_in_counters(self) -> int:
        # Sketch counters plus one (value, estimate) slot per tracked item.
        return self._sketch.size_in_counters() + 2 * self.k

    def seed_words(self) -> int:
        return self._sketch.seed_words()

    # -- queries ------------------------------------------------------------------

    def top_k(self) -> list[tuple[int, float]]:
        """Current top-``k`` candidates as ``(value, estimated frequency)``,
        sorted by decreasing estimate (ties broken by value for determinism).
        """
        items = sorted(self._estimates.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(value, est) for value, est in items[: self.k]]

    def candidates(self) -> dict[int, float]:
        """The raw candidate map (may transiently exceed ``k`` never; copy)."""
        return dict(self._estimates)

    def recall_against(self, frequencies: "FrequencyVector") -> float:
        """Fraction of the true top-``k`` values present in :meth:`top_k`.

        Evaluation helper: with enough width the COUNTSKETCH guarantee makes
        this approach 1.
        """
        counts = frequencies.counts
        order = np.argsort(-counts, kind="stable")
        true_top = {int(v) for v in order[: self.k] if counts[v] > 0}
        if not true_top:
            return 1.0
        found = {value for value, _ in self.top_k()}
        return len(true_top & found) / len(true_top)

    # -- internals -------------------------------------------------------------------

    def _consider(self, value: int) -> None:
        """Re-estimate ``value`` and keep it iff it ranks in the top ``k``."""
        estimate = self._sketch.point_estimate(value)
        if value in self._estimates:
            self._estimates[value] = estimate
            heapq.heappush(self._heap, (estimate, value))
            return
        if len(self._estimates) < self.k:
            self._estimates[value] = estimate
            heapq.heappush(self._heap, (estimate, value))
            return
        floor_estimate, floor_value = self._current_floor()
        if estimate > floor_estimate:
            del self._estimates[floor_value]
            heapq.heappop(self._heap)
            self._estimates[value] = estimate
            heapq.heappush(self._heap, (estimate, value))

    def _current_floor(self) -> tuple[float, int]:
        """Smallest live (estimate, value) pair, discarding stale heap entries."""
        while self._heap:
            estimate, value = self._heap[0]
            if self._estimates.get(value) == estimate:
                return estimate, value
            heapq.heappop(self._heap)
        # Heap exhausted by staleness: rebuild from the live map.
        self._heap = [(est, val) for val, est in self._estimates.items()]
        heapq.heapify(self._heap)
        return self._heap[0]

    def __repr__(self) -> str:
        return f"TopKSketch(k={self.k}, sketch={self._sketch!r})"

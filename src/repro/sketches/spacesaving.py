"""Space-Saving: deterministic frequent-element tracking (counter-based).

The paper's skimming step needs the stream's *dense* values.  COUNTSKETCH
(and the dyadic descent) find them with randomised guarantees and support
deletions; for **insert-only** streams there is a classic deterministic
alternative from the frequent-elements literature the paper cites ([8-10]):
maintain ``k`` counters, and on a miss evict the minimum counter,
inheriting its count as the newcomer's overestimation bound.  Guarantees:

* every value with true frequency ``> N / k`` is in the summary
  (no false negatives above the threshold);
* each tracked count overestimates by at most its recorded ``error``
  (the evicted minimum at adoption time), bounded by ``N / k``.

Besides standing alone as a synopsis, :meth:`SpaceSaving.dense_candidates`
plugs into skimming as a zero-randomness candidate generator for
insert-only workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeletionUnsupportedError, ParameterError
from .base import StreamSynopsis, ingest_checked, ingest_checked_one

_INSERT_ONLY = (
    "Space-Saving is an insert-only summary; use a hash sketch "
    "for general update streams"
)


@dataclass(frozen=True)
class TrackedCount:
    """One Space-Saving counter: value, count upper bound, and error bound.

    The true frequency lies in ``[count - error, count]``.
    """

    value: int
    count: float
    error: float

    @property
    def guaranteed(self) -> float:
        """Certain lower bound on the value's true frequency."""
        return self.count - self.error


class SpaceSaving(StreamSynopsis):
    """Deterministic top-frequency summary with ``capacity`` counters."""

    def __init__(self, capacity: int, domain_size: int) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        if domain_size < 1:
            raise ParameterError(f"domain_size must be >= 1, got {domain_size}")
        self.capacity = capacity
        self._domain_size = domain_size
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}
        self._stream_size = 0.0

    # -- synopsis contract ---------------------------------------------------

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._domain_size

    @property
    def stream_size(self) -> float:
        """Total weight observed (``N``)."""
        return self._stream_size

    def update(self, value: int, weight: float = 1.0) -> None:
        ingest_checked_one(value, weight, self._domain_size, self._stream_size)
        if weight <= 0:
            raise DeletionUnsupportedError(_INSERT_ONLY)
        self._insert(value, weight)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Check the whole batch (and that it only inserts), then insert it
        element by element."""
        values, weights, _ = ingest_checked(
            values, weights, self._domain_size, self._stream_size
        )
        if weights.size and weights.min() <= 0:
            raise DeletionUnsupportedError(_INSERT_ONLY)
        for value, weight in zip(values, weights):  # repro: noqa[R2] -- Space-Saving is inherently sequential; per-element IS the algorithm
            self._insert(int(value), float(weight))

    def _insert(self, value: int, weight: float) -> None:
        """One Space-Saving step for a checked, positive-weight element."""
        self._stream_size += weight
        if value in self._counts:
            self._counts[value] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[value] = weight
            self._errors[value] = 0.0
            return
        victim = min(self._counts, key=self._counts.__getitem__)
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        # The newcomer inherits the evicted count as its overestimate.
        self._counts[value] = floor + weight
        self._errors[value] = floor

    def size_in_counters(self) -> int:
        # value + count + error per slot.
        return 3 * self.capacity

    # -- queries ------------------------------------------------------------------

    def tracked(self) -> list[TrackedCount]:
        """All live counters, by decreasing count (ties by value)."""
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            TrackedCount(value, count, self._errors[value])
            for value, count in items
        ]

    def estimate(self, value: int) -> float:
        """Frequency upper bound for ``value`` (0 if untracked)."""
        return self._counts.get(value, 0.0)

    def heavy_hitters(self, threshold: float) -> list[TrackedCount]:
        """Counters whose upper bound reaches ``threshold``.

        Complete above ``N / capacity``: a value with true frequency
        ``>= max(threshold, N / capacity)`` is guaranteed to appear.
        """
        if threshold <= 0:
            raise ParameterError(f"threshold must be positive, got {threshold}")
        return [t for t in self.tracked() if t.count >= threshold]

    def dense_candidates(self, threshold: float) -> np.ndarray:
        """Candidate dense values for skimming, ascending ``int64``.

        Deterministic replacement for the COUNTSKETCH/dyadic candidate
        search when the stream is insert-only: superset of all values with
        true frequency ``>= threshold`` whenever
        ``threshold >= stream_size / capacity``.
        """
        values = [t.value for t in self.heavy_hitters(threshold)]
        return np.sort(np.asarray(values, dtype=np.int64))

    def error_bound(self) -> float:
        """Worst-case overestimation of any tracked count (``<= N / capacity``)."""
        if not self._errors:
            return 0.0
        return max(self._errors.values())

    def __repr__(self) -> str:
        return (
            f"SpaceSaving(capacity={self.capacity}, "
            f"tracked={len(self._counts)}, N={self._stream_size:g})"
        )

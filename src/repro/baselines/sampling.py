"""Reservoir-sampling join estimator (Vitter [13]) — the sampling baseline.

Section 2 of the paper recalls why sampling loses to sketches for join
queries: the cross-product estimator has enormous variance when the join
is a small fraction of the cross product ([14, 4, 15]), and a sample
cannot survive deletions.  Both weaknesses are deliberately preserved
here: this estimator exists so the E11 baseline panel can show them.

Estimator: with uniform samples ``S_F`` (size ``k_F`` from ``N_F``
elements) and ``S_G``, the number of value-matching pairs between the
samples, scaled by ``(N_F * N_G) / (k_F * k_G)``, is an unbiased estimate
of ``<f, g>``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import DeletionUnsupportedError, ParameterError
from ..sketches.base import StreamSynopsis, ingest_checked, ingest_checked_one

_UNIT_INSERTS_ONLY = (
    "reservoir samples only support unit-weight inserts; "
    "a deletion would silently bias the sample (paper §1)"
)


class ReservoirSample(StreamSynopsis):
    """Classic size-``k`` uniform reservoir over an insert-only stream."""

    def __init__(self, capacity: int, domain_size: int, seed: int = 0):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        if domain_size < 1:
            raise ParameterError(f"domain_size must be >= 1, got {domain_size}")
        self.capacity = capacity
        self._domain_size = domain_size
        self._rng = np.random.default_rng(seed)
        self._reservoir: list[int] = []
        self._seen = 0

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._domain_size

    @property
    def stream_size(self) -> int:
        """Number of elements observed so far (``N``)."""
        return self._seen

    @property
    def sample(self) -> list[int]:
        """The current reservoir contents (copy)."""
        return list(self._reservoir)

    def update(self, value: int, weight: float = 1.0) -> None:
        ingest_checked_one(value, weight, self._domain_size, self._seen)
        if weight != 1.0:
            raise DeletionUnsupportedError(_UNIT_INSERTS_ONLY)
        self._insert(value)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Check the whole batch (and that every weight is 1), then insert
        it element by element."""
        values, weights, _ = ingest_checked(
            values, weights, self._domain_size, self._seen
        )
        if not np.all(weights == 1.0):
            raise DeletionUnsupportedError(_UNIT_INSERTS_ONLY)
        for value in values:
            self._insert(int(value))

    def _insert(self, value: int) -> None:
        """One reservoir step for a checked unit-weight element."""
        self._seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._reservoir[slot] = value

    def size_in_counters(self) -> int:
        return self.capacity

    def est_join_size(self, other: "ReservoirSample") -> float:
        """Cross-product scaled match count between the two reservoirs."""
        if not isinstance(other, ReservoirSample):
            raise TypeError(f"expected ReservoirSample, got {type(other).__name__}")
        if not self._reservoir or not other._reservoir:
            return 0.0
        mine = Counter(self._reservoir)
        matches = sum(
            count * mine.get(value, 0) for value, count in Counter(other._reservoir).items()
        )
        scale = (self._seen * other._seen) / (
            len(self._reservoir) * len(other._reservoir)
        )
        return float(matches * scale)

    def __repr__(self) -> str:
        return (
            f"ReservoirSample(capacity={self.capacity}, seen={self._seen}, "
            f"held={len(self._reservoir)})"
        )


def sample_join_estimate(
    f_counts: np.ndarray,
    g_counts: np.ndarray,
    capacity: int,
    rng: np.random.Generator,
) -> float:
    """Join estimate from fresh uniform samples of two frequency vectors.

    Draws a with-replacement size-``capacity`` sample from each stream's
    element multiset (the distribution a reservoir of an ``N``-element
    stream holds) and applies the cross-product estimator.  The evaluation
    harness uses this instead of replaying millions of elements through
    :class:`ReservoirSample`; the estimator and its variance are the same.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    f_counts = np.clip(np.asarray(f_counts, dtype=np.float64), 0.0, None)
    g_counts = np.clip(np.asarray(g_counts, dtype=np.float64), 0.0, None)
    n_f, n_g = f_counts.sum(), g_counts.sum()
    if n_f <= 0 or n_g <= 0:
        return 0.0
    sample_f = rng.multinomial(capacity, f_counts / n_f)
    sample_g = rng.multinomial(capacity, g_counts / n_g)
    matches = float(np.dot(sample_f, sample_g))
    return matches * (n_f * n_g) / (capacity * capacity)

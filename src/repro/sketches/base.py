"""Common synopsis interface shared by every stream summary in the library.

The stream query-processing architecture of the paper (Figure 1) maintains
one small synopsis per stream, fed one element at a time, and later
combines synopses to answer aggregate queries.  :class:`StreamSynopsis`
captures the per-stream maintenance contract; estimation entry points
(join size, point queries, ...) are defined by the concrete classes since
they differ per synopsis type.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Iterable

import numpy as np
from ..errors import ParameterError

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector, Update


def finite_mass(mass: float) -> float:
    """Return ``mass`` — a batch's ``sum(|weight|)`` — or reject the batch.

    One NaN or infinite weight makes the sum non-finite, so checking the
    sum the bulk paths already compute for ``absolute_mass`` rejects such
    a batch without another pass over it (and before any counter moves:
    a single NaN would otherwise poison one counter in every table).
    """
    if not math.isfinite(mass):
        raise ParameterError(f"weights must be finite, got sum(|w|) = {mass}")
    return mass


class StreamSynopsis(abc.ABC):
    """A one-pass, bounded-memory summary of a single update stream."""

    @property
    @abc.abstractmethod
    def domain_size(self) -> int:
        """Size of the integer value domain the synopsis is declared over."""

    @abc.abstractmethod
    def update(self, value: int, weight: float = 1.0) -> None:
        """Process one stream element (``weight=-1`` deletes an occurrence)."""

    @abc.abstractmethod
    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Process a batch of elements; semantically ``update`` in a loop.

        Synopses in this library are linear projections, so the bulk path
        is mathematically identical to element-at-a-time maintenance; it
        exists because the evaluation harness feeds millions of updates.
        """

    @abc.abstractmethod
    def size_in_counters(self) -> int:
        """Number of counter words the synopsis stores (paper's "space in words").

        Excludes the ``O(log)`` hash-seed state, matching how the paper
        reports space; seed words are available via :meth:`seed_words`.
        """

    def seed_words(self) -> int:
        """Machine words of hash/seed state (0 for seed-free synopses)."""
        return 0

    def consume(self, updates: Iterable["Update"]) -> None:
        """Feed a finite update stream through :meth:`update`."""
        for item in updates:
            self.update(item.value, item.weight)

    def ingest_frequency_vector(self, frequencies: "FrequencyVector") -> None:
        """Absorb a whole frequency vector (bulk path over the support)."""
        if frequencies.domain_size != self.domain_size:
            raise ParameterError(
                f"domain mismatch: synopsis {self.domain_size}, "
                f"vector {frequencies.domain_size}"
            )
        support = frequencies.support()
        if support.size:
            self.update_bulk(support, frequencies.counts[support])

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
from ..errors import DomainError, ParameterError

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector, Update


#: Ceiling on a sketch's tracked ``sum(|weight|)``.  Below it, every
#: counter an integer-weight stream writes is an integer of magnitude
#: below 2**53, which float64 holds exactly.
MASS_CEILING = float(2**53)


def finite_mass(mass: float, tracked: float) -> float:
    """Return ``mass`` — a batch's ``sum(|weight|)``, or the tracked mass
    of a sketch merged in — or reject it.

    One NaN or infinite weight makes the sum non-finite, so checking the
    sum the bulk paths already compute for ``absolute_mass`` rejects such
    a batch without another pass over it (and before any counter moves:
    a single NaN would otherwise poison one counter in every table).
    A batch that would take the sketch's ``tracked`` mass to
    :data:`MASS_CEILING` or more is rejected too: past it a float64
    counter stops being exact (2**53 + 1 reads as 2**53), and a weight
    like 1e300 turns the self-join estimate into ``inf``.
    """
    if not math.isfinite(mass):
        raise ParameterError(f"weights must be finite, got sum(|w|) = {mass}")
    if tracked + mass >= MASS_CEILING:
        raise ParameterError(
            f"adding sum(|w|) = {mass:g} would take the tracked mass "
            f"{tracked:g} to 2**53 or more, past which counters are not exact"
        )
    return mass


def require_integer_values(values: object) -> None:
    """Reject domain values (a scalar or a batch) without an integer dtype.

    The ingest paths cast values to ``int64``, which would silently
    truncate floats (1.5 -> 1) and read bools as 0/1.  An empty batch
    passes whatever its dtype, since ``np.asarray([])`` is float64.
    """
    array = np.asarray(values)  # repro: noqa[R1] -- reads the caller's dtype before the int64 cast
    if array.size and array.dtype.kind not in "iu":
        raise DomainError(f"values must be integers, got dtype {array.dtype}")


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

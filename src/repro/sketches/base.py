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
from ..errors import DomainError, ParameterError, ReproError
from ..obs import METRICS as _METRICS

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


class _CountingRejections:
    """``with counting_rejections:`` counts ``ingest.rejected`` once (while
    ``METRICS`` is on) when its block raises a :class:`ReproError`; every
    ingest check runs in one, so the counting policy lives here alone."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, *_: object) -> bool:
        if kind is not None and _METRICS.enabled and issubclass(kind, ReproError):
            _METRICS.count("ingest.rejected")
        return False


counting_rejections = _CountingRejections()


def ingest_batch(
    values: object, weights: object | None, ndim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-2 of :func:`ingest_checked` for ``ndim``-D ``values``."""
    require_integer_values(values)
    values = np.asarray(values, dtype=np.int64)
    if weights is None:
        weights = np.ones(values.shape[:1], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if values.ndim != ndim or weights.shape != values.shape[:1]:
        raise ParameterError(
            f"expected {ndim}-D values with one weight per row, "
            f"got shapes {values.shape} and {weights.shape}"
        )
    return values, weights


def ingest_mass(
    weights: np.ndarray, tracked: float, observed_mass: float | None = None
) -> float:
    """Step 4 of :func:`ingest_checked`: the mass to add to ``tracked``.

    That is ``sum(|weights|)``, checked by :func:`finite_mass`; or, when
    given, ``observed_mass`` (a coalesced batch's raw mass, or 0 for a
    subtraction of already-counted mass), checked by it instead, while
    ``sum(|weights|)`` need only be finite.
    """
    mass = float(np.abs(weights).sum())
    if observed_mass is None:
        return finite_mass(mass, tracked)
    if not math.isfinite(mass):
        raise ParameterError(f"weights must be finite, got sum(|w|) = {mass}")
    return finite_mass(float(observed_mass), tracked)


def ingest_checked(
    values: object,
    weights: object | None,
    domain_size: int,
    tracked: float,
    observed_mass: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Check one update batch at the ingest boundary.

    Every synopsis that accepts updates calls this once per call, before
    any counter or tracked mass changes; its fan-out (dyadic levels,
    partitions, a window's epoch, a wrapped sketch) then writes
    unchecked.  In order: (1) integer-dtype ``values``
    (:func:`require_integer_values`, ``DomainError``), cast to ``int64``;
    (2) ``weights``, default ones, cast to ``float64``, one per value of
    a 1-D batch (``ParameterError``); (3) values in ``[0, domain_size)``
    by min/max (``DomainError``); (4) :func:`ingest_mass`
    (``ParameterError``).  Returns the cast arrays and the mass to add;
    each rejection counts once in ``ingest.rejected``.
    """
    with counting_rejections:
        values, weights = ingest_batch(values, weights, 1)
        if values.size and (int(values.min()) < 0 or int(values.max()) >= domain_size):
            raise DomainError(
                f"values outside domain [0, {domain_size}): "
                f"min {values.min()}, max {values.max()}"
            )
        mass = ingest_mass(weights, tracked, observed_mass)
    return values, weights, mass


def ingest_checked_one(
    value: int, weight: float, domain_size: int, tracked: float
) -> float:
    """Scalar form of :func:`ingest_checked` for ``update``: check one
    element the same way and return the mass to add, ``|weight|``."""
    with counting_rejections:
        require_integer_values(value)
        if not 0 <= value < domain_size:
            raise DomainError(f"value {value} outside domain [0, {domain_size})")
        return finite_mass(abs(weight), tracked)


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

    @abc.abstractmethod
    def seed_words(self) -> int:
        """Machine words of hash/seed state the synopsis keeps."""

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

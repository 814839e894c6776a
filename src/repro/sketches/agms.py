"""Basic AGMS ("tug-of-war") sketches and the ESTJOINSIZE estimator.

This is the baseline the paper improves on: the sketch of Alon, Matias and
Szegedy [3] extended to binary joins by Alon et al. [4] (paper Section 2.2,
Figure 2).  A synopsis is an ``median x averaging`` array of *atomic
sketches*; atomic sketch ``(j, i)`` is the random linear projection

    X[j, i] = sum_v f[v] * xi_{j,i}(v)

of the stream's frequency vector onto an independent four-wise independent
±1 family.  Join size is estimated by averaging products of corresponding
atomic sketches within each median group and taking the median across
groups (procedure ``ESTJOINSIZE``); ``ESTSJSIZE`` is the self-join special
case.

Cost profile (what motivates the paper): every stream element touches
**all** ``averaging * median`` atomic sketches, and the worst-case space to
reach a target accuracy is the *square* of the lower bound — both fixed by
the skimmed hash sketches in :mod:`repro.core`.

Two sketches can only be combined if they were created by the same
:class:`AGMSSchema`, which owns the shared sign families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..hashing import FourWiseSignFamily
from .base import StreamSynopsis, finite_mass

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector

#: Cap on the size of the (families x values) sign matrix materialised per
#: bulk-ingestion chunk, in elements.  Keeps peak memory around ~128 MB.
_BULK_CHUNK_ELEMENTS = 8_000_000


class AGMSSchema:
    """Shared randomness and shape for a set of join-compatible AGMS sketches.

    Parameters
    ----------
    averaging:
        Paper's ``s1`` — atomic sketches averaged within a median group.
        Controls accuracy (variance shrinks as ``1/averaging``).
    median:
        Paper's ``s2`` — number of independent groups median-selected over.
        Controls confidence (failure probability shrinks exponentially).
    domain_size:
        Size of the value domain streams are declared over.
    seed:
        Seed for the sign families.  Two schemas with equal parameters and
        seed produce interchangeable sketches.
    """

    def __init__(self, averaging: int, median: int, domain_size: int, seed: int = 0) -> None:
        if averaging < 1:
            raise ParameterError(f"averaging must be >= 1, got {averaging}")
        if median < 1:
            raise ParameterError(f"median must be >= 1, got {median}")
        if domain_size < 1:
            raise ParameterError(f"domain_size must be >= 1, got {domain_size}")
        self.averaging = averaging
        self.median = median
        self.domain_size = domain_size
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.signs = FourWiseSignFamily(averaging * median, rng)
        self._projection: np.ndarray | None = None

    def create_sketch(self) -> "AGMSSketch":
        """A fresh empty sketch bound to this schema's sign families."""
        return AGMSSketch(self)

    def sketch_of(self, frequencies: "FrequencyVector") -> "AGMSSketch":
        """Convenience: a sketch pre-loaded with a whole frequency vector."""
        sketch = self.create_sketch()
        sketch.ingest_frequency_vector(frequencies)
        return sketch

    def enable_projection_cache(self, max_bytes: int = 1 << 30) -> None:
        """Precompute the full ±1 projection matrix of this schema.

        The matrix has one ``int8`` entry per (atomic sketch, domain value)
        pair; with it cached, :meth:`AGMSSketch.ingest_frequency_vector`
        becomes a single matrix-vector product instead of re-evaluating the
        sign polynomials.  This is an *experiment-harness* accelerator for
        repeatedly building large sketches over a materialisable domain —
        it trades ``averaging * median * domain_size`` bytes of memory, so
        the size is bounded by ``max_bytes`` (raises ``ValueError`` beyond).
        Results are bit-identical to the streaming path.
        """
        needed = self.signs.count * self.domain_size
        if needed > max_bytes:
            raise ParameterError(
                f"projection cache would need {needed} bytes "
                f"(> max_bytes={max_bytes})"
            )
        if self._projection is not None:
            return
        projection = np.empty((self.signs.count, self.domain_size), dtype=np.int8)
        chunk = max(1, _BULK_CHUNK_ELEMENTS // self.signs.count)
        for start in range(0, self.domain_size, chunk):
            stop = min(start + chunk, self.domain_size)
            values = np.arange(start, stop, dtype=np.int64)
            projection[:, start:stop] = self.signs.signs(values).astype(np.int8)
        self._projection = projection

    def projection_cache_enabled(self) -> bool:
        """True once :meth:`enable_projection_cache` has run."""
        return self._projection is not None

    def is_compatible(self, other: "AGMSSchema") -> bool:
        """True if sketches from ``other`` may be combined with ours."""
        return (
            self.averaging == other.averaging
            and self.median == other.median
            and self.domain_size == other.domain_size
            and self.signs == other.signs
        )

    def __repr__(self) -> str:
        return (
            f"AGMSSchema(averaging={self.averaging}, median={self.median}, "
            f"domain_size={self.domain_size}, seed={self.seed})"
        )


class AGMSSketch(StreamSynopsis):
    """One stream's basic AGMS synopsis (``median x averaging`` atomic sketches)."""

    def __init__(self, schema: AGMSSchema) -> None:
        self._schema = schema
        # Row j is median group j; column i its i-th averaged atomic sketch.
        self._atomic = np.zeros((schema.median, schema.averaging), dtype=np.float64)
        self._absolute_mass = 0.0

    # -- synopsis contract ---------------------------------------------------

    @property
    def schema(self) -> AGMSSchema:
        """The schema (shared randomness) this sketch was created from."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    @property
    def atomic_sketches(self) -> np.ndarray:
        """Read-only ``(median, averaging)`` array of atomic sketch values."""
        view = self._atomic.view()
        view.flags.writeable = False
        return view

    @property
    def absolute_mass(self) -> float:
        """Sum of ``|weight|`` over all processed updates (tracked ``N``)."""
        return self._absolute_mass

    def update(self, value: int, weight: float = 1.0) -> None:
        """O(averaging * median): every atomic sketch is touched (paper §2.2)."""
        self._check_value(value)
        mass = finite_mass(abs(weight))
        signs = self._schema.signs.signs(value)[:, 0]
        self._atomic += weight * signs.reshape(self._atomic.shape)
        self._absolute_mass += mass

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return
        self._check_value(int(values.min()))
        self._check_value(int(values.max()))
        if weights is None:
            weights = np.ones(values.size)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ParameterError("weights must have the same shape as values")
        mass = finite_mass(float(np.abs(weights).sum()))
        flat = self._atomic.reshape(-1)
        chunk = max(1, _BULK_CHUNK_ELEMENTS // self._schema.signs.count)
        for start in range(0, values.size, chunk):
            stop = start + chunk
            signs = self._schema.signs.signs(values[start:stop])
            flat += signs @ weights[start:stop]
        self._absolute_mass += mass

    def update_coalesced(
        self,
        values: np.ndarray,
        masses: np.ndarray,
        observed_mass: float | None = None,
    ) -> None:
        """Ingest a pre-coalesced batch: distinct ``values``, summed ``masses``.

        Mirrors :meth:`HashSketch.update_coalesced` for callers that
        coalesce once and feed many sketches (the shared-memory shard
        workers).  ``observed_mass`` defaults to ``sum(|masses|)``;
        passing the original batch's ``sum(|weight|)`` keeps
        :attr:`absolute_mass` identical to element-wise ingestion.
        Records no metrics or spans — the caller owns instrumentation.
        """
        values = np.asarray(values, dtype=np.int64)
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != values.shape:
            raise ParameterError("masses must have the same shape as values")
        if values.size == 0:
            return
        self._check_value(int(values.min()))
        self._check_value(int(values.max()))
        flat = self._atomic.reshape(-1)
        chunk = max(1, _BULK_CHUNK_ELEMENTS // self._schema.signs.count)
        for start in range(0, values.size, chunk):
            stop = start + chunk
            signs = self._schema.signs.signs(values[start:stop])
            flat += signs @ masses[start:stop]
        self._absolute_mass += (
            float(np.abs(masses).sum()) if observed_mass is None
            else float(observed_mass)
        )

    def ingest_frequency_vector(self, frequencies: "FrequencyVector") -> None:
        """Absorb a whole frequency vector.

        Uses the schema's projection cache (one matrix-vector product) when
        enabled — see :meth:`AGMSSchema.enable_projection_cache` — and the
        generic chunked bulk path otherwise; the two are numerically
        identical.
        """
        projection = self._schema._projection
        if projection is None:
            super().ingest_frequency_vector(frequencies)
            return
        if frequencies.domain_size != self.domain_size:
            raise ParameterError(
                f"domain mismatch: synopsis {self.domain_size}, "
                f"vector {frequencies.domain_size}"
            )
        counts = frequencies.counts
        flat = self._atomic.reshape(-1)
        # Chunk over atomic sketches to bound the float32 conversion buffer.
        chunk = max(1, _BULK_CHUNK_ELEMENTS // self.domain_size)
        for start in range(0, projection.shape[0], chunk):
            stop = start + chunk
            flat[start:stop] += projection[start:stop].astype(np.float32) @ counts
        self._absolute_mass += float(np.abs(counts).sum())

    def size_in_counters(self) -> int:
        return int(self._atomic.size)

    def seed_words(self) -> int:
        return self._schema.signs.state_words()

    # -- estimation (paper Figure 2) ------------------------------------------

    def est_join_size(self, other: "AGMSSketch") -> float:
        """Procedure ``ESTJOINSIZE``: binary-join size estimate from two sketches.

        For each median group ``j``, average the products of corresponding
        atomic sketches, then return the median across groups (Theorem 2
        gives the ``+/- 2 sqrt(SJ(f) SJ(g) / averaging)`` error bound).
        """
        self._check_compatible(other)
        group_means = np.mean(self._atomic * other._atomic, axis=1)
        return float(np.median(group_means))

    def est_self_join_size(self) -> float:
        """Procedure ``ESTSJSIZE``: second-moment (self-join size) estimate."""
        return self.est_join_size(self)

    def join_error_bound(self, other: "AGMSSketch") -> float:
        """Estimated maximum additive error of :meth:`est_join_size`.

        Theorem 2: ``2 sqrt(SJ(f) SJ(g) / averaging)``, with the self-join
        sizes estimated from the sketches themselves.
        """
        self._check_compatible(other)
        sj_product = max(self.est_self_join_size(), 0.0) * max(
            other.est_self_join_size(), 0.0
        )
        return float(2.0 * np.sqrt(sj_product / self._schema.averaging))

    # -- algebra (sketches are linear projections) -----------------------------

    def merged_with(self, other: "AGMSSketch") -> "AGMSSketch":
        """Sketch of the concatenation of both underlying streams."""
        self._check_compatible(other)
        result = AGMSSketch(self._schema)
        result._atomic = self._atomic + other._atomic
        result._absolute_mass = self._absolute_mass + other._absolute_mass
        return result

    def copy(self) -> "AGMSSketch":
        """Independent deep copy."""
        result = AGMSSketch(self._schema)
        result._atomic = self._atomic.copy()
        result._absolute_mass = self._absolute_mass
        return result

    # -- external counter storage (shared-memory seam) --------------------------

    def counters_view(self) -> list[np.ndarray]:
        """Writable view of the raw atomic-sketch block (a single entry)."""
        return [self._atomic]

    def attach_counters(self, buffers: list[np.ndarray]) -> None:
        """Re-home the atomic sketches into a caller-provided buffer.

        See :meth:`HashSketch.attach_counters`: copies current state in
        and rebinds, preserving the projection bit-for-bit.
        """
        if len(buffers) != 1:
            raise ParameterError(
                f"AGMSSketch.attach_counters takes exactly 1 buffer, "
                f"got {len(buffers)}"
            )
        buffer = buffers[0]
        if buffer.shape != self._atomic.shape or buffer.dtype != np.float64:
            raise ParameterError(
                f"attach_counters needs a float64 buffer of shape "
                f"{self._atomic.shape}, got {buffer.dtype} {buffer.shape}"
            )
        buffer[...] = self._atomic
        self._atomic = buffer

    def tracked_masses(self) -> list[float]:
        """Tracked ``sum |weight|`` per counter block (a single entry)."""
        return [self._absolute_mass]

    def set_tracked_masses(self, masses: list[float]) -> None:
        """Install the tracked mass captured by :meth:`tracked_masses`."""
        if len(masses) != 1:
            raise ParameterError(
                f"AGMSSketch.set_tracked_masses takes exactly 1 mass, "
                f"got {len(masses)}"
            )
        self._absolute_mass = float(masses[0])

    # -- internals ---------------------------------------------------------------

    def _check_value(self, value: int) -> None:
        if not 0 <= value < self.domain_size:
            from ..errors import DomainError

            raise DomainError(f"value {value} outside domain [0, {self.domain_size})")

    def _check_compatible(self, other: "AGMSSketch") -> None:
        if not isinstance(other, AGMSSketch):
            raise IncompatibleSketchError(
                f"cannot combine AGMSSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema and not self._schema.is_compatible(
            other._schema
        ):
            raise IncompatibleSketchError(
                "sketches come from different AGMS schemas (randomness differs)"
            )

    def __repr__(self) -> str:
        return (
            f"AGMSSketch(averaging={self._schema.averaging}, "
            f"median={self._schema.median}, N={self._absolute_mass:g})"
        )

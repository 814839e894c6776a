"""The hash sketch data structure (paper Section 4.1).

A hash sketch is ``depth`` hash tables (paper's ``s2``) of ``width``
counter buckets each (paper's ``s1``).  Table ``i`` carries a pairwise
independent bucket hash ``h_i`` and a four-wise independent ±1 family
``xi_i``; processing element ``(v, w)`` performs, for each table,

    C[i, h_i(v)] += w * xi_i(v)

so each bucket counter is itself an atomic AGMS sketch of the substream of
values hashing into it.  The per-element cost is ``O(depth)`` — *one*
counter per table — which is the paper's logarithmic update-time claim,
versus ``O(width * depth)`` for basic AGMS.

The structure is a linear projection of the stream's frequency vector, so
it supports deletions, merging, and — crucially for skimming — *subtracting
a known frequency vector* (:meth:`HashSketch.subtract_frequencies`), which
is how ``SKIMDENSE`` removes extracted dense frequencies.

Estimators provided here:

* :meth:`HashSketch.point_estimate` — the COUNTSKETCH frequency estimate
  ``median_i C[i, h_i(v)] * xi_i(v)`` (paper Theorem 3);
* :meth:`HashSketch.est_join_size` — the bucket-wise inner product
  ``median_i sum_b C_F[i, b] * C_G[i, b]``, used both as the "Fast-AGMS"
  join estimator and as the sparse-sparse sub-join term of
  ``ESTSKIMJOINSIZE``;
* :meth:`HashSketch.est_self_join_size` — second-moment estimate.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, ParameterError
from ..hashing import FourWiseSignFamily, PairwiseBucketHash
from ..hashing.bulk import coalesce_updates
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from .base import StreamSynopsis, finite_mass

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector

# Auto-precompute ceiling: hash/sign lookup tables are built on demand
# (all_point_estimates, SKIMDENSE flat scans) only while the table size
# ``depth * domain_size`` stays under this many entries (int32 buckets +
# int8 signs => at most ~20 MiB).  Larger domains keep evaluating the
# Carter--Wegman polynomials directly; call ``precompute()`` to override.
AUTO_PRECOMPUTE_MAX_ENTRIES = 1 << 22


class HashSketchSchema:
    """Shared hash/sign randomness and shape for join-compatible hash sketches.

    The paper requires the two joined sketches to "use identical hash
    functions h_i" (Section 4.3); creating both from one schema guarantees
    it.

    Parameters
    ----------
    width:
        Buckets per hash table (paper's ``s1``; 50..250 in the experiments).
    depth:
        Number of hash tables median-selected over (paper's ``s2``;
        11..59 in the experiments — odd values keep the median unique).
    domain_size:
        Size of the integer value domain.
    seed:
        Seed determining all hash and sign families.
    """

    def __init__(self, width: int, depth: int, domain_size: int, seed: int = 0) -> None:
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ParameterError(f"depth must be >= 1, got {depth}")
        if domain_size < 1:
            raise ParameterError(f"domain_size must be >= 1, got {domain_size}")
        self.width = width
        self.depth = depth
        self.domain_size = domain_size
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.buckets = PairwiseBucketHash(depth, width, rng)
        self.signs = FourWiseSignFamily(depth, rng)
        self._bucket_table: np.ndarray | None = None
        self._sign_table: np.ndarray | None = None

    # -- precomputed hash/sign tables -----------------------------------------

    @property
    def precomputed(self) -> bool:
        """True once the full-domain hash/sign lookup tables are built."""
        return self._bucket_table is not None

    def precompute(self) -> None:
        """Materialise ``(depth, domain_size)`` bucket/sign lookup tables.

        After this, every bulk hash evaluation over in-domain values is a
        table gather instead of mod-p polynomial arithmetic — the
        ``precompute(domain)`` small-domain cache used by point
        estimation, ``all_point_estimates`` and SKIMDENSE flat
        extraction.  Tables are exact (same polynomial evaluations, made
        once); buckets are stored as ``int32`` and signs as ``int8`` so a
        table of ``AUTO_PRECOMPUTE_MAX_ENTRIES`` entries stays ~20 MiB.
        Idempotent.
        """
        if self._bucket_table is not None:
            return
        domain = np.arange(self.domain_size, dtype=np.int64)
        self._bucket_table = self.buckets.buckets(domain).astype(np.int32)
        self._sign_table = self.signs.signs(domain).astype(np.int8)

    def ensure_precomputed(
        self, max_entries: int = AUTO_PRECOMPUTE_MAX_ENTRIES
    ) -> bool:
        """Build the lookup tables iff the domain is small enough.

        Returns True when the tables are available (already built or just
        built), False when ``depth * domain_size > max_entries`` and the
        schema stays in polynomial-evaluation mode.
        """
        if self._bucket_table is not None:
            return True
        if self.depth * self.domain_size > max_entries:
            return False
        self.precompute()
        return True

    def clear_precomputed(self) -> None:
        """Drop the lookup tables (frees memory; evaluation stays correct)."""
        self._bucket_table = None
        self._sign_table = None

    def bulk_tables(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(depth, n)`` bucket indices and ±1 signs for ``values``.

        Uses the precomputed lookup tables when they exist and every value
        is in-domain (out-of-domain inputs — possible on the unchecked
        estimation path — fall back to direct polynomial evaluation, which
        is defined for any integer).  Either path returns bit-identical
        hashes; only the dtypes differ (table hits return ``int32``
        buckets / ``int8`` signs, both exact under NumPy's promotion).
        """
        values = np.asarray(values, dtype=np.int64)
        if (
            self._bucket_table is not None
            and self._sign_table is not None
            and values.size
            and int(values.min()) >= 0
            and int(values.max()) < self.domain_size
        ):
            return self._bucket_table[:, values], self._sign_table[:, values]
        return self.buckets.buckets(values), self.signs.signs(values)

    def create_sketch(self) -> "HashSketch":
        """A fresh empty sketch bound to this schema."""
        return HashSketch(self)

    def sketch_of(self, frequencies: "FrequencyVector") -> "HashSketch":
        """Convenience: a sketch pre-loaded with a whole frequency vector."""
        sketch = self.create_sketch()
        sketch.ingest_frequency_vector(frequencies)
        return sketch

    def is_compatible(self, other: "HashSketchSchema") -> bool:
        """True if sketches from ``other`` may be combined with ours."""
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.domain_size == other.domain_size
            and self.buckets == other.buckets
            and self.signs == other.signs
        )

    def __repr__(self) -> str:
        return (
            f"HashSketchSchema(width={self.width}, depth={self.depth}, "
            f"domain_size={self.domain_size}, seed={self.seed})"
        )


class HashSketch(StreamSynopsis):
    """One stream's hash-sketch synopsis (``depth`` tables x ``width`` buckets)."""

    def __init__(self, schema: HashSketchSchema) -> None:
        self._schema = schema
        self._counters = np.zeros((schema.depth, schema.width), dtype=np.float64)
        self._absolute_mass = 0.0
        self._table_index = np.arange(schema.depth, dtype=np.int64)
        self._flat_offsets = self._table_index * np.int64(schema.width)

    # -- synopsis contract ---------------------------------------------------

    @property
    def schema(self) -> HashSketchSchema:
        """The schema (shared randomness) this sketch was created from."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    @property
    def width(self) -> int:
        """Buckets per table (paper's ``s1``)."""
        return self._schema.width

    @property
    def depth(self) -> int:
        """Number of tables (paper's ``s2``)."""
        return self._schema.depth

    @property
    def counters(self) -> np.ndarray:
        """Read-only ``(depth, width)`` view of the bucket counters."""
        view = self._counters.view()
        view.flags.writeable = False
        return view

    @property
    def absolute_mass(self) -> float:
        """Sum of ``|weight|`` over processed updates — the tracked stream
        size ``N`` that the skimming threshold ``theta = c N / sqrt(width)``
        is computed from.  Unchanged by :meth:`subtract_frequencies`, which
        removes *already counted* mass rather than observing new elements.
        """
        return self._absolute_mass

    def update(self, value: int, weight: float = 1.0) -> None:
        """O(depth): exactly one counter per table is touched (paper §4.1)."""
        self._check_value(value)
        mass = finite_mass(abs(weight))
        buckets = self._schema.buckets.buckets(value)[:, 0]
        signs = self._schema.signs.signs(value)[:, 0]
        # The O(depth) single-element fast path the paper's update-time
        # claim rests on; the bincount primitive costs O(depth * width).
        self._counters[self._table_index, buckets] += weight * signs  # repro: noqa[R9] -- O(depth) per-element hot path; linear by inspection
        self._absolute_mass += mass
        if _METRICS.enabled:
            _METRICS.count("sketch.update.elements")
            if weight < 0:
                _METRICS.count("sketch.update.deletions")
        if _TRACER.enabled:
            _TRACER.instant("sketch.update", tables=self._schema.depth)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return
        self._check_value(int(values.min()))
        self._check_value(int(values.max()))
        if weights is None:
            weights = np.ones(values.size, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ParameterError("weights must have the same shape as values")
        mass = finite_mass(float(np.abs(weights).sum()))
        with _TRACER.span(
            "sketch.update_bulk", elements=int(values.size)
        ) if _TRACER.enabled else nullcontext():
            self._apply_point_masses(values, weights)
            self._absolute_mass += mass
        if _METRICS.enabled:
            _METRICS.count("sketch.update.elements", int(values.size))
            _METRICS.count("sketch.update.batches")
            deletions = int(np.count_nonzero(weights < 0))
            if deletions:
                _METRICS.count("sketch.update.deletions", deletions)

    def size_in_counters(self) -> int:
        return int(self._counters.size)

    def seed_words(self) -> int:
        return self._schema.buckets.state_words() + self._schema.signs.state_words()

    # -- point (frequency) estimation: COUNTSKETCH / Theorem 3 -----------------

    def point_estimates(self, values: np.ndarray) -> np.ndarray:
        """COUNTSKETCH frequency estimates for each value.

        ``EST(v) = median_i C[i, h_i(v)] * xi_i(v)``; additive error is
        ``O(sqrt(F2 / width))`` with probability ``1 - 2^{-Theta(depth)}``
        (paper Theorem 3).  Vectorised over ``values``.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return np.zeros(0, dtype=np.float64)
        buckets, signs = self._schema.bulk_tables(values)
        per_table = self._counters[self._table_index[:, None], buckets] * signs
        return np.median(per_table, axis=0)

    def point_estimate(self, value: int) -> float:
        """Frequency estimate for a single domain value."""
        self._check_value(value)
        return float(self.point_estimates(np.asarray([value], dtype=np.int64))[0])

    def all_point_estimates(self) -> np.ndarray:
        """Frequency estimates for every value of the domain.

        Linear in ``domain_size * depth`` — the cost the dyadic skim
        optimisation of Section 4.2 exists to avoid for huge domains, but
        entirely practical (and exact in coverage) for materialisable ones.
        Warms the schema's hash/sign lookup tables first (small domains),
        so repeated full scans pay the polynomial evaluation only once.
        """
        self._schema.ensure_precomputed()
        return self.point_estimates(np.arange(self.domain_size, dtype=np.int64))

    # -- join estimation ---------------------------------------------------------

    def table_join_estimates(self, other: "HashSketch") -> np.ndarray:
        """Per-table join estimates ``Y_i = sum_b C_F[i, b] * C_G[i, b]``.

        Because both sketches share ``h_i``, the values mapping to bucket
        ``b`` are identical on both sides and each ``Y_i`` is an unbiased
        estimate of ``<f, g>`` (Steps 3-7 of ``ESTSKIMJOINSIZE``).
        """
        self._check_compatible(other)
        return np.einsum("ij,ij->i", self._counters, other._counters)

    def est_join_size(self, other: "HashSketch") -> float:
        """Median-boosted binary-join size estimate from two hash sketches."""
        with _TRACER.span(
            "estimate.median_boost", tables=self._schema.depth
        ) if _TRACER.enabled else nullcontext() as sp:
            estimate = float(np.median(self.table_join_estimates(other)))
            if sp is not None:
                sp.set(median=estimate)
        return estimate

    def est_self_join_size(self) -> float:
        """Second-moment estimate ``median_i sum_b C[i, b]^2``."""
        return float(np.median(np.einsum("ij,ij->i", self._counters, self._counters)))

    def join_error_bound(self, other: "HashSketch") -> float:
        """Estimated maximum additive error of :meth:`est_join_size`.

        Theorem-2-style bound ``2 sqrt(SJ(f) SJ(g) / width)``, with the
        self-join sizes themselves estimated from the sketches; holds with
        the usual median-boosted probability.  This is the quantity that
        explodes under skew and that skimming shrinks.
        """
        self._check_compatible(other)
        sj_product = max(self.est_self_join_size(), 0.0) * max(
            other.est_self_join_size(), 0.0
        )
        return float(2.0 * np.sqrt(sj_product / self.width))

    # -- linearity: merge / subtract -----------------------------------------------

    def merged_with(self, other: "HashSketch") -> "HashSketch":
        """Sketch of the concatenation of both underlying streams."""
        self._check_compatible(other)
        result = HashSketch(self._schema)
        result._counters = self._counters + other._counters
        result._absolute_mass = self._absolute_mass + other._absolute_mass
        return result

    def subtract_frequencies(self, values: np.ndarray, frequencies: np.ndarray) -> None:
        """Remove a known frequency assignment from the sketch, in place.

        After the call the sketch equals the sketch of the *residual*
        frequency vector ``f - fhat`` where ``fhat`` puts ``frequencies[k]``
        on ``values[k]`` — exactly Steps 8-9 of ``SKIMDENSE`` (Figure 3).
        """
        values = np.asarray(values, dtype=np.int64)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if frequencies.shape != values.shape:
            raise ParameterError("frequencies must have the same shape as values")
        if values.size == 0:
            return
        self._check_value(int(values.min()))
        self._check_value(int(values.max()))
        self._apply_point_masses(values, -frequencies)

    def copy(self) -> "HashSketch":
        """Independent deep copy (used to keep the unskimmed sketch around)."""
        result = HashSketch(self._schema)
        result._counters = self._counters.copy()
        result._absolute_mass = self._absolute_mass
        return result

    def update_coalesced(
        self,
        values: np.ndarray,
        masses: np.ndarray,
        observed_mass: float | None = None,
    ) -> None:
        """Ingest a pre-coalesced batch: distinct ``values``, summed ``masses``.

        Kernel entry point for callers that coalesce one batch and feed
        many sketches (dyadic hierarchies, parallel shard workers) —
        typically via :class:`repro.hashing.BulkHashCache`.
        ``observed_mass`` is ``sum(|weight|)`` over the *original* batch
        (default: ``sum(|masses|)``); passing it keeps
        :attr:`absolute_mass` identical to element-wise ingestion even
        when coalescing cancels opposite-signed weights.  Records no
        metrics or spans — the caller owns instrumentation.
        """
        values = np.asarray(values, dtype=np.int64)
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != values.shape:
            raise ParameterError("masses must have the same shape as values")
        if values.size == 0:
            return
        self._check_value(int(values.min()))
        self._check_value(int(values.max()))
        self._apply_point_masses(values, masses, coalesced=True)
        self._absolute_mass += (
            float(np.abs(masses).sum()) if observed_mass is None
            else float(observed_mass)
        )

    # -- external counter storage (shared-memory seam) --------------------------

    def counters_view(self) -> list[np.ndarray]:
        """Writable views of the raw counter blocks backing this sketch.

        The shared-memory ingest plane uses this to size segments and to
        sum shard counters without copying.  Counter *mutations* must
        still flow through the sanctioned linear primitives (rule R9);
        this seam only exposes the storage.
        """
        return [self._counters]

    def attach_counters(self, buffers: list[np.ndarray]) -> None:
        """Re-home the counters into caller-provided float64 buffers.

        Copies the current counter state into ``buffers`` and rebinds the
        sketch's storage to them, so the sketch can live inside e.g. a
        ``multiprocessing.shared_memory`` segment.  Every update/merge
        primitive mutates in place afterwards; the projection itself is
        unchanged, so linearity and all estimates are preserved
        bit-for-bit.
        """
        if len(buffers) != 1:
            raise ParameterError(
                f"HashSketch.attach_counters takes exactly 1 buffer, "
                f"got {len(buffers)}"
            )
        buffer = buffers[0]
        if buffer.shape != self._counters.shape or buffer.dtype != np.float64:
            raise ParameterError(
                f"attach_counters needs a float64 buffer of shape "
                f"{self._counters.shape}, got {buffer.dtype} {buffer.shape}"
            )
        buffer[...] = self._counters
        self._counters = buffer

    def tracked_masses(self) -> list[float]:
        """Tracked ``sum |weight|`` per counter block (a single entry)."""
        return [self._absolute_mass]

    def set_tracked_masses(self, masses: list[float]) -> None:
        """Install tracked masses captured by :meth:`tracked_masses`."""
        if len(masses) != 1:
            raise ParameterError(
                f"HashSketch.set_tracked_masses takes exactly 1 mass, "
                f"got {len(masses)}"
            )
        self._absolute_mass = float(masses[0])

    # -- internals -------------------------------------------------------------------

    def _apply_point_masses(
        self, values: np.ndarray, masses: np.ndarray, *, coalesced: bool = False
    ) -> None:
        """Add ``masses[k] * xi_i(values[k])`` into bucket ``h_i(values[k])``.

        Fused kernel: duplicates are coalesced once (``np.unique`` +
        segment sum — skipped when the caller passes already-distinct
        values), all ``depth`` hash/sign functions are evaluated in a
        single vectorised pass (lookup tables when precomputed), and the
        whole ``(depth, n)`` update lands with one flat ``bincount``
        scatter-add instead of a Python loop over tables.
        """
        if not coalesced:
            values, masses = coalesce_updates(values, masses)
        if values.size == 0:
            return
        buckets, signs = self._schema.bulk_tables(values)
        flat = (buckets + self._flat_offsets[:, None]).ravel()
        self._counters += np.bincount(
            flat, weights=(signs * masses).ravel(), minlength=self._counters.size
        ).reshape(self._schema.depth, self._schema.width)

    def _check_value(self, value: int) -> None:
        if not 0 <= value < self.domain_size:
            raise DomainError(f"value {value} outside domain [0, {self.domain_size})")

    def _check_compatible(self, other: "HashSketch") -> None:
        if not isinstance(other, HashSketch):
            raise IncompatibleSketchError(
                f"cannot combine HashSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema and not self._schema.is_compatible(
            other._schema
        ):
            raise IncompatibleSketchError(
                "sketches come from different hash-sketch schemas (randomness differs)"
            )

    def __repr__(self) -> str:
        return (
            f"HashSketch(width={self.width}, depth={self.depth}, "
            f"N={self._absolute_mass:g})"
        )

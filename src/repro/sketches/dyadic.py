"""Dyadic-interval hash-sketch hierarchy (paper Section 4.2, "optimized
SKIMDENSE" via [9]).

Scanning every domain value to find dense frequencies costs ``O(|D|)``,
which is unacceptable for huge domains (the paper's example: 64-bit IP
addresses).  The fix is hierarchical: maintain ``log2 |D| + 1`` hash
sketches, where the sketch at level ``l`` summarises the stream mapped
through ``v -> v >> l`` — i.e. each level-``l`` value is a *dyadic
interval* of ``2**l`` consecutive domain values and its frequency is the
interval's total frequency.

Because an interval's frequency upper-bounds every enclosed value's
frequency, a top-down descent can prune any interval whose estimate falls
below the threshold: no value inside it can be dense.  At most ``2N/T``
intervals per level survive a threshold ``T``, so extraction costs
``O((N/T) * log|D| * depth)`` instead of ``O(|D| * depth)``.

The hierarchy stops at a coarsest level with at most
``coarse_cutoff`` intervals, which the descent enumerates exhaustively.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..hashing.bulk import BulkHashCache
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from . import hash_sketch
from .base import StreamSynopsis, ingest_checked, ingest_checked_one
from .hash_sketch import HashSketch, HashSketchSchema

if TYPE_CHECKING:  # type-only: repro.streams imports repro.sketches at runtime
    from ..streams.model import FrequencyVector


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class DyadicSketchSchema:
    """Shared randomness/shape for join-compatible dyadic sketch hierarchies.

    Parameters
    ----------
    width, depth:
        Per-level hash-sketch dimensions (paper's ``s1``, ``s2``).
    domain_size:
        Must be a power of two (pad the declared domain upward if needed;
        unused values simply never occur, costing nothing).
    seed:
        Base seed; level ``l`` uses an independent stream derived from it.
    coarse_cutoff:
        The hierarchy's coarsest level is the first whose interval count is
        ``<= coarse_cutoff``; the descent starts by enumerating it fully.

    The levels' table rule (see :class:`HashSketchSchema`) spends one
    :data:`~repro.sketches.hash_sketch.TABLE_BUDGET_BYTES` for the whole
    hierarchy: only the coarsest levels whose lookup tables fit it
    together build them once they have hashed a domain's worth of values.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        domain_size: int,
        seed: int = 0,
        coarse_cutoff: int = 1024,
    ) -> None:
        if not _is_power_of_two(domain_size):
            raise ParameterError(
                f"domain_size must be a power of two, got {domain_size}; "
                "pad the declared domain upward"
            )
        if coarse_cutoff < 2:
            raise ParameterError(f"coarse_cutoff must be >= 2, got {coarse_cutoff}")
        self.width = width
        self.depth = depth
        self.domain_size = domain_size
        self.seed = seed
        self.coarse_cutoff = coarse_cutoff

        self.level_domains: list[int] = []
        size = domain_size
        while True:
            self.level_domains.append(size)
            if size <= coarse_cutoff or size == 1:
                break
            size //= 2
        seed_stream = np.random.SeedSequence(seed).spawn(len(self.level_domains))
        self.level_schemas = [
            HashSketchSchema(
                width,
                depth,
                level_size,
                seed=int(child.generate_state(1)[0]),
            )
            for level_size, child in zip(self.level_domains, seed_stream)
        ]
        # Coarse levels first: they hash the most values per table byte.
        spent = 0
        for level_schema in reversed(self.level_schemas):
            spent += level_schema.table_bytes
            level_schema._rule_tables = spent <= hash_sketch.TABLE_BUDGET_BYTES

    @property
    def num_levels(self) -> int:
        """Number of levels in the hierarchy (level 0 = raw domain)."""
        return len(self.level_domains)

    def create_sketch(self) -> "DyadicHashSketch":
        """A fresh empty hierarchy bound to this schema."""
        return DyadicHashSketch(self)

    def sketch_of(self, frequencies: "FrequencyVector") -> "DyadicHashSketch":
        """Convenience: a hierarchy pre-loaded with a whole frequency vector."""
        sketch = self.create_sketch()
        sketch.ingest_frequency_vector(frequencies)
        return sketch

    def is_compatible(self, other: "DyadicSketchSchema") -> bool:
        """True if hierarchies from ``other`` may be combined with ours."""
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.domain_size == other.domain_size
            and self.num_levels == other.num_levels
            and all(
                a.is_compatible(b)
                for a, b in zip(self.level_schemas, other.level_schemas)
            )
        )

    def __repr__(self) -> str:
        return (
            f"DyadicSketchSchema(width={self.width}, depth={self.depth}, "
            f"domain_size={self.domain_size}, levels={self.num_levels})"
        )


class DyadicHashSketch(StreamSynopsis):
    """A stack of hash sketches over the dyadic aggregation levels of one stream."""

    def __init__(self, schema: DyadicSketchSchema) -> None:
        self._schema = schema
        self._levels = [s.create_sketch() for s in schema.level_schemas]

    # -- synopsis contract ---------------------------------------------------

    @property
    def schema(self) -> DyadicSketchSchema:
        """The schema (shared randomness) this hierarchy was created from."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    @property
    def base_sketch(self) -> HashSketch:
        """The level-0 sketch — the one join estimation operates on."""
        return self._levels[0]

    def level_sketch(self, level: int) -> HashSketch:
        """The hash sketch at aggregation level ``level``."""
        return self._levels[level]

    @property
    def absolute_mass(self) -> float:
        """Tracked stream size ``N`` (identical at every level)."""
        return self._levels[0].absolute_mass

    def update(self, value: int, weight: float = 1.0) -> None:
        """O(depth * log|D|): one counter per table per level."""
        mass = ingest_checked_one(value, weight, self.domain_size, self.absolute_mass)
        self._ingest_one(value, weight, mass)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Fold one batch into every level of the hierarchy.

        Checks the batch once for the whole hierarchy, coalesces it once
        (:class:`repro.hashing.BulkHashCache`) and derives each level's
        distinct-interval view by a shift-and-merge over the previous
        level, so the per-level hash families run over at most
        ``min(k, domain >> level)`` distinct ids instead of re-hashing
        all ``n`` raw elements ``num_levels`` times.
        """
        self._ingest(
            *ingest_checked(values, weights, self.domain_size, self.absolute_mass)
        )

    def _ingest_one(self, value: int, weight: float, mass: float) -> None:
        """Unchecked write of one checked element into every level."""
        for level, sketch in enumerate(self._levels):
            sketch._ingest_one(value >> level, weight, mass)

    def _ingest(self, values: np.ndarray, weights: np.ndarray, mass: float) -> None:
        """Unchecked write of a checked batch into every level."""
        if values.size == 0:
            return
        cache = BulkHashCache(values, weights)
        with _TRACER.span(
            "sketch.update_bulk",
            elements=int(values.size),
            levels=len(self._levels),
        ) if _TRACER.enabled else nullcontext():
            for level, sketch in enumerate(self._levels):
                sketch._ingest_coalesced(*cache.level(level), mass)
        if _METRICS.enabled:
            # Same totals as per-level HashSketch.update_bulk calls: each
            # level is a real hash-sketch update of the whole batch.
            num_levels = len(self._levels)
            _METRICS.count("sketch.update.elements", int(values.size) * num_levels)
            _METRICS.count("sketch.update.batches", num_levels)
            if cache.num_deletions:
                _METRICS.count(
                    "sketch.update.deletions", cache.num_deletions * num_levels
                )

    def size_in_counters(self) -> int:
        return sum(s.size_in_counters() for s in self._levels)

    def seed_words(self) -> int:
        return sum(s.seed_words() for s in self._levels)

    # -- hierarchical heavy-value search --------------------------------------

    def heavy_values(self, threshold: float) -> np.ndarray:
        """Domain values whose estimated frequency is ``>= threshold``.

        Top-down pruned descent: enumerate the coarsest level, keep
        intervals whose estimate passes the threshold, expand each survivor
        into its two children, repeat down to level 0.  Returns the
        surviving level-0 values (ascending ``int64``); the caller decides
        what to do with their estimates.
        """
        if not threshold > 0:
            raise ParameterError(f"threshold must be positive, got {threshold}")
        top = self._schema.num_levels - 1
        candidates = np.arange(self._schema.level_domains[top], dtype=np.int64)
        for level in range(top, -1, -1):
            if candidates.size == 0:
                return candidates
            if _METRICS.enabled:
                _METRICS.count("skim.dyadic.probes", int(candidates.size))
            with _TRACER.span(
                "skim.dyadic.level", level=level, candidates=int(candidates.size)
            ) if _TRACER.enabled else nullcontext() as sp:
                estimates = self._levels[level].point_estimates(candidates)
                candidates = candidates[estimates >= threshold]
                if sp is not None:
                    sp.set(survivors=int(candidates.size))
                if level > 0:
                    candidates = np.repeat(candidates * 2, 2)
                    candidates[1::2] += 1
        return np.sort(candidates)

    def range_estimate(self, low: int, high: int) -> float:
        """Estimated total frequency of the value range ``[low, high)``.

        Decomposes the range into ``O(log |D|)`` maximal dyadic intervals
        (the classic trick of Cormode-Muthukrishnan [9], which this
        hierarchy exists to support) and sums each interval's COUNTSKETCH
        point estimate at its own level — so the error is logarithmic in
        the range length instead of linear.
        """
        if not 0 <= low < high <= self.domain_size:
            raise ParameterError(
                f"range [{low}, {high}) not within [0, {self.domain_size})"
            )
        total = 0.0
        max_level = self._schema.num_levels - 1
        while low < high:
            # Largest dyadic block starting at `low` that fits in the range
            # and in the hierarchy.
            level = min((low & -low).bit_length() - 1 if low else max_level, max_level)
            while (1 << level) > high - low:
                level -= 1
            total += float(self._levels[level].point_estimate(low >> level))
            low += 1 << level
        return total

    def estimated_descent_cost(self, threshold: float) -> int:
        """Number of point estimates the descent for ``threshold`` performs.

        Instrumentation used by the E7 benchmark to demonstrate the
        ``O((N/T) log|D|)`` versus ``O(|D|)`` gap of Section 4.2.
        """
        top = self._schema.num_levels - 1
        candidates = np.arange(self._schema.level_domains[top], dtype=np.int64)
        cost = 0
        for level in range(top, -1, -1):
            cost += int(candidates.size)
            if candidates.size == 0:
                break
            estimates = self._levels[level].point_estimates(candidates)
            candidates = candidates[estimates >= threshold]
            if level > 0:
                candidates = np.repeat(candidates * 2, 2)
                candidates[1::2] += 1
        return cost

    # -- linearity ---------------------------------------------------------------

    def subtract_frequencies(self, values: np.ndarray, frequencies: np.ndarray) -> None:
        """Subtract a known frequency assignment at *every* level, in place.

        Keeps the hierarchy self-consistent so skimming can be repeated
        (e.g. progressively lowering the threshold).  Checked once, like
        an update whose observed mass is 0: subtraction removes
        already-counted mass, so the tracked stream size ``N`` stays.
        """
        values, frequencies, _ = ingest_checked(
            values, frequencies, self.domain_size, self.absolute_mass, 0.0
        )
        if values.size == 0:
            return
        cache = BulkHashCache(values, frequencies)
        for level, sketch in enumerate(self._levels):
            level_values, level_masses = cache.level(level)
            sketch._ingest_coalesced(level_values, -level_masses, 0.0)

    def merged_with(self, other: "DyadicHashSketch") -> "DyadicHashSketch":
        """Hierarchy of the concatenation of both underlying streams."""
        self._check_compatible(other)
        result = DyadicHashSketch(self._schema)
        result._levels = [
            a.merged_with(b) for a, b in zip(self._levels, other._levels)
        ]
        return result

    def copy(self) -> "DyadicHashSketch":
        """Independent deep copy."""
        result = DyadicHashSketch(self._schema)
        result._levels = [s.copy() for s in self._levels]
        return result

    # -- read access for exactness checks ---------------------------------------

    def counters_view(self) -> list[np.ndarray]:
        """Read-only views of every level's counter block, level order; see
        :meth:`HashSketch.counters_view`."""
        return [
            block for sketch in self._levels for block in sketch.counters_view()
        ]

    def tracked_masses(self) -> list[float]:
        """Tracked ``sum |weight|`` per counter block (one per level)."""
        return [
            mass for sketch in self._levels for mass in sketch.tracked_masses()
        ]

    def _check_compatible(self, other: "DyadicHashSketch") -> None:
        if not isinstance(other, DyadicHashSketch):
            raise IncompatibleSketchError(
                f"cannot combine DyadicHashSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema and not self._schema.is_compatible(
            other._schema
        ):
            raise IncompatibleSketchError(
                "hierarchies come from different dyadic schemas (randomness differs)"
            )

    def __repr__(self) -> str:
        return (
            f"DyadicHashSketch(width={self._schema.width}, "
            f"depth={self._schema.depth}, levels={self._schema.num_levels}, "
            f"N={self.absolute_mass:g})"
        )

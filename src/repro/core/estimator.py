"""High-level public API: :class:`SkimmedSketch` and its schema.

This is the class a downstream user touches.  It wraps either a flat hash
sketch (default; hot-bucket skimming) or a dyadic hierarchy (for huge
domains), tracks the stream, and answers join-size / self-join-size /
point-frequency queries with the skimmed-sketch machinery underneath.

Typical usage::

    schema = SkimmedSketchSchema(width=200, depth=11, domain_size=1 << 18,
                                 seed=42)
    sketch_f = schema.create_sketch()
    sketch_g = schema.create_sketch()
    ... feed updates (value, +/-weight) into each sketch ...
    estimate = sketch_f.est_join_size(sketch_g)

Both sketches must come from the same schema — they share hash functions,
as the paper requires — and this is enforced.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..monitor import AUDIT as _AUDIT
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from ..sketches.base import StreamSynopsis
from ..sketches.dyadic import DyadicHashSketch, DyadicSketchSchema
from ..sketches.hash_sketch import HashSketch, HashSketchSchema
from .config import SketchParameters
from .skim import (
    DEFAULT_THRESHOLD_MULTIPLIER,
    SkimResult,
    default_threshold,
    skim_dense,
    skim_dense_dyadic_base,
)
from .skimmed_join import JoinEstimateBreakdown, est_skim_join_size_from_parts

if TYPE_CHECKING:  # type-only: repro.streams imports repro.core at runtime
    from ..streams.model import FrequencyVector


class SkimmedSketchSchema:
    """Shared randomness, shape and skim policy for a join-compatible set of
    :class:`SkimmedSketch` synopses.

    Parameters
    ----------
    width, depth:
        Hash-sketch dimensions (paper's ``s1``/``s2``); see
        :class:`~repro.core.config.SketchParameters` for principled choices.
    domain_size:
        Stream value domain ``[0, domain_size)``.  Must be a power of two
        when ``dyadic=True``.
    seed:
        Determines all hash/sign families.
    dyadic:
        Use the Section 4.2 dyadic hierarchy (skim cost logarithmic in the
        domain, at a ``log2(domain)`` factor more counters) instead of the
        flat skim (which scans the whole domain when it is too large for
        lookup tables).
    threshold_multiplier:
        ``c`` in the skim threshold ``theta = c * N / sqrt(width)``.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        domain_size: int,
        seed: int = 0,
        dyadic: bool = False,
        threshold_multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER,
    ) -> None:
        if not threshold_multiplier > 0:
            raise ParameterError(
                f"threshold_multiplier must be positive, got {threshold_multiplier}"
            )
        self.width = width
        self.depth = depth
        self.domain_size = domain_size
        self.seed = seed
        self.dyadic = dyadic
        self.threshold_multiplier = threshold_multiplier
        if dyadic:
            self._inner_schema: HashSketchSchema | DyadicSketchSchema = (
                DyadicSketchSchema(width, depth, domain_size, seed=seed)
            )
        else:
            self._inner_schema = HashSketchSchema(width, depth, domain_size, seed=seed)

    @classmethod
    def from_parameters(
        cls,
        parameters: SketchParameters,
        domain_size: int,
        seed: int = 0,
        dyadic: bool = False,
    ) -> "SkimmedSketchSchema":
        """Build a schema from a :class:`SketchParameters` recommendation."""
        return cls(
            parameters.width,
            parameters.depth,
            domain_size,
            seed=seed,
            dyadic=dyadic,
            threshold_multiplier=parameters.threshold_multiplier,
        )

    def create_sketch(self) -> "SkimmedSketch":
        """A fresh empty sketch bound to this schema."""
        return SkimmedSketch(self)

    def sketch_of(self, frequencies: "FrequencyVector") -> "SkimmedSketch":
        """Convenience: a sketch pre-loaded with a whole frequency vector."""
        sketch = self.create_sketch()
        sketch.ingest_frequency_vector(frequencies)
        return sketch

    def is_compatible(self, other: "SkimmedSketchSchema") -> bool:
        """True if sketches from ``other`` may be joined with ours."""
        return (
            self.dyadic == other.dyadic
            and self.threshold_multiplier == other.threshold_multiplier
            and self._inner_schema.is_compatible(other._inner_schema)
        )

    def __repr__(self) -> str:
        return (
            f"SkimmedSketchSchema(width={self.width}, depth={self.depth}, "
            f"domain_size={self.domain_size}, seed={self.seed}, "
            f"dyadic={self.dyadic}, c={self.threshold_multiplier})"
        )


class SkimmedSketch(StreamSynopsis):
    """One stream's skimmed-sketch synopsis — the paper's contribution.

    Maintenance is ``O(depth)`` per element (``O(depth * log(domain))``
    with ``dyadic=True``); deletions are supported; join estimation skims
    dense frequencies on the fly (the skim operates on a copy, so a sketch
    can keep absorbing updates and answer many queries).
    """

    def __init__(self, schema: SkimmedSketchSchema) -> None:
        self._schema = schema
        self._inner: HashSketch | DyadicHashSketch = (
            schema._inner_schema.create_sketch()
        )

    # -- synopsis contract ---------------------------------------------------

    @property
    def schema(self) -> SkimmedSketchSchema:
        """The schema (shared randomness and skim policy) of this sketch."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    @property
    def absolute_mass(self) -> float:
        """Tracked stream size ``N`` (sum of ``|weight|`` over updates)."""
        return self._inner.absolute_mass

    def update(self, value: int, weight: float = 1.0) -> None:
        self._inner.update(value, weight)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        self._inner.update_bulk(values, weights)

    def update_coalesced(
        self,
        values: np.ndarray,
        masses: np.ndarray,
        observed_mass: float | None = None,
    ) -> None:
        """Pre-coalesced ingest, delegated to the wrapped hash/dyadic sketch."""
        self._inner.update_coalesced(values, masses, observed_mass)

    def size_in_counters(self) -> int:
        return self._inner.size_in_counters()

    def seed_words(self) -> int:
        return self._inner.seed_words()

    # -- read access for exactness checks ---------------------------------------

    def counters_view(self) -> list[np.ndarray]:
        """Read-only views of the wrapped sketch's counter blocks; see
        :meth:`HashSketch.counters_view`."""
        return self._inner.counters_view()

    def tracked_masses(self) -> list[float]:
        """Tracked ``sum |weight|`` per wrapped counter block."""
        return self._inner.tracked_masses()

    # -- queries ------------------------------------------------------------------

    def skim_threshold(self) -> float:
        """The threshold ``theta = c * N / sqrt(width)`` at current ``N``."""
        base = self._inner.base_sketch if self._schema.dyadic else self._inner
        return default_threshold(base, self._schema.threshold_multiplier)

    def skim(self, threshold: float | None = None) -> tuple[SkimResult, "HashSketch"]:
        """Run SKIMDENSE on a copy; returns the skim and the *flat* residual
        level-0 sketch (the object join estimation consumes; a dyadic
        sketch copies and skims only that level)."""
        if threshold is None:
            threshold = self.skim_threshold()
        if self._schema.dyadic:
            return skim_dense_dyadic_base(self._inner, threshold)
        return skim_dense(self._inner, threshold)

    def join_breakdown(
        self, other: "SkimmedSketch", threshold: float | None = None
    ) -> JoinEstimateBreakdown:
        """Full ``ESTSKIMJOINSIZE`` decomposition of the join with ``other``.

        ``threshold`` overrides *both* streams' skim thresholds (used by
        the threshold-ablation experiment); by default each stream uses its
        own ``c * N / sqrt(width)``.  A self-join (``other is self``)
        skims once and uses the result on both sides.
        """
        self._check_compatible(other)
        with _METRICS.timer(
            "estimate.skim_join.seconds"
        ) if _METRICS.enabled else nullcontext():
            with _TRACER.span(
                "estimate.skim_join",
                s1=self._schema.width,
                s2=self._schema.depth,
                dyadic=self._schema.dyadic,
                n_f=float(self.absolute_mass),
                n_g=float(other.absolute_mass),
            ) if _TRACER.enabled else nullcontext():
                f_skim, f_res = self.skim(threshold)
                g_skim, g_res = (
                    (f_skim, f_res) if other is self else other.skim(threshold)
                )
                breakdown = est_skim_join_size_from_parts(f_skim, f_res, g_skim, g_res)
        if _AUDIT.enabled:
            _AUDIT.annotate_last(
                n_f=float(self.absolute_mass),
                n_g=float(other.absolute_mass),
                dyadic=self._schema.dyadic,
            )
        return breakdown

    def est_join_size(self, other: "SkimmedSketch") -> float:
        """Skimmed-sketch estimate of ``COUNT(F join G)``."""
        return self.join_breakdown(other).estimate

    def est_self_join_size(self) -> float:
        """Skimmed-sketch estimate of the second moment ``F2``."""
        return self.join_breakdown(self).estimate

    def point_estimate(self, value: int) -> float:
        """COUNTSKETCH frequency estimate for one domain value."""
        base = self._inner.base_sketch if self._schema.dyadic else self._inner
        return base.point_estimate(value)

    # -- linearity -------------------------------------------------------------------

    def merged_with(self, other: "SkimmedSketch") -> "SkimmedSketch":
        """Sketch of the concatenation of both underlying streams."""
        self._check_compatible(other)
        result = SkimmedSketch(self._schema)
        result._inner = self._inner.merged_with(other._inner)
        return result

    def copy(self) -> "SkimmedSketch":
        """Independent deep copy."""
        result = SkimmedSketch(self._schema)
        result._inner = self._inner.copy()
        return result

    def _check_compatible(self, other: "SkimmedSketch") -> None:
        if not isinstance(other, SkimmedSketch):
            raise IncompatibleSketchError(
                f"cannot join SkimmedSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema and not self._schema.is_compatible(
            other._schema
        ):
            raise IncompatibleSketchError(
                "sketches come from different schemas (randomness differs)"
            )

    def __repr__(self) -> str:
        return (
            f"SkimmedSketch(width={self._schema.width}, "
            f"depth={self._schema.depth}, dyadic={self._schema.dyadic}, "
            f"N={self.absolute_mass:g})"
        )

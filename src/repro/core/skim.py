"""SKIMDENSE: extracting dense frequencies out of a hash sketch (Fig. 3).

Skimming is the paper's central trick.  Given a hash sketch of stream
``F``, every domain value whose COUNTSKETCH frequency estimate reaches a
threshold ``theta`` is *extracted*: its estimate is recorded in an explicit
dense-frequency vector ``fhat`` and subtracted from the sketch counters.
What remains — the **skimmed sketch** — is exactly the sketch of the
residual frequency vector ``f - fhat``, whose entries are all
``O(theta)`` with high probability (Theorem 4).  Small residual
frequencies mean small residual self-join sizes, which is what slashes the
error of the downstream join estimate (Section 3).

Two implementations are provided:

* :func:`skim_dense` — the flat sketch.  A value's estimate
  ``median_i C[i, h_i(v)] * xi_i(v)`` reaches ``theta > 0`` only if at
  least ``ceil(depth / 2)`` of its terms do, and each such term needs a
  *hot* bucket, ``|C[i, h_i(v)]| >= theta``.  A table's absolute counter
  mass is at most ``N``, so it has at most ``N / theta = sqrt(width) / c``
  hot buckets.  With the schema's lookup tables (whenever they fit
  :data:`~repro.sketches.hash_sketch.TABLE_BUDGET_BYTES`, 12 MiB: the
  paper's experiments use ``|D| = 2**18``) the skim walks the inverse
  table (:meth:`~repro.sketches.hash_sketch.HashSketchSchema.bucket_members`)
  and takes exact medians only for the values that sit in a hot bucket
  in enough tables: cost ``O(depth * width)`` plus those buckets'
  members, and the same result, bit for bit, as estimating every value.
  Without tables it estimates every value, ``O(|D| * depth)``;
* :func:`skim_dense_dyadic` — the Section 4.2 optimisation, descending a
  dyadic-interval hierarchy and pruning sub-threshold intervals; cost
  ``O((N/theta) * log|D| * depth)``, the right choice for huge domains.
  :func:`skim_dense_dyadic_base` runs the same descent but builds only the
  level-0 residual, which is all a join reads.

The default threshold is ``theta = multiplier * N / sqrt(width)``, the
shape Theorems 3-5 require (``N`` is the tracked stream size).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..monitor.audit import RESIDUAL_BOUND_FACTOR
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from ..sketches.dyadic import DyadicHashSketch
from ..sketches.hash_sketch import HashSketch
from ..streams.model import FrequencyVector

#: Default multiplier ``c`` in ``theta = c * N / sqrt(width)``.
DEFAULT_THRESHOLD_MULTIPLIER = 1.0

__all__ = [
    "DEFAULT_THRESHOLD_MULTIPLIER",
    "RESIDUAL_BOUND_FACTOR",
    "SkimResult",
    "default_threshold",
    "residual_infinity_norm",
    "skim_dense",
    "skim_dense_dyadic",
    "skim_dense_dyadic_base",
]


def residual_infinity_norm(sketch: HashSketch) -> float:
    """``‖f - fhat‖∞`` as seen by the sketch: the largest-magnitude
    COUNTSKETCH point estimate over the whole domain.

    Theorem 4's contract for SKIMDENSE is that every *residual* frequency
    is below ``2 * theta`` w.h.p.; evaluating this norm on a skimmed
    sketch (cost ``O(|D| * depth)``, audit-path only) checks that
    contract a posteriori.  Returns ``0.0`` for an empty domain.
    """
    estimates = sketch.all_point_estimates()
    if estimates.size == 0:
        return 0.0
    return float(np.abs(estimates).max())


def default_threshold(
    sketch: HashSketch | DyadicHashSketch,
    multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER,
) -> float:
    """The paper's skimming threshold ``theta = c * N / sqrt(width)``.

    ``N`` is the sketch's tracked absolute update mass.  Returns ``inf``
    for an empty sketch (nothing can be dense).
    """
    if not multiplier > 0:
        raise ParameterError(f"multiplier must be positive, got {multiplier}")
    n = sketch.absolute_mass
    if n <= 0:
        return float("inf")
    width = sketch.schema.width
    return multiplier * n / float(np.sqrt(width))


@dataclass(frozen=True)
class SkimResult:
    """Outcome of a SKIMDENSE pass.

    Attributes
    ----------
    dense_values:
        Domain values extracted as dense, ascending ``int64``.
    dense_frequencies:
        Their extracted frequency estimates ``fhat(v)`` (aligned with
        ``dense_values``; all ``>= threshold`` by construction).
    threshold:
        The threshold the pass used.
    """

    dense_values: np.ndarray
    dense_frequencies: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        if self.dense_values.shape != self.dense_frequencies.shape:
            raise ParameterError("dense_values and dense_frequencies must align")

    @property
    def dense_count(self) -> int:
        """Number of extracted dense values."""
        return int(self.dense_values.size)

    def dense_mass(self) -> float:
        """Total extracted frequency mass ``sum fhat(v)``."""
        return float(self.dense_frequencies.sum())

    def as_frequency_vector(self, domain_size: int) -> FrequencyVector:
        """The extracted dense frequencies as a full-domain vector."""
        vec = FrequencyVector.zeros(domain_size)
        vec.apply_bulk(self.dense_values, self.dense_frequencies)
        return vec

    def frequency_of(self, value: int) -> float:
        """Extracted frequency of ``value`` (0.0 if it was not dense)."""
        idx = np.searchsorted(self.dense_values, value)
        if idx < self.dense_values.size and self.dense_values[idx] == value:
            return float(self.dense_frequencies[idx])
        return 0.0


@dataclass(frozen=True)
class _Empty:
    """Sentinel namespace for an empty skim (no dense values)."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    frequencies: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )


def skim_dense(
    sketch: HashSketch,
    threshold: float | None = None,
    *,
    in_place: bool = False,
) -> tuple[SkimResult, HashSketch]:
    """SKIMDENSE over a flat hash sketch.

    Extracts every domain value whose COUNTSKETCH estimate is
    ``>= threshold``.  When the schema has (or may build) its lookup
    tables, only the values that land in a hot bucket
    (``|C[i, b]| >= threshold``) in at least ``ceil(depth / 2)`` tables
    are estimated: no other value's median can reach a positive
    threshold (for even ``depth`` the median averages the two middle
    terms, which never exceeds the upper one), and a value's estimate
    depends only on its own terms, so the result equals estimating every
    value.  Otherwise (tables larger than ``TABLE_BUDGET_BYTES`` and no
    explicit ``precompute()``) every value is estimated.

    Parameters
    ----------
    sketch:
        The hash sketch to skim.
    threshold:
        Extraction threshold ``theta``; defaults to
        :func:`default_threshold` with the standard multiplier.
    in_place:
        If true, subtract the dense frequencies from ``sketch`` itself;
        otherwise skim a copy and leave ``sketch`` untouched.

    Returns
    -------
    ``(result, skimmed)`` where ``skimmed`` is the sketch of the residual
    frequency vector.
    """
    if threshold is None:
        threshold = default_threshold(sketch)
    # ``not > 0`` rejects NaN too; ``inf`` (empty stream) extracts nothing.
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")

    target = sketch if in_place else sketch.copy()
    if not np.isfinite(threshold):
        return SkimResult(_Empty().values, _Empty().frequencies, threshold), target

    # Build the lookup tables (if they fit the budget) and their inverse
    # outside the timed region, once per schema.
    tabled = target.schema.ensure_precomputed()
    if tabled:
        target.schema.bucket_members()
    with _METRICS.timer("skim.seconds") if _METRICS.enabled else nullcontext():
        with _TRACER.span(
            "skim",
            kind="flat",
            threshold=float(threshold),
            n=float(sketch.absolute_mass),
        ) if _TRACER.enabled else nullcontext() as sp:
            candidates = (
                _hot_bucket_candidates(target, threshold)
                if tabled
                else np.arange(target.domain_size, dtype=np.int64)
            )
            estimates = target.point_estimates(candidates)
            dense_mask = estimates >= threshold
            dense_values = candidates[dense_mask]
            dense_frequencies = estimates[dense_mask]
            target.subtract_frequencies(dense_values, dense_frequencies)
            if sp is not None:
                sp.set(dense=int(dense_values.size), probes=int(candidates.size))
    if _METRICS.enabled:
        _record_skim_metrics("flat", threshold, int(dense_values.size))
        _METRICS.count("skim.flat.probes", int(candidates.size))
    return SkimResult(dense_values, dense_frequencies, float(threshold)), target


def _hot_bucket_candidates(sketch: HashSketch, threshold: float) -> np.ndarray:
    """Values in a hot bucket (``|C[i, b]| >= threshold``) in at least
    ``ceil(depth / 2)`` tables, ascending ``int64``.

    Walks the schema's inverse bucket table: ``O(depth * width)`` for the
    hot mask plus the members of the hot buckets.  A value is listed once
    per table, so its count among the gathered members is the number of
    tables in which its bucket is hot.
    """
    members, offsets = sketch.schema.bucket_members()
    hot = np.flatnonzero(np.abs(sketch.counters) >= threshold)
    starts = offsets[hot]
    lengths = offsets[hot + 1] - starts
    # Positions of every hot bucket's members, bucket after bucket.
    positions = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )
    values, hits = np.unique(members[positions], return_counts=True)
    return values[hits >= (sketch.depth + 1) // 2].astype(np.int64)


def skim_dense_dyadic(
    sketch: DyadicHashSketch,
    threshold: float | None = None,
    *,
    in_place: bool = False,
) -> tuple[SkimResult, DyadicHashSketch]:
    """SKIMDENSE over a dyadic hierarchy (Section 4.2 fast variant).

    Identical contract to :func:`skim_dense`, but candidate dense values
    are found by the pruned top-down descent instead of a domain scan, and
    extraction subtracts at every level so the hierarchy stays consistent.
    """
    threshold = _dyadic_threshold(sketch, threshold)
    target = sketch if in_place else sketch.copy()
    return _skim_dyadic(target, threshold, target), target


def skim_dense_dyadic_base(
    sketch: DyadicHashSketch,
    threshold: float | None = None,
) -> tuple[SkimResult, HashSketch]:
    """:func:`skim_dense_dyadic`, keeping only the level-0 residual.

    A join reads the level-0 sketch alone, so this descends ``sketch``
    itself (the descent only reads) and copies and subtracts at level 0
    only.  The result and the residual equal ``skim_dense_dyadic``'s
    result and ``.base_sketch``, bit for bit; ``sketch`` is unchanged.
    """
    threshold = _dyadic_threshold(sketch, threshold)
    residual = sketch.base_sketch.copy()
    return _skim_dyadic(sketch, threshold, residual), residual


def _skim_dyadic(
    sketch: DyadicHashSketch,
    threshold: float,
    target: DyadicHashSketch | HashSketch,
) -> SkimResult:
    """Descend ``sketch`` for its dense values and subtract them from
    ``target`` (the hierarchy itself, or a copy of its level 0)."""
    if not np.isfinite(threshold):
        return SkimResult(_Empty().values, _Empty().frequencies, threshold)

    with _METRICS.timer("skim.seconds") if _METRICS.enabled else nullcontext():
        with _TRACER.span(
            "skim",
            kind="dyadic",
            threshold=float(threshold),
            n=float(sketch.absolute_mass),
        ) if _TRACER.enabled else nullcontext() as sp:
            dense_values = sketch.heavy_values(threshold)
            dense_frequencies = sketch.base_sketch.point_estimates(dense_values)
            # The descent already filtered on the level-0 estimate, but guard
            # against borderline values whose estimate is non-positive (possible
            # only through median noise on adversarial inputs): extracting a
            # non-positive "frequency" would *add* mass to the residual.
            keep = dense_frequencies >= threshold
            dense_values = dense_values[keep]
            dense_frequencies = dense_frequencies[keep]
            target.subtract_frequencies(dense_values, dense_frequencies)
            if sp is not None:
                sp.set(dense=int(dense_values.size))
    if _METRICS.enabled:
        _record_skim_metrics("dyadic", threshold, int(dense_values.size))
    return SkimResult(dense_values, dense_frequencies, float(threshold))


def _dyadic_threshold(sketch: DyadicHashSketch, threshold: float | None) -> float:
    """``threshold``, defaulted from the level-0 sketch and checked."""
    if threshold is None:
        threshold = default_threshold(sketch.base_sketch)
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    return threshold


def _record_skim_metrics(kind: str, threshold: float, dense_count: int) -> None:
    """Shared skim-pass telemetry (self-guarded; callers may pre-check)."""
    if not _METRICS.enabled:
        return
    _METRICS.count("skim.passes")
    _METRICS.count(f"skim.passes.{kind}")
    _METRICS.count("skim.dense_extracted", dense_count)
    _METRICS.gauge("skim.threshold", float(threshold))

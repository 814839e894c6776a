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

While ``repro.monitor.AUDIT`` is on, every skimmed answer — from
``est_join_size`` / ``est_self_join_size`` here, the stream engine or the
distributed coordinator — records one complete audit, built by
:func:`build_audit` from the answer's own :class:`JoinEstimateBreakdown`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..monitor import AUDIT as _AUDIT
from ..monitor.audit import QueryAudit, confidence_halfwidth
from ..obs import METRICS as _METRICS
from ..obs import MetricsRegistry
from ..trace import TRACER as _TRACER
from ..sketches.base import StreamSynopsis, ingest_checked, ingest_checked_one
from ..sketches.dyadic import DyadicHashSketch, DyadicSketchSchema
from ..sketches.hash_sketch import HashSketch, HashSketchSchema
from .config import SketchParameters
from .skim import (
    DEFAULT_THRESHOLD_MULTIPLIER,
    RESIDUAL_BOUND_FACTOR,
    SkimResult,
    default_threshold,
    residual_infinity_norm,
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
        mass = ingest_checked_one(value, weight, self.domain_size, self.absolute_mass)
        self._inner._ingest_one(value, weight, mass)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        self._inner._ingest(
            *ingest_checked(values, weights, self.domain_size, self.absolute_mass)
        )

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
        return default_threshold(self._base(), self._schema.threshold_multiplier)

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
        skims once and uses the result on both sides.  Records no audit.
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
                return est_skim_join_size_from_parts(f_skim, f_res, g_skim, g_res)

    def est_join_size(self, other: "SkimmedSketch") -> float:
        """Skimmed-sketch estimate of ``COUNT(F join G)`` (audited as
        origin ``estimator`` while ``AUDIT`` is on)."""
        breakdown = self.join_breakdown(other)
        if _AUDIT.enabled:
            _AUDIT.record(build_audit(breakdown, self, other, origin="estimator"))
        return breakdown.estimate

    def est_self_join_size(self) -> float:
        """Skimmed-sketch estimate of the second moment ``F2``."""
        return self.est_join_size(self)

    def point_estimate(self, value: int) -> float:
        """COUNTSKETCH frequency estimate for one domain value."""
        return self._base().point_estimate(value)

    def _base(self) -> HashSketch:
        """The flat sketch skims and point queries read (level 0 of a
        dyadic hierarchy)."""
        return self._inner.base_sketch if self._schema.dyadic else self._inner

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


# -- audits and health ------------------------------------------------------


@dataclass(frozen=True)
class SketchHealthReport:
    """Snapshot of one skimmed sketch's state and sizing adequacy."""

    width: int
    depth: int
    domain_size: int
    stream_size: float
    estimated_second_moment: float
    skew_score: float
    skim_threshold: float
    dense_value_count: int
    dense_mass_fraction: float
    recommended_width: int | None
    #: ``‖residual‖∞`` of a skim at the current threshold — SKIMDENSE's
    #: Theorem-4 contract says it stays below
    #: ``RESIDUAL_BOUND_FACTOR * skim_threshold`` w.h.p.  The same check
    #: ``repro.monitor`` audits per query.
    residual_linf: float = 0.0
    residual_bound_ok: bool = True

    def describe(self) -> str:
        """Multi-line human-readable rendering of the report."""
        lines = [
            f"sketch {self.width}x{self.depth} over domain {self.domain_size}",
            f"  stream size (N)        : {self.stream_size:,.0f}",
            f"  est. second moment (F2): {self.estimated_second_moment:,.0f}",
            f"  skew score (F2/(N^2/D)): {self.skew_score:,.1f}"
            + ("  [uniform-like]" if self.skew_score < 10 else "  [skewed]"),
            f"  skim threshold (theta) : {self.skim_threshold:,.1f}",
            f"  dense values at theta  : {self.dense_value_count} "
            f"({self.dense_mass_fraction:.1%} of stream mass)",
            f"  residual |.|inf vs 2*theta: {self.residual_linf:,.1f} "
            + ("[ok]" if self.residual_bound_ok else "[VIOLATED]"),
        ]
        if self.recommended_width is not None:
            verdict = (
                "adequate"
                if self.recommended_width <= self.width
                else f"undersized (recommend width >= {self.recommended_width})"
            )
            lines.append(f"  sizing for target error: {verdict}")
        return "\n".join(lines)

    def as_metrics(self, prefix: str = "health") -> dict[str, float]:
        """The report as a flat ``{metric_name: value}`` gauge mapping.

        This is the diagnostics→metrics bridge: the same numbers
        :meth:`describe` prints, shaped for a metrics snapshot (and hence
        for the JSON / Prometheus exporters).
        """
        gauges = {
            f"{prefix}.width": float(self.width),
            f"{prefix}.depth": float(self.depth),
            f"{prefix}.domain_size": float(self.domain_size),
            f"{prefix}.stream_size": float(self.stream_size),
            f"{prefix}.second_moment": float(self.estimated_second_moment),
            f"{prefix}.skew_score": float(self.skew_score),
            f"{prefix}.skim_threshold": float(self.skim_threshold),
            f"{prefix}.dense_values": float(self.dense_value_count),
            f"{prefix}.dense_mass_fraction": float(self.dense_mass_fraction),
            f"{prefix}.residual_linf": float(self.residual_linf),
            f"{prefix}.residual_bound_ok": 1.0 if self.residual_bound_ok else 0.0,
        }
        if self.recommended_width is not None:
            gauges[f"{prefix}.recommended_width"] = float(self.recommended_width)
        return gauges

    def record(
        self, registry: MetricsRegistry | None = None, prefix: str = "health"
    ) -> None:
        """Publish the report's gauges into a registry (default: the global one).

        A no-op while the registry is disabled, like every other hook.
        """
        registry = registry if registry is not None else _METRICS
        for name, value in self.as_metrics(prefix).items():
            registry.gauge(name, value)


def health_report(
    sketch: SkimmedSketch,
    skim: SkimResult,
    residual_linf: float,
    recommended_width: int | None = None,
) -> SketchHealthReport:
    """The :class:`SketchHealthReport` of ``sketch`` from one flat skim of
    it at its own threshold and that skim's residual ``‖.‖∞``: the skim
    :func:`repro.eval.diagnostics.sketch_health` runs, or an engine
    answer's own (so audited health costs no second skim or scan)."""
    base = sketch._base()
    n = base.absolute_mass
    f2 = max(base.est_self_join_size(), 0.0)
    uniform_floor = (n * n / base.domain_size) if n > 0 else 0.0
    dense_fraction = skim.dense_mass() / n if n > 0 else 0.0
    return SketchHealthReport(
        width=base.width,
        depth=base.depth,
        domain_size=base.domain_size,
        stream_size=n,
        estimated_second_moment=f2,
        skew_score=f2 / uniform_floor if uniform_floor > 0 else 0.0,
        skim_threshold=skim.threshold,
        dense_value_count=skim.dense_count,
        dense_mass_fraction=min(max(dense_fraction, 0.0), 1.0),
        recommended_width=recommended_width,
        residual_linf=residual_linf,
        residual_bound_ok=residual_linf < RESIDUAL_BOUND_FACTOR * skim.threshold,
    )


def build_audit(
    breakdown: JoinEstimateBreakdown,
    sketch_f: SkimmedSketch,
    sketch_g: SkimmedSketch,
    *,
    origin: str,
    streams: tuple[str, str] | None = None,
    sites: tuple[str, ...] | None = None,
    health: bool = False,
) -> QueryAudit:
    """The one :class:`~repro.monitor.audit.QueryAudit` constructor: the
    complete audit of one skimmed join answer of ``sketch_f`` and
    ``sketch_g``, from the breakdown the answer computed.

    Each distinct residual is scanned once for the ``‖residual‖∞ < 2T``
    check (``O(|D| * depth)``; audit path only).  ``origin``, ``streams``
    and ``sites`` are the answering call's context; ``health=True`` (the
    engine) adds each named stream's :class:`SketchHealthReport` gauges,
    from the answer's own skims.  The caller records the result.
    """
    f_res, g_res = breakdown.f_residual, breakdown.g_residual
    linf_f = residual_infinity_norm(f_res)
    linf_g = linf_f if g_res is f_res else residual_infinity_norm(g_res)
    sizes = breakdown.self_join_sizes()
    sj_f_dense, sj_g_dense, sj_f_res, sj_g_res = sizes
    delta = _AUDIT.delta
    halfwidth = confidence_halfwidth(
        *sizes, width=f_res.width, depth=f_res.depth, delta=delta
    )
    threshold_f = float(breakdown.f_skim.threshold)
    threshold_g = float(breakdown.g_skim.threshold)
    gauges = None
    if health and streams is not None:
        sides = {
            streams[0]: (sketch_f, breakdown.f_skim, linf_f),
            streams[1]: (sketch_g, breakdown.g_skim, linf_g),
        }
        gauges = {
            name: health_report(*side).as_metrics() for name, side in sides.items()
        }
    estimate = breakdown.estimate
    return QueryAudit(
        estimate=estimate,
        dense_dense=breakdown.dense_dense,
        dense_sparse=breakdown.dense_sparse,
        sparse_dense=breakdown.sparse_dense,
        sparse_sparse=breakdown.sparse_sparse,
        sj_f_dense=sj_f_dense,
        sj_g_dense=sj_g_dense,
        sj_f_residual=sj_f_res,
        sj_g_residual=sj_g_res,
        width=f_res.width,
        depth=f_res.depth,
        threshold_f=threshold_f,
        threshold_g=threshold_g,
        residual_linf_f=linf_f,
        residual_linf_g=linf_g,
        residual_bound_ok=(
            linf_f < RESIDUAL_BOUND_FACTOR * threshold_f
            and linf_g < RESIDUAL_BOUND_FACTOR * threshold_g
        ),
        delta=delta,
        ci_halfwidth=halfwidth,
        ci_low=estimate - halfwidth,
        ci_high=estimate + halfwidth,
        origin=origin,
        dyadic=sketch_f.schema.dyadic,
        n_f=float(sketch_f.absolute_mass),
        n_g=float(sketch_g.absolute_mass),
        streams=streams,
        sites=sites,
        health=gauges,
    )

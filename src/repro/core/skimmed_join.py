"""ESTSKIMJOINSIZE / ESTSUBJOINSIZE: the skimmed-sketch join estimator
(paper Section 4.3, Figure 4).

With the dense frequencies of both streams skimmed into explicit vectors
``fhat`` / ``ghat`` and residual (sparse) components left in the skimmed
sketches, the join decomposes exactly:

    <f, g> = <fhat, ghat>  +  <fhat, g_s>  +  <f_s, ghat>  +  <f_s, g_s>
              dense-dense     dense-sparse    sparse-dense    sparse-sparse

* dense-dense is computed **with zero error** from the two extracted
  vectors;
* dense-sparse / sparse-dense use :func:`est_sub_join_size`
  (``ESTSUBJOINSIZE``): per table ``i``, accumulate
  ``sum_v fhat(v) * C_Gs[i, h_i(v)] * xi_i(v)`` and median across tables
  (Lemma 1 bounds the error by ``O(theta * sqrt(F2(g_s) / width))``);
* sparse-sparse is the bucket-wise inner product of the two skimmed
  sketches (Lemma 2).

Every residual frequency is ``O(theta)`` after skimming, so all three
estimated terms carry error ``O(N * theta / sqrt(width))`` — with
``theta = N / sqrt(width)`` this is the ``O(N^2 / width)`` additive bound
of Theorem 5, matching the join-size estimation space lower bound of Alon
et al. (square root of the basic-sketching requirement).
"""

from __future__ import annotations

from dataclasses import dataclass

from contextlib import ExitStack, nullcontext

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER
from ..sketches.dyadic import DyadicHashSketch
from ..sketches.hash_sketch import HashSketch
from .skim import SkimResult, skim_dense, skim_dense_dyadic_base


def est_sub_join_size(
    dense_values: np.ndarray,
    dense_frequencies: np.ndarray,
    sketch: HashSketch,
) -> float:
    """Procedure ``ESTSUBJOINSIZE``: estimate ``<fhat, g>`` from ``g``'s sketch.

    Parameters
    ----------
    dense_values, dense_frequencies:
        The explicit (skimmed) frequency vector ``fhat``, as parallel
        arrays over its support.
    sketch:
        Hash sketch of the other stream (typically already skimmed).

    Returns
    -------
    The median over tables of the per-table estimates
    ``Y_i = sum_k fhat_k * C[i, h_i(v_k)] * xi_i(v_k)``.
    """
    dense_values = np.asarray(dense_values, dtype=np.int64)
    dense_frequencies = np.asarray(dense_frequencies, dtype=np.float64)
    if dense_values.shape != dense_frequencies.shape:
        raise ParameterError("dense_values and dense_frequencies must align")
    if dense_values.size == 0:
        return 0.0
    schema = sketch.schema
    with _TRACER.span(
        "estimate.median_boost", tables=schema.depth, dense=int(dense_values.size)
    ) if _TRACER.enabled else nullcontext() as sp:
        buckets, signs = schema.bulk_tables(dense_values)
        table_index = np.arange(schema.depth)[:, None]
        per_table = (sketch.counters[table_index, buckets] * signs) @ dense_frequencies
        estimate = float(np.median(per_table))
        if sp is not None:
            sp.set(median=estimate)
    return estimate


def _term_context(term: str) -> ExitStack:
    """Combined metrics-timer + tracer-span context for one sub-join term.

    Both layers stay individually guarded, so with both disabled the cost
    is one empty :class:`ExitStack` per term per join estimate — query
    granularity, never per element.
    """
    stack = ExitStack()
    if _METRICS.enabled:
        stack.enter_context(_METRICS.timer(f"estimate.term.{term}.seconds"))
    if _TRACER.enabled:
        stack.enter_context(_TRACER.span("estimate.term", term=term))
    return stack


def _dense_dense_join(f_skim: SkimResult, g_skim: SkimResult) -> float:
    """Exact ``<fhat, ghat>`` over the intersection of the dense supports."""
    common, f_idx, g_idx = np.intersect1d(
        f_skim.dense_values, g_skim.dense_values, return_indices=True
    )
    if common.size == 0:
        return 0.0
    return float(
        np.dot(f_skim.dense_frequencies[f_idx], g_skim.dense_frequencies[g_idx])
    )


@dataclass(frozen=True)
class JoinEstimateBreakdown:
    """Full decomposition of one skimmed-sketch join estimate.

    Attributes mirror the four sub-join terms of Figure 4 plus the skim
    metadata; ``estimate`` is their sum (the procedure's return value).
    ``f_residual`` / ``g_residual`` are the skimmed sketches the sparse
    terms were read from (one object for a self-join).
    """

    dense_dense: float
    dense_sparse: float
    sparse_dense: float
    sparse_sparse: float
    f_skim: SkimResult
    g_skim: SkimResult
    f_residual: HashSketch
    g_residual: HashSketch

    @property
    def estimate(self) -> float:
        """The join-size estimate: sum of the four sub-join terms."""
        return (
            self.dense_dense
            + self.dense_sparse
            + self.sparse_dense
            + self.sparse_sparse
        )

    def self_join_sizes(self) -> tuple[float, float, float, float]:
        """``(SJ(fhat), SJ(ghat), SJ(f_s), SJ(g_s))``: the dense sides'
        exact self-join sizes and the residuals' estimates (clamped at
        zero), the inputs of every error bound on this estimate."""
        f_dense = self.f_skim.dense_frequencies
        g_dense = self.g_skim.dense_frequencies
        return (
            float(np.dot(f_dense, f_dense)),
            float(np.dot(g_dense, g_dense)),
            max(self.f_residual.est_self_join_size(), 0.0),
            max(self.g_residual.est_self_join_size(), 0.0),
        )

    @property
    def max_additive_error(self) -> float:
        """Lemma-1/2-style bound on the combined error of the three
        estimated terms (the dense-dense term is exact): each carries
        additive error ``~ 2 sqrt(SJ(left) SJ(right) / width)``."""
        sj_f, sj_g, res_f, res_g = self.self_join_sizes()
        cross = np.sqrt(sj_f * res_g) + np.sqrt(sj_g * res_f) + np.sqrt(res_f * res_g)
        return float((2.0 / np.sqrt(self.f_residual.width)) * cross)

    def relative_error_bound(self) -> float:
        """``max_additive_error / estimate`` (``inf`` for a tiny estimate).

        The a-posteriori analogue of Theorem 5's guarantee: how far off
        could this particular answer be, with the usual median-boosted
        probability.
        """
        if self.estimate <= 0:
            return float("inf")
        return self.max_additive_error / self.estimate

    def summary(self) -> str:
        """One-line human-readable decomposition (for examples/logging)."""
        return (
            f"estimate={self.estimate:.6g} "
            f"[dd={self.dense_dense:.6g} ds={self.dense_sparse:.6g} "
            f"sd={self.sparse_dense:.6g} ss={self.sparse_sparse:.6g}; "
            f"dense |F|={self.f_skim.dense_count} |G|={self.g_skim.dense_count}]"
        )


def est_skim_join_size_from_parts(
    f_skim: SkimResult,
    f_skimmed: HashSketch,
    g_skim: SkimResult,
    g_skimmed: HashSketch,
) -> JoinEstimateBreakdown:
    """Assemble the four sub-join estimates from already-skimmed inputs.

    Exposed separately so callers that skim once and estimate many joins
    (or want non-default thresholds) do not repeat the skimming work.
    Records no audit: the answering calls
    (:meth:`~repro.core.estimator.SkimmedSketch.est_join_size` and the
    engine / coordinator queries built on it) do.
    """
    with _term_context("dense_dense"):
        dense_dense = _dense_dense_join(f_skim, g_skim)
    with _term_context("dense_sparse"):
        dense_sparse = est_sub_join_size(
            f_skim.dense_values, f_skim.dense_frequencies, g_skimmed
        )
    with _term_context("sparse_dense"):
        sparse_dense = est_sub_join_size(
            g_skim.dense_values, g_skim.dense_frequencies, f_skimmed
        )
    with _term_context("sparse_sparse"):
        sparse_sparse = f_skimmed.est_join_size(g_skimmed)
    if _METRICS.enabled:
        _METRICS.count("estimate.joins")
    return JoinEstimateBreakdown(
        dense_dense=dense_dense,
        dense_sparse=dense_sparse,
        sparse_dense=sparse_dense,
        sparse_sparse=sparse_sparse,
        f_skim=f_skim,
        g_skim=g_skim,
        f_residual=f_skimmed,
        g_residual=g_skimmed,
    )


def est_skim_join_size(
    sketch_f: HashSketch | DyadicHashSketch,
    sketch_g: HashSketch | DyadicHashSketch,
    threshold_f: float | None = None,
    threshold_g: float | None = None,
) -> JoinEstimateBreakdown:
    """Procedure ``ESTSKIMJOINSIZE``: skimmed-sketch join size estimate.

    Accepts either two flat :class:`HashSketch` synopses (hot-bucket skim,
    :func:`~repro.core.skim.skim_dense`) or two :class:`DyadicHashSketch`
    hierarchies (Section 4.2 descent; only level 0, which the join reads,
    is skimmed).  The inputs are not modified — skimming happens on
    copies.

    Parameters
    ----------
    sketch_f, sketch_g:
        Join-compatible synopses of the two streams (same schema).
    threshold_f, threshold_g:
        Optional per-stream skim thresholds; default is
        ``N_stream / sqrt(width)`` per stream.

    Returns
    -------
    A :class:`JoinEstimateBreakdown`; its ``estimate`` attribute is the
    paper's return value.  A self-join (``sketch_f is sketch_g`` at one
    threshold) skims once and uses the result on both sides.  Records no
    audit (see :func:`est_skim_join_size_from_parts`).
    """
    self_join = sketch_f is sketch_g and threshold_f == threshold_g
    if isinstance(sketch_f, DyadicHashSketch) or isinstance(sketch_g, DyadicHashSketch):
        if not (
            isinstance(sketch_f, DyadicHashSketch)
            and isinstance(sketch_g, DyadicHashSketch)
        ):
            raise IncompatibleSketchError(
                "cannot mix flat and dyadic sketches in one join"
            )
        f_skim, f_res = skim_dense_dyadic_base(sketch_f, threshold_f)
        g_skim, g_res = (
            (f_skim, f_res)
            if self_join
            else skim_dense_dyadic_base(sketch_g, threshold_g)
        )
        return est_skim_join_size_from_parts(f_skim, f_res, g_skim, g_res)

    f_skim, f_skimmed = skim_dense(sketch_f, threshold_f)
    g_skim, g_skimmed = (
        (f_skim, f_skimmed) if self_join else skim_dense(sketch_g, threshold_g)
    )
    return est_skim_join_size_from_parts(f_skim, f_skimmed, g_skim, g_skimmed)

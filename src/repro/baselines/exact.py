"""Exact (unbounded-memory) reference answers for evaluation.

Ground truth for every experiment: the exact join size, self-join sizes,
and per-value frequencies, computed from full frequency vectors.  This is
what a conventional DBMS with unrestricted memory would return; every
approximate estimator in the library is scored against it.
"""

from __future__ import annotations

import numpy as np

from ..streams.model import FrequencyVector


def exact_join_size(f: FrequencyVector, g: FrequencyVector) -> float:
    """``COUNT(F join G) = <f, g>`` exactly."""
    return f.join_size(g)


def exact_self_join_size(f: FrequencyVector) -> float:
    """Second moment ``F2(f)`` exactly."""
    return f.self_join_size()


def exact_sub_join_sizes(
    f: FrequencyVector, g: FrequencyVector, threshold_f: float, threshold_g: float
) -> dict[str, float]:
    """Exact values of the four dense/sparse sub-joins of Section 3.

    A value is *dense* in a stream when its frequency reaches that stream's
    threshold; the dict keys are ``"dense_dense"``, ``"dense_sparse"``,
    ``"sparse_dense"`` and ``"sparse_sparse"``.  Used by tests to check the
    estimator's decomposition against truth.
    """
    fc, gc = f.counts, g.counts
    f_dense = np.where(fc >= threshold_f, fc, 0.0)
    f_sparse = fc - f_dense
    g_dense = np.where(gc >= threshold_g, gc, 0.0)
    g_sparse = gc - g_dense
    return {
        "dense_dense": float(np.dot(f_dense, g_dense)),
        "dense_sparse": float(np.dot(f_dense, g_sparse)),
        "sparse_dense": float(np.dot(f_sparse, g_dense)),
        "sparse_sparse": float(np.dot(f_sparse, g_sparse)),
    }

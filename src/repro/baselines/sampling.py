"""Uniform-sampling join estimator (Vitter [13]) — the sampling baseline.

Section 2 of the paper recalls why sampling loses to sketches for join
queries: the cross-product estimator has enormous variance when the join
is a small fraction of the cross product ([14, 4, 15]), and a sample
cannot survive deletions ("a sequence of deletions can easily deplete
the maintained sample").  This estimator exists so the E11 baseline
panel can show the variance; it samples the net frequency vectors, so
it never sees a delete.

Estimator: with uniform samples ``S_F`` (size ``k_F`` from ``N_F``
elements) and ``S_G``, the number of value-matching pairs between the
samples, scaled by ``(N_F * N_G) / (k_F * k_G)``, is an unbiased estimate
of ``<f, g>``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError


def sample_join_estimate(
    f_counts: np.ndarray,
    g_counts: np.ndarray,
    capacity: int,
    rng: np.random.Generator,
) -> float:
    """Join estimate from fresh uniform samples of two frequency vectors.

    Draws a with-replacement size-``capacity`` sample from each stream's
    element multiset (the distribution a size-``capacity`` reservoir of
    an insert-only ``N``-element stream holds) and applies the
    cross-product estimator.  Drawing from the frequency vectors gives
    the estimator and variance of reservoir sampling without replaying
    millions of elements one at a time.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    f_counts = np.clip(np.asarray(f_counts, dtype=np.float64), 0.0, None)
    g_counts = np.clip(np.asarray(g_counts, dtype=np.float64), 0.0, None)
    n_f, n_g = f_counts.sum(), g_counts.sum()
    if n_f <= 0 or n_g <= 0:
        return 0.0
    sample_f = rng.multinomial(capacity, f_counts / n_f)
    sample_g = rng.multinomial(capacity, g_counts / n_g)
    matches = float(np.dot(sample_f, sample_g))
    return matches * (n_f * n_g) / (capacity * capacity)

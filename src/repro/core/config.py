"""Parameter selection for skimmed sketches (accuracy <-> space translation).

The theory of the paper fixes the *shape* of the right parameters:

* Theorem 5: to estimate a join of size ``J`` over streams of size ``N``
  with relative error ``epsilon``, total sketch space of
  ``O(N**2 / (epsilon * J))`` counters suffices — the Alon et al. lower
  bound, and the square root of what basic AGMS sketching needs.
* Median boosting: the failure probability falls exponentially in the
  number of hash tables, so ``depth = O(log(1/delta))``.
* Theorems 3-4: the skimming threshold is ``theta = c * N / sqrt(width)``.

:class:`SketchParameters` packages these rules as named constructors so
applications can say "I want 5% error with 99% confidence" or "I have 8 KB"
and get concrete ``(width, depth)`` values, while experiments can pin the
raw knobs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .skim import DEFAULT_THRESHOLD_MULTIPLIER
from ..errors import ParameterError


def depth_for_confidence(delta: float) -> int:
    """Number of hash tables for failure probability ``<= delta``.

    Standard median-boosting bound: the median of ``d`` independent
    constant-probability-correct estimates fails with probability
    ``exp(-Theta(d))``; we use ``d = ceil(4.8 * ln(1/delta))`` rounded up
    to odd so the median is a single table's estimate.
    """
    if not 0 < delta < 1:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    depth = max(1, math.ceil(4.8 * math.log(1.0 / delta)))
    return depth if depth % 2 == 1 else depth + 1


@dataclass(frozen=True)
class SketchParameters:
    """Concrete hash-sketch dimensions plus the skim-threshold multiplier."""

    width: int
    depth: int
    threshold_multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ParameterError(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")
        if not self.threshold_multiplier > 0:
            raise ParameterError(
                f"threshold_multiplier must be positive, got {self.threshold_multiplier}"
            )

    @property
    def total_counters(self) -> int:
        """Synopsis size in counter words (paper's "space in words")."""
        return self.width * self.depth

    @classmethod
    def for_space(
        cls,
        total_counters: int,
        depth: int = 11,
        threshold_multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER,
    ) -> "SketchParameters":
        """Best parameters for a fixed space budget (counters) and depth.

        Mirrors the paper's experimental setup: depth (``s2``) is chosen
        from a small odd grid, and the remaining budget goes to width
        (``s1``), which drives accuracy.
        """
        if total_counters < depth:
            raise ParameterError(
                f"budget of {total_counters} counters cannot fit depth {depth}"
            )
        return cls(total_counters // depth, depth, threshold_multiplier)

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        delta: float,
        stream_size: float,
        join_size_lower_bound: float,
        threshold_multiplier: float = DEFAULT_THRESHOLD_MULTIPLIER,
    ) -> "SketchParameters":
        """Parameters guaranteeing relative error ``epsilon`` w.p. ``1-delta``.

        Instantiates Theorem 5's worst-case bound
        ``width = Theta(N**2 / (epsilon * J))`` with constant 1 (the
        theorem's constants are loose; tests verify the *empirical* error
        lands well inside ``epsilon`` at these sizes) and
        ``depth = O(log(1/delta))``.

        Parameters
        ----------
        epsilon:
            Target relative error (e.g. ``0.1``).
        delta:
            Allowed failure probability (e.g. ``0.01``).
        stream_size:
            (Upper bound on) the stream size ``N``.
        join_size_lower_bound:
            A lower bound on the join size being estimated; smaller joins
            are harder and need more space, exactly as in the theorem.
        """
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        if stream_size <= 0:
            raise ParameterError(f"stream_size must be positive, got {stream_size}")
        if join_size_lower_bound <= 0:
            raise ParameterError(
                f"join_size_lower_bound must be positive, got {join_size_lower_bound}"
            )
        width = max(1, math.ceil(stream_size**2 / (epsilon * join_size_lower_bound)))
        return cls(width, depth_for_confidence(delta), threshold_multiplier)

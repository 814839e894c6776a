"""Tests for sketch parameter selection (accuracy/space translation)."""

from __future__ import annotations

import pytest

from repro.core.config import SketchParameters, depth_for_confidence


class TestDepthForConfidence:
    def test_odd(self):
        for delta in (0.5, 0.1, 0.01, 0.001):
            assert depth_for_confidence(delta) % 2 == 1

    def test_monotone_in_confidence(self):
        assert depth_for_confidence(0.001) >= depth_for_confidence(0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            depth_for_confidence(0.0)
        with pytest.raises(ValueError):
            depth_for_confidence(1.0)


class TestSketchParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SketchParameters(0, 1)
        with pytest.raises(ValueError):
            SketchParameters(1, 0)
        with pytest.raises(ValueError):
            SketchParameters(1, 1, threshold_multiplier=0.0)

    def test_total_counters(self):
        assert SketchParameters(100, 11).total_counters == 1100

    def test_for_space(self):
        params = SketchParameters.for_space(1100, depth=11)
        assert params.width == 100
        assert params.depth == 11

    def test_for_space_too_small(self):
        with pytest.raises(ValueError):
            SketchParameters.for_space(5, depth=11)

    def test_for_accuracy_shape(self):
        """Theorem 5 shape: width ~ N^2 / (eps * J)."""
        params = SketchParameters.for_accuracy(
            epsilon=0.1, delta=0.05, stream_size=1000, join_size_lower_bound=10_000
        )
        assert params.width == 1_000  # 1000^2 / (0.1 * 10000)
        assert params.depth % 2 == 1

    def test_for_accuracy_monotone_in_epsilon(self):
        loose = SketchParameters.for_accuracy(0.5, 0.1, 1000, 10_000)
        tight = SketchParameters.for_accuracy(0.05, 0.1, 1000, 10_000)
        assert tight.width > loose.width

    def test_for_accuracy_monotone_in_join_size(self):
        """Smaller joins are harder: more space required."""
        big_join = SketchParameters.for_accuracy(0.1, 0.1, 1000, 100_000)
        small_join = SketchParameters.for_accuracy(0.1, 0.1, 1000, 1_000)
        assert small_join.width > big_join.width

    def test_for_accuracy_validation(self):
        with pytest.raises(ValueError):
            SketchParameters.for_accuracy(0.0, 0.1, 1000, 1000)
        with pytest.raises(ValueError):
            SketchParameters.for_accuracy(0.1, 0.1, 0, 1000)
        with pytest.raises(ValueError):
            SketchParameters.for_accuracy(0.1, 0.1, 1000, 0)

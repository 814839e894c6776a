"""Edge-case tests across modules: boundaries, degenerate inputs, and
behaviours that only show up at the extremes of the parameter space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import SkimmedSketchSchema
from repro.core.skim import skim_dense
from repro.sketches.agms import AGMSSchema
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.generators import shifted_frequencies, zipf_frequencies
from repro.streams.model import FrequencyVector


class TestDegenerateShapes:
    def test_width_one_sketch_works(self):
        """All values collide in one bucket: estimates degrade but nothing
        crashes, and the single-bucket counter is the signed stream sum."""
        schema = HashSketchSchema(1, 3, 16, seed=0)
        sketch = schema.create_sketch()
        sketch.update(3, 2.0)
        sketch.update(7, 1.0)
        assert sketch.counters.shape == (3, 1)
        assert np.all(np.abs(sketch.counters) <= 3.0)

    def test_depth_one_median_is_identity(self):
        schema = HashSketchSchema(64, 1, 16, seed=1)
        sketch = schema.create_sketch()
        sketch.update(3, 5.0)
        assert sketch.point_estimate(3) == pytest.approx(5.0)

    def test_domain_size_one(self):
        schema = HashSketchSchema(8, 3, 1, seed=2)
        sketch = schema.create_sketch()
        sketch.update(0, 4.0)
        assert sketch.point_estimate(0) == pytest.approx(4.0)

    def test_agms_single_cell(self):
        schema = AGMSSchema(1, 1, 16, seed=3)
        sketch = schema.sketch_of(FrequencyVector.from_values([5] * 3, 16))
        assert sketch.est_self_join_size() == pytest.approx(9.0)

    def test_dyadic_minimum_domain(self):
        schema = DyadicSketchSchema(4, 3, 2, seed=4)
        sketch = schema.create_sketch()
        sketch.update(1, 7.0)
        assert sketch.base_sketch.point_estimate(1) == pytest.approx(7.0)


class TestNegativeNetFrequencies:
    def test_sketch_of_net_negative_stream(self):
        """Delete-heavy streams can leave negative net frequencies; the
        linear machinery must carry them faithfully."""
        schema = HashSketchSchema(64, 5, 32, seed=5)
        freqs = FrequencyVector(np.asarray([0.0] * 30 + [-8.0, 3.0]))
        sketch = schema.sketch_of(freqs)
        assert sketch.point_estimate(30) == pytest.approx(-8.0)

    def test_join_with_negative_frequencies(self):
        schema = HashSketchSchema(64, 5, 32, seed=6)
        f = FrequencyVector(np.asarray([2.0] + [0.0] * 31))
        g = FrequencyVector(np.asarray([-3.0] + [0.0] * 31))
        estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
        assert estimate == pytest.approx(-6.0)

    def test_skim_never_extracts_negative_estimates(self):
        schema = HashSketchSchema(64, 5, 32, seed=7)
        freqs = FrequencyVector(np.asarray([-100.0] + [0.0] * 31))
        result, _ = skim_dense(schema.sketch_of(freqs), threshold=10.0)
        assert result.dense_count == 0


class TestExtremeWorkloads:
    def test_all_mass_on_one_value(self):
        schema = SkimmedSketchSchema(64, 5, 256, seed=8)
        f = FrequencyVector.zeros(256)
        f.apply_bulk(np.asarray([17]), np.asarray([10_000.0]))
        sketch_f = schema.sketch_of(f)
        assert sketch_f.est_join_size(schema.sketch_of(f)) == pytest.approx(1e8)

    def test_empty_streams_join_to_zero(self):
        schema = SkimmedSketchSchema(64, 5, 256, seed=9)
        assert schema.create_sketch().est_join_size(schema.create_sketch()) == 0.0

    def test_zipf_parameter_zero_and_high(self):
        flat = zipf_frequencies(128, 1000, 0.0)
        steep = zipf_frequencies(128, 1000, 3.0)
        assert flat.counts.max() <= 9  # ~uniform
        assert steep.counts.max() > 800  # nearly everything on rank 1

    def test_shift_equal_to_domain_wraps_to_identity(self):
        freqs = zipf_frequencies(64, 500, 1.0)
        assert shifted_frequencies(freqs, 64) == freqs

    def test_huge_weight_magnitudes(self):
        schema = HashSketchSchema(32, 5, 16, seed=10)
        sketch = schema.create_sketch()
        sketch.update(3, 1e12)
        sketch.update(3, -1e12)
        assert np.allclose(sketch.counters, 0.0)


class TestThresholdBoundaries:
    def test_value_exactly_at_threshold_is_dense(self):
        schema = HashSketchSchema(64, 5, 32, seed=11)
        sketch = schema.create_sketch()
        sketch.update(5, 50.0)
        result, _ = skim_dense(sketch, threshold=50.0)
        assert 5 in result.dense_values.tolist()

    def test_value_just_below_threshold_is_sparse(self):
        schema = HashSketchSchema(64, 5, 32, seed=12)
        sketch = schema.create_sketch()
        sketch.update(5, 49.0)
        result, _ = skim_dense(sketch, threshold=50.0)
        assert result.dense_count == 0


class TestNonFiniteWeights:
    """A NaN or infinite weight is rejected before any counter moves.

    Unchecked, one NaN in a batch turns one counter per table NaN, and
    every later estimate silently becomes NaN.
    """

    SCHEMAS = {
        "hash": lambda: HashSketchSchema(64, 5, 256, seed=1),
        "agms": lambda: AGMSSchema(16, 5, 256, seed=1),
        "dyadic": lambda: DyadicSketchSchema(32, 5, 256, seed=1),
    }

    @staticmethod
    def _state(sketch):
        from repro.sketches.serialize import sketch_state

        return sketch_state(sketch)

    @pytest.mark.parametrize("path", ["update", "update_bulk"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_rejected_and_nothing_changes(self, kind, bad, path):
        from repro.errors import ParameterError

        sketch = self.SCHEMAS[kind]().create_sketch()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = self._state(sketch)
        mass = sketch.absolute_mass
        with pytest.raises(ParameterError):
            if path == "update":
                sketch.update(7, bad)
            else:
                sketch.update_bulk(
                    np.asarray([1, 2, 3], dtype=np.int64),
                    np.asarray([1.0, bad, 1.0]),
                )
        after = self._state(sketch)
        assert sketch.absolute_mass == mass
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert np.array_equal(after[key], value), key

"""Unit + statistical tests for the hash sketch data structure (§4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DomainError, IncompatibleSketchError
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.model import FrequencyVector

DOMAIN = 512


class TestSchema:
    def test_validation(self):
        with pytest.raises(ValueError):
            HashSketchSchema(0, 1, DOMAIN)
        with pytest.raises(ValueError):
            HashSketchSchema(1, 0, DOMAIN)
        with pytest.raises(ValueError):
            HashSketchSchema(1, 1, 0)

    def test_compatibility(self):
        a = HashSketchSchema(16, 5, DOMAIN, seed=1)
        assert a.is_compatible(HashSketchSchema(16, 5, DOMAIN, seed=1))
        assert not a.is_compatible(HashSketchSchema(16, 5, DOMAIN, seed=2))
        assert not a.is_compatible(HashSketchSchema(8, 5, DOMAIN, seed=1))

    @pytest.mark.parametrize("width, depth", [(1, 1), (16, 4), (37, 5), (1024, 3)])
    def test_bucket_members_invert_the_bucket_table(self, width, depth):
        schema = HashSketchSchema(width, depth, DOMAIN, seed=3)
        members, offsets = schema.bucket_members()
        assert schema.precomputed
        assert members.dtype == np.int32 and offsets.dtype == np.int64
        assert members.shape == (depth * DOMAIN,)
        assert offsets.shape == (depth * width + 1,)
        buckets = schema.buckets.buckets(np.arange(DOMAIN, dtype=np.int64))
        for table in range(depth):
            for bucket in range(width):
                k = table * width + bucket
                assert np.array_equal(
                    members[offsets[k] : offsets[k + 1]],
                    np.flatnonzero(buckets[table] == bucket),
                )
        assert schema.bucket_members() is schema.bucket_members()


class TestMaintenance:
    def test_update_touches_one_counter_per_table(self):
        """The paper's O(depth) update claim, structurally."""
        schema = HashSketchSchema(32, 5, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        sketch.update(100)
        nonzero_per_table = (sketch.counters != 0).sum(axis=1)
        assert nonzero_per_table.tolist() == [1] * 5

    def test_update_bulk_matches_element_updates(self):
        schema = HashSketchSchema(16, 5, DOMAIN, seed=1)
        values = np.random.default_rng(0).integers(0, DOMAIN, 400)
        weights = np.random.default_rng(1).normal(size=400)
        bulk = schema.create_sketch()
        bulk.update_bulk(values, weights)
        loop = schema.create_sketch()
        for v, w in zip(values, weights):
            loop.update(int(v), float(w))
        assert np.allclose(bulk.counters, loop.counters)

    def test_deletes_cancel(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=2)
        sketch = schema.create_sketch()
        for v in (1, 2, 3):
            sketch.update(v)
        for v in (1, 2, 3):
            sketch.update(v, -1.0)
        assert np.allclose(sketch.counters, 0.0)

    def test_domain_check(self):
        schema = HashSketchSchema(8, 3, DOMAIN, seed=3)
        sketch = schema.create_sketch()
        with pytest.raises(DomainError):
            sketch.update(DOMAIN)
        with pytest.raises(DomainError):
            sketch.point_estimate(-1)

    def test_size_accounting(self):
        schema = HashSketchSchema(32, 7, DOMAIN, seed=4)
        sketch = schema.create_sketch()
        assert sketch.size_in_counters() == 32 * 7
        assert sketch.seed_words() == 7 * 2 + 7 * 4  # pairwise + fourwise

    def test_weight_shape_mismatch(self):
        schema = HashSketchSchema(8, 3, DOMAIN, seed=5)
        sketch = schema.create_sketch()
        with pytest.raises(ValueError):
            sketch.update_bulk(np.asarray([1, 2]), np.asarray([1.0]))


class TestPointEstimates:
    def test_single_value_stream_is_exact(self):
        schema = HashSketchSchema(16, 5, DOMAIN, seed=6)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.asarray([42] * 17))
        assert sketch.point_estimate(42) == pytest.approx(17.0)

    def test_heavy_value_estimated_well(self, small_zipf):
        # small_zipf has domain 256; rebuild over our schema domain.
        counts = np.zeros(DOMAIN)
        counts[: small_zipf.domain_size] = small_zipf.counts
        freqs = FrequencyVector(counts)
        schema = HashSketchSchema(64, 7, DOMAIN, seed=7)
        sketch = schema.sketch_of(freqs)
        top_value = int(np.argmax(counts))
        estimate = sketch.point_estimate(top_value)
        assert estimate == pytest.approx(counts[top_value], rel=0.1)

    def test_all_point_estimates_match_single(self):
        schema = HashSketchSchema(16, 5, DOMAIN, seed=8)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.random.default_rng(2).integers(0, DOMAIN, 200))
        all_estimates = sketch.all_point_estimates()
        for value in (0, 17, 255, DOMAIN - 1):
            assert all_estimates[value] == pytest.approx(
                sketch.point_estimate(value)
            )

    def test_empty_values_empty_result(self):
        schema = HashSketchSchema(8, 3, DOMAIN, seed=9)
        assert schema.create_sketch().point_estimates(np.zeros(0, np.int64)).size == 0


class TestJoinEstimation:
    def test_disjoint_single_values_near_zero(self):
        schema = HashSketchSchema(64, 7, DOMAIN, seed=10)
        f = schema.create_sketch()
        g = schema.create_sketch()
        f.update_bulk(np.asarray([1] * 10))
        g.update_bulk(np.asarray([2] * 10))
        # Expectation 0; a single bucket collision would give +/-100, but
        # the median over 7 tables suppresses it.
        assert abs(f.est_join_size(g)) < 100.0

    def test_common_single_value_exact(self):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=11)
        f = schema.create_sketch()
        g = schema.create_sketch()
        f.update_bulk(np.asarray([7] * 3))
        g.update_bulk(np.asarray([7] * 5))
        assert f.est_join_size(g) == pytest.approx(15.0)

    def test_unbiasedness_across_schemas(self):
        f = FrequencyVector.from_values([0, 0, 1, 2, 2, 2, 3], DOMAIN)
        g = FrequencyVector.from_values([0, 2, 2, 3, 3], DOMAIN)
        actual = f.join_size(g)
        estimates = []
        for seed in range(400):
            schema = HashSketchSchema(8, 1, DOMAIN, seed=seed)
            estimates.append(schema.sketch_of(f).est_join_size(schema.sketch_of(g)))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.25)

    def test_table_join_estimates_shape(self):
        schema = HashSketchSchema(16, 9, DOMAIN, seed=12)
        f, g = schema.create_sketch(), schema.create_sketch()
        assert f.table_join_estimates(g).shape == (9,)

    def test_self_join_estimate(self, small_zipf):
        counts = np.zeros(DOMAIN)
        counts[: small_zipf.domain_size] = small_zipf.counts
        freqs = FrequencyVector(counts)
        schema = HashSketchSchema(128, 7, DOMAIN, seed=13)
        estimate = schema.sketch_of(freqs).est_self_join_size()
        actual = freqs.self_join_size()
        assert estimate == pytest.approx(actual, rel=0.2)


class TestLinearity:
    def test_subtract_known_frequencies_zeroes_sketch(self):
        schema = HashSketchSchema(16, 5, DOMAIN, seed=14)
        freqs = FrequencyVector.from_values([3, 3, 8, 9, 9, 9], DOMAIN)
        sketch = schema.sketch_of(freqs)
        support = freqs.support()
        sketch.subtract_frequencies(support, freqs.counts[support])
        assert np.allclose(sketch.counters, 0.0)

    def test_subtract_equals_sketch_of_residual(self):
        schema = HashSketchSchema(16, 5, DOMAIN, seed=15)
        freqs = FrequencyVector.from_values([1] * 5 + [2] * 9 + [3], DOMAIN)
        sketch = schema.sketch_of(freqs)
        sketch.subtract_frequencies(np.asarray([2]), np.asarray([9.0]))
        residual = freqs.copy()
        residual.apply_bulk(np.asarray([2]), np.asarray([-9.0]))
        assert np.allclose(sketch.counters, schema.sketch_of(residual).counters)

    def test_subtract_duplicate_values_accumulates(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=16)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.asarray([4] * 10))
        sketch.subtract_frequencies(np.asarray([4, 4]), np.asarray([6.0, 4.0]))
        assert np.allclose(sketch.counters, 0.0)

    def test_merge(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=17)
        a, b = schema.create_sketch(), schema.create_sketch()
        a.update(1)
        b.update(2, 5.0)
        merged = a.merged_with(b)
        direct = schema.create_sketch()
        direct.update(1)
        direct.update(2, 5.0)
        assert np.allclose(merged.counters, direct.counters)
        assert merged.absolute_mass == pytest.approx(6.0)

    def test_copy_independent(self):
        schema = HashSketchSchema(8, 3, DOMAIN, seed=18)
        sketch = schema.create_sketch()
        sketch.update(1)
        clone = sketch.copy()
        clone.update(2)
        assert not np.allclose(sketch.counters, clone.counters)

    def test_incompatible_rejected(self):
        a = HashSketchSchema(8, 3, DOMAIN, seed=1).create_sketch()
        b = HashSketchSchema(8, 3, DOMAIN, seed=2).create_sketch()
        with pytest.raises(IncompatibleSketchError):
            a.est_join_size(b)

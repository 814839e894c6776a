"""Unit + statistical tests for basic AGMS sketches (ESTJOINSIZE/ESTSJSIZE)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DomainError, IncompatibleSketchError
from repro.sketches.agms import AGMSSchema
from repro.streams.model import FrequencyVector

DOMAIN = 256


def make_pair(schema, f, g):
    return schema.sketch_of(f), schema.sketch_of(g)


class TestSchema:
    def test_validation(self):
        with pytest.raises(ValueError):
            AGMSSchema(0, 1, DOMAIN)
        with pytest.raises(ValueError):
            AGMSSchema(1, 0, DOMAIN)
        with pytest.raises(ValueError):
            AGMSSchema(1, 1, 0)

    def test_compatibility(self):
        a = AGMSSchema(4, 3, DOMAIN, seed=1)
        b = AGMSSchema(4, 3, DOMAIN, seed=1)
        c = AGMSSchema(4, 3, DOMAIN, seed=2)
        assert a.is_compatible(b)
        assert not a.is_compatible(c)
        assert not a.is_compatible(AGMSSchema(5, 3, DOMAIN, seed=1))


class TestMaintenance:
    def test_update_touches_all_atomic_sketches(self):
        """The paper's point: every atomic sketch changes on each element."""
        schema = AGMSSchema(4, 3, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        sketch.update(7)
        assert (np.abs(sketch.atomic_sketches) == 1.0).all()

    def test_update_bulk_matches_element_updates(self):
        schema = AGMSSchema(5, 3, DOMAIN, seed=1)
        values = np.random.default_rng(0).integers(0, DOMAIN, 300)
        weights = np.random.default_rng(1).normal(size=300)
        bulk = schema.create_sketch()
        bulk.update_bulk(values, weights)
        loop = schema.create_sketch()
        for v, w in zip(values, weights):
            loop.update(int(v), float(w))
        assert np.allclose(bulk.atomic_sketches, loop.atomic_sketches)
        assert bulk.absolute_mass == pytest.approx(loop.absolute_mass)

    def test_three_update_paths_write_identical_counters(self):
        """`update`, `update_bulk` and `update_coalesced` share one counter
        write, so integer weights (deletes included) give bit-identical
        atomic sketches and equal tracked masses."""
        from repro.hashing.bulk import coalesce_updates

        schema = AGMSSchema(5, 3, DOMAIN, seed=1)
        rng = np.random.default_rng(0)
        values = rng.integers(0, DOMAIN, 400)
        weights = rng.choice([-2.0, -1.0, 1.0, 3.0], size=400)
        loop = schema.create_sketch()
        for v, w in zip(values, weights):
            loop.update(int(v), float(w))
        bulk = schema.create_sketch()
        bulk.update_bulk(values, weights)
        coalesced = schema.create_sketch()
        uniques, masses = coalesce_updates(values, weights)
        coalesced.update_coalesced(
            uniques, masses, observed_mass=float(np.abs(weights).sum())
        )
        for other in (bulk, coalesced):
            assert np.array_equal(other.atomic_sketches, loop.atomic_sketches)
            assert other.absolute_mass == loop.absolute_mass

    def test_ingest_frequency_vector_matches_updates(self):
        schema = AGMSSchema(4, 3, DOMAIN, seed=2)
        freqs = FrequencyVector.from_values([1, 1, 5, 9, 9, 9], DOMAIN)
        ingested = schema.sketch_of(freqs)
        loop = schema.create_sketch()
        for value, count in freqs.nonzero_items():
            for _ in range(int(count)):
                loop.update(value)
        assert np.allclose(ingested.atomic_sketches, loop.atomic_sketches)

    def test_projection_cache_matches_streaming_path(self):
        freqs = FrequencyVector.from_values([0, 0, 0, 7, 100, 255], DOMAIN)
        plain = AGMSSchema(6, 5, DOMAIN, seed=3)
        cached = AGMSSchema(6, 5, DOMAIN, seed=3)
        cached.enable_projection_cache()
        assert cached.projection_cache_enabled()
        a = plain.sketch_of(freqs)
        b = cached.sketch_of(freqs)
        assert np.allclose(a.atomic_sketches, b.atomic_sketches)
        assert a.absolute_mass == pytest.approx(b.absolute_mass)

    def test_projection_cache_size_guard(self):
        schema = AGMSSchema(100, 10, DOMAIN, seed=0)
        with pytest.raises(ValueError):
            schema.enable_projection_cache(max_bytes=10)

    def test_deletes_cancel_inserts(self):
        schema = AGMSSchema(3, 3, DOMAIN, seed=4)
        sketch = schema.create_sketch()
        sketch.update(10)
        sketch.update(10, -1.0)
        assert np.allclose(sketch.atomic_sketches, 0.0)
        # absolute mass counts both operations (it tracks stream volume)
        assert sketch.absolute_mass == 2.0

    def test_domain_check(self):
        schema = AGMSSchema(2, 2, DOMAIN, seed=5)
        sketch = schema.create_sketch()
        with pytest.raises(DomainError):
            sketch.update(DOMAIN)
        with pytest.raises(DomainError):
            sketch.update_bulk(np.asarray([-1]))

    def test_size_accounting(self):
        schema = AGMSSchema(8, 5, DOMAIN, seed=6)
        sketch = schema.create_sketch()
        assert sketch.size_in_counters() == 40
        assert sketch.seed_words() == 40 * 4


class TestEstimation:
    def test_single_value_join_is_exact(self):
        """With one common value, X_f X_g = f g xi^2 = f g in every cell."""
        schema = AGMSSchema(3, 3, DOMAIN, seed=7)
        f = FrequencyVector.from_values([5] * 4, DOMAIN)
        g = FrequencyVector.from_values([5] * 6, DOMAIN)
        sf, sg = make_pair(schema, f, g)
        assert sf.est_join_size(sg) == pytest.approx(24.0)

    def test_self_join_single_value_exact(self):
        schema = AGMSSchema(2, 3, DOMAIN, seed=8)
        f = FrequencyVector.from_values([9] * 7, DOMAIN)
        assert schema.sketch_of(f).est_self_join_size() == pytest.approx(49.0)

    def test_unbiasedness_across_schemas(self):
        """Mean estimate over many independent schemas approaches truth."""
        f = FrequencyVector.from_values([0, 0, 1, 2, 2, 2, 3], DOMAIN)
        g = FrequencyVector.from_values([0, 2, 2, 3, 3], DOMAIN)
        actual = f.join_size(g)
        estimates = []
        for seed in range(300):
            schema = AGMSSchema(1, 1, DOMAIN, seed=seed)
            sf, sg = make_pair(schema, f, g)
            estimates.append(sf.est_join_size(sg))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.25)

    def test_accuracy_improves_with_averaging(self, small_zipf):
        actual = small_zipf.self_join_size()
        errors = {}
        for averaging in (4, 64):
            errs = []
            for seed in range(5):
                schema = AGMSSchema(averaging, 5, DOMAIN, seed=seed)
                estimate = schema.sketch_of(small_zipf).est_self_join_size()
                errs.append(abs(estimate - actual) / actual)
            errors[averaging] = np.mean(errs)
        assert errors[64] < errors[4]

    def test_reasonable_accuracy_on_zipf(self, small_zipf):
        schema = AGMSSchema(128, 7, DOMAIN, seed=9)
        estimate = schema.sketch_of(small_zipf).est_self_join_size()
        actual = small_zipf.self_join_size()
        assert abs(estimate - actual) / actual < 0.25


class TestAlgebraAndCompat:
    def test_merge_is_linear(self):
        schema = AGMSSchema(3, 3, DOMAIN, seed=10)
        a = schema.create_sketch()
        b = schema.create_sketch()
        a.update(1)
        b.update(2, 3.0)
        merged = a.merged_with(b)
        combined = schema.create_sketch()
        combined.update(1)
        combined.update(2, 3.0)
        assert np.allclose(merged.atomic_sketches, combined.atomic_sketches)

    def test_copy_is_independent(self):
        schema = AGMSSchema(2, 2, DOMAIN, seed=11)
        sketch = schema.create_sketch()
        sketch.update(3)
        clone = sketch.copy()
        clone.update(4)
        assert not np.allclose(sketch.atomic_sketches, clone.atomic_sketches)

    def test_incompatible_schemas_rejected(self):
        a = AGMSSchema(2, 2, DOMAIN, seed=1).create_sketch()
        b = AGMSSchema(2, 2, DOMAIN, seed=2).create_sketch()
        with pytest.raises(IncompatibleSketchError):
            a.est_join_size(b)
        with pytest.raises(IncompatibleSketchError):
            a.merged_with(b)

    def test_same_parameters_same_seed_compatible(self):
        a = AGMSSchema(2, 2, DOMAIN, seed=1).create_sketch()
        b = AGMSSchema(2, 2, DOMAIN, seed=1).create_sketch()
        b.update(5)
        assert isinstance(a.est_join_size(b), float)

    def test_cross_type_rejected(self):
        schema = AGMSSchema(2, 2, DOMAIN, seed=1)
        with pytest.raises(IncompatibleSketchError):
            schema.create_sketch().est_join_size("nonsense")  # type: ignore[arg-type]

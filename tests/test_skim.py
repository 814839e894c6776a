"""Tests for SKIMDENSE (flat and dyadic) — Figure 3, Theorems 3-4."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.estimator import SkimmedSketchSchema
from repro.core.skim import (
    SkimResult,
    default_threshold,
    skim_dense,
    skim_dense_dyadic,
    skim_dense_dyadic_base,
)
from repro.core.skimmed_join import (
    est_skim_join_size,
    est_skim_join_size_from_parts,
)
from repro.obs import capturing
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import TABLE_BUDGET_BYTES, HashSketchSchema
from repro.streams.generators import zipf_frequencies
from repro.streams.model import FrequencyVector

DOMAIN = 1 << 10  # 1024


def planted_vector(heavy: dict[int, float], tail_seed: int = 0) -> FrequencyVector:
    counts = np.zeros(DOMAIN)
    for value, freq in heavy.items():
        counts[value] = freq
    rng = np.random.default_rng(tail_seed)
    tail = rng.choice(DOMAIN, 200, replace=False)
    counts[tail] += 1.0
    return FrequencyVector(counts)


class TestDefaultThreshold:
    def test_formula(self):
        schema = HashSketchSchema(100, 3, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.asarray([1] * 500))
        assert default_threshold(sketch) == pytest.approx(500 / 10.0)

    def test_multiplier(self):
        schema = HashSketchSchema(100, 3, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        sketch.update(1, 100.0)
        assert default_threshold(sketch, 2.0) == pytest.approx(20.0)

    def test_empty_sketch_is_infinite(self):
        schema = HashSketchSchema(100, 3, DOMAIN, seed=0)
        assert default_threshold(schema.create_sketch()) == float("inf")

    def test_rejects_bad_multiplier(self):
        schema = HashSketchSchema(100, 3, DOMAIN, seed=0)
        with pytest.raises(ValueError):
            default_threshold(schema.create_sketch(), 0.0)


class TestSkimResult:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            SkimResult(np.asarray([1, 2]), np.asarray([1.0]), 1.0)

    def test_helpers(self):
        result = SkimResult(
            np.asarray([3, 9]), np.asarray([10.0, 20.0]), threshold=5.0
        )
        assert result.dense_count == 2
        assert result.dense_mass() == 30.0
        assert result.frequency_of(9) == 20.0
        assert result.frequency_of(4) == 0.0
        vec = result.as_frequency_vector(16)
        assert vec[3] == 10.0 and vec[9] == 20.0


class TestSkimDenseFlat:
    def test_extracts_planted_dense_values(self):
        freqs = planted_vector({10: 400.0, 500: 300.0, 900: 250.0})
        schema = HashSketchSchema(128, 7, DOMAIN, seed=1)
        sketch = schema.sketch_of(freqs)
        result, skimmed = skim_dense(sketch, threshold=100.0)
        assert {10, 500, 900} <= set(result.dense_values.tolist())
        for value, freq in ((10, 400.0), (500, 300.0), (900, 250.0)):
            assert result.frequency_of(value) == pytest.approx(freq, rel=0.15)

    def test_residual_sketch_equals_sketch_of_residual_vector(self):
        """Skimming is exact linear subtraction (Steps 8-9 of Fig. 3)."""
        freqs = planted_vector({5: 200.0, 50: 150.0})
        schema = HashSketchSchema(128, 5, DOMAIN, seed=2)
        sketch = schema.sketch_of(freqs)
        result, skimmed = skim_dense(sketch, threshold=80.0)
        residual = freqs.copy()
        residual.apply_bulk(result.dense_values, -result.dense_frequencies)
        reference = schema.sketch_of(residual)
        assert np.allclose(skimmed.counters, reference.counters)

    def test_residual_frequencies_bounded(self):
        """Theorem 4: after skimming, residuals stay below ~2*threshold."""
        freqs = zipf_frequencies(DOMAIN, 50_000, 1.2)
        schema = HashSketchSchema(256, 7, DOMAIN, seed=3)
        sketch = schema.sketch_of(freqs)
        threshold = default_threshold(sketch)
        result, skimmed = skim_dense(sketch)
        residual = freqs.copy()
        residual.apply_bulk(result.dense_values, -result.dense_frequencies)
        assert np.abs(residual.counts).max() <= 2.0 * threshold

    def test_default_threshold_used(self):
        freqs = zipf_frequencies(DOMAIN, 50_000, 1.2)
        schema = HashSketchSchema(256, 7, DOMAIN, seed=4)
        sketch = schema.sketch_of(freqs)
        result, _ = skim_dense(sketch)
        assert result.threshold == pytest.approx(default_threshold(sketch))

    def test_not_in_place_by_default(self):
        freqs = planted_vector({10: 300.0})
        schema = HashSketchSchema(64, 5, DOMAIN, seed=5)
        sketch = schema.sketch_of(freqs)
        before = sketch.counters.copy()
        skim_dense(sketch, threshold=100.0)
        assert np.array_equal(sketch.counters, before)

    def test_in_place(self):
        freqs = planted_vector({10: 300.0})
        schema = HashSketchSchema(64, 5, DOMAIN, seed=6)
        sketch = schema.sketch_of(freqs)
        before = sketch.counters.copy()
        _, skimmed = skim_dense(sketch, threshold=100.0, in_place=True)
        assert skimmed is sketch
        assert not np.array_equal(sketch.counters, before)

    def test_empty_sketch_skims_nothing(self):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=7)
        result, skimmed = skim_dense(schema.create_sketch())
        assert result.dense_count == 0

    def test_rejects_non_positive_threshold(self):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=8)
        with pytest.raises(ValueError):
            skim_dense(schema.create_sketch(), threshold=-1.0)

    def test_nothing_dense_below_threshold(self):
        freqs = planted_vector({})
        schema = HashSketchSchema(128, 5, DOMAIN, seed=9)
        sketch = schema.sketch_of(freqs)
        result, skimmed = skim_dense(sketch, threshold=50.0)
        assert result.dense_count == 0
        assert np.allclose(skimmed.counters, sketch.counters)


class TestSkimDenseDyadic:
    def test_matches_flat_skim_on_planted_data(self):
        freqs = planted_vector({12: 400.0, 700: 350.0})
        schema = DyadicSketchSchema(128, 7, DOMAIN, seed=10, coarse_cutoff=32)
        sketch = schema.sketch_of(freqs)
        result, skimmed = skim_dense_dyadic(sketch, threshold=150.0)
        assert set(result.dense_values.tolist()) == {12, 700}
        for value, freq in ((12, 400.0), (700, 350.0)):
            assert result.frequency_of(value) == pytest.approx(freq, rel=0.15)

    def test_residual_levels_consistent(self):
        """After skimming, every level equals the residual vector's sketch."""
        freqs = planted_vector({100: 500.0})
        schema = DyadicSketchSchema(128, 5, DOMAIN, seed=11, coarse_cutoff=32)
        sketch = schema.sketch_of(freqs)
        result, skimmed = skim_dense_dyadic(sketch, threshold=200.0)
        residual = freqs.copy()
        residual.apply_bulk(result.dense_values, -result.dense_frequencies)
        reference = schema.sketch_of(residual)
        for level in range(schema.num_levels):
            assert np.allclose(
                skimmed.level_sketch(level).counters,
                reference.level_sketch(level).counters,
            )

    def test_default_threshold(self):
        freqs = zipf_frequencies(DOMAIN, 20_000, 1.3)
        schema = DyadicSketchSchema(128, 5, DOMAIN, seed=12, coarse_cutoff=32)
        sketch = schema.sketch_of(freqs)
        result, _ = skim_dense_dyadic(sketch)
        assert result.threshold == pytest.approx(
            default_threshold(sketch.base_sketch)
        )

    def test_empty_hierarchy(self):
        schema = DyadicSketchSchema(64, 3, DOMAIN, seed=13)
        result, _ = skim_dense_dyadic(schema.create_sketch())
        assert result.dense_count == 0

    def test_in_place_flag(self):
        freqs = planted_vector({10: 300.0})
        schema = DyadicSketchSchema(64, 5, DOMAIN, seed=14)
        sketch = schema.sketch_of(freqs)
        _, skimmed = skim_dense_dyadic(sketch, threshold=100.0, in_place=True)
        assert skimmed is sketch


def _same_skim(a, b):
    """Two ``(SkimResult, residual)`` pairs agree bit for bit."""
    (result_a, residual_a), (result_b, residual_b) = a, b
    assert result_a.dense_values.dtype == result_b.dense_values.dtype == np.int64
    assert np.array_equal(result_a.dense_values, result_b.dense_values)
    assert np.array_equal(
        result_a.dense_frequencies.view(np.uint64),
        result_b.dense_frequencies.view(np.uint64),
    )
    assert np.array_equal(
        residual_a.counters.view(np.uint64), residual_b.counters.view(np.uint64)
    )


def _skewed_stream(domain, seed):
    """Zipf-skewed values with a wave of deletes (integer weights)."""
    rng = np.random.default_rng(seed)
    values = (np.minimum(rng.zipf(1.3, 20_000), domain) - 1).astype(np.int64)
    weights = rng.choice([-1.0, 1.0, 1.0, 2.0], values.size)
    return values, weights


class TestHotBucketSkim:
    """The flat skim estimates only values in hot buckets when it has
    lookup tables, and every value when it has none; both give one
    answer."""

    def test_probes_fewer_than_domain_with_tables(self):
        schema = HashSketchSchema(128, 5, DOMAIN, seed=20)
        sketch = schema.sketch_of(planted_vector({10: 400.0, 500: 300.0}))
        with capturing(fresh=True) as reg:
            result, _ = skim_dense(sketch, threshold=100.0)
        counters = reg.snapshot()["counters"]
        assert {10, 500} <= set(result.dense_values.tolist())
        assert counters["skim.passes.flat"] == 1
        assert 2 <= counters["skim.flat.probes"] < DOMAIN

    def test_over_budget_scans_the_domain_and_agrees(self):
        domain = TABLE_BUDGET_BYTES // 9 + 1  # depth 3, 3 bytes per entry: just over
        over = HashSketchSchema(256, 3, domain, seed=21)
        twin = HashSketchSchema(256, 3, domain, seed=21)
        twin.precompute()
        values, weights = _skewed_stream(domain, seed=21)
        over_sketch, twin_sketch = over.create_sketch(), twin.create_sketch()
        over_sketch.update_bulk(values, weights)
        twin_sketch.update_bulk(values, weights)
        with capturing(fresh=True) as reg:
            scanned = skim_dense(over_sketch)
        assert reg.snapshot()["counters"]["skim.flat.probes"] == domain
        assert not over.precomputed
        with capturing(fresh=True) as reg:
            hot = skim_dense(twin_sketch)
        assert reg.snapshot()["counters"]["skim.flat.probes"] < domain
        assert scanned[0].dense_count > 0
        _same_skim(scanned, hot)

    def test_clear_precomputed_drops_the_inverse(self):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=22)
        values, weights = _skewed_stream(DOMAIN, seed=22)
        sketch = schema.create_sketch()
        sketch.update_bulk(values, weights)
        first = skim_dense(sketch)
        members, _ = schema.bucket_members()
        dropped = weakref.ref(members)
        del members
        schema.clear_precomputed()
        gc.collect()
        assert dropped() is None
        assert not schema.precomputed
        with capturing(fresh=True) as reg:
            second = skim_dense(sketch)
        assert reg.snapshot()["counters"]["skim.flat.probes"] < DOMAIN
        assert schema.precomputed
        _same_skim(first, second)


class TestDyadicJoinSkimsLevelZero:
    """A dyadic join skims and copies level 0 only; what it returns is
    what the all-level :func:`skim_dense_dyadic` gives at level 0."""

    SCHEMA = dict(width=64, depth=5, domain_size=1 << 14, seed=23)

    def _pair(self):
        schema = DyadicSketchSchema(**self.SCHEMA)
        f, g = schema.create_sketch(), schema.create_sketch()
        for sketch, seed in ((f, 1), (g, 2)):
            sketch.update_bulk(*_skewed_stream(schema.domain_size, seed))
        return f, g

    @pytest.mark.parametrize("threshold", [None, 40.0, float("inf")])
    def test_level0_skim_matches_full_hierarchy_skim(self, threshold):
        f, _ = self._pair()
        before = [block.copy() for block in f.counters_view()]
        full, hierarchy = skim_dense_dyadic(f, threshold)
        level0 = skim_dense_dyadic_base(f, threshold)
        _same_skim((full, hierarchy.base_sketch), level0)
        assert level0[1] is not f.base_sketch
        for block, kept in zip(f.counters_view(), before):
            assert np.array_equal(block, kept)

    def test_join_equals_full_hierarchy_skim(self):
        f, g = self._pair()
        f_full, f_hierarchy = skim_dense_dyadic(f)
        g_full, g_hierarchy = skim_dense_dyadic(g)
        reference = est_skim_join_size_from_parts(
            f_full, f_hierarchy.base_sketch, g_full, g_hierarchy.base_sketch
        ).estimate
        assert est_skim_join_size(f, g).estimate.hex() == reference.hex()

        schema = SkimmedSketchSchema(**self.SCHEMA, dyadic=True)
        sf, sg = schema.create_sketch(), schema.create_sketch()
        for sketch, seed in ((sf, 1), (sg, 2)):
            sketch.update_bulk(*_skewed_stream(schema.domain_size, seed))
        _same_skim(sf.skim(), (f_full, f_hierarchy.base_sketch))
        assert sf.est_join_size(sg).hex() == reference.hex()

"""Tests for the comparator estimators (exact, sampling, bifocal, partitioned)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bifocal import BifocalEstimator
from repro.baselines.exact import (
    exact_join_size,
    exact_self_join_size,
    exact_sub_join_sizes,
)
from repro.baselines.partitioned import (
    PartitionedAGMSSchema,
    plan_partitions,
)
from repro.baselines.sampling import sample_join_estimate
from repro.errors import IncompatibleSketchError
from repro.streams.generators import shifted_zipf_pair, zipf_frequencies
from repro.streams.model import FrequencyVector

DOMAIN = 1 << 10


class TestExact:
    def test_join_and_self_join(self):
        f = FrequencyVector(np.asarray([1.0, 2.0, 3.0]))
        g = FrequencyVector(np.asarray([4.0, 5.0, 6.0]))
        assert exact_join_size(f, g) == 32.0
        assert exact_self_join_size(f) == 14.0

    def test_sub_join_decomposition_sums_to_join(self):
        f, g = shifted_zipf_pair(DOMAIN, 20_000, 1.2, 10)
        parts = exact_sub_join_sizes(f, g, 50.0, 40.0)
        assert sum(parts.values()) == pytest.approx(f.join_size(g))

    def test_sub_join_all_dense_when_threshold_zero_ish(self):
        f, g = shifted_zipf_pair(DOMAIN, 5_000, 1.0, 5)
        parts = exact_sub_join_sizes(f, g, 1e-9, 1e-9)
        assert parts["dense_dense"] == pytest.approx(f.join_size(g))


class TestSampleJoinEstimate:
    def test_unbiased_over_many_draws(self):
        f, g = shifted_zipf_pair(DOMAIN, 10_000, 1.0, 3)
        actual = f.join_size(g)
        rng = np.random.default_rng(7)
        estimates = [
            sample_join_estimate(f.counts, g.counts, 500, rng) for _ in range(300)
        ]
        assert np.mean(estimates) == pytest.approx(actual, rel=0.25)

    def test_empty_stream(self):
        rng = np.random.default_rng(0)
        assert sample_join_estimate(np.zeros(4), np.ones(4), 10, rng) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_join_estimate(np.ones(4), np.ones(4), 0, np.random.default_rng(0))


class TestBifocal:
    def test_validation(self):
        with pytest.raises(ValueError):
            BifocalEstimator(0)
        with pytest.raises(ValueError):
            BifocalEstimator(10, dense_sample_count=0)

    def test_accurate_on_skewed_data(self):
        """With index access (its assumption), bifocal is quite accurate."""
        f, g = shifted_zipf_pair(DOMAIN, 50_000, 1.2, 10)
        actual = f.join_size(g)
        estimator = BifocalEstimator(sample_size=2_000)
        estimates = [
            estimator.estimate(f, g, np.random.default_rng(seed))
            for seed in range(5)
        ]
        assert np.mean(estimates) == pytest.approx(actual, rel=0.3)

    def test_empty_streams(self):
        empty = FrequencyVector.zeros(DOMAIN)
        estimator = BifocalEstimator(10)
        assert estimator.estimate(empty, empty, np.random.default_rng(0)) == 0.0

    def test_size_accounting(self):
        assert BifocalEstimator(123).size_in_counters() == 123


class TestPartitionedAGMS:
    def test_plan_covers_domain(self):
        f, g = shifted_zipf_pair(DOMAIN, 10_000, 1.0, 5)
        plan = plan_partitions(f, g, num_partitions=4, averaging_budget=64)
        assert plan.assignment.size == DOMAIN
        assert set(np.unique(plan.assignment)) <= set(range(plan.num_partitions))
        assert sum(plan.averaging) == 64
        assert min(plan.averaging) >= 1

    def test_plan_validation(self):
        f, g = shifted_zipf_pair(DOMAIN, 1_000, 1.0, 0)
        with pytest.raises(ValueError):
            plan_partitions(f, g, 0, 10)
        with pytest.raises(ValueError):
            plan_partitions(f, g, 8, 4)
        h = zipf_frequencies(DOMAIN // 2, 100, 1.0)
        with pytest.raises(ValueError):
            plan_partitions(f, h, 2, 10)

    def test_estimates_join(self):
        f, g = shifted_zipf_pair(DOMAIN, 50_000, 1.0, 10)
        actual = f.join_size(g)
        plan = plan_partitions(f, g, num_partitions=8, averaging_budget=128)
        schema = PartitionedAGMSSchema(plan, median=7, seed=0)
        estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
        assert estimate == pytest.approx(actual, rel=0.4)

    def test_good_hints_beat_bad_hints(self):
        """The paper's criticism: quality depends on a-priori statistics."""
        f, g = shifted_zipf_pair(DOMAIN, 50_000, 1.2, 10)
        actual = f.join_size(g)
        uniform = FrequencyVector(
            np.full(DOMAIN, f.total_count() / DOMAIN)
        )

        def mean_error(hint_f, hint_g):
            errors = []
            for seed in range(3):
                plan = plan_partitions(hint_f, hint_g, 8, 128)
                schema = PartitionedAGMSSchema(plan, median=7, seed=seed)
                est = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
                errors.append(abs(est - actual) / actual)
            return np.mean(errors)

        assert mean_error(f, g) < mean_error(uniform, uniform)

    def test_mismatched_schemas_rejected(self):
        f, g = shifted_zipf_pair(DOMAIN, 5_000, 1.0, 2)
        plan = plan_partitions(f, g, 4, 32)
        a = PartitionedAGMSSchema(plan, median=3, seed=0)
        b = PartitionedAGMSSchema(plan, median=3, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.sketch_of(f).est_join_size(b.sketch_of(g))

    def test_update_routing(self):
        f, g = shifted_zipf_pair(DOMAIN, 5_000, 1.0, 2)
        plan = plan_partitions(f, g, 4, 32)
        schema = PartitionedAGMSSchema(plan, median=3, seed=2)
        by_bulk = schema.sketch_of(f)
        by_element = schema.create_sketch()
        for value, count in f.nonzero_items():
            for _ in range(int(count)):
                by_element.update(value)
        assert by_bulk.est_join_size(schema.sketch_of(g)) == pytest.approx(
            by_element.est_join_size(schema.sketch_of(g))
        )

    def test_size_accounting(self):
        f, g = shifted_zipf_pair(DOMAIN, 5_000, 1.0, 2)
        plan = plan_partitions(f, g, 4, 32)
        schema = PartitionedAGMSSchema(plan, median=3, seed=3)
        assert schema.create_sketch().size_in_counters() == 32 * 3

"""Tests for the deterministic Space-Saving frequent-elements summary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeletionUnsupportedError, DomainError
from repro.sketches.spacesaving import SpaceSaving
from repro.streams.generators import zipf_frequencies
from repro.streams.model import iter_stream

DOMAIN = 1 << 10


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0, DOMAIN)
        with pytest.raises(ValueError):
            SpaceSaving(4, 0)

    def test_small_stream_exact(self):
        summary = SpaceSaving(8, DOMAIN)
        for value in (1, 1, 1, 2, 2, 3):
            summary.update(value)
        tracked = {t.value: t for t in summary.tracked()}
        assert tracked[1].count == 3 and tracked[1].error == 0.0
        assert tracked[2].count == 2
        assert summary.estimate(3) == 1.0
        assert summary.estimate(99) == 0.0

    def test_deletions_rejected(self):
        summary = SpaceSaving(4, DOMAIN)
        with pytest.raises(DeletionUnsupportedError):
            summary.update(1, -1.0)
        # A batch is refused whole, though its first element inserts.
        with pytest.raises(DeletionUnsupportedError):
            summary.update_bulk(np.asarray([1, 2]), np.asarray([1.0, -1.0]))
        assert summary.tracked() == [] and summary.stream_size == 0.0

    def test_domain_check(self):
        summary = SpaceSaving(4, DOMAIN)
        with pytest.raises(DomainError):
            summary.update(DOMAIN)

    def test_capacity_respected(self):
        summary = SpaceSaving(4, DOMAIN)
        for value in range(100):
            summary.update(value)
        assert len(summary.tracked()) == 4
        assert summary.size_in_counters() == 12

    def test_weighted_updates(self):
        summary = SpaceSaving(4, DOMAIN)
        summary.update(5, 10.0)
        summary.update(5, 2.5)
        assert summary.estimate(5) == 12.5
        assert summary.stream_size == 12.5


class TestGuarantees:
    def test_counts_are_upper_bounds(self):
        """estimate(v) >= f(v) for tracked v; error bounds the slack."""
        freqs = zipf_frequencies(DOMAIN, 20_000, 1.1)
        summary = SpaceSaving(64, DOMAIN)
        for update in iter_stream(freqs, np.random.default_rng(0)):
            summary.update(update.value, update.weight)
        for tracked in summary.tracked():
            true = freqs[tracked.value]
            assert tracked.count >= true - 1e-9
            assert tracked.count - tracked.error <= true + 1e-9

    def test_no_false_negatives_above_threshold(self):
        """Every value with f(v) > N/k is tracked (the classic guarantee)."""
        freqs = zipf_frequencies(DOMAIN, 20_000, 1.2)
        capacity = 64
        summary = SpaceSaving(capacity, DOMAIN)
        for update in iter_stream(freqs, np.random.default_rng(1)):
            summary.update(update.value, update.weight)
        threshold = summary.stream_size / capacity
        tracked_values = {t.value for t in summary.tracked()}
        for value, freq in freqs.nonzero_items():
            if freq > threshold:
                assert value in tracked_values

    def test_error_bound_at_most_n_over_k(self):
        freqs = zipf_frequencies(DOMAIN, 10_000, 1.0)
        summary = SpaceSaving(32, DOMAIN)
        for update in iter_stream(freqs, np.random.default_rng(2)):
            summary.update(update.value, update.weight)
        assert summary.error_bound() <= summary.stream_size / 32 + 1e-9

    def test_dense_candidates_superset_of_truth(self):
        freqs = zipf_frequencies(DOMAIN, 20_000, 1.3)
        capacity = 128
        summary = SpaceSaving(capacity, DOMAIN)
        support = freqs.support()
        summary.update_bulk(support, freqs.counts[support])
        threshold = max(200.0, summary.stream_size / capacity)
        candidates = set(summary.dense_candidates(threshold).tolist())
        truly_dense = {
            value for value, freq in freqs.nonzero_items() if freq >= threshold
        }
        assert truly_dense <= candidates

    def test_heavy_hitters_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(4, DOMAIN).heavy_hitters(0.0)

    def test_bulk_weight_shape_mismatch(self):
        summary = SpaceSaving(4, DOMAIN)
        with pytest.raises(ValueError):
            summary.update_bulk(np.asarray([1, 2]), np.asarray([1.0]))

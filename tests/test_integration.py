"""End-to-end integration tests across modules.

These replay the paper's whole pipeline at small scale: generate update
streams (with deletes), maintain synopses one element at a time through
the Figure-1 engine, answer join queries, and check the paper's
qualitative findings (skimming wins, deletes are transparent, decomposed
sub-joins track truth).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_sub_join_sizes
from repro.core.config import SketchParameters
from repro.core.estimator import SkimmedSketchSchema
from repro.eval.metrics import join_error
from repro.sketches.agms import AGMSSchema
from repro.streams.engine import StreamEngine
from repro.streams.generators import (
    insert_delete_stream,
    shifted_zipf_pair,
)
from repro.streams.query import JoinCountQuery

DOMAIN = 1 << 11
TOTAL = 40_000


class TestStreamingPipeline:
    def test_engine_element_at_a_time_matches_bulk(self):
        """Feeding the engine per element equals bulk synopsis loading."""
        f, g = shifted_zipf_pair(DOMAIN, 5_000, 1.1, 5)
        params = SketchParameters(width=128, depth=5)

        streaming = StreamEngine(DOMAIN, params, seed=2)
        streaming.register_stream("f")
        streaming.register_stream("g")
        rng = np.random.default_rng(0)
        for name, freqs in (("f", f), ("g", g)):
            for update in insert_delete_stream(freqs, 0.2, rng):
                streaming.process(name, update.value, update.weight)

        bulk = StreamEngine(DOMAIN, params, seed=2)
        bulk.register_stream("f")
        bulk.register_stream("g")
        bulk.synopsis_for("f").ingest_frequency_vector(f)
        bulk.synopsis_for("g").ingest_frequency_vector(g)

        streamed_answer = streaming.answer(JoinCountQuery("f", "g"))
        bulk_answer = bulk.answer(JoinCountQuery("f", "g"))
        # Same final frequency state, same hash functions: the sparse and
        # dense terms match exactly up to skim-threshold differences caused
        # by the churn's extra absolute mass.
        assert streamed_answer == pytest.approx(bulk_answer, rel=0.1)
        assert streamed_answer == pytest.approx(f.join_size(g), rel=0.2)

    def test_delete_churn_is_transparent_to_sketches(self):
        """A linear synopsis ends in the identical state with or without
        transient inserted-then-deleted elements (claim C4)."""
        f, _ = shifted_zipf_pair(DOMAIN, 5_000, 1.1, 0)
        schema = SkimmedSketchSchema(128, 5, DOMAIN, seed=3)
        clean = schema.create_sketch()
        clean.ingest_frequency_vector(f)
        churned = schema.create_sketch()
        for update in insert_delete_stream(f, 0.5, np.random.default_rng(1)):
            churned.update(update.value, update.weight)
        # Counters identical: deletes cancelled exactly.
        assert np.allclose(
            clean._inner.counters, churned._inner.counters  # noqa: SLF001
        )


class TestPaperFindings:
    def test_skimmed_beats_basic_agms_on_skew(self):
        """The paper's headline finding, end to end, paired seeds."""
        width, depth = 128, 7
        skim_errors, agms_errors = [], []
        for trial in range(3):
            rng = np.random.default_rng(100 + trial)
            f, g = shifted_zipf_pair(DOMAIN, TOTAL, 1.5, 5, rng)
            actual = f.join_size(g)

            skim_schema = SkimmedSketchSchema(width, depth, DOMAIN, seed=trial)
            estimate = skim_schema.sketch_of(f).est_join_size(
                skim_schema.sketch_of(g)
            )
            skim_errors.append(join_error(estimate, actual))

            agms_schema = AGMSSchema(width, depth, DOMAIN, seed=trial)
            agms_estimate = agms_schema.sketch_of(f).est_join_size(
                agms_schema.sketch_of(g)
            )
            agms_errors.append(join_error(agms_estimate, actual))
        assert np.mean(skim_errors) < np.mean(agms_errors)
        assert np.mean(skim_errors) < 0.15

    def test_breakdown_terms_track_exact_sub_joins(self):
        """Each estimated sub-join approximates its exact counterpart."""
        f, g = shifted_zipf_pair(DOMAIN, TOTAL, 1.3, 10)
        schema = SkimmedSketchSchema(256, 11, DOMAIN, seed=4)
        sf, sg = schema.sketch_of(f), schema.sketch_of(g)
        breakdown = sf.join_breakdown(sg)
        exact = exact_sub_join_sizes(
            f, g, breakdown.f_skim.threshold, breakdown.g_skim.threshold
        )
        actual = f.join_size(g)
        assert breakdown.dense_dense == pytest.approx(
            exact["dense_dense"], abs=0.05 * actual + 1.0
        )
        assert breakdown.estimate == pytest.approx(actual, rel=0.15)

    def test_error_shrinks_with_space(self):
        """More width means lower error, the Figure-5 trend."""
        f, g = shifted_zipf_pair(DOMAIN, TOTAL, 1.0, 10)
        actual = f.join_size(g)
        errors = {}
        for width in (32, 512):
            errs = []
            for seed in range(3):
                schema = SkimmedSketchSchema(width, 7, DOMAIN, seed=seed)
                estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
                errs.append(join_error(estimate, actual))
            errors[width] = float(np.mean(errs))
        assert errors[512] < errors[32]

    def test_dyadic_and_flat_agree_on_final_estimate(self):
        """Both skim strategies feed the same estimator and should land
        near the same answer (they share no randomness, so compare to
        truth, not to each other)."""
        f, g = shifted_zipf_pair(DOMAIN, TOTAL, 1.2, 10)
        actual = f.join_size(g)
        flat = SkimmedSketchSchema(256, 7, DOMAIN, seed=5)
        dyadic = SkimmedSketchSchema(256, 7, DOMAIN, seed=5, dyadic=True)
        flat_est = flat.sketch_of(f).est_join_size(flat.sketch_of(g))
        dyadic_est = dyadic.sketch_of(f).est_join_size(dyadic.sketch_of(g))
        assert join_error(flat_est, actual) < 0.2
        assert join_error(dyadic_est, actual) < 0.2

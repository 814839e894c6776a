"""Remaining branch coverage across modules (error paths, small helpers)."""

from __future__ import annotations

import pytest

from repro.core.config import SketchParameters
from repro.errors import QueryError
from repro.eval.runner import SweepConfig
from repro.sketches.agms import AGMSSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.engine import StreamEngine
from repro.streams.model import FrequencyVector

DOMAIN = 256


class TestEngineErrorPaths:
    def test_synopsis_for_unknown_stream(self):
        engine = StreamEngine(DOMAIN, SketchParameters(16, 3))
        with pytest.raises(QueryError):
            engine.synopsis_for("ghost")

    def test_stream_stats_unknown_stream(self):
        engine = StreamEngine(DOMAIN, SketchParameters(16, 3))
        with pytest.raises(QueryError):
            engine.stream_stats("ghost")

    def test_repr_lists_streams(self):
        engine = StreamEngine(DOMAIN, SketchParameters(16, 3))
        engine.register_stream("f")
        assert "f" in repr(engine)


class TestIngestValidation:
    def test_hash_sketch_ingest_domain_mismatch(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        with pytest.raises(ValueError):
            sketch.ingest_frequency_vector(FrequencyVector.zeros(DOMAIN * 2))

    def test_agms_ingest_domain_mismatch_cached(self):
        schema = AGMSSchema(4, 3, DOMAIN, seed=0)
        schema.enable_projection_cache()
        with pytest.raises(ValueError):
            schema.create_sketch().ingest_frequency_vector(
                FrequencyVector.zeros(DOMAIN * 2)
            )

    def test_projection_cache_idempotent(self):
        schema = AGMSSchema(4, 3, DOMAIN, seed=1)
        schema.enable_projection_cache()
        schema.enable_projection_cache()  # second call is a no-op
        assert schema.projection_cache_enabled()

    def test_ingest_empty_vector_noop(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=2)
        sketch = schema.create_sketch()
        sketch.ingest_frequency_vector(FrequencyVector.zeros(DOMAIN))
        assert sketch.absolute_mass == 0.0


class TestSweepConfigEdges:
    def test_shapes_respect_tight_budget(self):
        config = SweepConfig(
            widths=(50, 100), depths=(11, 23), space_budgets=(600,)
        )
        assert config.shapes() == [(50, 11)]

    def test_budget_grid_unsorted_input_ok(self):
        config = SweepConfig(
            widths=(50,), depths=(11,), space_budgets=(2000, 600)
        )
        assert config.budget_of(50, 11) == 600


class TestSchemaReprs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: HashSketchSchema(16, 3, DOMAIN, seed=0),
            lambda: AGMSSchema(4, 3, DOMAIN, seed=0),
        ],
    )
    def test_repr_contains_shape(self, factory):
        text = repr(factory())
        assert str(DOMAIN) in text

"""Golden regression tests: seeded outputs pinned to exact values.

Every component is deterministic given its seed, so these tests freeze a
few end-to-end numbers.  If an intentional algorithm change moves them,
update the constants *in the same commit* — an unexplained drift here
means estimator behaviour changed silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AGMSSchema,
    DyadicSketchSchema,
    HashSketchSchema,
    SketchParameters,
    SkimmedSketchSchema,
    StreamEngine,
)
from repro.monitor import AUDIT
from repro.streams.generators import (
    census_like_pair,
    shifted_zipf_pair,
    zipf_frequencies,
)
from repro.workloads import build_workload

DOMAIN = 1 << 10


@pytest.fixture(scope="module")
def workload():
    return shifted_zipf_pair(DOMAIN, 10_000, 1.2, 7)


class TestGoldenValues:
    def test_zipf_workload_is_frozen(self, workload):
        f, g = workload
        assert f.total_count() == 10_000.0
        assert f.counts[0] == 2304.0  # deterministic generator, rank 1
        assert f.join_size(g) == 982447.0

    def test_hash_sketch_counters_checksum(self, workload):
        f, _ = workload
        sketch = HashSketchSchema(64, 5, DOMAIN, seed=0).sketch_of(f)
        assert float(np.abs(sketch.counters).sum()) == pytest.approx(
            36026.0, abs=1e-6
        )

    def test_hash_sketch_join_estimate_frozen(self, workload):
        f, g = workload
        schema = HashSketchSchema(64, 5, DOMAIN, seed=0)
        estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
        assert estimate == pytest.approx(939570.0, abs=1.0)

    def test_skimmed_estimate_frozen(self, workload):
        f, g = workload
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=0)
        estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
        assert estimate == pytest.approx(880090.0, abs=1.0)

    def test_agms_estimate_frozen(self, workload):
        f, g = workload
        schema = AGMSSchema(64, 5, DOMAIN, seed=0)
        estimate = schema.sketch_of(f).est_join_size(schema.sketch_of(g))
        assert estimate == pytest.approx(1140133.6875, abs=1.0)

    def test_census_generator_frozen(self):
        wage, overtime = census_like_pair(num_records=1_000, seed=0)
        assert wage.total_count() == 1_000.0
        assert overtime[0] == 653.0  # zero-overtime record count


# Smoke-scale schemas and seeds of the sketch-size and join-accuracy
# pins below.
UPDATE_DOMAIN, UPDATE_WIDTH, UPDATE_DEPTH, UPDATE_SEED = 1 << 12, 256, 7, 7
SKIM_DOMAIN, SKIM_WIDTH, SKIM_DEPTH, SKIM_SEED = 1 << 10, 128, 5, 11
JOIN_DOMAIN, JOIN_WIDTH, JOIN_DEPTH, JOIN_SEED = 1 << 10, 128, 5, 23
BYTES_PER_COUNTER = 8  # every counter array is float64


def _uniform_values(n: int) -> np.ndarray:
    rng = np.random.default_rng(UPDATE_SEED)
    return rng.integers(0, UPDATE_DOMAIN, n, dtype=np.int64)


def _zipf_values(n: int) -> np.ndarray:
    rng = np.random.default_rng(UPDATE_SEED)
    return rng.zipf(1.2, size=n).astype(np.int64) % UPDATE_DOMAIN


class TestSketchBytesFrozen:
    """Synopsis space at fixed schemas, measured after ingest."""

    @pytest.mark.parametrize(
        "schema_cls, n, values, expected",
        [
            (HashSketchSchema, 50_000, _uniform_values, 14336),
            (HashSketchSchema, 50_000, _zipf_values, 14336),
            (AGMSSchema, 2_000, _uniform_values, 14336),
            (DyadicSketchSchema, 50_000, _uniform_values, 43008),
        ],
        ids=["hash", "hash-zipf", "agms", "dyadic"],
    )
    def test_update_sketch_bytes(self, schema_cls, n, values, expected):
        sketch = schema_cls(
            UPDATE_WIDTH, UPDATE_DEPTH, UPDATE_DOMAIN, seed=UPDATE_SEED
        ).create_sketch()
        sketch.update_bulk(values(n))
        assert sketch.size_in_counters() * BYTES_PER_COUNTER == expected

    @pytest.mark.parametrize("dyadic", [False, True], ids=["flat", "dyadic"])
    def test_skimmed_sketch_bytes(self, dyadic):
        schema = SkimmedSketchSchema(
            SKIM_WIDTH, SKIM_DEPTH, SKIM_DOMAIN, seed=SKIM_SEED, dyadic=dyadic
        )
        sketch = schema.sketch_of(zipf_frequencies(SKIM_DOMAIN, 20_000, 1.0))
        sketch.skim()
        assert sketch.size_in_counters() * BYTES_PER_COUNTER == 5120

    @pytest.mark.parametrize(
        "family, expected",
        [
            ("skew_drift", 20480),
            ("delete_churn", 20480),
            ("filtered_subset_sum", 30720),
            ("join_correlated", 20480),
            ("join_anticorrelated", 20480),
        ],
    )
    def test_workload_engine_bytes(self, family, expected):
        instance = build_workload(family, seed=0)
        engine = StreamEngine(
            instance.domain_size,
            SketchParameters(width=256, depth=5),
            seed=101,
        )
        for name, predicate in instance.streams.items():
            engine.register_stream(name, predicate=predicate)
        for batch in instance.batches:
            engine.process_bulk(batch.stream, batch.values, batch.weights)
        assert engine.total_space_in_counters() * BYTES_PER_COUNTER == expected


class TestJoinAccuracyFrozen:
    """Figure 5's comparison at one matched budget (claim C1): on a
    shifted-Zipf pair, 640 counters per stream, the skimmed estimate beats
    basic AGMS, which beats the unskimmed hash-sketch estimate."""

    SCHEMAS = {
        "skimmed": SkimmedSketchSchema,
        "agms": AGMSSchema,
        "hash": HashSketchSchema,
    }
    ERRORS = {
        "skimmed": 0.08775609844306613,
        "agms": 0.12353291531798702,
        "hash": 0.3207338022820564,
    }

    @pytest.fixture(scope="class")
    def pair(self):
        return shifted_zipf_pair(JOIN_DOMAIN, 20_000, 1.0, 64)

    def _sketches(self, kind, pair):
        schema = self.SCHEMAS[kind](
            JOIN_WIDTH, JOIN_DEPTH, JOIN_DOMAIN, seed=JOIN_SEED
        )
        return schema.sketch_of(pair[0]), schema.sketch_of(pair[1])

    @staticmethod
    def _error(sf, sg, pair) -> float:
        exact = pair[0].join_size(pair[1])
        return abs(sf.est_join_size(sg) - exact) / exact

    @pytest.mark.parametrize("kind", list(SCHEMAS))
    def test_join_relative_error(self, kind, pair):
        sf, sg = self._sketches(kind, pair)
        assert sf.size_in_counters() * BYTES_PER_COUNTER == 5120
        assert self._error(sf, sg, pair) == pytest.approx(
            self.ERRORS[kind], abs=1e-12
        )

    def test_skimmed_beats_agms_beats_hash(self, pair):
        errors = {
            kind: self._error(*self._sketches(kind, pair), pair)
            for kind in self.SCHEMAS
        }
        assert errors["skimmed"] < errors["agms"] < errors["hash"]

    def test_audit_leaves_the_estimate_unchanged(self, pair):
        sf, sg = self._sketches("skimmed", pair)
        plain = sf.est_join_size(sg)
        AUDIT.enable()
        audited = sf.est_join_size(sg)
        assert len(AUDIT) == 1
        assert audited == plain
        assert sf.size_in_counters() * BYTES_PER_COUNTER == 5120

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


class TestNaNThresholds:
    """A NaN threshold or multiplier is rejected, not read as "skim nothing".

    Unchecked, ``x <= 0`` is false for NaN, every ``estimate >= NaN`` is
    false, and a join silently degrades to an unskimmed Fast-AGMS estimate.
    """

    @staticmethod
    def _flat():
        sketch = HashSketchSchema(64, 5, 256, seed=1).create_sketch()
        sketch.update_bulk(np.repeat(np.asarray([3, 7], dtype=np.int64), 100))
        return sketch

    @staticmethod
    def _dyadic():
        sketch = DyadicSketchSchema(64, 5, 256, seed=1).create_sketch()
        sketch.update_bulk(np.repeat(np.asarray([3, 7], dtype=np.int64), 100))
        return sketch

    @pytest.mark.parametrize(
        "entry",
        [
            "SketchParameters",
            "SkimmedSketchSchema",
            "default_threshold",
            "skim_dense",
            "skim_dense_dyadic",
            "skim_dense_dyadic_base",
            "heavy_values",
        ],
    )
    def test_nan_is_rejected(self, entry):
        from repro.core import skim
        from repro.core.config import SketchParameters
        from repro.errors import ParameterError

        nan = float("nan")
        calls = {
            "SketchParameters": lambda: SketchParameters(
                64, 5, threshold_multiplier=nan
            ),
            "SkimmedSketchSchema": lambda: SkimmedSketchSchema(
                64, 5, 256, threshold_multiplier=nan
            ),
            "default_threshold": lambda: skim.default_threshold(self._flat(), nan),
            "skim_dense": lambda: skim.skim_dense(self._flat(), nan),
            "skim_dense_dyadic": lambda: skim.skim_dense_dyadic(self._dyadic(), nan),
            "skim_dense_dyadic_base": lambda: skim.skim_dense_dyadic_base(
                self._dyadic(), nan
            ),
            "heavy_values": lambda: self._dyadic().heavy_values(nan),
        }
        with pytest.raises(ParameterError, match="positive"):
            calls[entry]()

    def test_infinite_threshold_still_extracts_nothing(self):
        sketch = self._flat()
        result, skimmed = skim_dense(sketch, float("inf"))
        assert result.dense_count == 0
        assert np.array_equal(skimmed.counters, sketch.counters)


class TestNonFiniteWeights:
    """A NaN or infinite weight, or one that would take the tracked
    ``sum(|w|)`` to 2**53 or more, is rejected before any counter moves.

    Unchecked, one NaN in a batch turns one counter per table NaN, and
    every later estimate silently becomes NaN; a weight of 1e300 makes
    the self-join estimate ``inf``, and weight 2**53 then 1 on one value
    reads back as 2**53.
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

    @pytest.mark.parametrize(
        "path", ["update", "update_bulk", "update_coalesced", "observed_mass"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 2.0**53])
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_rejected_and_nothing_changes(self, kind, bad, path):
        from repro.errors import ParameterError

        sketch = self.SCHEMAS[kind]().create_sketch()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = self._state(sketch)
        mass = sketch.absolute_mass
        values = np.asarray([1, 2, 3], dtype=np.int64)
        with pytest.raises(ParameterError):
            if path == "update":
                sketch.update(7, bad)
            elif path == "update_bulk":
                sketch.update_bulk(values, np.asarray([1.0, bad, 1.0]))
            elif path == "update_coalesced":
                sketch.update_coalesced(values, np.asarray([1.0, bad, 1.0]))
            else:
                sketch.update_coalesced(
                    values, np.asarray([1.0, 1.0, 1.0]), observed_mass=bad
                )
        after = self._state(sketch)
        assert sketch.absolute_mass == mass
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert np.array_equal(after[key], value), key


class TestNonIntegerValues:
    """Float and bool values are rejected before any counter moves.

    The ingest paths cast values to int64: unchecked, 1.5 and 2.7 would
    be ingested as 1 and 2, and True/False as 1/0.
    """

    SCHEMAS = TestNonFiniteWeights.SCHEMAS
    BAD = {
        "float": (3.9, np.asarray([1.5, 2.7])),
        "bool": (True, np.asarray([True, False, True])),
    }

    @staticmethod
    def _assert_unchanged(sketch, before, mass):
        from repro.sketches.serialize import sketch_state

        after = sketch_state(sketch)
        assert sketch.absolute_mass == mass
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert np.array_equal(after[key], value), key

    @pytest.mark.parametrize("path", ["update", "update_bulk"])
    @pytest.mark.parametrize("dtype", sorted(BAD))
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_rejected_and_nothing_changes(self, kind, dtype, path):
        from repro.errors import DomainError
        from repro.sketches.serialize import sketch_state

        sketch = self.SCHEMAS[kind]().create_sketch()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before, mass = sketch_state(sketch), sketch.absolute_mass
        scalar, batch = self.BAD[dtype]
        with pytest.raises(DomainError):
            if path == "update":
                sketch.update(scalar)
            else:
                sketch.update_bulk(batch)
        self._assert_unchanged(sketch, before, mass)

    @pytest.mark.parametrize("path", ["process", "process_bulk"])
    @pytest.mark.parametrize("dtype", sorted(BAD))
    def test_engine_rejects_and_nothing_changes(self, dtype, path):
        from repro.core.config import SketchParameters
        from repro.errors import DomainError
        from repro.sketches.serialize import sketch_state
        from repro.streams.engine import StreamEngine

        engine = StreamEngine(256, SketchParameters(width=64, depth=5), seed=1)
        engine.register_stream("f")
        engine.process_bulk("f", np.arange(0, 256, 3, dtype=np.int64))
        sketch = engine.synopsis_for("f")
        before, mass = sketch_state(sketch), sketch.absolute_mass
        stats = engine.stream_stats("f")
        scalar, batch = self.BAD[dtype]
        with pytest.raises(DomainError):
            if path == "process":
                engine.process("f", scalar)
            else:
                engine.process_bulk("f", batch)
        self._assert_unchanged(sketch, before, mass)
        assert engine.stream_stats("f") == stats

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_empty_batch_of_any_dtype_is_a_no_op(self, kind):
        sketch = self.SCHEMAS[kind]().create_sketch()
        sketch.update_bulk(np.asarray([]))
        sketch.update_bulk(np.asarray([], dtype=np.bool_))
        assert sketch.absolute_mass == 0.0


class TestMassCeiling:
    """Below the 2**53 ceiling on the tracked ``sum(|w|)``, integer-weight
    counters are exact; the batch that would reach it is rejected (see
    :class:`TestNonFiniteWeights` for every ingest path)."""

    SCHEMAS = {
        **TestNonFiniteWeights.SCHEMAS,
        "skimmed": lambda: SkimmedSketchSchema(64, 5, 256, seed=1),
    }
    CEILING = 2.0**53

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_just_below_the_ceiling_is_exact(self, kind):
        from repro.errors import ParameterError
        from repro.sketches.serialize import sketch_state

        sketch = self.SCHEMAS[kind]().create_sketch()
        sketch.update_bulk(
            np.asarray([7, 7], dtype=np.int64), np.asarray([self.CEILING - 2, 1.0])
        )
        assert sketch.absolute_mass == self.CEILING - 1
        for key, value in sketch_state(sketch).items():
            if key.startswith("counters"):
                assert np.abs(value).max() == self.CEILING - 1, key
        before = sketch_state(sketch)
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            sketch.update(7, 1.0)
        TestNonIntegerValues._assert_unchanged(sketch, before, self.CEILING - 1)


class TestMergeMassCeiling:
    """A merge keeps the 2**53 ceiling that every ingest path enforces:
    two sketches each below it cannot merge into one at or above it."""

    SCHEMAS = {
        "hash": lambda: HashSketchSchema(64, 5, 256, seed=1),
        "agms": lambda: AGMSSchema(16, 5, 256, seed=1),
        "skimmed": lambda: SkimmedSketchSchema(64, 5, 256, seed=1),
        "skimmed_dyadic": lambda: SkimmedSketchSchema(
            32, 5, 256, seed=1, dyadic=True
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_merge_past_the_ceiling_raises(self, kind):
        from repro.errors import ParameterError

        schema = self.SCHEMAS[kind]()
        left, right = schema.create_sketch(), schema.create_sketch()
        left.update(3, 2.0**52 + 1)
        right.update(9, 2.0**52 + 1)
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            left.merged_with(right)
        assert left.absolute_mass == right.absolute_mass == 2.0**52 + 1
        lighter = schema.create_sketch()
        lighter.update(9, 2.0**52 - 2)
        assert left.merged_with(lighter).absolute_mass == 2.0**53 - 1


class TestCancelledCoalescedBatch:
    """``update_coalesced`` keeps the observed mass of a batch that
    coalesced to nothing, as element-wise ingestion of it would."""

    @pytest.mark.parametrize("kind", sorted(TestNonFiniteWeights.SCHEMAS))
    def test_observed_mass_survives_full_cancellation(self, kind):
        schema = TestNonFiniteWeights.SCHEMAS[kind]()
        coalesced, elementwise = schema.create_sketch(), schema.create_sketch()
        for value, weight in [(3, 1.0), (3, -1.0), (5, 1.0), (5, -1.0)]:
            elementwise.update(value, weight)
        coalesced.update_coalesced([], [], observed_mass=4.0)
        assert elementwise.absolute_mass == 4.0
        assert coalesced.tracked_masses() == elementwise.tracked_masses()
        for ours, theirs in zip(
            coalesced.counters_view(), elementwise.counters_view()
        ):
            assert np.array_equal(ours, theirs)

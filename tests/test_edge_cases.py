"""Edge-case tests across modules: boundaries, degenerate inputs, and
behaviours that only show up at the extremes of the parameter space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.partitioned import (
    PartitionedAGMSSchema,
    PartitionedAGMSSketch,
    PartitionPlan,
)
from repro.core.estimator import SkimmedSketchSchema
from repro.core.skim import skim_dense
from repro.obs import capturing
from repro.sketches.agms import AGMSSchema
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.generators import shifted_frequencies, zipf_frequencies
from repro.streams.model import FrequencyVector
from repro.streams.windows import WindowedSketch, WindowedSketchSchema


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


#: The sketch kinds the older edge cases run on, by schema.
SCHEMAS = {
    "hash": lambda: HashSketchSchema(64, 5, 256, seed=1),
    "agms": lambda: AGMSSchema(16, 5, 256, seed=1),
    "dyadic": lambda: DyadicSketchSchema(32, 5, 256, seed=1),
}


def _partitioned():
    """Values 0-85, 86-170 and 171-255 route to partitions 0, 1 and 2."""
    plan = PartitionPlan(np.arange(256, dtype=np.int64) * 3 // 256, (4, 4, 4))
    return PartitionedAGMSSchema(plan, median=5, seed=1).create_sketch()


#: Every kind that accepts updates, over the domain [0, 256).
UPDATABLE = {
    "hash": lambda: SCHEMAS["hash"]().create_sketch(),
    "agms": lambda: SCHEMAS["agms"]().create_sketch(),
    "dyadic": lambda: SCHEMAS["dyadic"]().create_sketch(),
    "skimmed": lambda: SkimmedSketchSchema(64, 5, 256, seed=1).create_sketch(),
    "skimmed_dyadic": lambda: SkimmedSketchSchema(
        32, 5, 256, seed=1, dyadic=True
    ).create_sketch(),
    "windowed": lambda: WindowedSketchSchema(
        64, 5, 256, window_epochs=3, seed=1
    ).create_sketch(),
    "partitioned": _partitioned,
}

#: A batch whose first element is valid and whose bad second element
#: (weight or value) sits in another partition of ``_partitioned``.
BATCH = np.asarray([1, 200, 3], dtype=np.int64)


def _state(sketch) -> object:
    """All of a kind's state a rejected call must leave as it was, bit
    for bit: counters, tracked masses, epochs."""
    if isinstance(sketch, WindowedSketch):
        return [_state(epoch) for epoch in sketch._ring], sketch.current_epoch  # noqa: SLF001
    if isinstance(sketch, PartitionedAGMSSketch):
        return [_state(part) for part in sketch._partitions]  # noqa: SLF001
    return (
        [block.tobytes() for block in sketch.counters_view()],
        repr(sketch.tracked_masses()),
    )


def _rejections(metrics) -> int:
    return metrics.snapshot()["counters"].get("ingest.rejected", 0)


#: ``(kind, bad weight, path)``; ``update_coalesced`` is the hash sketch's.
WEIGHT_CASES = [
    pytest.param(kind, bad, path, id=f"{kind}-{bad}-{path}")
    for kind in sorted(UPDATABLE)
    for bad in [np.nan, np.inf, -np.inf, 1e300, 2.0**53]
    for path in (
        ["update", "update_bulk", "update_coalesced", "observed_mass"]
        if kind == "hash"
        else ["update", "update_bulk"]
    )
]


class TestNonFiniteWeights:
    """A NaN or infinite weight, or one that would take the tracked
    ``sum(|w|)`` to 2**53 or more, is rejected before any counter or
    mass moves, for every kind that accepts updates, and counts once in
    ``ingest.rejected``.

    Unchecked, one NaN in a batch turns one counter per table NaN, and
    every later estimate silently becomes NaN; a weight of 1e300 makes
    the self-join estimate ``inf``, and weight 2**53 then 1 on one value
    reads back as 2**53.
    """

    @pytest.mark.parametrize("kind,bad,path", WEIGHT_CASES)
    def test_rejected_and_nothing_changes(self, kind, bad, path):
        from repro.errors import ParameterError

        sketch = UPDATABLE[kind]()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = _state(sketch)
        with capturing() as metrics, pytest.raises(ParameterError):
            if path == "update":
                sketch.update(7, bad)
            elif path == "update_bulk":
                sketch.update_bulk(BATCH, np.asarray([1.0, bad, 1.0]))
            elif path == "update_coalesced":
                sketch.update_coalesced(BATCH, np.asarray([1.0, bad, 1.0]))
            else:
                sketch.update_coalesced(
                    BATCH, np.asarray([1.0, 1.0, 1.0]), observed_mass=bad
                )
        assert _state(sketch) == before
        assert _rejections(metrics) == 1

    @pytest.mark.parametrize("kind", ["dyadic", "hash"])
    @pytest.mark.parametrize("bad", ["nan", "float_value"])
    def test_subtract_frequencies_rejected_and_nothing_changes(self, kind, bad):
        """Skim-time subtraction is checked like an update: a NaN
        frequency would leave one NaN counter per table."""
        from repro.errors import DomainError, ParameterError

        sketch = UPDATABLE[kind]()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = _state(sketch)
        with capturing() as metrics:
            if bad == "nan":
                with pytest.raises(ParameterError):
                    sketch.subtract_frequencies(BATCH, np.asarray([1.0, np.nan, 1.0]))
            else:
                with pytest.raises(DomainError):
                    sketch.subtract_frequencies(
                        np.asarray([1.0, 2.5]), np.asarray([1.0, 1.0])
                    )
        assert _state(sketch) == before
        assert _rejections(metrics) == 1


class TestNonIntegerValues:
    """Float, bool and out-of-domain values are rejected before anything
    moves, and count once in ``ingest.rejected``.

    The ingest paths cast values to int64: unchecked, 1.5 and 2.7 would
    be ingested as 1 and 2, and True/False as 1/0.
    """

    BAD = {
        "float": (3.9, np.asarray([1.5, 2.7])),
        "bool": (True, np.asarray([True, False, True])),
        "negative": (-1, np.asarray([1, -1])),
        "past_domain": (256, np.asarray([1, 256])),
    }

    @pytest.mark.parametrize("path", ["update", "update_bulk"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("kind", sorted(UPDATABLE))
    def test_rejected_and_nothing_changes(self, kind, bad, path):
        from repro.errors import DomainError

        sketch = UPDATABLE[kind]()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = _state(sketch)
        scalar, batch = self.BAD[bad]
        with capturing() as metrics, pytest.raises(DomainError):
            if path == "update":
                sketch.update(scalar)
            else:
                sketch.update_bulk(batch)
        assert _state(sketch) == before
        assert _rejections(metrics) == 1

    @pytest.mark.parametrize("shape", ["scalar", "matrix"])
    @pytest.mark.parametrize("kind", sorted(UPDATABLE))
    def test_misshapen_batch_rejected_and_nothing_changes(self, kind, shape):
        """A batch is a 1-D array: a bare scalar, or a 2-D array with one
        weight per row, is refused by the check, not by a later kernel."""
        from repro.errors import ParameterError

        sketch = UPDATABLE[kind]()
        sketch.update_bulk(np.arange(0, 256, 3, dtype=np.int64))
        before = _state(sketch)
        with capturing() as metrics, pytest.raises(ParameterError):
            if shape == "scalar":
                sketch.update_bulk(np.int64(5))
            else:
                sketch.update_bulk(np.asarray([[1, 2], [3, 4]]), np.ones(2))
        assert _state(sketch) == before
        assert _rejections(metrics) == 1

    @pytest.mark.parametrize("path", ["process", "process_bulk"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_engine_rejects_and_nothing_changes(self, bad, path):
        from repro.core.config import SketchParameters
        from repro.errors import DomainError
        from repro.streams.engine import StreamEngine

        engine = StreamEngine(256, SketchParameters(width=64, depth=5), seed=1)
        engine.register_stream("f")
        engine.process_bulk("f", np.arange(0, 256, 3, dtype=np.int64))
        sketch = engine.synopsis_for("f")
        before, stats = _state(sketch), engine.stream_stats("f")
        scalar, batch = self.BAD[bad]
        with capturing() as metrics, pytest.raises(DomainError):
            if path == "process":
                engine.process("f", scalar)
            else:
                engine.process_bulk("f", batch)
        assert _state(sketch) == before
        assert engine.stream_stats("f") == stats
        assert _rejections(metrics) == 1

    @pytest.mark.parametrize("kind", sorted(UPDATABLE))
    def test_empty_batch_of_any_dtype_is_a_no_op(self, kind):
        sketch = UPDATABLE[kind]()
        sketch.update_bulk(np.asarray([]))
        sketch.update_bulk(np.asarray([], dtype=np.bool_))
        assert _state(sketch) == _state(UPDATABLE[kind]())


class TestSeedWords:
    """Every kind that accepts updates keeps hash/sign seeds and reports
    them; a composite reports what its parts hold."""

    @pytest.mark.parametrize("kind", sorted(UPDATABLE))
    def test_reported_and_positive(self, kind):
        assert UPDATABLE[kind]().seed_words() > 0

    def test_partitioned_sums_its_partitions(self):
        sketch = _partitioned()
        parts = sketch._partitions  # noqa: SLF001
        assert len(parts) == 3
        assert sketch.seed_words() == sum(part.seed_words() for part in parts)


class TestMassCeiling:
    """Below the 2**53 ceiling on the tracked ``sum(|w|)``, integer-weight
    counters are exact; the batch that would reach it is rejected (see
    :class:`TestNonFiniteWeights` for every ingest path)."""

    SCHEMAS = {
        **SCHEMAS,
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
        before = _state(sketch)
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            sketch.update(7, 1.0)
        assert _state(sketch) == before

    @pytest.mark.parametrize("dyadic", [False, True], ids=["flat", "dyadic"])
    def test_skimmed_answer_past_half_the_ceiling(self, dyadic):
        """A skim subtracts mass the sketch already counts, so it is held
        to finiteness, not to the ceiling: a sketch of 2**52 + 1 on one
        value (N plus the skimmed sum(|fhat|) passes 2**53) answers with
        that value squared, and nothing counts as rejected."""
        big = 2.0**52 + 1
        schema = SkimmedSketchSchema(64, 5, 256, seed=1, dyadic=dyadic)
        sketch, other = schema.create_sketch(), schema.create_sketch()
        sketch.update(3, big)
        other.update(3, 1.0)
        with capturing() as metrics:
            assert sketch.est_self_join_size() == big**2
            assert sketch.est_join_size(other) == big
        assert _rejections(metrics) == 0

    def test_engine_self_join_past_half_the_ceiling(self):
        """The same through the engine's ``SelfJoinQuery``."""
        from repro import SketchParameters, StreamEngine
        from repro.streams.query import SelfJoinQuery

        engine = StreamEngine(256, SketchParameters(width=64, depth=5), seed=1)
        engine.register_stream("f")
        engine.process("f", 3, 2.0**52 + 1)
        with capturing() as metrics:
            assert engine.answer(SelfJoinQuery("f")) == (2.0**52 + 1) ** 2
        assert _rejections(metrics) == 0


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
    """A batch that coalesces to nothing keeps its observed mass, as
    element-wise ingestion of it would: through ``update_bulk`` (which
    the dyadic hierarchy coalesces) and the hash sketch's
    ``update_coalesced``."""

    CANCELLING = [(3, 1.0), (3, -1.0), (5, 1.0), (5, -1.0)]

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_observed_mass_survives_full_cancellation(self, kind):
        schema = SCHEMAS[kind]()
        coalesced, elementwise = schema.create_sketch(), schema.create_sketch()
        for value, weight in self.CANCELLING:
            elementwise.update(value, weight)
        if kind == "hash":
            coalesced.update_coalesced([], [], observed_mass=4.0)
        else:
            values, weights = zip(*self.CANCELLING)
            coalesced.update_bulk(np.asarray(values), np.asarray(weights))
        assert elementwise.absolute_mass == 4.0
        assert coalesced.tracked_masses() == elementwise.tracked_masses()
        for ours, theirs in zip(
            coalesced.counters_view(), elementwise.counters_view()
        ):
            assert np.array_equal(ours, theirs)

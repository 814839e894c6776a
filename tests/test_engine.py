"""Tests for the stream query-processing engine (Figure 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SketchParameters
from repro.errors import ParameterError, QueryError
from repro.obs import capturing
from repro.streams.engine import StreamEngine
from repro.streams.generators import shifted_zipf_pair
from repro.streams.model import Update
from repro.streams.query import (
    MultiJoinCountQuery,
    JoinAverageQuery,
    JoinCountQuery,
    JoinSumQuery,
    PointQuery,
    RangePredicate,
    SelfJoinQuery,
)

DOMAIN = 1 << 12
PARAMS = SketchParameters(width=256, depth=7)


def make_engine(synopsis="skimmed", **kwargs):
    return StreamEngine(DOMAIN, PARAMS, synopsis=synopsis, seed=5, **kwargs)


class TestRegistration:
    def test_register_and_list(self):
        engine = make_engine()
        engine.register_stream("f")
        engine.register_stream("g")
        assert engine.streams() == ["f", "g"]

    def test_duplicate_rejected(self):
        engine = make_engine()
        engine.register_stream("f")
        with pytest.raises(QueryError):
            engine.register_stream("f")

    def test_unknown_stream_rejected(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.process("nope", 1)

    def test_unknown_synopsis_kind(self):
        with pytest.raises(ValueError):
            StreamEngine(DOMAIN, PARAMS, synopsis="magic")

    def test_total_space(self):
        engine = make_engine()
        engine.register_stream("f")
        engine.register_stream("g")
        assert engine.total_space_in_counters() == 2 * 256 * 7


class TestMaintenanceAndPredicates:
    def test_predicate_drops_elements(self):
        engine = make_engine()
        engine.register_stream("f", predicate=RangePredicate(0, 100))
        engine.process("f", 50)
        engine.process("f", 200)
        seen, dropped = engine.stream_stats("f")
        assert (seen, dropped) == (2, 1)

    def test_predicate_applies_to_bulk(self):
        engine = make_engine()
        engine.register_stream("f", predicate=RangePredicate(0, 10))
        engine.process_bulk("f", np.asarray([5, 15, 7, 25]))
        seen, dropped = engine.stream_stats("f")
        assert (seen, dropped) == (4, 2)

    def test_process_many(self):
        engine = make_engine()
        engine.register_stream("f")
        engine.process_many("f", [Update(1), Update(2, -1.0)])
        seen, _ = engine.stream_stats("f")
        assert seen == 2

    def test_process_many_chunking_matches_single_bulk(self):
        chunked = make_engine(synopsis="hash")
        whole = make_engine(synopsis="hash")
        rng = np.random.default_rng(17)
        values = rng.integers(0, DOMAIN, size=1000, dtype=np.int64)
        for engine in (chunked, whole):
            engine.register_stream("f", predicate=RangePredicate(0, DOMAIN // 2))
        chunked.process_many(
            "f", (Update(int(v)) for v in values), chunk_size=64
        )
        whole.process_bulk("f", values)
        assert np.array_equal(
            chunked.synopsis_for("f").counters, whole.synopsis_for("f").counters
        )
        assert chunked.stream_stats("f") == whole.stream_stats("f")

    def test_process_many_rejects_bad_chunk_size(self):
        engine = make_engine()
        engine.register_stream("f")
        with pytest.raises(ParameterError):
            engine.process_many("f", [Update(1)], chunk_size=0)

    @pytest.mark.parametrize("synopsis", ["skimmed", "agms", "hash"])
    def test_rejected_input_is_not_counted(self, synopsis):
        """A batch or element the synopsis rejects leaves ``stream_stats``
        and the engine counters as they were."""
        engine = make_engine(synopsis)
        engine.register_stream("f")
        engine.process_bulk("f", np.arange(10))
        with capturing() as registry:
            with pytest.raises(ParameterError):
                engine.process_bulk(
                    "f", np.asarray([1, 2, 3]), np.asarray([1.0, np.nan, 1.0])
                )
            with pytest.raises(ParameterError):
                engine.process("f", 5, np.inf)
        assert engine.stream_stats("f") == (10, 0)
        counters = registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("engine.")]

    def test_bulk_all_dropped_is_noop(self):
        engine = make_engine()
        engine.register_stream("f", predicate=RangePredicate(0, 1))
        engine.process_bulk("f", np.asarray([5, 6]))
        assert engine.synopsis_for("f").absolute_mass == 0.0


@pytest.mark.parametrize("synopsis", ["skimmed", "agms", "hash"])
class TestJoinQueriesAllSynopses:
    def test_join_count(self, synopsis):
        # Mild skew: this checks engine wiring for every synopsis kind, not
        # estimator quality (quality comparisons live in test_skimmed_join
        # and the benchmarks, where basic AGMS is *expected* to do poorly).
        engine = make_engine(synopsis)
        engine.register_stream("f")
        engine.register_stream("g")
        f, g = shifted_zipf_pair(DOMAIN, 50_000, 0.7, 10)
        engine.synopsis_for("f").ingest_frequency_vector(f)
        engine.synopsis_for("g").ingest_frequency_vector(g)
        answer = engine.answer(JoinCountQuery("f", "g"))
        assert answer == pytest.approx(f.join_size(g), rel=0.35)

    def test_self_join(self, synopsis):
        engine = make_engine(synopsis)
        engine.register_stream("f")
        f, _ = shifted_zipf_pair(DOMAIN, 50_000, 0.7, 0)
        engine.synopsis_for("f").ingest_frequency_vector(f)
        answer = engine.answer(SelfJoinQuery("f"))
        assert answer == pytest.approx(f.self_join_size(), rel=0.35)


class TestAggregateQueries:
    def test_join_sum_reduction(self):
        """SUM over a measure = COUNT against the measure-weighted stream."""
        engine = make_engine()
        for name in ("f", "f_measure", "g"):
            engine.register_stream(name)
        # Stream F: value 7 appears twice, with measures 10 and 20.
        for measure in (10.0, 20.0):
            engine.process("f", 7)
            engine.process("f_measure", 7, measure)
        # Stream G: value 7 appears 3 times.
        for _ in range(3):
            engine.process("g", 7)
        answer = engine.answer(JoinSumQuery("f", "g", "f_measure"))
        assert answer == pytest.approx(3 * (10.0 + 20.0), rel=0.05)

    def test_join_average(self):
        engine = make_engine()
        for name in ("f", "f_measure", "g"):
            engine.register_stream(name)
        for measure in (10.0, 30.0):
            engine.process("f", 7)
            engine.process("f_measure", 7, measure)
        for _ in range(4):
            engine.process("g", 7)
        answer = engine.answer(JoinAverageQuery("f", "g", "f_measure"))
        assert answer == pytest.approx(20.0, rel=0.05)

    def test_average_of_empty_join_rejected(self):
        engine = make_engine()
        for name in ("f", "f_measure", "g"):
            engine.register_stream(name)
        with pytest.raises(QueryError):
            engine.answer(JoinAverageQuery("f", "g", "f_measure"))

    def test_point_query(self):
        engine = make_engine()
        engine.register_stream("f")
        for _ in range(9):
            engine.process("f", 3)
        assert engine.answer(PointQuery("f", 3)) == pytest.approx(9.0)

    def test_point_query_rejected_on_agms(self):
        engine = make_engine("agms")
        engine.register_stream("f")
        with pytest.raises(QueryError):
            engine.answer(PointQuery("f", 3))

    def test_unsupported_query_type(self):
        engine = make_engine()

        class Weird:
            pass

        with pytest.raises(QueryError):
            engine.answer(Weird())  # type: ignore[arg-type]


class TestMultiJoinRelations:
    def make_multijoin_engine(self):
        return StreamEngine(
            DOMAIN,
            SketchParameters(width=64, depth=11),
            synopsis="skimmed",
            seed=8,
            attribute_domains={"a": 64, "b": 64},
        )

    def test_requires_attribute_domains(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.register_relation("r", ("a",))

    def test_chain_join_count(self):
        engine = self.make_multijoin_engine()
        engine.register_relation("r1", ("a",))
        engine.register_relation("r2", ("a", "b"))
        engine.register_relation("r3", ("b",))
        for _ in range(5):
            engine.process_tuple("r1", (7,))
        engine.process_tuple("r2", (7, 9))
        for _ in range(3):
            engine.process_tuple("r3", (9,))
        answer = engine.answer(
            MultiJoinCountQuery(relations=("r1", "r2", "r3"))
        )
        assert answer == pytest.approx(15.0, rel=0.4)

    def test_duplicate_relation_name_rejected(self):
        engine = self.make_multijoin_engine()
        engine.register_relation("r1", ("a",))
        with pytest.raises(QueryError):
            engine.register_relation("r1", ("b",))

    def test_name_clash_with_stream_rejected(self):
        engine = self.make_multijoin_engine()
        engine.register_stream("f")
        with pytest.raises(QueryError):
            engine.register_relation("f", ("a",))

    def test_unknown_relation_rejected(self):
        engine = self.make_multijoin_engine()
        with pytest.raises(QueryError):
            engine.process_tuple("nope", (1,))
        engine.register_relation("r1", ("a",))
        engine.register_relation("r2", ("a",))
        with pytest.raises(QueryError):
            engine.answer(MultiJoinCountQuery(relations=("r1", "missing")))

    def test_query_needs_two_relations(self):
        with pytest.raises(QueryError):
            MultiJoinCountQuery(relations=("solo",))

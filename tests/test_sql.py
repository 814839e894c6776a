"""Tests for the SQL-subset front-end (§2.1 query class as text)."""

from __future__ import annotations

import pytest

from repro.core.config import SketchParameters
from repro.errors import QueryError
from repro.streams.engine import StreamEngine
from repro.streams.query import (
    JoinAverageQuery,
    JoinCountQuery,
    JoinSumQuery,
    MultiJoinCountQuery,
    PointQuery,
    RangePredicate,
    SelfJoinQuery,
)
from repro.streams.sql import ParsedQuery, parse_query, tokenize

DOMAIN = 1 << 10


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Count ( * ) from f")
        assert [t.text for t in tokens if t.kind == "keyword"] == [
            "SELECT",
            "COUNT",
            "FROM",
        ]

    def test_operators(self):
        tokens = tokenize("a <= 5 AND b != 3")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<=", "!="]

    def test_rejects_junk(self):
        with pytest.raises(QueryError):
            tokenize("SELECT @")


class TestParseAggregates:
    def test_join_count(self):
        parsed = parse_query("SELECT COUNT(*) FROM f JOIN g")
        assert parsed.query == JoinCountQuery("f", "g")
        assert parsed.predicates == {}

    def test_self_join(self):
        parsed = parse_query("SELECT COUNT(*) FROM f JOIN f")
        assert parsed.query == SelfJoinQuery("f")

    def test_multi_join(self):
        parsed = parse_query("SELECT COUNT(*) FROM r1 JOIN r2 JOIN r3")
        assert parsed.query == MultiJoinCountQuery(relations=("r1", "r2", "r3"))

    def test_sum(self):
        parsed = parse_query("SELECT SUM(f_rev) FROM f JOIN g")
        assert parsed.query == JoinSumQuery("f", "g", measure_stream="f_rev")

    def test_avg(self):
        parsed = parse_query("SELECT AVG(f_rev) FROM f JOIN g")
        assert parsed.query == JoinAverageQuery("f", "g", measure_stream="f_rev")

    def test_freq(self):
        parsed = parse_query("SELECT FREQ(42) FROM f")
        assert parsed.query == PointQuery("f", 42)

    def test_count_requires_join(self):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(*) FROM f")

    def test_sum_requires_exactly_two(self):
        with pytest.raises(QueryError):
            parse_query("SELECT SUM(m) FROM a JOIN b JOIN c")

    def test_freq_single_stream_only(self):
        with pytest.raises(QueryError):
            parse_query("SELECT FREQ(1) FROM f JOIN g")


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "COUNT(*) FROM f JOIN g",
            "SELECT COUNT(*) f JOIN g",
            "SELECT COUNT(f) FROM f JOIN g",
            "SELECT MAX(*) FROM f JOIN g",
            "SELECT COUNT(*) FROM f JOIN g extra",
            "SELECT COUNT(*) FROM f JOIN g WHERE f <",
            "SELECT COUNT(*) FROM f JOIN g WHERE < 3",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestWhereClauses:
    def test_range_conditions_compile_to_range_predicate(self):
        parsed = parse_query(
            "SELECT COUNT(*) FROM f JOIN g WHERE f >= 10 AND f < 100"
        )
        assert parsed.predicates["f"] == RangePredicate(10, 100)

    def test_le_and_gt(self):
        parsed = parse_query("SELECT COUNT(*) FROM f JOIN g WHERE f <= 9 AND f > 2")
        assert parsed.predicates["f"] == RangePredicate(3, 10)

    def test_conditions_split_per_stream(self):
        parsed = parse_query(
            "SELECT COUNT(*) FROM f JOIN g WHERE f < 50 AND g >= 5"
        )
        assert set(parsed.predicates) == {"f", "g"}

    def test_equality_conditions(self):
        parsed = parse_query("SELECT COUNT(*) FROM f JOIN g WHERE f = 7")
        predicate = parsed.predicates["f"]
        assert predicate.accepts(7)
        assert not predicate.accepts(8)

    def test_not_equal(self):
        parsed = parse_query("SELECT COUNT(*) FROM f JOIN g WHERE f != 7 AND f < 10")
        predicate = parsed.predicates["f"]
        assert predicate.accepts(6)
        assert not predicate.accepts(7)
        assert not predicate.accepts(11)

    def test_unsatisfiable_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(*) FROM f JOIN g WHERE f < 5 AND f > 9")


class TestEngineIntegration:
    def make_engine(self):
        return StreamEngine(
            DOMAIN, SketchParameters(width=128, depth=7), seed=3
        )

    def test_answer_sql_end_to_end(self):
        engine = self.make_engine()
        engine.register_stream("f")
        engine.register_stream("g")
        for _ in range(20):
            engine.process("f", 7)
        for _ in range(5):
            engine.process("g", 7)
        answer = engine.answer_sql("SELECT COUNT(*) FROM f JOIN g")
        assert answer == pytest.approx(100.0, rel=0.1)

    def test_prepare_sql_registers_streams_with_predicates(self):
        engine = self.make_engine()
        parsed = engine.prepare_sql(
            "SELECT COUNT(*) FROM f JOIN g WHERE f < 100"
        )
        assert isinstance(parsed, ParsedQuery)
        assert set(engine.streams()) == {"f", "g"}
        engine.process("f", 50)
        engine.process("f", 500)  # dropped by the WHERE predicate
        seen, dropped = engine.stream_stats("f")
        assert (seen, dropped) == (2, 1)
        engine.process("g", 50)
        assert engine.answer(parsed.query) == pytest.approx(1.0, abs=0.5)

    def test_answer_sql_rejects_where(self):
        engine = self.make_engine()
        engine.register_stream("f")
        engine.register_stream("g")
        with pytest.raises(QueryError):
            engine.answer_sql("SELECT COUNT(*) FROM f JOIN g WHERE f < 5")

    def test_prepare_sql_rejects_predicate_on_live_stream(self):
        engine = self.make_engine()
        engine.register_stream("f")
        with pytest.raises(QueryError):
            engine.prepare_sql("SELECT COUNT(*) FROM f JOIN g WHERE f < 5")

    def test_prepare_sql_reuses_existing_streams(self):
        engine = self.make_engine()
        engine.register_stream("f")
        parsed = engine.prepare_sql("SELECT COUNT(*) FROM f JOIN g")
        assert set(engine.streams()) == {"f", "g"}
        assert parsed.predicates == {}

    def test_sum_query_via_sql(self):
        engine = self.make_engine()
        for name in ("f", "f_rev", "g"):
            engine.register_stream(name)
        engine.process("f", 7)
        engine.process("f_rev", 7, 30.0)
        engine.process("g", 7)
        engine.process("g", 7)
        answer = engine.answer_sql("SELECT SUM(f_rev) FROM f JOIN g")
        assert answer == pytest.approx(60.0, rel=0.1)

    def test_freq_via_sql(self):
        engine = self.make_engine()
        engine.register_stream("f")
        for _ in range(9):
            engine.process("f", 3)
        assert engine.answer_sql("SELECT FREQ(3) FROM f") == pytest.approx(9.0)
"""Unit, CLI and end-to-end tests for the ``repro.trace`` span tracer."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro.trace
from repro.trace import (
    TRACER,
    Span,
    SpanTracer,
    capturing,
    read_trace_jsonl,
    render_summary,
    summarize_trace,
    trace_from_jsonl,
    trace_origins,
    trace_to_chrome,
    trace_to_jsonl,
    validate_trace,
    write_trace_chrome,
    write_trace_jsonl,
)
from repro.trace.__main__ import main as trace_main


class TestSpanTracer:
    def test_disabled_records_nothing_and_yields_none(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("skim", kind="flat") as sp:
            assert sp is None
        tracer.instant("sketch.update")
        assert tracer.spans() == []

    def test_nesting_and_parent_links(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.instant("tick")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["tick"].parent_id == spans["inner"].span_id
        assert tracer.children_of(outer) == [spans["inner"]]
        assert inner.duration >= 0
        # Completion order: children recorded before parents.
        assert [s.name for s in tracer.spans()] == ["tick", "inner", "outer"]

    def test_attributes_and_set(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("skim", kind="flat", threshold=12.5) as sp:
            sp.set(dense=3)
        (span,) = tracer.find("skim")
        assert span.attributes == {"kind": "flat", "threshold": 12.5, "dense": 3}

    def test_scope_stamps_origin_on_spans_and_instants(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("local"):
            with tracer.scope("site.a"):
                with tracer.span("round"):
                    tracer.instant("mark")
                with tracer.span("explicit", origin="other"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["round"].attributes == {"origin": "site.a"}
        assert spans["mark"].attributes == {"origin": "site.a"}
        assert spans["explicit"].attributes == {"origin": "other"}
        assert spans["local"].attributes == {}
        assert spans["round"].parent_id == spans["local"].span_id

    def test_max_spans_bounds_memory(self):
        tracer = SpanTracer(enabled=True, max_spans=2)
        for _ in range(5):
            tracer.instant("e")
        assert tracer.span_count() == 2
        assert tracer.dropped == 3
        assert tracer.snapshot()["dropped"] == 3

    def test_reset_restarts_ids_and_epoch(self):
        tracer = SpanTracer(enabled=True)
        tracer.instant("a")
        tracer.reset()
        tracer.instant("b")
        (span,) = tracer.spans()
        assert span.span_id == 1
        assert span.start < 1.0  # epoch restarted at reset

    def test_exception_still_closes_span(self):
        tracer = SpanTracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.find("boom")
        assert span.end >= span.start
        # The stack unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id is None

    def test_capturing_scopes_enablement(self):
        assert not TRACER.enabled
        with capturing() as tracer:
            tracer.instant("inside")
        assert not TRACER.enabled
        assert [s.name for s in TRACER.spans()] == ["inside"]

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)


class TestWireFormats:
    def _sample(self) -> dict:
        tracer = SpanTracer(enabled=True)
        with tracer.span("estimate.skim_join", s1=128, s2=5):
            with tracer.span("skim", kind="flat"):
                pass
            tracer.instant("estimate.term", term="dense_dense")
        return tracer.snapshot()

    def test_jsonl_round_trip(self):
        snap = self._sample()
        assert trace_from_jsonl(trace_to_jsonl(snap)) == snap

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        snap = self._sample()
        write_trace_jsonl(str(path), snap)
        assert read_trace_jsonl(str(path)) == snap
        # Header is the first line; spans follow one per line.
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "repro.trace"
        assert len(lines) == 1 + len(snap["spans"])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.pop("version"),
            lambda s: s.update(kind="wrong"),
            lambda s: s.update(dropped=-1),
            lambda s: s.pop("spans"),
            lambda s: s["spans"][0].pop("name"),
            lambda s: s["spans"][0].update(id=0),
            lambda s: s["spans"][1].update(id=s["spans"][0]["id"]),
            lambda s: s["spans"][0].update(parent=999),
            lambda s: s["spans"][0].update(end=s["spans"][0]["start"] - 1),
            lambda s: s["spans"][0].update(attrs=[]),
        ],
    )
    def test_validate_rejects_malformed(self, mutate):
        snap = json.loads(trace_to_jsonl(self._sample()).splitlines()[0])
        snap["spans"] = self._sample()["spans"]
        mutate(snap)
        with pytest.raises(ValueError):
            validate_trace(snap)

    def test_forward_parent_reference_is_valid(self):
        # Children are recorded before parents, so a parent id later in
        # the list is the normal case, not an error.
        snap = self._sample()
        child_indices = [
            i for i, s in enumerate(snap["spans"]) if s["parent"] is not None
        ]
        assert child_indices, "sample must contain nested spans"
        assert validate_trace(snap) is snap

    def test_chrome_conversion_shape(self):
        chrome = trace_to_chrome(self._sample())
        events = chrome["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"estimate.skim_join", "skim"}
        assert instants[0]["name"] == "estimate.term"
        assert instants[0]["s"] == "t"
        for event in complete:
            assert event["dur"] > 0
            assert event["ts"] >= 0
            assert event["cat"] == event["name"].split(".")[0]
            assert "span_id" in event["args"]
        assert json.dumps(chrome)  # fully serialisable

    def test_summary_aggregates(self):
        tracer = SpanTracer(enabled=True)
        for _ in range(3):
            with tracer.span("skim"):
                pass
        rows = summarize_trace(tracer.snapshot())
        (row,) = rows
        assert row["count"] == 3
        assert row["mean"] == pytest.approx(row["total"] / 3)
        text = render_summary(rows)
        assert "skim" in text and "count" in text


class TestSpanStitching:
    def test_chrome_export_gives_each_origin_a_lane(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("dist.merge_round"):
            for origin in ("site.a", "site.b"):
                with tracer.scope(origin):
                    with tracer.span("dist.round", site=origin):
                        with tracer.span("dist.ingest"):
                            pass
        snapshot = tracer.snapshot()
        assert trace_origins(snapshot) == ["site.a", "site.b"]
        chrome = trace_to_chrome(snapshot)
        events = chrome["traceEvents"]
        # Local lane is pid 1 and its process_name metadata leads.
        assert events[0]["ph"] == "M" and events[0]["pid"] == 1
        pids = {e["pid"] for e in events}
        assert pids == {1, 2, 3}
        by_origin = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert by_origin["repro origin: site.a"] == 2
        assert by_origin["repro origin: site.b"] == 3
        # The scoped round spans sit in their origin's lane.
        for event in events:
            if event["ph"] == "X" and event["name"] == "dist.round":
                assert event["pid"] in (2, 3)


class TestTraceCLI:
    def _write_sample(self, path: pathlib.Path) -> None:
        tracer = SpanTracer(enabled=True)
        with tracer.span("engine.answer", query="JoinSizeQuery"):
            with tracer.span("skim", kind="dyadic"):
                pass
        write_trace_jsonl(str(path), tracer.snapshot())

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_sample(path)
        assert trace_main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 99}\n')
        assert trace_main(["validate", str(bad)]) == 1
        assert trace_main(["validate", str(tmp_path / "missing.jsonl")]) == 1

    def test_convert_produces_loadable_chrome_json(self, tmp_path):
        src = tmp_path / "t.jsonl"
        dst = tmp_path / "t.chrome.json"
        self._write_sample(src)
        assert trace_main(["convert", str(src), str(dst)]) == 0
        chrome = json.loads(dst.read_text())
        assert {e["name"] for e in chrome["traceEvents"]} >= {
            "engine.answer",
            "skim",
        }

    def test_summarize(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_sample(path)
        assert trace_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.answer" in out and "skim" in out


class TestEndToEnd:
    """ISSUE acceptance: one traced ``StreamEngine.answer()`` produces the
    full nested span tree and converts to a loadable Perfetto trace."""

    def _traced_answer(self):
        from repro.core.config import SketchParameters
        from repro.streams.engine import StreamEngine
        from repro.streams.query import JoinCountQuery

        engine = StreamEngine(
            domain_size=1 << 10,
            parameters=SketchParameters(width=64, depth=5),
            seed=3,
        )
        engine.register_stream("f")
        engine.register_stream("g")
        rng = np.random.default_rng(7)
        # Skewed streams: three values with frequency 1000 sit well above
        # the skim threshold N/sqrt(width) = 5000/8, so both skims extract
        # dense values and the sparse terms run their median boosting.
        heavy = np.repeat(np.array([3, 5, 9]), 1000)
        for stream in ("f", "g"):
            tail = rng.integers(0, 1 << 10, 2_000)
            engine.process_bulk(stream, np.concatenate([heavy, tail]))
        with capturing() as tracer:
            engine.answer(JoinCountQuery("f", "g"))
        return tracer.snapshot()

    def test_answer_emits_nested_query_path_spans(self):
        snap = self._traced_answer()
        validate_trace(snap)
        by_name: dict[str, list[dict]] = {}
        for span in snap["spans"]:
            by_name.setdefault(span["name"], []).append(span)

        (answer,) = by_name["engine.answer"]
        assert answer["parent"] is None
        assert answer["attrs"]["query"] == "JoinCountQuery"
        assert "estimate" in answer["attrs"]

        (skim_join,) = by_name["estimate.skim_join"]
        assert skim_join["parent"] == answer["id"]
        assert skim_join["attrs"]["s1"] == 64
        assert skim_join["attrs"]["s2"] == 5

        # Both streams' sketches get skimmed under the join estimate.
        assert len(by_name["skim"]) == 2
        for skim in by_name["skim"]:
            assert skim["parent"] == skim_join["id"]
            assert skim["attrs"]["kind"] == "flat"
            assert skim["attrs"]["threshold"] > 0

        # All four ESTSKIMJOINSIZE sub-join terms, in the paper's order.
        terms = [s for s in by_name["estimate.term"] if s["parent"] == skim_join["id"]]
        assert [t["attrs"]["term"] for t in terms] == [
            "dense_dense",
            "dense_sparse",
            "sparse_dense",
            "sparse_sparse",
        ]

        # Per-table median boosting happens under the sparse terms.
        term_ids = {t["id"] for t in terms}
        boosts = by_name["estimate.median_boost"]
        assert boosts
        for boost in boosts:
            assert boost["parent"] in term_ids
            assert boost["attrs"]["tables"] == 5
            assert "median" in boost["attrs"]

    def test_traced_answer_converts_to_perfetto(self, tmp_path):
        snap = self._traced_answer()
        path = tmp_path / "answer.chrome.json"
        write_trace_chrome(str(path), snap)
        chrome = json.loads(path.read_text())
        assert chrome["traceEvents"], "trace must contain events"
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"engine.answer", "estimate.skim_join", "skim", "estimate.term"} <= names

    def test_ingest_and_sql_spans(self):
        from repro.core.config import SketchParameters
        from repro.streams.engine import StreamEngine

        engine = StreamEngine(
            domain_size=256,
            parameters=SketchParameters(width=32, depth=3),
            seed=1,
        )
        engine.register_stream("f")
        engine.register_stream("g")
        with capturing() as tracer:
            engine.process("f", 7)
            engine.process_bulk("g", np.arange(10))
            engine.answer_sql("SELECT COUNT(*) FROM f JOIN g")
        names = [s.name for s in tracer.spans()]
        assert names.count("engine.ingest") == 2
        assert "engine.sql" in names
        (sql,) = tracer.find("engine.sql")
        assert "JOIN" in sql.attributes["sql"]

    def test_distributed_round_trip_spans(self):
        from repro.core import SkimmedSketchSchema
        from repro.distributed.coordinator import SketchCoordinator
        from repro.distributed.site import SketchSite

        schema = SkimmedSketchSchema(32, 3, 256, seed=2)
        site = SketchSite("site-a", schema, ["f"])
        coordinator = SketchCoordinator(schema)
        site.observe_bulk("f", np.arange(50))
        with capturing() as tracer:
            reports = site.close_round()
            coordinator.receive_all(reports)
        names = [s.name for s in tracer.spans()]
        assert "dist.round" in names
        assert "dist.merge_round" in names
        assert "dist.receive" in names
        (round_span,) = tracer.find("dist.round")
        assert round_span.attributes["site"] == "site-a"
        assert round_span.attributes["bytes"] > 0
        (receive,) = tracer.find("dist.receive")
        assert receive.attributes["bytes"] > 0


class TestImportCost:
    """`repro.trace` must stay importable without heavy dependencies."""

    def test_trace_does_not_import_numpy(self):
        # 'trace' collides with the stdlib module of the same name, so
        # import the package via importlib with an explicit location.
        code = (
            "import importlib.util, pathlib, sys; "
            "pkg = pathlib.Path({path!r}) / 'trace' / '__init__.py'; "
            "spec = importlib.util.spec_from_file_location('repro_trace', pkg); "
            "mod = importlib.util.module_from_spec(spec); "
            "sys.modules['repro_trace'] = mod; "
            "spec.loader.exec_module(mod); "
            "assert 'numpy' not in sys.modules, 'repro.trace must not import numpy'"
        ).format(path=str(pathlib.Path(repro.trace.__file__).parent.parent))
        subprocess.run([sys.executable, "-c", code], check=True)

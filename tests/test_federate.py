"""Tests for ``repro.federate`` — per-origin telemetry.

Covers: the wire schema (validate / JSON round-trip), per-origin exports
read from metrics and tracer scopes, the merge algebra (hypothesis
property tests on integer counters), per-origin Perfetto lanes, the
multi-source federation scraper with its Prometheus exposition and
topology document, the monitor server's federated endpoints, the CLI,
attribution for sites sharing one process, and the three-site
end-to-end run (origin-prefixed coordinator metrics, one trace with a
lane per site, trace-context propagation).
"""

from __future__ import annotations

import json
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SkimmedSketchSchema
from repro.distributed import (
    SketchCoordinator,
    SketchReport,
    SketchSite,
    TraceContext,
)
from repro.federate import (
    DEFAULT_SPAN_BATCH,
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    FederatedSource,
    empty_telemetry,
    export_telemetry,
    federation_from_args,
    merge_all_telemetry,
    merge_telemetry,
    telemetry_from_json,
    telemetry_to_json,
    telemetry_to_metrics,
    validate_telemetry,
)
from repro.federate.__main__ import main as federate_main
from repro.monitor.service import MonitorServer, parse_prometheus
from repro.obs import METRICS
from repro.obs.registry import MetricsRegistry
from repro.trace import TRACER
from repro.trace.export import trace_origins, trace_to_chrome
from repro.trace.tracer import SpanTracer

DOMAIN = 1 << 10


def make_schema(seed=0):
    return SkimmedSketchSchema(64, 5, DOMAIN, seed=seed)


def fresh_pair() -> tuple[MetricsRegistry, SpanTracer]:
    """A private, enabled registry + tracer (no global singleton state)."""
    return MetricsRegistry(enabled=True), SpanTracer(enabled=True)


@contextmanager
def scoped(registry: MetricsRegistry, tracer: SpanTracer, origin: str):
    """Both scopes for ``origin``, as a site enters them."""
    with registry.scope(origin), tracer.scope(origin):
        yield


def snapshot_for(origin: str, counters: dict[str, int], seq: int = 0) -> dict:
    doc = empty_telemetry(origin, seq)
    doc["counters"] = {k: float(v) for k, v in counters.items()}
    return doc


# ---------------------------------------------------------------------------
# wire schema
# ---------------------------------------------------------------------------


class TestWireSchema:
    def test_empty_snapshot_validates(self):
        doc = empty_telemetry("site.a")
        assert validate_telemetry(doc) is doc
        assert doc["version"] == TELEMETRY_VERSION
        assert doc["kind"] == TELEMETRY_KIND

    def test_envelope_with_the_retired_pulses_section_validates(self):
        # Envelopes written before the pulses section was retired.
        legacy = dict(empty_telemetry("site.a"), pulses={})
        assert validate_telemetry(legacy) is legacy
        assert "pulses" not in merge_telemetry(legacy, empty_telemetry("site.b"))

    def test_json_round_trip_is_identity(self):
        registry, tracer = fresh_pair()
        with scoped(registry, tracer, "site.a"):
            registry.count("a.updates", 3)
            registry.gauge("a.level", 7.5)
            registry.observe("a.lat", 0.25)
            with tracer.span("round", site="a"):
                tracer.instant("mark")
        doc = export_telemetry("site.a", registry, tracer)
        assert doc["counters"] == {"a.updates": 3.0}
        assert len(doc["spans"]) == 2
        assert telemetry_from_json(telemetry_to_json(doc)) == doc

    def test_size_matches_compact_encoding(self):
        doc = empty_telemetry("site.a")
        assert telemetry_to_json(doc) == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("version"),
            lambda d: d.__setitem__("version", 99),
            lambda d: d.__setitem__("kind", "bogus"),
            lambda d: d.__setitem__("origin", ""),
            lambda d: d.__setitem__("counters", [1, 2]),
            lambda d: d.__setitem__("gauges", {"g": [1.0]}),
            lambda d: d.__setitem__("spans", [{"id": 1}, {"id": 1}]),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = empty_telemetry("site.a")
        mutate(doc)
        with pytest.raises(ValueError):
            validate_telemetry(doc)

    def test_to_metrics_summarises_histograms(self):
        registry, tracer = fresh_pair()
        with registry.scope("o"):
            for i in range(10):
                registry.observe("lat", float(i))
        metrics = telemetry_to_metrics(export_telemetry("o", registry, tracer))
        summary = metrics["histograms"]["lat"]
        assert summary["count"] == 10
        assert summary["min"] == 0.0
        assert summary["max"] == 9.0
        assert summary["mean"] == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# per-origin export
# ---------------------------------------------------------------------------


class TestExport:
    def test_export_carries_only_its_origin(self):
        registry, tracer = fresh_pair()
        registry.count("updates", 100)
        with tracer.span("local"):
            for origin, amount in (("site.a", 5), ("site.b", 7)):
                with scoped(registry, tracer, origin):
                    registry.count("updates", amount)
                    registry.gauge("level", amount)
                    with tracer.span("dist.round"):
                        tracer.instant("mark")
        doc = export_telemetry("site.b", registry, tracer)
        assert doc["origin"] == "site.b"
        assert doc["counters"] == {"updates": 7.0}
        assert doc["gauges"]["level"][0] == 7.0
        assert [s["name"] for s in doc["spans"]] == ["mark", "dist.round"]
        assert {s["attrs"]["origin"] for s in doc["spans"]} == {"site.b"}
        assert "pulses" not in doc

    def test_export_holds_cumulative_totals(self):
        registry, tracer = fresh_pair()
        with registry.scope("o"):
            registry.count("updates", 5)
        assert export_telemetry("o", registry, tracer)["counters"] == {"updates": 5.0}
        with registry.scope("o"):
            registry.count("updates", 2)
        assert export_telemetry("o", registry, tracer)["counters"] == {"updates": 7.0}

    def test_idle_origin_exports_nothing(self):
        registry, tracer = fresh_pair()
        registry.count("updates", 5)
        with tracer.span("round"):
            pass
        doc = export_telemetry("site.idle", registry, tracer)
        assert doc == empty_telemetry("site.idle")

    def test_span_batch_is_bounded(self):
        registry, tracer = fresh_pair()
        with tracer.scope("o"):
            for i in range(DEFAULT_SPAN_BATCH + 2):
                tracer.instant("tick", i=i)
        doc = export_telemetry("o", registry, tracer)
        assert len(doc["spans"]) == DEFAULT_SPAN_BATCH
        assert doc["spans_dropped"] == 2
        assert doc["spans"][-1]["attrs"]["i"] == DEFAULT_SPAN_BATCH + 1


# ---------------------------------------------------------------------------
# merge algebra (property tests)
# ---------------------------------------------------------------------------


counter_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=1_000_000),
    max_size=4,
)


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(counter_maps, counter_maps)
    def test_counter_merge_commutes(self, x, y):
        a = snapshot_for("site.a", x)
        b = snapshot_for("site.b", y)
        ab = merge_telemetry(a, b)
        ba = merge_telemetry(b, a)
        assert ab["counters"] == ba["counters"]
        assert ab["origin"] == ba["origin"] == "site.a+site.b"

    @settings(max_examples=50, deadline=None)
    @given(counter_maps, counter_maps, counter_maps)
    def test_counter_merge_associates(self, x, y, z):
        a = snapshot_for("site.a", x)
        b = snapshot_for("site.b", y)
        c = snapshot_for("site.c", z)
        left = merge_telemetry(merge_telemetry(a, b), c)
        right = merge_telemetry(a, merge_telemetry(b, c))
        assert left["counters"] == right["counters"]
        assert left["origin"] == right["origin"]

    def test_gauges_take_last_write_by_timestamp(self):
        a = snapshot_for("site.a", {})
        b = snapshot_for("site.b", {})
        a["gauges"] = {"level": [1.0, 100.0]}
        b["gauges"] = {"level": [2.0, 50.0]}
        assert merge_telemetry(a, b)["gauges"]["level"] == [1.0, 100.0]
        assert merge_telemetry(b, a)["gauges"]["level"] == [1.0, 100.0]

    def test_histograms_merge_count_and_sum(self):
        a = snapshot_for("site.a", {})
        b = snapshot_for("site.b", {})
        a["histograms"] = {
            "lat": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0, "samples": [1.0, 2.0]}
        }
        b["histograms"] = {
            "lat": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0, "samples": [5.0]}
        }
        merged = merge_telemetry(a, b)["histograms"]["lat"]
        assert merged["count"] == 3
        assert merged["sum"] == 8.0
        assert merged["min"] == 1.0
        assert merged["max"] == 5.0

    def test_merge_all_folds_left(self):
        docs = [snapshot_for(f"site.{i}", {"a": i}) for i in range(1, 4)]
        merged = merge_all_telemetry(docs)
        assert merged["counters"]["a"] == 6.0
        with pytest.raises(ValueError):
            merge_all_telemetry([])


# ---------------------------------------------------------------------------
# Perfetto lanes
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# federation scraper + monitor endpoints
# ---------------------------------------------------------------------------


def _write_origin_files(tmp_path) -> list[str]:
    specs = []
    for origin, counters in (
        ("site.a", {"dist.rounds.closed": 2, "dist.bytes.sent": 100}),
        ("site.b", {"dist.rounds.closed": 3, "dist.bytes.sent": 250}),
    ):
        doc = snapshot_for(origin, counters)
        path = tmp_path / f"{origin}.json"
        path.write_text(telemetry_to_json(doc))
        specs.append(f"{origin}={path}")
    return specs


class TestFederatedSource:
    def test_prometheus_labels_every_origin(self, tmp_path):
        federation = federation_from_args(_write_origin_files(tmp_path))
        text = federation.prometheus(prefix="repro")
        samples = dict(parse_prometheus(text))
        assert samples['repro_federation_up{origin="site.a"}'] == 1.0
        assert samples['repro_federation_up{origin="site.b"}'] == 1.0
        assert (
            samples['repro_dist_rounds_closed_total{origin="site.a"}'] == 2.0
        )
        assert (
            samples['repro_dist_rounds_closed_total{origin="site.b"}'] == 3.0
        )

    def test_topology_reports_health_and_traffic(self, tmp_path):
        federation = federation_from_args(_write_origin_files(tmp_path))
        topo = federation.topology()
        assert topo["kind"] == "repro.topology"
        row = topo["origins"]["site.b"]
        assert row["ok"] is True
        assert row["rounds"] == 3.0
        assert row["bytes"] == 250.0

    def test_down_origin_is_reported_not_fatal(self, tmp_path):
        specs = _write_origin_files(tmp_path) + [
            f"site.gone={tmp_path}/missing.json"
        ]
        federation = federation_from_args(specs)
        text = federation.prometheus()
        samples = dict(parse_prometheus(text))
        assert samples['repro_federation_up{origin="site.gone"}'] == 0.0
        assert federation.topology()["origins"]["site.gone"]["ok"] is False

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            federation_from_args(["no-equals-sign"])
        with pytest.raises(ValueError):
            federation_from_args(["a=x.json", "a=y.json"])

    def test_monitor_serves_federated_metrics_and_topology(self, tmp_path):
        from repro.monitor.service import file_source

        federation = federation_from_args(_write_origin_files(tmp_path))
        source = file_source(None, None, None, None)
        with MonitorServer(source, port=0, federation=federation) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                body = resp.read().decode()
            assert 'origin="site.a"' in body and 'origin="site.b"' in body
            with urllib.request.urlopen(f"{server.url}/topology") as resp:
                topo = json.loads(resp.read().decode())
            assert set(topo["origins"]) == {"site.a", "site.b"}
            with urllib.request.urlopen(f"{server.url}/dashboard") as resp:
                dashboard = resp.read().decode()
            assert "Federated origins" in dashboard


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_selfcheck_passes(self, capsys):
        assert federate_main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_validate_and_merge_round_trip(self, tmp_path, capsys):
        paths = []
        for i, origin in enumerate(("site.a", "site.b")):
            doc = snapshot_for(origin, {"updates": 10 * (i + 1)})
            path = tmp_path / f"{origin}.json"
            path.write_text(telemetry_to_json(doc))
            paths.append(str(path))
        assert federate_main(["validate", *paths]) == 0
        out_path = tmp_path / "merged.json"
        assert federate_main(["merge", *paths, "--out", str(out_path)]) == 0
        merged = validate_telemetry(json.loads(out_path.read_text()))
        assert merged["counters"]["updates"] == 30.0
        assert merged["origin"] == "site.a+site.b"

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "telemetry"}')
        assert federate_main(["validate", str(bad)]) == 1

    def test_run_checks_per_origin_attribution(self, tmp_path, capsys):
        argv = ["run", "--sites", "2", "--rounds", "2", "--updates", "50"]
        assert federate_main([*argv, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok - attribution: 400 of 400 ingested updates" in out
        doc = validate_telemetry(
            json.loads((tmp_path / "telemetry.site.edge-1.json").read_text())
        )
        assert doc["counters"]["sketch.update.elements"] == 200.0


# ---------------------------------------------------------------------------
# attribution for sites sharing one process
# ---------------------------------------------------------------------------


class TestPerOriginAttribution:
    def test_sites_sharing_a_process_keep_their_own_telemetry(self, rng):
        """Two sites in one process, no singleton reset between them: only
        site a ingests, then both close one round."""
        schema = make_schema()
        site_a = SketchSite("a", schema, streams=["R"])
        site_b = SketchSite("b", schema, streams=["R"])
        coordinator = SketchCoordinator(schema)
        METRICS.enable()
        TRACER.enable()
        site_a.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        context = coordinator.mint_trace_context()
        coordinator.receive_all(
            site_a.close_round(context) + site_b.close_round(context)
        )

        by_origin = coordinator.telemetry_by_origin()
        b = by_origin["site.b"]["counters"]
        assert b["dist.rounds.closed"] == 1.0
        assert b["dist.reports.sent"] == 1.0
        assert not any(name.startswith("sketch.update.") for name in b)
        assert "dist.bytes.received" not in b
        assert by_origin["site.a"]["counters"]["sketch.update.elements"] == 100.0
        assert "sketch.update.elements" not in METRICS.snapshot()["counters"]

        rounds = TRACER.find("dist.round")
        assert sorted(s.attributes["origin"] for s in rounds) == ["site.a", "site.b"]
        assert len(TRACER.find("sketch.update_bulk")) == 1


# ---------------------------------------------------------------------------
# end-to-end acceptance: three sites, one coordinator, one process
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def _run_fleet(self, rng, rounds=2, sites=3):
        """Every site and the coordinator share this process and its
        singletons; the sites' scopes keep their telemetry apart."""
        schema = make_schema()
        fleet = [
            SketchSite(f"edge-{i}", schema, streams=["R", "S"]) for i in range(sites)
        ]
        coordinator = SketchCoordinator(schema)
        METRICS.enable()
        TRACER.enable()
        contexts = []
        for _ in range(rounds):
            context = coordinator.mint_trace_context()
            contexts.append(context)
            batch = []
            for site in fleet:
                for stream in ("R", "S"):
                    site.observe_bulk(
                        stream,
                        rng.integers(0, DOMAIN, size=200, dtype="int64"),
                    )
                batch.extend(site.close_round(context))
            coordinator.receive_all(batch)
        return fleet, coordinator, contexts

    def test_coordinator_metrics_carry_per_origin_counters(self, rng):
        self._run_fleet(rng)
        snapshot = METRICS.snapshot()
        for i in range(3):
            assert (
                snapshot["counters"][f"site.edge-{i}.dist.rounds.closed"] == 2.0
            )
            assert (
                snapshot["counters"][f"site.edge-{i}.dist.reports.sent"] == 4.0
            )
        # The coordinator's own counters coexist, unprefixed.
        assert snapshot["counters"]["dist.reports.received"] == 12.0

    def test_single_stitched_trace_with_per_site_lanes(self, rng):
        self._run_fleet(rng)
        snapshot = TRACER.snapshot()
        origins = trace_origins(snapshot)
        assert origins == [f"site.edge-{i}" for i in range(3)]
        chrome = trace_to_chrome(snapshot)
        events = chrome["traceEvents"]
        lanes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len({lanes[f"repro origin: site.edge-{i}"] for i in range(3)}) == 3
        # Site round spans sit in their own lanes, outside the
        # coordinator's merge rounds, and share a merge round's trace_id.
        merge_rounds = TRACER.find("dist.merge_round")
        site_rounds = TRACER.find("dist.round")
        assert len(merge_rounds) == 2 and len(site_rounds) == 6
        assert all("origin" not in s.attributes for s in merge_rounds)
        merge_ids = {s.attributes["trace_id"] for s in merge_rounds}
        for span in site_rounds:
            assert span.parent_id is None
            assert span.attributes["trace_id"] in merge_ids

    def test_trace_context_propagates_to_reports_and_spans(self, rng):
        fleet, coordinator, contexts = self._run_fleet(rng, rounds=1)
        assert contexts[0].trace_id == "fleet-round-000001"
        site_rounds = TRACER.find("dist.round")
        assert all(
            s.attributes["trace_id"] == contexts[0].trace_id for s in site_rounds
        )
        merge_round = TRACER.find("dist.merge_round")[0]
        assert merge_round.attributes["trace_id"] == contexts[0].trace_id

    def test_telemetry_accumulates_per_origin(self, rng):
        _, coordinator, _ = self._run_fleet(rng)
        by_origin = coordinator.telemetry_by_origin()
        assert sorted(by_origin) == [f"site.edge-{i}" for i in range(3)]
        for doc in by_origin.values():
            assert doc["counters"]["dist.rounds.closed"] == 2.0
            assert doc["counters"]["sketch.update.elements"] == 800.0
            assert len(doc["spans"]) > 0

    def test_estimates_unaffected_by_telemetry(self, rng):
        _, coordinator, _ = self._run_fleet(rng)
        assert coordinator.est_self_join_size("R") > 0

    def test_disabled_singletons_ship_nothing(self, rng):
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"])
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        coordinator = SketchCoordinator(schema)
        coordinator.receive_all(site.close_round())
        doc = coordinator.telemetry_by_origin()["site.edge-0"]
        assert doc == empty_telemetry("site.edge-0")
        assert METRICS.snapshot()["counters"] == {}
        assert TRACER.spans() == []

    def test_plain_reports_still_interoperate(self, rng):
        """Senders without a trace context still merge."""
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"])
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        reports = site.close_round()
        assert all(r.trace_context is None for r in reports)
        coordinator = SketchCoordinator(schema)
        summary = coordinator.receive_all(reports)
        assert summary.reports_merged == 1

"""Tests for distributed sketch collection (sites -> coordinator), and
for per-origin telemetry when every site shares the coordinator's
process."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.estimator import SkimmedSketchSchema
from repro.distributed import (
    ProtocolError,
    SketchCoordinator,
    SketchReport,
    SketchSite,
)
from repro.errors import IncompatibleSketchError, QueryError
from repro.obs import METRICS, capturing
from repro.sketches.serialize import SerializationError, sketch_state
from repro.streams.generators import shifted_zipf_pair
from repro.trace import TRACER
from repro.trace import capturing as capturing_spans
from repro.trace.export import trace_origins, trace_to_chrome

DOMAIN = 1 << 11


def make_schema(seed=0):
    return SkimmedSketchSchema(128, 7, DOMAIN, seed=seed)


def split_counts(counts: np.ndarray, parts: int, seed: int) -> list[np.ndarray]:
    """Randomly split integer counts into ``parts`` non-negative shares."""
    rng = np.random.default_rng(seed)
    remaining = counts.astype(np.int64).copy()
    shares = []
    for part in range(parts - 1):
        draw = rng.binomial(remaining, 1.0 / (parts - part))
        shares.append(draw.astype(np.float64))
        remaining -= draw
    shares.append(remaining.astype(np.float64))
    return shares


class TestSketchSite:
    def test_validation(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            SketchSite("s", schema, [])
        with pytest.raises(ValueError):
            SketchSite("s", schema, ["f", "f"])
        with pytest.raises(ValueError):
            SketchSite("s", schema, ["f"], mode="telepathy")

    def test_unknown_stream_rejected(self):
        site = SketchSite("s", make_schema(), ["f"])
        with pytest.raises(QueryError):
            site.observe("g", 1)
        with pytest.raises(QueryError):
            site.observe_bulk("g", np.asarray([1]))

    def test_close_round_emits_one_report_per_stream(self):
        site = SketchSite("edge1", make_schema(), ["f", "g"])
        site.observe("f", 3)
        reports = site.close_round()
        assert {r.stream for r in reports} == {"f", "g"}
        assert all(r.site == "edge1" and r.round_number == 1 for r in reports)
        assert all(r.size_in_bytes() > 0 for r in reports)

    def test_delta_mode_resets_after_report(self):
        site = SketchSite("edge1", make_schema(), ["f"], mode="delta")
        site.observe("f", 3, 5.0)
        first = site.close_round()[0].open_sketch()
        assert first.absolute_mass == 5.0
        second = site.close_round()[0].open_sketch()
        assert second.absolute_mass == 0.0

    def test_cumulative_mode_keeps_history(self):
        site = SketchSite("edge1", make_schema(), ["f"])
        site.observe("f", 3)
        site.close_round()
        site.observe("f", 3)
        latest = site.close_round()[0].open_sketch()
        assert latest.absolute_mass == 2.0


class TestCoordinator:
    def test_merged_estimate_matches_centralised(self):
        """The headline property: distribution introduces zero extra error."""
        schema = make_schema(seed=3)
        f, g = shifted_zipf_pair(DOMAIN, 30_000, 1.2, 10)

        # Centralised reference.
        central_f = schema.sketch_of(f)
        central_g = schema.sketch_of(g)
        central_estimate = central_f.est_join_size(central_g)

        # Three sites each see a random share of the traffic.
        coordinator = SketchCoordinator(schema)
        f_shares = split_counts(f.counts, 3, seed=1)
        g_shares = split_counts(g.counts, 3, seed=2)
        for index, (f_share, g_share) in enumerate(zip(f_shares, g_shares)):
            site = SketchSite(f"site{index}", schema, ["f", "g"])
            site.observe_bulk("f", np.flatnonzero(f_share), f_share[f_share > 0])
            site.observe_bulk("g", np.flatnonzero(g_share), g_share[g_share > 0])
            coordinator.receive_all(site.close_round())

        assert coordinator.est_join_size("f", "g") == pytest.approx(
            central_estimate
        )

    def test_cumulative_reports_replace(self):
        schema = make_schema()
        coordinator = SketchCoordinator(schema)
        site = SketchSite("edge1", schema, ["f"])
        site.observe("f", 5)
        coordinator.receive_all(site.close_round())
        site.observe("f", 5)
        coordinator.receive_all(site.close_round())
        # Cumulative: the second report (2 updates) replaces the first.
        assert coordinator.point_estimate("f", 5) == pytest.approx(2.0)

    def test_delta_reports_add(self):
        schema = make_schema()
        coordinator = SketchCoordinator(schema, delta_sites={"edge1"})
        site = SketchSite("edge1", schema, ["f"], mode="delta")
        site.observe("f", 5)
        coordinator.receive_all(site.close_round())
        site.observe("f", 5)
        coordinator.receive_all(site.close_round())
        assert coordinator.point_estimate("f", 5) == pytest.approx(2.0)

    def test_stale_report_rejected(self):
        schema = make_schema()
        coordinator = SketchCoordinator(schema)
        site = SketchSite("edge1", schema, ["f"])
        reports = site.close_round()
        coordinator.receive_all(reports)
        with pytest.raises(ProtocolError):
            coordinator.receive(reports[0])  # replayed round

    def test_incompatible_schema_rejected(self):
        coordinator = SketchCoordinator(make_schema(seed=1))
        rogue_site = SketchSite("rogue", make_schema(seed=2), ["f"])
        with pytest.raises(IncompatibleSketchError):
            coordinator.receive_all(rogue_site.close_round())

    def test_malformed_report_rejected_and_counted(self):
        """A report whose counters are not finite is refused before it
        reaches the merge, so the fleet's answer stays what it was."""
        schema = make_schema()
        coordinator = SketchCoordinator(schema)
        site = SketchSite("edge1", schema, ["f", "g"])
        site.observe_bulk("f", np.asarray([3] * 20 + [9] * 20))
        site.observe_bulk("g", np.asarray([3] * 40))
        reports = site.close_round()
        coordinator.receive_all(reports)
        before = coordinator.est_join_size("f", "g")
        state = sketch_state(reports[0].open_sketch())
        state["counters"][0, 0] = np.nan
        payload = io.BytesIO()
        np.savez_compressed(payload, **state)
        bad = SketchReport("edge1", "f", 2, payload.getvalue())
        with capturing() as metrics, capturing_spans() as tracer:
            with pytest.raises(SerializationError):
                coordinator.receive(bad)
        assert coordinator.est_join_size("f", "g") == before == 800.0
        assert metrics.snapshot()["counters"]["dist.reports.rejected"] == 1
        (span,) = tracer.find("dist.receive")
        assert span.attributes["rejected"] == "malformed"

    def test_unknown_stream_query_rejected(self):
        coordinator = SketchCoordinator(make_schema())
        with pytest.raises(QueryError):
            coordinator.global_sketch("ghost")

    def test_round_summary_and_stats(self):
        schema = make_schema()
        coordinator = SketchCoordinator(schema)
        site = SketchSite("edge1", schema, ["f", "g"])
        summary = coordinator.receive_all(site.close_round())
        assert summary.round_number == 1
        assert summary.streams == ("f", "g")
        assert summary.sites_reporting == ("edge1",)
        assert summary.bytes_received > 0
        reports, received = coordinator.communication_stats()
        assert reports == 2
        assert received == summary.bytes_received

    def test_self_join_and_sites_listing(self):
        schema = make_schema()
        coordinator = SketchCoordinator(schema)
        site = SketchSite("edge1", schema, ["f"])
        site.observe_bulk("f", np.asarray([3] * 10))
        coordinator.receive_all(site.close_round())
        assert coordinator.sites_for("f") == ["edge1"]
        assert coordinator.est_self_join_size("f") == pytest.approx(100.0)


class TestTraceContext:
    def test_wire_round_trip(self):
        from repro.distributed import TraceContext

        context = TraceContext(trace_id="fleet-round-000007", round_number=7)
        assert TraceContext.from_dict(context.as_dict()) == context

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"trace_id": "", "round_number": 1},
            {"trace_id": "x", "round_number": -1},
            {"trace_id": "x", "round_number": "1"},
        ],
    )
    def test_malformed_context_rejected(self, doc):
        from repro.distributed import TraceContext

        with pytest.raises(ProtocolError):
            TraceContext.from_dict(doc)

    def test_coordinator_mints_sequential_ids(self):
        from repro.distributed import SketchCoordinator

        coordinator = SketchCoordinator(make_schema())
        first = coordinator.mint_trace_context()
        second = coordinator.mint_trace_context()
        assert first.trace_id == "fleet-round-000001"
        assert (second.trace_id, second.round_number) == ("fleet-round-000002", 2)
        explicit = coordinator.mint_trace_context(round_number=42)
        assert explicit.round_number == 42

    def test_reports_echo_minted_context(self):
        from repro.distributed import SketchCoordinator

        schema = make_schema()
        site = SketchSite("a", schema, streams=["R", "S"])
        coordinator = SketchCoordinator(schema)
        site.observe("R", 5)
        context = coordinator.mint_trace_context()
        reports = site.close_round(context)
        assert all(r.trace_context == context.as_dict() for r in reports)
        coordinator.receive_all(reports)  # context-carrying reports merge fine

    def test_legacy_report_shape_still_accepted(self):
        """Reports built without a trace context interoperate."""
        schema = make_schema()
        site = SketchSite("a", schema, streams=["R"])
        site.observe("R", 5)
        report = site.close_round()[0]
        assert report.trace_context is None
        legacy = SketchReport(
            site=report.site,
            stream=report.stream,
            round_number=report.round_number,
            payload=report.payload,
        )
        coordinator = SketchCoordinator(schema)
        summary = coordinator.receive_all([legacy])
        assert summary.reports_merged == 1


def origin_counters(snapshot: dict, origin: str) -> dict[str, float]:
    """The counters ``origin``'s scope recorded, under their bare names."""
    prefix = f"{origin}."
    return {
        name[len(prefix) :]: value
        for name, value in snapshot["counters"].items()
        if name.startswith(prefix)
    }


class TestPerOriginTelemetry:
    """Sites record inside their own ``METRICS``/``TRACER`` scopes, so the
    process-wide singletons keep each site's telemetry apart."""

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

        snapshot = METRICS.snapshot()
        b = origin_counters(snapshot, "site.b")
        assert b["dist.rounds.closed"] == 1.0
        assert b["dist.reports.sent"] == 1.0
        assert not any(name.startswith("sketch.update.") for name in b)
        assert "dist.bytes.received" not in b
        assert origin_counters(snapshot, "site.a")["sketch.update.elements"] == 100.0
        assert "sketch.update.elements" not in snapshot["counters"]

        rounds = TRACER.find("dist.round")
        assert sorted(s.attributes["origin"] for s in rounds) == ["site.a", "site.b"]
        assert len(TRACER.find("sketch.update_bulk")) == 1

    def _run_fleet(self, rng, rounds=2, sites=3, updates=200):
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
                        rng.integers(0, DOMAIN, size=updates, dtype="int64"),
                    )
                batch.extend(site.close_round(context))
            coordinator.receive_all(batch)
        return fleet, coordinator, contexts

    def test_every_ingested_update_is_attributed_to_its_site(self, rng):
        fleet, _, _ = self._run_fleet(rng, rounds=2, sites=3, updates=500)
        snapshot = METRICS.snapshot()
        origins = [site.origin for site in fleet]
        assert snapshot["origins"] == origins == [f"site.edge-{i}" for i in range(3)]
        ingested = len(fleet) * 2 * 2 * 500
        attributed = sum(
            origin_counters(snapshot, origin)["sketch.update.elements"]
            for origin in origins
        )
        assert attributed == ingested == 6000
        assert METRICS.counter_value("sketch.update.elements") == 0.0
        # One Perfetto trace: the local lane plus one lane per site.
        chrome = trace_to_chrome(TRACER.snapshot())
        pids = {
            event["pid"]
            for event in chrome["traceEvents"]
            if event.get("ph") in ("X", "i")
        }
        assert len(pids) == 4

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
        self._run_fleet(rng)
        snapshot = METRICS.snapshot()
        origins = [f"site.edge-{i}" for i in range(3)]
        assert snapshot["origins"] == origins
        for origin in origins:
            counters = origin_counters(snapshot, origin)
            assert counters["dist.rounds.closed"] == 2.0
            assert counters["sketch.update.elements"] == 800.0
            assert any(s.attributes.get("origin") == origin for s in TRACER.spans())

    def test_estimates_unaffected_by_telemetry(self, rng):
        _, coordinator, _ = self._run_fleet(rng)
        assert coordinator.est_self_join_size("R") > 0

    def test_disabled_singletons_record_nothing(self, rng):
        schema = make_schema()
        site = SketchSite("edge-0", schema, streams=["R"])
        site.observe_bulk("R", rng.integers(0, DOMAIN, size=100, dtype="int64"))
        coordinator = SketchCoordinator(schema)
        coordinator.receive_all(site.close_round())
        snapshot = METRICS.snapshot()
        assert snapshot["counters"] == {}
        assert "origins" not in snapshot
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

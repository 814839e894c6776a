"""Tests for distributed sketch collection (sites -> coordinator)."""

from __future__ import annotations

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
from repro.streams.generators import shifted_zipf_pair

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

    def test_parallel_ingest_reports_match_serial_site(self):
        rng = np.random.default_rng(8)
        values = rng.integers(0, DOMAIN, size=4000, dtype=np.int64)
        serial = SketchSite("edge1", make_schema(), ["f"])
        serial.observe_bulk("f", values)
        with SketchSite(
            "edge1", make_schema(), ["f"], parallel_workers=3
        ) as sharded:
            sharded.observe("f", int(values[0]))
            sharded.observe_bulk("f", values[1:])
            report = sharded.close_round()[0]
        reference = serial.close_round()[0]
        assert report.payload == reference.payload

    def test_parallel_delta_mode_resets_ingestors(self):
        with SketchSite(
            "edge1", make_schema(), ["f"], mode="delta", parallel_workers=2
        ) as site:
            site.observe("f", 3, 5.0)
            assert site.close_round()[0].open_sketch().absolute_mass == 5.0
            assert site.close_round()[0].open_sketch().absolute_mass == 0.0

    def test_parallel_parameters_validated(self):
        with pytest.raises(ValueError):
            SketchSite("s", make_schema(), ["f"], parallel_workers=0)


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
        """Pre-federation reports (no context, no telemetry) interoperate."""
        schema = make_schema()
        site = SketchSite("a", schema, streams=["R"])
        site.observe("R", 5)
        report = site.close_round()[0]
        assert report.trace_context is None
        assert report.telemetry is None
        assert report.telemetry_size_in_bytes() == 0
        legacy = SketchReport(
            site=report.site,
            stream=report.stream,
            round_number=report.round_number,
            payload=report.payload,
        )
        coordinator = SketchCoordinator(schema)
        summary = coordinator.receive_all([legacy])
        assert summary.reports_merged == 1
        assert summary.telemetry_bytes == 0

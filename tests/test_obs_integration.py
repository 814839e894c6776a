"""End-to-end metrics coverage: engine, sketches, skims, distributed rounds.

These tests drive the real hot paths with the registry enabled and assert
the documented metric catalogue shows up with the expected values — and
that the disabled switch records nothing at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SketchParameters
from repro.core.estimator import SkimmedSketchSchema
from repro.core.skimmed_join import (
    est_skim_join_size,
    est_skim_join_size_from_parts,
)
from repro.distributed.coordinator import SketchCoordinator
from repro.distributed.site import SketchSite
from repro.eval.diagnostics import sketch_health
from repro.obs import METRICS, capturing
from repro.streams.engine import StreamEngine
from repro.streams.query import JoinCountQuery, RangePredicate

DOMAIN = 1 << 10


def _engine() -> StreamEngine:
    return StreamEngine(
        DOMAIN, SketchParameters(width=64, depth=5), synopsis="skimmed", seed=3
    )


class TestEngineMetrics:
    def test_bulk_ingest_and_join_query_metrics(self, rng):
        engine = _engine()
        engine.register_stream("f", predicate=RangePredicate(0, DOMAIN // 2))
        engine.register_stream("g")
        f_values = rng.integers(0, DOMAIN, size=2_000)
        g_values = rng.integers(0, DOMAIN, size=1_500)
        kept_f = int((f_values < DOMAIN // 2).sum())

        with capturing() as reg:
            engine.process_bulk("f", f_values)
            engine.process_bulk("g", g_values)
            engine.answer(JoinCountQuery("f", "g"))
        snap = reg.snapshot()

        assert snap["counters"]["engine.elements.seen"] == 3_500
        assert snap["counters"]["engine.elements.dropped"] == 2_000 - kept_f
        assert snap["counters"]["engine.stream.f.elements"] == kept_f
        assert snap["counters"]["engine.stream.g.elements"] == 1_500
        # The synopses saw exactly the kept elements.
        assert snap["counters"]["sketch.update.elements"] == kept_f + 1_500
        assert snap["counters"]["sketch.update.batches"] == 2
        # One skimmed join = two SKIMDENSE passes + one assembled estimate.
        assert snap["counters"]["skim.passes"] == 2
        assert snap["counters"]["estimate.joins"] == 1
        assert snap["counters"]["engine.queries"] == 1
        assert snap["histograms"]["engine.answer.seconds"]["count"] == 1
        assert snap["histograms"]["estimate.skim_join.seconds"]["count"] == 1
        assert snap["histograms"]["skim.seconds"]["count"] == 2
        assert snap["gauges"]["skim.threshold"] > 0

    def test_per_element_path_counts_deletions(self):
        engine = _engine()
        engine.register_stream("f")
        with capturing() as reg:
            engine.process("f", 1)
            engine.process("f", 2, weight=-1.0)
        snap = reg.snapshot()
        assert snap["counters"]["engine.elements.seen"] == 2
        assert snap["counters"]["sketch.update.elements"] == 2
        assert snap["counters"]["sketch.update.deletions"] == 1

    def test_sql_answer_latency_recorded(self, rng):
        engine = _engine()
        engine.register_stream("f")
        engine.register_stream("g")
        engine.process_bulk("f", rng.integers(0, DOMAIN, size=500))
        engine.process_bulk("g", rng.integers(0, DOMAIN, size=500))
        with capturing() as reg:
            engine.answer_sql("SELECT COUNT(*) FROM f JOIN g")
        assert reg.snapshot()["histograms"]["engine.sql.seconds"]["count"] == 1

    def test_disabled_switch_records_nothing(self, rng):
        engine = _engine()
        engine.register_stream("f")
        engine.register_stream("g")
        assert not METRICS.enabled
        engine.process_bulk("f", rng.integers(0, DOMAIN, size=1_000))
        engine.process_bulk("g", rng.integers(0, DOMAIN, size=1_000))
        engine.answer(JoinCountQuery("f", "g"))
        snap = METRICS.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert list(METRICS.metric_names()) == []


class TestDyadicSkimMetrics:
    def test_dyadic_descent_probes_counted(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=9, dyadic=True)
        f, g = schema.create_sketch(), schema.create_sketch()
        heavy = np.asarray([3, 11], dtype=np.int64)
        f.update_bulk(np.repeat(heavy, 500))
        g.update_bulk(np.repeat(heavy, 400))
        f.update_bulk(rng.integers(0, DOMAIN, size=300))
        with capturing() as reg:
            f.est_join_size(g)
        snap = reg.snapshot()
        assert snap["counters"]["skim.passes.dyadic"] == 2
        assert snap["counters"]["skim.dyadic.probes"] > 0
        assert snap["counters"]["skim.dense_extracted"] >= 2


class TestSelfJoinSkim:
    """A self-join skims its sketch once and uses the skim on both sides."""

    @staticmethod
    def _skewed(schema, rng):
        sketch = schema.create_sketch()
        sketch.update_bulk(np.repeat(np.asarray([3, 11], dtype=np.int64), 500))
        sketch.update_bulk(rng.integers(0, DOMAIN, size=300))
        return sketch

    @pytest.mark.parametrize("dyadic", [False, True], ids=["flat", "dyadic"])
    def test_est_self_join_size_skims_once(self, rng, dyadic):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=9, dyadic=dyadic)
        sketch = self._skewed(schema, rng)
        with capturing(fresh=True) as reg:
            estimate = sketch.est_self_join_size()
        snap = reg.snapshot()
        assert snap["counters"]["skim.passes"] == 1
        assert snap["histograms"]["skim.seconds"]["count"] == 1
        reference = est_skim_join_size_from_parts(*sketch.skim(), *sketch.skim())
        assert estimate == reference.estimate

    def test_est_skim_join_size_skims_a_self_join_once(self, rng):
        from repro.sketches.hash_sketch import HashSketchSchema

        sketch = self._skewed(HashSketchSchema(64, 5, DOMAIN, seed=9), rng)
        with capturing(fresh=True) as reg:
            estimate = est_skim_join_size(sketch, sketch).estimate
        assert reg.snapshot()["counters"]["skim.passes"] == 1
        assert estimate == est_skim_join_size(sketch, sketch.copy()).estimate


class TestDistributedMetrics:
    def test_round_trip_communication_metrics(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=17)
        sites = [
            SketchSite(name, schema, ["f", "g"]) for name in ("nyc", "sfo", "lhr")
        ]
        coordinator = SketchCoordinator(schema)
        with capturing() as reg:
            for site in sites:
                site.observe_bulk("f", rng.integers(0, DOMAIN, size=400))
                site.observe_bulk("g", rng.integers(0, DOMAIN, size=300))
            for site in sites:
                coordinator.receive_all(site.close_round())
            coordinator.est_join_size("f", "g")
        snap = reg.snapshot()

        # Site-side counters are recorded under each site's origin.
        for name in ("nyc", "sfo", "lhr"):
            assert snap["counters"][f"site.{name}.dist.rounds.closed"] == 1
            assert snap["counters"][f"site.{name}.dist.reports.sent"] == 2
        assert snap["counters"]["dist.reports.received"] == 6
        reports, received = coordinator.communication_stats()
        assert reports == 6
        assert snap["counters"]["dist.bytes.received"] == received
        sent = sum(
            snap["counters"][f"site.{name}.dist.bytes.sent"]
            for name in ("nyc", "sfo", "lhr")
        )
        assert sent == received
        assert snap["gauges"]["dist.round.max"] == 1
        # The global join query runs the skimmed estimator.
        assert snap["counters"]["estimate.joins"] >= 1

    def test_rejected_report_counted(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=17)
        site = SketchSite("nyc", schema, ["f"])
        coordinator = SketchCoordinator(schema)
        site.observe("f", 1)
        reports = site.close_round()
        with capturing() as reg:
            coordinator.receive(reports[0])
            with pytest.raises(Exception):
                coordinator.receive(reports[0])  # stale round
        snap = reg.snapshot()
        assert snap["counters"]["dist.reports.received"] == 1
        assert snap["counters"]["dist.reports.rejected"] == 1

    def test_distributed_flow_disabled_records_nothing(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=17)
        site = SketchSite("nyc", schema, ["f"])
        coordinator = SketchCoordinator(schema)
        site.observe_bulk("f", rng.integers(0, DOMAIN, size=100))
        coordinator.receive_all(site.close_round())
        assert list(METRICS.metric_names()) == []


class TestDiagnosticsBridge:
    def test_health_report_records_gauges(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=5)
        sketch = schema.create_sketch()
        sketch.update_bulk(rng.integers(0, DOMAIN, size=2_000))
        report = sketch_health(sketch)
        with capturing() as reg:
            report.record()
        snap = reg.snapshot()
        assert snap["gauges"]["health.stream_size"] == 2_000
        assert snap["gauges"]["health.width"] == 64
        assert snap["gauges"]["health.skew_score"] == report.skew_score
        assert 0.0 <= snap["gauges"]["health.dense_mass_fraction"] <= 1.0

    def test_as_metrics_keys_are_prefixed(self, rng):
        schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=5)
        sketch = schema.create_sketch()
        sketch.update_bulk(rng.integers(0, DOMAIN, size=500))
        report = sketch_health(sketch, target_error=0.1, target_join_size=1e6)
        metrics = report.as_metrics(prefix="fleet.f")
        assert all(name.startswith("fleet.f.") for name in metrics)
        assert metrics["fleet.f.recommended_width"] >= 1

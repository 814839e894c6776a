"""Tests for ``repro.profile`` — the sampling profiler.

Covers: the sampler's attribution (a sample carries the innermost
tracer span its own thread holds open), the exporters
(JSONL/collapsed/speedscope round trips, the ``top`` aggregate), the
reader's rejection of malformed files at every CLI that loads one,
``repro.eval --profile-out``, the monitor's ``/profile`` endpoint, and
a concurrent-scrape stress run against a live ingesting engine.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import SketchParameters
from repro.monitor import AUDIT
from repro.monitor.service import (
    MonitorServer,
    file_source,
    live_source,
    parse_prometheus,
)
from repro.obs import METRICS
from repro.profile import (
    PROFILER,
    SamplingProfiler,
    aggregate_samples,
    parse_collapsed,
    profile_from_jsonl,
    profile_to_collapsed,
    profile_to_jsonl,
    profile_to_speedscope,
    read_profile_jsonl,
    render_top,
    validate_profile,
    validate_speedscope,
)
from repro.streams.engine import StreamEngine
from repro.streams.query import JoinCountQuery
from repro.trace import TRACER


def _make_sample(t, frames, span=None, weight=0.01, thread=1):
    return {
        "t": t,
        "thread": thread,
        "frames": frames,
        "span": span,
        "weight": weight,
    }


def _make_snapshot(samples):
    return {
        "version": 1,
        "kind": "repro.profile",
        "hz": 100.0,
        "dropped": 0,
        "samples": samples,
    }


#: JSONL header lines that parse as JSON but are not objects.
BAD_HEADERS = ("null", "3", "[1, 2]", '"repro.profile"')


SYNTHETIC = _make_snapshot(
    [
        _make_sample(0.00, ["m:main:1", "m:ingest:2"], span="engine.ingest"),
        _make_sample(0.01, ["m:main:1", "m:ingest:2"], span="engine.ingest"),
        _make_sample(0.02, ["m:main:1", "m:answer:3"], span="estimate.skim_join"),
        _make_sample(0.03, ["m:main:1", "m:answer:3", "m:skim:4"], span="skim"),
        _make_sample(0.04, ["m:other:9"], thread=2),
    ]
)


class TestSamplingProfiler:
    def test_disabled_sample_is_a_noop(self):
        profiler = SamplingProfiler(enabled=False)
        assert profiler.sample_once() == 0
        assert profiler.samples() == []

    def test_sample_once_attributes_span(self):
        profiler = SamplingProfiler(enabled=True)
        TRACER.enable()
        with TRACER.span("estimate.skim_join"):
            assert profiler.sample_once() >= 1
        ours = [
            s for s in profiler.samples() if s.thread_id == threading.get_ident()
        ]
        assert len(ours) == 1
        sample = ours[0]
        assert sample.span == "estimate.skim_join"
        assert "activity" not in sample.as_dict()
        # The caller's own function is on the recorded stack.
        assert any("test_sample_once_attributes" in f for f in sample.frames)

    def test_span_stamps_only_the_thread_that_opened_it(self):
        profiler = SamplingProfiler(enabled=True)
        TRACER.enable()
        release = threading.Event()
        idle = threading.Thread(target=release.wait, name="idle-worker")
        idle.start()
        try:
            with TRACER.span("estimate.skim_join"):
                profiler.sample_once()
        finally:
            release.set()
            idle.join(timeout=5)
        assert not idle.is_alive()
        by_thread = {s.thread_id: s.span for s in profiler.samples()}
        assert by_thread[threading.get_ident()] == "estimate.skim_join"
        assert by_thread[idle.ident] is None

    def test_max_samples_bound_counts_drops(self):
        profiler = SamplingProfiler(enabled=True, max_samples=2)
        for _ in range(4):
            profiler.sample_once()
        assert profiler.sample_count() == 2
        assert profiler.dropped >= 2
        assert profiler.snapshot()["dropped"] == profiler.dropped

    def test_daemon_collects_and_double_start_raises(self):
        profiler = SamplingProfiler(enabled=False)
        profiler.start(hz=250)
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
            deadline = time.monotonic() + 5.0
            while profiler.sample_count() == 0 and time.monotonic() < deadline:
                sum(i * i for i in range(10_000))  # keep a stack alive
        finally:
            profiler.stop()
        assert profiler.sample_count() > 0
        assert not profiler.enabled
        profiler.stop()  # idempotent
        snapshot = validate_profile(profiler.snapshot())
        assert snapshot["kind"] == "repro.profile"

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler().start(hz=0)


class TestProfileExports:
    def test_jsonl_round_trip(self):
        restored = profile_from_jsonl(profile_to_jsonl(SYNTHETIC))
        assert restored == SYNTHETIC

    def test_samples_with_the_retired_activity_key_still_validate(self):
        # Profiles written before the activity marker was retired.
        legacy = _make_snapshot(
            [dict(_make_sample(0.0, ["m:main:1"]), activity="engine.ingest")]
        )
        assert profile_from_jsonl(profile_to_jsonl(legacy)) == legacy
        assert aggregate_samples(legacy)["samples"] == 1

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_profile({"version": 1, "kind": "repro.profile"})
        with pytest.raises(ValueError):
            validate_profile(_make_snapshot([{"t": 0.0}]))
        with pytest.raises(ValueError):
            validate_profile(_make_snapshot([_make_sample(0.0, [])]))
        with pytest.raises(ValueError):
            profile_from_jsonl("")
        # A header line that is JSON but not an object.
        for header in BAD_HEADERS:
            with pytest.raises(ValueError, match="header line"):
                profile_from_jsonl(header + "\n")
        # NaN and ±inf in every numeric field, as parsed from JSONL.
        for bad in (float("nan"), float("inf"), float("-inf")):
            snapshot = dict(_make_snapshot([]), hz=bad)
            with pytest.raises(ValueError, match="'hz'"):
                validate_profile(snapshot)
            with pytest.raises(ValueError, match="'hz'"):
                profile_from_jsonl(profile_to_jsonl(snapshot))
            for field in ("t", "weight"):
                sample = dict(_make_sample(0.0, ["m:main:1"]), **{field: bad})
                with pytest.raises(ValueError, match=f"'{field}'"):
                    validate_profile(_make_snapshot([sample]))
                with pytest.raises(ValueError, match=f"'{field}'"):
                    profile_from_jsonl(profile_to_jsonl(_make_snapshot([sample])))
        # An integer too large for a float is no finite number either.
        sample = dict(_make_sample(0.0, ["m:main:1"]), weight=10**400)
        with pytest.raises(ValueError, match="'weight'"):
            validate_profile(_make_snapshot([sample]))

    def test_collapsed_round_trip(self):
        collapsed = profile_to_collapsed(SYNTHETIC)
        counts = parse_collapsed(collapsed)
        assert sum(counts.values()) == len(SYNTHETIC["samples"])
        assert counts["m:main:1;m:ingest:2"] == 2
        with pytest.raises(ValueError):
            parse_collapsed("nocount\n")

    def test_speedscope_document_validates(self):
        doc = profile_to_speedscope(SYNTHETIC)
        validate_speedscope(doc)
        assert len(doc["profiles"]) == 2  # one per sampled thread
        total_weight = sum(sum(p["weights"]) for p in doc["profiles"])
        assert total_weight == pytest.approx(
            sum(s["weight"] for s in SYNTHETIC["samples"])
        )

    def test_aggregate_and_render_top(self):
        agg = aggregate_samples(SYNTHETIC)
        assert agg["samples"] == 5
        assert agg["seconds"] == pytest.approx(0.05)
        rows = {row["frame"]: row for row in agg["frames"]}
        # m:main:1 is never a leaf but is on 4 of 5 stacks.
        assert rows["m:main:1"]["self"] == 0.0
        assert rows["m:main:1"]["total"] == pytest.approx(0.04)
        assert rows["m:ingest:2"]["self"] == pytest.approx(0.02)
        assert agg["spans"]["estimate.skim_join"] == pytest.approx(0.01)
        assert agg["spans"]["engine.ingest"] == pytest.approx(0.02)
        assert agg["spans"]["-"] == pytest.approx(0.01)
        assert set(agg) == {"seconds", "samples", "frames", "spans"}
        report = render_top(agg, limit=3)
        assert "m:ingest:2" in report
        assert "span attribution" in report


class TestCLI:
    """The CLIs that record, check and load profiles.  Each loader turns
    a malformed profile file into its error message and exit code 1,
    never a traceback."""

    @pytest.mark.parametrize("header", BAD_HEADERS)
    def test_loaders_reject_a_header_that_is_not_an_object(
        self, header, tmp_path, capsys
    ):
        from repro.monitor.__main__ import main as monitor_main
        from repro.profile.__main__ import main as profile_main

        path = str(tmp_path / "bad.prof.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
        assert profile_main(["top", path]) == 1
        assert "invalid profile" in capsys.readouterr().err
        out = str(tmp_path / "out.collapsed")
        assert profile_main(["convert", path, out]) == 1
        assert "invalid profile" in capsys.readouterr().err
        args = ["selfcheck", "--profile", path, "--min-audits", "0"]
        assert monitor_main(args) == 1
        assert "cannot load inputs" in capsys.readouterr().err

    def test_convert_refuses_a_nan_weight(self, tmp_path, capsys):
        from repro.profile.__main__ import main

        sample = dict(_make_sample(0.0, ["m:main:1"]), weight=float("nan"))
        path = tmp_path / "nan.prof.jsonl"
        path.write_text(profile_to_jsonl(_make_snapshot([sample])))
        out = tmp_path / "out.json"
        assert main(["convert", str(path), str(out)]) == 1
        assert "invalid profile" in capsys.readouterr().err
        assert not out.exists()

    def test_selfcheck_passes(self, capsys):
        from repro.profile.__main__ import main

        assert main(["selfcheck", "--seconds", "20"]) == 0
        assert "selfcheck: all checks passed" in capsys.readouterr().out
        assert not PROFILER.enabled

    def test_recorded_profile_is_served_by_monitor_selfcheck(self, tmp_path):
        """The ``make profile-smoke`` chain: record, then serve at /profile."""
        from repro.monitor.__main__ import main as monitor_main
        from repro.profile.__main__ import main as profile_main

        path = str(tmp_path / "run.prof.jsonl")
        assert profile_main(["record", "--out", path, "--seconds", "0.5"]) == 0
        assert read_profile_jsonl(path)["samples"]
        args = ["selfcheck", "--profile", path, "--min-audits", "0"]
        assert monitor_main(args) == 0

    def test_eval_profile_out_writes_a_valid_profile(self, tmp_path):
        from repro.eval.__main__ import main

        path = str(tmp_path / "smoke.prof.jsonl")
        assert main(["smoke", "--profile-out", path]) == 0
        snapshot = read_profile_jsonl(path)
        assert snapshot["kind"] == "repro.profile"
        assert snapshot["hz"] == PROFILER.hz
        # The run stops the sampling thread and switches the profiler off.
        assert not PROFILER.enabled
        assert not any(t.name == "repro-profiler" for t in threading.enumerate())


def _get(url: str) -> tuple[int, str, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8"), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), dict(exc.headers)


def _head(url: str) -> tuple[int, bytes, dict]:
    request = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.read(), dict(resp.headers)


class TestMonitorProfileEndpoints:
    def test_profile_timeseries_dashboard_round_trip(self):
        """``/profile`` serves the live sampler; the retired flight-recorder
        ``/timeseries`` and ``/dashboard`` pages are gone (404)."""
        PROFILER.enable()
        TRACER.enable()
        with TRACER.span("estimate.skim_join"):
            PROFILER.sample_once()
        with MonitorServer(live_source(), port=0) as server:
            status, body, headers = _get(f"{server.url}/profile")
            assert status == 200
            profile = validate_profile(json.loads(body))
            assert profile["samples"]
            assert int(headers["Content-Length"]) == len(body.encode())

            for removed in ("timeseries", "dashboard"):
                assert _get(f"{server.url}/{removed}")[0] == 404

    def test_file_source_serves_the_profile_file(self, tmp_path):
        path = tmp_path / "synthetic.prof.jsonl"
        path.write_text(profile_to_jsonl(SYNTHETIC))
        with MonitorServer(file_source(None, None, str(path)), port=0) as server:
            status, body, _ = _get(f"{server.url}/profile")
        assert status == 200
        assert json.loads(body) == SYNTHETIC

    def test_head_requests_carry_length_but_no_body(self):
        with MonitorServer(live_source(), port=0) as server:
            for endpoint in ("/metrics", "/profile", "/audits"):
                status, body, headers = _head(f"{server.url}{endpoint}")
                assert status == 200, endpoint
                assert body == b"", endpoint
                assert int(headers["Content-Length"]) > 0, endpoint

    def test_audits_rejects_unknown_parameters(self):
        with MonitorServer(live_source(), port=0) as server:
            status, body, _ = _get(f"{server.url}/audits?bogus=1")
            assert status == 400
            assert "unknown query parameter" in body
            status, _, _ = _get(f"{server.url}/audits?n=5")
            assert status == 200


class TestConcurrentScrape:
    """N threads hammer the monitor while an engine ingests live.

    The registries are deliberately lock-free; the serving path must
    still never raise, and scraped counters must be monotone.
    """

    N_SCRAPERS = 4
    DURATION = 1.5
    #: Served beside /metrics, each with a key its JSON body must carry.
    JSON_ENDPOINTS = (("/profile", "samples"), ("/audits", "audits"))

    def test_scrape_under_live_ingest(self, rng):
        METRICS.enable()
        AUDIT.enable()
        PROFILER.start(hz=97)
        engine = StreamEngine(
            1 << 10,
            SketchParameters(width=64, depth=5),
            synopsis="skimmed",
            seed=3,
        )
        for name in ("f", "g"):
            engine.register_stream(name)
        # Warm every metric name once so scrapers never race a
        # first-insert resize of the unsynchronised registry dicts.
        for name in ("f", "g"):
            engine.process_bulk(name, rng.integers(0, 1 << 10, size=512))
        engine.answer(JoinCountQuery("f", "g"))

        stop = threading.Event()
        errors: list[str] = []

        def ingest():
            local = rng.integers(0, 1 << 10, size=(64, 256))
            i = 0
            while not stop.is_set():
                engine.process_bulk("f", local[i % 64])
                engine.process_bulk("g", local[(i + 7) % 64])
                engine.answer(JoinCountQuery("f", "g"))
                i += 1

        seen_counters: list[list[float]] = [[] for _ in range(self.N_SCRAPERS)]

        def scrape(slot: int):
            while not stop.is_set():
                try:
                    status, body, _ = _get(f"{server.url}/metrics")
                    if status != 200:
                        errors.append(f"scraper {slot}: /metrics {status}: {body}")
                        return
                    samples = dict(parse_prometheus(body))
                    seen_counters[slot].append(
                        samples["repro_engine_elements_seen_total"]
                    )
                    for endpoint, key in self.JSON_ENDPOINTS:
                        status, body, _ = _get(f"{server.url}{endpoint}")
                        if status != 200 or key not in json.loads(body):
                            errors.append(f"scraper {slot}: {endpoint} {status}")
                            return
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(f"scraper {slot}: {exc!r}")
                    return

        with MonitorServer(live_source(), port=0) as server:
            threads = [threading.Thread(target=ingest, daemon=True)]
            threads += [
                threading.Thread(target=scrape, args=(slot,), daemon=True)
                for slot in range(self.N_SCRAPERS)
            ]
            for thread in threads:
                thread.start()
            time.sleep(self.DURATION)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        assert errors == []
        for scraped in seen_counters:
            assert len(scraped) >= 1
            assert scraped == sorted(scraped), "counter went backwards"

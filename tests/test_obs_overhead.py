"""Guard against instrumentation slowing the update hot path.

The obs hooks in :meth:`HashSketch.update_bulk` are one attribute read
and one branch per *batch* when disabled, so a 100k-element bulk update
must run within a small factor of the uninstrumented kernel
(:meth:`HashSketch._apply_point_masses` plus the mass update) that does
all the real work.  A regression here means someone put per-element
Python work on the hot path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import METRICS
from repro.sketches.hash_sketch import HashSketchSchema

N_ELEMENTS = 100_000
REPEATS = 5
# update_bulk legitimately adds input validation (min/max domain checks,
# dtype coercion) on top of the kernel; the budget allows for that plus
# generous CI timing noise, while still catching any per-element loop.
MAX_FACTOR = 3.0
SLACK_SECONDS = 0.005


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_update_bulk_matches_uninstrumented_kernel(rng):
    assert not METRICS.enabled  # the conftest fixture guarantees this
    schema = HashSketchSchema(width=256, depth=7, domain_size=1 << 16, seed=1)
    values = rng.integers(0, 1 << 16, size=N_ELEMENTS).astype(np.int64)
    weights = np.ones(N_ELEMENTS)

    kernel_sketch = schema.create_sketch()

    def kernel():
        kernel_sketch._apply_point_masses(values, weights)  # noqa: SLF001
        kernel_sketch._absolute_mass += float(np.abs(weights).sum())  # noqa: SLF001

    instrumented_sketch = schema.create_sketch()

    def instrumented():
        instrumented_sketch.update_bulk(values, weights)

    # Warm both paths (hash-family caches, numpy dispatch) before timing.
    kernel()
    instrumented()
    kernel_time = _best_of(REPEATS, kernel)
    instrumented_time = _best_of(REPEATS, instrumented)

    budget = kernel_time * MAX_FACTOR + SLACK_SECONDS
    assert instrumented_time <= budget, (
        f"update_bulk took {instrumented_time * 1e3:.2f}ms vs kernel "
        f"{kernel_time * 1e3:.2f}ms (budget {budget * 1e3:.2f}ms) — "
        "instrumentation overhead regressed on the hot path"
    )


def test_disabled_audit_answer_matches_raw_estimator(rng):
    """The repro.monitor hooks on the query path are one attribute read
    and one branch per *query* while disabled — ``engine.answer()`` must
    stay within a small factor of calling the estimator directly.  A
    regression here means audit work (residual scans, shadow lookups,
    health reports) leaked onto the disabled path."""
    from repro.core.config import SketchParameters
    from repro.monitor import AUDIT
    from repro.streams.engine import StreamEngine
    from repro.streams.query import JoinCountQuery

    assert not AUDIT.enabled  # the conftest fixture guarantees this
    engine = StreamEngine(
        1 << 12, SketchParameters(width=256, depth=7), synopsis="skimmed", seed=1
    )
    for name in ("f", "g"):
        engine.register_stream(name)
        engine.process_bulk(name, rng.integers(0, 1 << 12, size=20_000))
    query = JoinCountQuery("f", "g")
    sf, sg = engine.synopsis_for("f"), engine.synopsis_for("g")

    def kernel():
        sf.est_join_size(sg)

    def instrumented():
        engine.answer(query)

    kernel()
    instrumented()
    kernel_time = _best_of(REPEATS, kernel)
    instrumented_time = _best_of(REPEATS, instrumented)

    budget = kernel_time * MAX_FACTOR + SLACK_SECONDS
    assert instrumented_time <= budget, (
        f"answer() took {instrumented_time * 1e3:.2f}ms vs raw estimator "
        f"{kernel_time * 1e3:.2f}ms (budget {budget * 1e3:.2f}ms) — "
        "disabled-audit overhead regressed on the query path"
    )


def test_disabled_profile_hooks_stay_off_the_ingest_path(rng):
    """The ``repro.profile`` hooks (``_PROFILER.mark`` /
    ``_RECORDER.pulse``) on ``engine.process_bulk`` and ``answer`` are
    one guarded attribute read per *batch* while disabled —
    ``process_bulk`` must stay within a small factor of the raw synopsis
    ``update_bulk`` doing all the real work.  A regression here means a
    profiler hook (or its argument construction) leaked outside the
    R12 guard."""
    from repro.core.config import SketchParameters
    from repro.profile import PROFILER, RECORDER
    from repro.streams.engine import StreamEngine

    assert not PROFILER.enabled and not RECORDER.enabled  # conftest guarantee
    engine = StreamEngine(
        1 << 16, SketchParameters(width=256, depth=7), synopsis="skimmed", seed=1
    )
    engine.register_stream("f")
    values = rng.integers(0, 1 << 16, size=N_ELEMENTS).astype(np.int64)
    synopsis = engine.synopsis_for("f")

    def kernel():
        synopsis.update_bulk(values)

    def instrumented():
        engine.process_bulk("f", values)

    kernel()
    instrumented()
    kernel_time = _best_of(REPEATS, kernel)
    instrumented_time = _best_of(REPEATS, instrumented)

    budget = kernel_time * MAX_FACTOR + SLACK_SECONDS
    assert instrumented_time <= budget, (
        f"process_bulk took {instrumented_time * 1e3:.2f}ms vs raw update_bulk "
        f"{kernel_time * 1e3:.2f}ms (budget {budget * 1e3:.2f}ms) — "
        "disabled profiler-hook overhead regressed on the ingest path"
    )


def test_enabled_update_bulk_overhead_is_batch_level(rng):
    """Even *enabled*, bulk instrumentation is per-batch, not per-element."""
    schema = HashSketchSchema(width=256, depth=7, domain_size=1 << 16, seed=1)
    values = rng.integers(0, 1 << 16, size=N_ELEMENTS).astype(np.int64)

    disabled_sketch = schema.create_sketch()
    disabled_sketch.update_bulk(values)  # warm
    disabled = _best_of(REPEATS, lambda: disabled_sketch.update_bulk(values))

    METRICS.enable()
    try:
        enabled_sketch = schema.create_sketch()
        enabled_sketch.update_bulk(values)  # warm
        enabled = _best_of(REPEATS, lambda: enabled_sketch.update_bulk(values))
    finally:
        METRICS.disable()
        METRICS.reset()

    assert enabled <= disabled * MAX_FACTOR + SLACK_SECONDS, (
        f"enabled update_bulk {enabled * 1e3:.2f}ms vs disabled "
        f"{disabled * 1e3:.2f}ms — recording must stay per-batch"
    )


def test_shm_worker_telemetry_rides_the_flush_ack(rng):
    """``drain_worker_telemetry`` must report worker vitals from the
    shared-memory workers even though no counter state crosses the
    queues: the stats ride the flush barrier's ack tuple alongside the
    tracked masses."""
    from repro.parallel import ShardedIngestor

    schema = HashSketchSchema(width=128, depth=5, domain_size=1 << 10, seed=1)
    n = 4_000
    values = rng.integers(0, 1 << 10, size=n).astype(np.int64)
    with ShardedIngestor(schema, workers=2) as ingestor:
        for chunk in np.array_split(values, 4):
            ingestor.ingest(chunk)
        ingestor.merged()  # the flush that carries the stats
        telemetry = dict(ingestor.drain_worker_telemetry())
        assert ingestor.drain_worker_telemetry() == []  # drained
    assert set(telemetry) == {0, 1}
    assert sum(stats["worker.elements"] for stats in telemetry.values()) == float(n)
    assert all(stats["worker.batches"] >= 1.0 for stats in telemetry.values())


def test_disabled_telemetry_site_close_round_stays_free(rng):
    """A telemetry-enabled site with every singleton off must close
    rounds at the plain site's speed: the federation hook is one
    attribute-read guard, never a snapshot capture."""
    from repro.core.estimator import SkimmedSketchSchema
    from repro.distributed import SketchSite

    schema = SkimmedSketchSchema(128, 5, 1 << 10, seed=3)
    values = rng.integers(0, 1 << 10, size=10_000).astype(np.int64)

    def closed_round(telemetry: bool) -> float:
        site = SketchSite("edge", schema, streams=["R"], telemetry=telemetry)
        site.observe_bulk("R", values)
        site.close_round()  # warm
        return _best_of(REPEATS, lambda: site.close_round())

    plain = closed_round(False)
    federated = closed_round(True)
    assert federated <= plain * MAX_FACTOR + SLACK_SECONDS, (
        f"telemetry-enabled close_round {federated * 1e3:.2f}ms vs plain "
        f"{plain * 1e3:.2f}ms — the disabled federation hook must be a "
        "single guarded branch"
    )

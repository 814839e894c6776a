"""Guard against instrumentation slowing the update hot path.

The obs hooks in :meth:`HashSketch.update_bulk` are one attribute read
and one branch per *batch* when disabled, so a 100k-element bulk update
must run within a small factor of the uninstrumented kernel
(:meth:`HashSketch._apply_point_masses` plus the mass update) that does
all the real work.  A regression here means someone put per-element
Python work on the hot path.  The per-element ``update`` paths are held
to the paper's claim C3: a hash sketch touches one counter per table,
basic AGMS every atomic sketch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import METRICS
from repro.sketches.agms import AGMSSchema
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
        1 << 12, SketchParameters(width=256, depth=7), seed=1
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


def test_disabled_engine_ingest_stays_near_update_bulk(rng):
    """With every switch off, ``engine.process_bulk`` adds only per-*batch*
    work (predicate, guarded hooks) to the raw synopsis ``update_bulk``
    doing the real work, so it must stay within a small factor of it.
    A regression here means a hook (or its argument construction)
    leaked outside its ``enabled`` guard (rule R3)."""
    from repro.core.config import SketchParameters
    from repro.streams.engine import StreamEngine

    engine = StreamEngine(
        1 << 16, SketchParameters(width=256, depth=7), seed=1
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
        "disabled engine overhead regressed on the ingest path"
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


def test_disabled_telemetry_site_close_round_stays_free(rng):
    """With every singleton off, a site's round close — both telemetry
    scopes entered — must cost what building the same reports from bare
    sketches does: attribution adds no per-round work."""
    from repro.core.estimator import SkimmedSketchSchema
    from repro.distributed import SketchReport, SketchSite

    schema = SkimmedSketchSchema(128, 5, 1 << 10, seed=3)
    values = rng.integers(0, 1 << 10, size=10_000).astype(np.int64)
    site = SketchSite("edge", schema, streams=["R"])
    site.observe_bulk("R", values)
    sketch = schema.create_sketch()
    sketch.update_bulk(values)

    def bare_reports() -> list:
        return [SketchReport.from_sketch("edge", "R", 1, sketch)]

    bare_reports()  # warm
    site.close_round()
    bare = _best_of(REPEATS, bare_reports)
    scoped = _best_of(REPEATS, site.close_round)
    assert scoped <= bare * MAX_FACTOR + SLACK_SECONDS, (
        f"scoped close_round {scoped * 1e3:.2f}ms vs bare reports "
        f"{bare * 1e3:.2f}ms — entering the telemetry scopes must stay "
        "per-round constant work"
    )


def test_hash_update_beats_agms_update_per_element():
    """Claim C3 at 250x59: one checked AGMS ``update`` costs at least 3x
    one checked hash-sketch ``update`` (best of 3 x 200 elements; about
    8x on a 2-core x86 host).  A check that grew per-counter work, or a
    hash write that lost its O(depth) form, fails here."""
    elements = 200
    agms = AGMSSchema(250, 59, 1 << 16, seed=0).create_sketch()
    hashed = HashSketchSchema(250, 59, 1 << 16, seed=0).create_sketch()

    def per_element(sketch):
        def run() -> None:
            for value in range(elements):
                sketch.update(value)

        return run

    per_element(agms)()  # warm
    per_element(hashed)()
    agms_time = _best_of(3, per_element(agms))
    hash_time = _best_of(3, per_element(hashed))
    assert agms_time >= 3.0 * hash_time, (
        f"AGMS update {agms_time / elements * 1e6:.1f}us vs hash update "
        f"{hash_time / elements * 1e6:.1f}us per element: claim C3 wants >= 3x"
    )

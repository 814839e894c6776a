"""Benchmark scenario registry.

Each scenario wraps one of the repo's performance-relevant code paths —
sketch update throughput, SKIMDENSE, and the skimmed-join accuracy
comparisons behind ``benchmarks/bench_*.py`` — as a deterministic,
parameterised measurement the uniform runner in ``__main__`` can time.

Contract
--------
* This module imports without numpy (``python -m repro.bench list`` must
  work on a bare box); numpy and the repro kernels are imported lazily
  inside each scenario's ``run``.
* ``run(params)`` performs setup untimed, times exactly one execution of
  the operation of interest, and returns ``(elapsed_seconds, extras)``.
  ``extras`` may carry ``updates`` (elements processed, from which the
  runner derives updates/sec), ``relative_error`` and ``sketch_bytes``.
* Everything non-timing is seed-deterministic: frequency vectors are the
  deterministic (``rng=None``) generator variants or fixed-seed draws,
  and sketch schemas use fixed seeds — so ``relative_error`` and
  ``sketch_bytes`` are bit-stable across runs and machines, and the
  ``compare`` gates on them are meaningful in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

_BYTES_PER_COUNTER = 8  # all sketch counter arrays are float64


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario.

    ``suites`` maps suite name -> params; a scenario absent from a suite
    simply does not run there.
    """

    name: str
    description: str
    suites: dict[str, dict[str, Any]]
    run: Callable[[dict[str, Any]], tuple[float, dict[str, Any]]]


SCENARIOS: list[Scenario] = []


def _register(
    name: str, description: str, suites: dict[str, dict[str, Any]]
) -> Callable[
    [Callable[[dict[str, Any]], tuple[float, dict[str, Any]]]],
    Callable[[dict[str, Any]], tuple[float, dict[str, Any]]],
]:
    def decorate(
        fn: Callable[[dict[str, Any]], tuple[float, dict[str, Any]]]
    ) -> Callable[[dict[str, Any]], tuple[float, dict[str, Any]]]:
        SCENARIOS.append(Scenario(name, description, suites, fn))
        return fn

    return decorate


def scenarios_for(suite: str) -> list[tuple[Scenario, dict[str, Any]]]:
    """The (scenario, params) pairs making up a suite."""
    return [(s, s.suites[suite]) for s in SCENARIOS if suite in s.suites]


def suite_names() -> list[str]:
    """All suite names any scenario participates in."""
    names: set[str] = set()
    for scenario in SCENARIOS:
        names.update(scenario.suites)
    return sorted(names)


def _update_stream(params: dict[str, Any]):
    """Deterministic batch of update values for throughput scenarios."""
    import numpy as np

    rng = np.random.default_rng(params["seed"])
    return rng.integers(0, params["domain"], params["n"], dtype=np.int64)


@_register(
    "update.hash",
    "HashSketch.update_bulk throughput (paper's O(depth)-per-update synopsis)",
    {
        "smoke": {"n": 50_000, "domain": 1 << 12, "width": 256, "depth": 7, "seed": 7},
        "full": {"n": 500_000, "domain": 1 << 16, "width": 1024, "depth": 9, "seed": 7},
    },
)
def _run_update_hash(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import HashSketchSchema

    values = _update_stream(params)
    sketch = HashSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    ).create_sketch()
    start = time.perf_counter()
    sketch.update_bulk(values)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "updates": params["n"],
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER,
    }


def _skewed_update_stream(params: dict[str, Any]):
    """Deterministic duplicate-heavy batch (Zipf-ish via modulo fold)."""
    import numpy as np

    rng = np.random.default_rng(params["seed"])
    draws = rng.zipf(params["z"], size=params["n"]).astype(np.int64)
    return draws % params["domain"]


@_register(
    "update.fused",
    "HashSketch.update_bulk throughput on a duplicate-heavy Zipf batch "
    "(exercises the coalescing fused kernel)",
    {
        "smoke": {
            "n": 50_000,
            "domain": 1 << 12,
            "z": 1.2,
            "width": 256,
            "depth": 7,
            "seed": 7,
        },
        "full": {
            "n": 500_000,
            "domain": 1 << 16,
            "z": 1.2,
            "width": 1024,
            "depth": 9,
            "seed": 7,
        },
    },
)
def _run_update_fused(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import HashSketchSchema

    values = _skewed_update_stream(params)
    sketch = HashSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    ).create_sketch()
    start = time.perf_counter()
    sketch.update_bulk(values)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "updates": params["n"],
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER,
    }


@_register(
    "update.dyadic",
    "DyadicHashSketch.update_bulk throughput across all dyadic levels "
    "(the multi-level ingest cost the BulkHashCache coalescing amortises)",
    {
        "smoke": {"n": 50_000, "domain": 1 << 12, "width": 256, "depth": 7, "seed": 7},
        "full": {"n": 500_000, "domain": 1 << 16, "width": 1024, "depth": 9, "seed": 7},
    },
)
def _run_update_dyadic(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import DyadicSketchSchema

    values = _update_stream(params)
    sketch = DyadicSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    ).create_sketch()
    start = time.perf_counter()
    sketch.update_bulk(values)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "updates": params["n"],
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER,
    }


@_register(
    "update.agms",
    "Basic AGMS update_bulk throughput at matched counter budget (the "
    "O(s1*s2) baseline the paper's hash sketches beat)",
    {
        "smoke": {"n": 2_000, "domain": 1 << 12, "averaging": 256, "median": 7, "seed": 7},
        "full": {"n": 20_000, "domain": 1 << 16, "averaging": 1024, "median": 9, "seed": 7},
    },
)
def _run_update_agms(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import AGMSSchema

    values = _update_stream(params)
    sketch = AGMSSchema(
        params["averaging"], params["median"], params["domain"], seed=params["seed"]
    ).create_sketch()
    start = time.perf_counter()
    sketch.update_bulk(values)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "updates": params["n"],
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER,
    }


def _loaded_skimmed_sketch(params: dict[str, Any], dyadic: bool):
    from ..core import SkimmedSketchSchema
    from ..streams.generators import zipf_frequencies

    frequencies = zipf_frequencies(params["domain"], params["total"], params["z"])
    schema = SkimmedSketchSchema(
        params["width"],
        params["depth"],
        params["domain"],
        seed=params["seed"],
        dyadic=dyadic,
    )
    return schema.sketch_of(frequencies)


_SKIM_SUITES = {
    "smoke": {"domain": 1 << 10, "total": 20_000, "z": 1.0, "width": 128, "depth": 5, "seed": 11},
    "full": {"domain": 1 << 14, "total": 200_000, "z": 1.0, "width": 512, "depth": 7, "seed": 11},
}


@_register(
    "skim.flat",
    "SKIMDENSE via flat full-domain scan",
    _SKIM_SUITES,
)
def _run_skim_flat(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    sketch = _loaded_skimmed_sketch(params, dyadic=False)
    start = time.perf_counter()
    sketch.skim()
    elapsed = time.perf_counter() - start
    return elapsed, {
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER
    }


@_register(
    "skim.dyadic",
    "SKIMDENSE via the Section 4.2 dyadic pruned descent",
    _SKIM_SUITES,
)
def _run_skim_dyadic(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    sketch = _loaded_skimmed_sketch(params, dyadic=True)
    start = time.perf_counter()
    sketch.skim()
    elapsed = time.perf_counter() - start
    return elapsed, {
        "sketch_bytes": sketch.size_in_counters() * _BYTES_PER_COUNTER
    }


_JOIN_SUITES = {
    "smoke": {
        "domain": 1 << 10,
        "total": 20_000,
        "z": 1.0,
        "shift": 64,
        "width": 128,
        "depth": 5,
        "seed": 23,
    },
    "full": {
        "domain": 1 << 14,
        "total": 200_000,
        "z": 1.0,
        "shift": 1024,
        "width": 512,
        "depth": 7,
        "seed": 23,
    },
}


def _join_pair(params: dict[str, Any]):
    from ..streams.generators import shifted_zipf_pair

    return shifted_zipf_pair(
        params["domain"], params["total"], params["z"], params["shift"]
    )


def _relative_error(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / exact if exact else 0.0


@_register(
    "join.skimmed",
    "Skimmed-sketch join estimate: accuracy vs exact and query latency "
    "(the paper's estimator on its shifted-Zipf workload)",
    _JOIN_SUITES,
)
def _run_join_skimmed(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..core import SkimmedSketchSchema

    f, g = _join_pair(params)
    schema = SkimmedSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    )
    sf, sg = schema.sketch_of(f), schema.sketch_of(g)
    start = time.perf_counter()
    estimate = sf.est_join_size(sg)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "relative_error": _relative_error(estimate, f.join_size(g)),
        "sketch_bytes": sf.size_in_counters() * _BYTES_PER_COUNTER,
    }


@_register(
    "join.audited",
    "Skimmed-sketch join estimate with repro.monitor audits enabled: "
    "measures the audited-path overhead against join.skimmed (same "
    "workload, same estimate), including the per-query residual-norm "
    "scans and QueryAudit recording",
    _JOIN_SUITES,
)
def _run_join_audited(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..core import SkimmedSketchSchema
    from ..monitor import AUDIT

    f, g = _join_pair(params)
    schema = SkimmedSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    )
    sf, sg = schema.sketch_of(f), schema.sketch_of(g)
    was_enabled = AUDIT.enabled
    AUDIT.reset()
    AUDIT.enable()
    try:
        start = time.perf_counter()
        estimate = sf.est_join_size(sg)
        elapsed = time.perf_counter() - start
        audit_count = len(AUDIT)
    finally:
        if not was_enabled:
            AUDIT.disable()
        AUDIT.reset()
    if audit_count != 1:
        raise RuntimeError(f"expected exactly 1 audit, got {audit_count}")
    return elapsed, {
        "relative_error": _relative_error(estimate, f.join_size(g)),
        "sketch_bytes": sf.size_in_counters() * _BYTES_PER_COUNTER,
    }


@_register(
    "join.agms",
    "Basic AGMS join estimate at matched counter budget (Figure 5's "
    "comparison baseline)",
    _JOIN_SUITES,
)
def _run_join_agms(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import AGMSSchema

    f, g = _join_pair(params)
    schema = AGMSSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    )
    sf, sg = schema.sketch_of(f), schema.sketch_of(g)
    start = time.perf_counter()
    estimate = sf.est_join_size(sg)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "relative_error": _relative_error(estimate, f.join_size(g)),
        "sketch_bytes": sf.size_in_counters() * _BYTES_PER_COUNTER,
    }


@_register(
    "join.hash",
    "Unskimmed hash-sketch join estimate (what skimming improves on)",
    _JOIN_SUITES,
)
def _run_join_hash(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    from ..sketches import HashSketchSchema

    f, g = _join_pair(params)
    schema = HashSketchSchema(
        params["width"], params["depth"], params["domain"], seed=params["seed"]
    )
    sf, sg = schema.sketch_of(f), schema.sketch_of(g)
    start = time.perf_counter()
    estimate = sf.est_join_size(sg)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "relative_error": _relative_error(estimate, f.join_size(g)),
        "sketch_bytes": sf.size_in_counters() * _BYTES_PER_COUNTER,
    }


def _run_workload_scenario(params: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    """Shared runner for the workload.* adversarial-corpus series.

    Times the full StreamEngine path — bulk ingest of every corpus batch
    (predicate pushdown included) plus all declared join queries — on one
    ``repro.workloads`` family.  ``relative_error`` is the max realized
    relative error against the corpus's exact ground truth, which is
    seed-deterministic and therefore gateable in CI.
    """
    from ..core.config import SketchParameters
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery
    from ..workloads.corpus import FAMILIES

    family = FAMILIES[params["family"]]
    instance = family.build(
        dict(family.suites[params["corpus"]]), params["seed"]
    )
    engine = StreamEngine(
        instance.domain_size,
        SketchParameters(width=params["width"], depth=params["depth"]),
        synopsis="skimmed",
        seed=params["engine_seed"],
    )
    for name, predicate in instance.streams.items():
        engine.register_stream(name, predicate=predicate)
    worst = 0.0
    start = time.perf_counter()
    for batch in instance.batches:
        engine.process_bulk(batch.stream, batch.values, batch.weights)
    estimates = [
        engine.answer(
            SelfJoinQuery(left) if left == right else JoinCountQuery(left, right)
        )
        for left, right in instance.queries
    ]
    elapsed = time.perf_counter() - start
    for (left, right), estimate in zip(instance.queries, estimates):
        worst = max(
            worst, _relative_error(estimate, instance.exact_join(left, right))
        )
    return elapsed, {
        "updates": instance.total_updates(),
        "relative_error": worst,
        "sketch_bytes": engine.total_space_in_counters() * _BYTES_PER_COUNTER,
    }


def _workload_suites(family: str) -> dict[str, dict[str, Any]]:
    """Suite params for one family of the workload.* series."""
    common = {"family": family, "seed": 0, "engine_seed": 101}
    return {
        "smoke": {**common, "corpus": "smoke", "width": 256, "depth": 5},
        "full": {**common, "corpus": "full", "width": 1024, "depth": 7},
    }


for _family in (
    "skew_drift",
    "delete_churn",
    "filtered_subset_sum",
    "join_correlated",
    "join_anticorrelated",
):
    _register(
        f"workload.{_family}",
        f"StreamEngine ingest + query on the adversarial {_family!r} corpus "
        "family (repro.workloads): throughput under adversarial streams, "
        "with max realized relative error vs exact ground truth",
        _workload_suites(_family),
    )(_run_workload_scenario)

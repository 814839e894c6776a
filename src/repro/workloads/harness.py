"""Accuracy-regression harness: run corpus workloads under full audit.

For each :class:`~repro.workloads.corpus.WorkloadInstance` the harness
builds a skimmed-sketch :class:`~repro.streams.engine.StreamEngine`
(optionally the sharded :class:`~repro.parallel.ParallelStreamEngine`),
attaches the ``repro.monitor`` shadow-exact auditor at ``sample_rate =
1.0`` (an exact mirror — every realized error is measured against the
true post-predicate join size, not an estimate of it), replays the
corpus batches, answers every declared query with audits enabled, and
condenses the per-query :class:`~repro.monitor.audit.QueryAudit` records
into one ACCURACY record per workload:

* realized relative error (max and mean over the workload's queries),
* CI-coverage rate (fraction of queries whose realized error fell
  inside the Lemma 4.1 a-posteriori confidence interval),
* the SKIMDENSE residual-contract verdict rate, and
* the number of shadow drift alerts raised.

Everything is seed-deterministic — corpus batches, hash families, and
the exact-mirror shadow — so the resulting numbers are bit-stable across
runs and machines, which is what lets ``python -m repro.workloads
compare`` exit-1-gate on them in CI (see :mod:`repro.workloads.schema`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ParameterError, QueryError
from .corpus import WorkloadInstance, workloads_for
from .schema import ACCURACY_VERSION, validate_accuracy

#: Default sketch width for harness engines (matches the smoke corpus
#: domains: wide enough for meaningful skims, small enough to be fast).
DEFAULT_WIDTH = 256

#: Default sketch depth (odd, per the paper's median boosting).
DEFAULT_DEPTH = 5

#: Default hash-family seed for harness engines.
DEFAULT_ENGINE_SEED = 101


def run_workload(
    instance: WorkloadInstance,
    width: int = DEFAULT_WIDTH,
    depth: int = DEFAULT_DEPTH,
    engine_seed: int = DEFAULT_ENGINE_SEED,
    workers: int | None = None,
) -> dict[str, Any]:
    """Run one workload fully audited; return its ACCURACY record.

    ``workers=None`` uses the serial :class:`StreamEngine`; an integer
    runs the same workload through :class:`ParallelStreamEngine` with
    that many shards (answers are bit-identical by linearity — the
    selfcheck CLI proves it).
    """
    # Imported lazily so ``python -m repro.workloads list`` works without
    # numpy (mirroring the repro.bench scenario contract).
    from ..core.config import SketchParameters
    from ..monitor import AUDIT
    from ..monitor.shadow import ShadowAuditor
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery

    parameters = SketchParameters(width=width, depth=depth)
    if workers is None:
        engine: StreamEngine = StreamEngine(
            instance.domain_size, parameters, synopsis="skimmed", seed=engine_seed
        )
        closer: Callable[[], None] = lambda: None
    else:
        from ..parallel import ParallelStreamEngine

        parallel_engine = ParallelStreamEngine(
            instance.domain_size,
            parameters,
            synopsis="skimmed",
            seed=engine_seed,
            workers=workers,
        )
        engine = parallel_engine
        closer = parallel_engine.close

    shadow = ShadowAuditor(sample_rate=1.0, seed=0)
    engine.attach_shadow(shadow)
    for name, predicate in instance.streams.items():
        engine.register_stream(name, predicate=predicate)

    was_enabled = AUDIT.enabled
    AUDIT.reset()
    AUDIT.enable()
    try:
        for batch in instance.batches:
            engine.process_bulk(batch.stream, batch.values, batch.weights)
        query_rows: list[dict[str, Any]] = []
        for left, right in instance.queries:
            query = (
                SelfJoinQuery(left) if left == right else JoinCountQuery(left, right)
            )
            estimate = engine.answer(query)
            audit = AUDIT.last()
            if audit is None or audit.streams != (left, right):
                raise QueryError(
                    f"workload {instance.name!r}: query ({left}, {right}) "
                    "produced no enriched audit"
                )
            if audit.shadow_exact == 0:
                raise ParameterError(
                    f"workload {instance.name!r}: query ({left}, {right}) has "
                    "an exactly-zero join size; relative error is undefined — "
                    "re-parameterise the family so every audited join is "
                    "non-empty"
                )
            query_rows.append(
                {
                    "left": left,
                    "right": right,
                    "estimate": float(estimate),
                    "exact": float(audit.shadow_exact),
                    "realized_relative_error": float(
                        audit.realized_relative_error
                    ),
                    "covered": bool(audit.covered),
                    "ci_halfwidth": float(audit.ci_halfwidth),
                    "residual_bound_ok": bool(audit.residual_bound_ok),
                }
            )
        alerts = shadow.alert_count
    finally:
        if not was_enabled:
            AUDIT.disable()
        AUDIT.reset()
        closer()

    errors = [row["realized_relative_error"] for row in query_rows]
    return {
        "workload": instance.name,
        "family": instance.family,
        "params": dict(instance.params),
        "seed": instance.seed,
        "updates": instance.total_updates(),
        "queries": query_rows,
        "max_realized_relative_error": max(errors),
        "mean_realized_relative_error": sum(errors) / len(errors),
        "coverage_rate": sum(row["covered"] for row in query_rows)
        / len(query_rows),
        "residual_ok_rate": sum(row["residual_bound_ok"] for row in query_rows)
        / len(query_rows),
        "drift_alerts": int(alerts),
    }


def run_suite(
    suite: str,
    seed: int = 0,
    width: int = DEFAULT_WIDTH,
    depth: int = DEFAULT_DEPTH,
    engine_seed: int = DEFAULT_ENGINE_SEED,
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run every corpus family in ``suite``; return an ACCURACY document."""
    from ..bench.runner import detect_revision
    from ..monitor import AUDIT

    records: list[dict[str, Any]] = []
    for instance in workloads_for(suite, seed=seed):
        if progress is not None:
            progress(
                f"running {instance.name} "
                f"({instance.total_updates()} updates, "
                f"{len(instance.queries)} queries)"
            )
        records.append(
            run_workload(
                instance,
                width=width,
                depth=depth,
                engine_seed=engine_seed,
                workers=workers,
            )
        )
    return validate_accuracy(
        {
            "version": ACCURACY_VERSION,
            "kind": "repro.workloads",
            "suite": suite,
            "revision": detect_revision(),
            "engine": {
                "synopsis": "skimmed",
                "width": width,
                "depth": depth,
                "seed": engine_seed,
                "delta": AUDIT.delta,
                "workers": workers,
            },
            "records": records,
        }
    )

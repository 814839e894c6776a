"""Accuracy-regression harness: run corpus workloads under full audit.

For each :class:`~repro.workloads.corpus.WorkloadInstance` the harness
builds a skimmed-sketch :class:`~repro.streams.engine.StreamEngine`,
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

import os
import subprocess
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


def detect_revision() -> str:
    """Best-effort identifier for the code under measurement.

    ``REPRO_REVISION`` wins (lets CI pin the value), then the git short
    hash, then ``"unknown"`` — an ACCURACY file is still useful without one.
    """
    env = os.environ.get("REPRO_REVISION")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_workload(
    instance: WorkloadInstance,
    width: int = DEFAULT_WIDTH,
    depth: int = DEFAULT_DEPTH,
    engine_seed: int = DEFAULT_ENGINE_SEED,
) -> dict[str, Any]:
    """Run one workload fully audited; return its ACCURACY record."""
    # Imported lazily so ``python -m repro.workloads list`` works without
    # numpy.
    from ..core.config import SketchParameters
    from ..monitor import AUDIT
    from ..monitor.shadow import ShadowAuditor
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery

    engine = StreamEngine(
        instance.domain_size,
        SketchParameters(width=width, depth=depth),
        synopsis="skimmed",
        seed=engine_seed,
    )
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
                    "produced no engine audit"
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
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run every corpus family in ``suite``; return an ACCURACY document."""
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
            },
            "records": records,
        }
    )

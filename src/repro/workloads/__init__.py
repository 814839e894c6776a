"""Adversarial workload corpus + accuracy-regression gate (``repro.workloads``).

``repro.bench`` made *throughput* a diffable, gated trajectory; this
package does the same for *estimate quality*.  A registry of named,
seed-deterministic adversarial corpus families (skew drift, delete
churn, Ting-style filtered subset sums, correlated/anti-correlated join
pairs — :mod:`repro.workloads.corpus`) is replayed through the stream
engines with the ``repro.monitor`` shadow-exact auditor attached
(:mod:`repro.workloads.harness`), emitting one versioned ACCURACY JSON
document per run::

    python -m repro.workloads run --suite smoke --json-out ACCURACY_<rev>.json
    python -m repro.workloads compare \\
        benchmarks/baselines/ACCURACY_baseline.json ACCURACY_abc.json

``compare`` exits non-zero when a workload's realized relative error,
CI-coverage rate, residual-contract verdict rate, or drift-alert count
regresses past tolerance — every number is seed-deterministic, so the
gate holds across machines.  ``selfcheck`` proves corpus determinism and
audit coverage in-process.

Design contract (adapted from :mod:`repro.bench`): no module in this
package imports numpy or the engines at module level — they load lazily
only when workloads actually run, so ``list`` stays import-cheap.
"""

from .corpus import (
    FAMILIES,
    Family,
    WorkloadBatch,
    WorkloadInstance,
    build_workload,
    family_names,
    suite_names,
    workloads_for,
)
from .harness import run_suite, run_workload
from .schema import (
    ACCURACY_VERSION,
    compare_accuracy,
    read_accuracy,
    record_key,
    render_compare,
    validate_accuracy,
    write_accuracy,
)

__all__ = [
    "ACCURACY_VERSION",
    "FAMILIES",
    "Family",
    "WorkloadBatch",
    "WorkloadInstance",
    "build_workload",
    "compare_accuracy",
    "family_names",
    "read_accuracy",
    "record_key",
    "render_compare",
    "run_suite",
    "run_workload",
    "suite_names",
    "validate_accuracy",
    "workloads_for",
    "write_accuracy",
]

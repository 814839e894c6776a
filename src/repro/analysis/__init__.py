"""repro.analysis — domain-invariant static analysis for the sketch kernels.

The paper's correctness guarantees rest on conventions the type system
cannot see: joined sketches must share one ``HashSketchSchema`` (paper
Section 4.3), sign families must be four-wise independent, per-element
update cost must stay ``O(depth)`` — which in this repo means vectorised
numpy kernels with explicit dtypes, never Python-level per-element
loops.  This package makes those conventions machine-checked: a
dependency-free (stdlib ``ast``) rule engine that checks one file at a
time, a CLI, and six rules:

* **R1** — explicit ``dtype`` in kernel array construction;
* **R2** — no per-element Python loops in kernel hot paths;
* **R3** — ``_METRICS``/``_TRACER``/``_AUDIT`` recording guarded by
  that singleton's own ``enabled`` flag;
* **R4** — sketch randomness constructed via ``*Schema`` objects only;
* **R5** — library errors derive from ``repro.errors``;
* **R6** — RNGs constructed with explicit seeds.

(R7 and R8 are folded into R3; R10, R12 and R13 are retired with the
code they policed.  R9 and R11 are retired because the tests fail on
every planted linearity or dtype fault that changes an answer — see the
mutation table in ``docs/STATIC_ANALYSIS.md``.  No retired id is
reused.)

Run it::

    PYTHONPATH=src python -m repro.analysis src tests
    PYTHONPATH=src python -m repro.analysis --catalogue
    PYTHONPATH=src python -m repro.analysis --json src
    PYTHONPATH=src python -m repro.analysis --select R1,R2 src
    PYTHONPATH=src python -m repro.analysis --sarif out.sarif src
    PYTHONPATH=src python -m repro.analysis suppressions src --strict

Suppress a deliberate exception with ``# repro: noqa[R1]`` plus a
reason comment on the finding's line (the ``suppressions`` subcommand
audits every site and ``--strict`` rejects reason-less ones).  Full
rule catalogue: ``docs/STATIC_ANALYSIS.md``.

Like :mod:`repro.obs`, this package imports **only the standard
library** (no numpy, no intra-repo modules) so it can lint any checkout
— including one whose dependencies are not installed; the test suite
enforces that.
"""

from __future__ import annotations

from . import rules  # noqa: F401  (registers the built-in rule set)
from .cli import main
from .context import FileContext, Role, classify
from .engine import Report, analyze_paths, analyze_source, iter_python_files
from .findings import Finding
from .registry import Rule, all_rules, catalogue, get_rules, register
from .sarif import to_sarif
from .suppress import Suppression, audit, collect_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "Report",
    "Role",
    "Rule",
    "Suppression",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "audit",
    "catalogue",
    "classify",
    "collect_suppressions",
    "get_rules",
    "iter_python_files",
    "main",
    "register",
    "to_sarif",
]

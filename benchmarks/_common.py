"""Shared plumbing for the benchmark suite.

Every ``bench_*.py`` file regenerates one evaluation artifact of the paper
(see the experiment index in DESIGN.md).  Results are rendered as plain
text tables — the rows a plot of the paper's figure would be drawn from —
and (a) printed, so ``pytest benchmarks/ --benchmark-only -s`` shows them
live, and (b) written under ``benchmarks/results/``, so the numbers
survive pytest's output capture and feed EXPERIMENTS.md.

Alongside each ``results/<name>.txt`` table, :func:`emit` writes a
``results/<name>.json`` sidecar carrying the *structured* rows the table
was rendered from, so downstream tooling (EXPERIMENTS.md regeneration,
cross-commit diffing scripts) never has to re-parse a human-formatted
table.

Heavyweight experiments run once inside ``benchmark.pedantic(...,
rounds=1)``: the interesting output is the accuracy table, and the
benchmark fixture's wall-clock reading doubles as a record of experiment
cost.  Micro-benchmarks (per-element update cost) use the fixture
conventionally with many rounds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"

#: Schema version of the ``results/<name>.json`` sidecar.
SIDECAR_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively coerce experiment data into strict-JSON values.

    Numpy scalars expose ``.item()``; non-finite floats (legitimately
    produced by e.g. the space-scaling sweep reporting ``inf`` when a
    method never reaches the target error) become strings, because strict
    JSON has no Infinity/NaN literals.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit(
    name: str,
    text: str,
    rows: Any = None,
    columns: list[str] | None = None,
) -> str:
    """Print an experiment's rendered table and persist it to results/.

    ``rows`` is the structured data behind the table (any JSON-able
    shape: a list of dicts, a list of row lists — pass ``columns`` to
    name their fields — or a nested dict for multi-part artifacts); it is
    written to ``results/<name>.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    sidecar = {
        "version": SIDECAR_VERSION,
        "kind": "repro.bench-table",
        "name": name,
        "columns": columns,
        "rows": _jsonable(rows),
    }
    json_path = RESULTS_DIR / f"{name}.json"
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"\n{text}\n[written to {path} and {json_path}]")
    return text

"""Compare two sets of end-to-end results under the bounds in BENCHMARK.json.

    python benchmarks/e2e/compare.py --base A1.json A2.json ... --head B1.json ...

Each file is a ``run.py --json-out`` document.  For every (end-to-end
metric, workload) pair the report gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the change of the median, the
larger of the two spreads (quartile distance / median), the share of pairs
(i-th base run against i-th head run) the head wins, and a verdict:

* ``regressed``: the head's median is worse than the base's by more than
  the metric's bound, and both spreads are within the bound, or every
  head run is worse than every base run;
* ``unresolved``: a spread exceeds the bound, so the bound cannot be
  checked; never reported as unchanged;
* ``improved``: the head wins at least nine tenths of the pairs and the
  medians differ by more than the base's quartile distance (or, where the
  spread exceeds the bound, every head run beats every base run);
* ``unchanged``: otherwise.

A metric whose base median is 0 has an absolute bound: any head run worse
than 0 regresses.  Besides the end-to-end metrics of ``BENCHMARK.json``,
the pairs cover :data:`RECORD_BOUNDS`.

Exits 1 when any pair regressed, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics every untraced record carries that ``BENCHMARK.json`` cannot
#: bound: ``failure_rate`` reads 0, and ``rel_error`` is exact for a seed
#: but varies across seeds by more than any bound the file allows.
#: Compared on result sets of one seed, both are exact, so these bounds
#: hold.
RECORD_BOUNDS = (
    {"name": "rel_error", "better": "lower", "bound": 0.10},
    {"name": "failure_rate", "better": "lower", "bound": 0.0},
)


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: tuple[float, float, float]
    head: tuple[float, float, float]
    change: float
    spread: float
    win_share: float
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list[float], head: list[float], bound: float, better: str) -> dict:
    """Verdict for one (metric, workload) pair; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    spread = max(
        (b3 - b1) / abs(bm) if bm else 0.0,
        (h3 - h1) / abs(hm) if hm else 0.0,
    )
    pairs = list(zip(base, head))
    win_share = sum(sign * (h - b) < 0 for b, h in pairs) / len(pairs)
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    all_worse = all(sign * (h - b) > 0 for h in head for b in base)
    if bm:
        change = sign * (hm - bm) / abs(bm)
    else:  # no relative change from 0: any worse head run is a regression
        change = math.inf if any(sign * h > 0 for h in head) else 0.0
    if change > bound:
        verdict = "regressed" if not bm or spread <= bound or all_worse else "unresolved"
    elif spread > bound:
        verdict = "improved" if all_better else "unresolved"
    elif change < 0 and win_share >= 0.9 and abs(hm - bm) > b3 - b1:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "base": (b1, bm, b3),
        "head": (h1, hm, h3),
        "change": change,
        "spread": spread,
        "win_share": win_share,
        "verdict": verdict,
    }


def _values(documents: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for document in documents:
        record = document["workloads"].get(workload)
        if record is not None and metric in record["metrics"]:
            values.append(float(record["metrics"][metric]))
    return values


def compare(benchmark: dict, base: list[dict], head: list[dict]) -> list[Row]:
    """One row per (bounded metric, workload) present on both sides."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in (*benchmark["end_to_end"], *RECORD_BOUNDS):
            base_values = _values(base, workload, metric["name"])
            head_values = _values(head, workload, metric["name"])
            if not base_values or not head_values:
                continue
            rows.append(
                Row(
                    workload,
                    metric["name"],
                    **judge(base_values, head_values, metric["bound"], metric["better"]),
                )
            )
    return rows


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        base, head = _load(args.base), _load(args.head)
        rows = compare(benchmark, base, head)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("error: no (metric, workload) pair present on both sides", file=sys.stderr)
        return 2

    print(
        f"{'workload':<18} {'metric':<14} {'base median [q1, q3]':>34} "
        f"{'head median [q1, q3]':>34} {'change':>8} {'spread':>7} {'wins':>5}  verdict"
    )
    for row in rows:
        print(
            f"{row.workload:<18} {row.metric:<14} {_side(row.base):>34} "
            f"{_side(row.head):>34} {row.change:>+8.1%} {row.spread:>7.1%} "
            f"{row.win_share:>5.0%}  {row.verdict}"
        )
    regressed = [row for row in rows if row.verdict == "regressed"]
    print(
        f"{len(rows)} pairs: "
        + ", ".join(
            f"{sum(r.verdict == v for r in rows)} {v}"
            for v in ("regressed", "unresolved", "improved", "unchanged")
        )
        + f"; base {len(base)} runs, head {len(head)} runs"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

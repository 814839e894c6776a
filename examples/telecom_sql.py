"""Telecom monitoring console: SQL queries over live CDR streams.

Run:  python examples/telecom_sql.py

The paper's opening scenario — continuous Call-Detail-Record analysis in
a large Telecom network — driven end to end through the textual query
interface: declare queries in the SQL subset (predicates install at
ingestion, per §2.1), stream synthetic CDRs through the engine, answer
aggregates from synopses only, and list the heaviest callers by
skimming the morning stream's synopsis.
"""

from __future__ import annotations

import numpy as np

from repro import SketchParameters
from repro.streams import CDRSource, StreamEngine, feed_engine

SUBSCRIBERS = 1 << 14
CALLS_MORNING = 120_000
CALLS_EVENING = 120_000


def main() -> None:
    engine = StreamEngine(
        domain_size=SUBSCRIBERS,
        parameters=SketchParameters(width=300, depth=11),
        seed=99,
    )

    # Declare the standing queries up front; WHERE predicates must be
    # installed before any element flows (selection happens at ingestion).
    repeat_activity = engine.prepare_sql(
        "SELECT COUNT(*) FROM morning JOIN evening"
    )
    minutes_by_overlap = engine.prepare_sql(
        "SELECT SUM(morning_minutes) FROM morning JOIN evening"
    )
    # Restrict one copy of the morning stream to the premium subscriber
    # block [0, 256) — the Zipf-popular ids that carry most traffic.
    premium_band = engine.prepare_sql(
        "SELECT COUNT(*) FROM morning_premium JOIN evening "
        "WHERE morning_premium < 256"
    )

    source = CDRSource(SUBSCRIBERS, popularity_skew=1.1, seed=4)

    morning = list(source.records(CALLS_MORNING, hour_of_day=9.0))
    evening = list(source.records(CALLS_EVENING, hour_of_day=20.0))

    feed_engine(engine, "morning", morning, key=lambda r: r.caller)
    feed_engine(
        engine,
        "morning_minutes",
        morning,
        key=lambda r: r.caller,
        weight=lambda r: r.duration_seconds / 60.0,
    )
    feed_engine(engine, "morning_premium", morning, key=lambda r: r.caller)
    feed_engine(engine, "evening", evening, key=lambda r: r.caller)

    # Exact references (what an offline warehouse would compute).
    m = np.bincount([r.caller for r in morning], minlength=SUBSCRIBERS)
    e = np.bincount([r.caller for r in evening], minlength=SUBSCRIBERS)
    exact_pairs = float(m @ e)

    print(f"CDRs processed: {CALLS_MORNING + CALLS_EVENING:,} "
          f"({engine.total_space_in_counters():,} synopsis counters total)\n")

    answer = engine.answer(repeat_activity.query)
    print("SELECT COUNT(*) FROM morning JOIN evening")
    print(f"  -> {answer:,.0f}   (exact {exact_pairs:,.0f}, "
          f"{abs(answer - exact_pairs) / exact_pairs:.2%} error)\n")

    minutes = engine.answer(minutes_by_overlap.query)
    print("SELECT SUM(morning_minutes) FROM morning JOIN evening")
    print(f"  -> {minutes:,.0f} caller-minutes weighted pair count\n")

    banded = engine.answer(premium_band.query)
    seen, dropped = engine.stream_stats("morning_premium")
    exact_banded = float(m[:256] @ e[:256])
    print("SELECT COUNT(*) FROM morning_premium JOIN evening "
          "WHERE morning_premium < 256")
    print(f"  -> {banded:,.0f}   (exact {exact_banded:,.0f}; predicate "
          f"dropped {dropped:,} of {seen:,} morning records at ingestion)\n")

    # The skim lists every caller whose estimated call count reaches the
    # threshold theta: the callers the join estimator treats as dense.
    heavy, _ = engine.synopsis_for("morning").skim()
    print(f"heaviest morning callers (skimmed at theta = "
          f"{heavy.threshold:,.0f}):")
    for value, estimate in zip(heavy.dense_values, heavy.dense_frequencies):
        print(f"  subscriber {value:>6}: ~{estimate:,.0f} calls "
              f"(exact {m[value]:,})")


if __name__ == "__main__":
    main()

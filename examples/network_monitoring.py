"""Network monitoring: correlating flows across two routers in real time.

Run:  python examples/network_monitoring.py

The paper's motivating scenario (§1): a large ISP continuously collects
per-flow records (here: destination-address keys) at different points of
the network and wants on-line answers to correlation queries such as

    "how many (packet@router1, packet@router2) pairs share a destination?"
    = COUNT(R1 join R2 on destination)

without storing the traffic.  This example simulates two routers seeing
overlapping, heavy-tailed traffic — including *retracted* records (e.g.
flow-timeout corrections), which arrive as deletions — and answers the
query from a few-KB synopsis per router via the Figure-1 stream engine.
It also lists the heaviest destinations at router1 from the same
synopsis: skimming it extracts them, since they are exactly the "dense"
values the join estimator handles exactly.
"""

from __future__ import annotations

import numpy as np

from repro import SketchParameters
from repro.streams import JoinCountQuery, SelfJoinQuery, StreamEngine
from repro.streams.generators import zipf_frequencies
from repro.streams.model import FrequencyVector, iter_stream

ADDRESS_SPACE = 1 << 16  # hashed /16 destination keys
FLOWS_PER_ROUTER = 150_000
RETRACTION_RATE = 0.02


def simulate_router_traffic(seed: int, hot_shift: int) -> FrequencyVector:
    """Heavy-tailed per-destination flow counts, distinct hot set per router."""
    base = zipf_frequencies(
        ADDRESS_SPACE, FLOWS_PER_ROUTER, 1.1, np.random.default_rng(seed)
    )
    # Routers see overlapping but not identical hot destinations.
    return FrequencyVector(np.roll(base.counts, hot_shift))


def main() -> None:
    engine = StreamEngine(
        domain_size=ADDRESS_SPACE,
        parameters=SketchParameters(width=300, depth=11),
        seed=2024,
    )
    engine.register_stream("router1")
    engine.register_stream("router2")

    rng = np.random.default_rng(1)
    truth = {}
    for router, shift in (("router1", 0), ("router2", 40)):
        traffic = simulate_router_traffic(seed=shift, hot_shift=shift)
        truth[router] = traffic
        for update in iter_stream(traffic):
            engine.process(router, update.value, update.weight)
            # Occasionally the collector retracts a record (flow-timeout
            # merge): a deletion, which the sketches absorb exactly.
            if rng.random() < RETRACTION_RATE:
                engine.process(router, update.value, -update.weight)
                engine.process(router, update.value, update.weight)

    actual = truth["router1"].join_size(truth["router2"])
    answer = engine.answer(JoinCountQuery("router1", "router2"))
    print(f"flows per router             : {FLOWS_PER_ROUTER:,}")
    print(f"exact cross-router matches   : {actual:,.0f}")
    print(f"sketch estimate              : {answer:,.0f} "
          f"({abs(answer - actual) / actual:.2%} error)")
    print(f"synopsis space               : "
          f"{engine.total_space_in_counters():,} counters total")

    f2 = engine.answer(SelfJoinQuery("router1"))
    print(f"router1 traffic concentration (F2): {f2:,.0f} "
          f"(exact {truth['router1'].self_join_size():,.0f})")

    # The skim lists every destination whose estimated flow count
    # reaches the threshold theta, with that estimate.
    heavy, _ = engine.synopsis_for("router1").skim()
    print(f"\nhottest destinations at router1 (skimmed at theta = "
          f"{heavy.threshold:,.0f}):")
    for value, estimate in zip(heavy.dense_values, heavy.dense_frequencies):
        print(f"  dest {value:>6}: ~{estimate:,.0f} flows "
              f"(exact {truth['router1'][value]:,.0f})")


if __name__ == "__main__":
    main()

"""Retail stream: SUM and AVERAGE aggregates over a join, with returns.

Run:  python examples/retail_stream.py

A retail chain streams sales transactions; a marketing system streams ad
impressions keyed by the same product ids.  Questions answered on-line,
per §2.1 of the paper (SUM reduces to COUNT over a measure-weighted
stream; AVERAGE = SUM / COUNT):

* COUNT(sales join ads)        — how many (sale, impression) pairs match?
* SUM_revenue(sales join ads)  — revenue-weighted match volume;
* AVERAGE_revenue(...)         — average matched-sale revenue.

Product returns arrive as deletions and are handled exactly.  A selection
predicate drops a blacklisted product range before sketching, as the
paper prescribes ("we simply drop ... elements that do not satisfy the
predicates").
"""

from __future__ import annotations

import numpy as np

from repro import SketchParameters
from repro.streams import (
    JoinAverageQuery,
    JoinCountQuery,
    JoinSumQuery,
    RangePredicate,
    StreamEngine,
)

PRODUCTS = 1 << 12
SALES = 60_000
IMPRESSIONS = 80_000
BLACKLIST_START = 4000  # internal test skus, excluded from analytics


def main() -> None:
    engine = StreamEngine(
        domain_size=PRODUCTS,
        parameters=SketchParameters(width=256, depth=11),
        seed=7,
    )
    allowed = RangePredicate(0, BLACKLIST_START)
    engine.register_stream("sales", predicate=allowed)
    engine.register_stream("sales_revenue", predicate=allowed)
    engine.register_stream("ads", predicate=allowed)

    rng = np.random.default_rng(3)
    pmf = np.arange(1, PRODUCTS + 1, dtype=float) ** -1.05
    pmf /= pmf.sum()

    # Ground truth accumulators (what an offline warehouse would compute).
    sale_count = np.zeros(PRODUCTS)
    sale_revenue = np.zeros(PRODUCTS)
    ad_count = np.zeros(PRODUCTS)

    for _ in range(SALES):
        product = int(rng.choice(PRODUCTS, p=pmf))
        price = float(np.round(rng.lognormal(np.log(30.0), 0.6), 2))
        engine.process("sales", product)
        engine.process("sales_revenue", product, price)
        if product < BLACKLIST_START:
            sale_count[product] += 1
            sale_revenue[product] += price
        # ~3% of sales are returned later: delete from both streams.
        if rng.random() < 0.03:
            engine.process("sales", product, -1.0)
            engine.process("sales_revenue", product, -price)
            if product < BLACKLIST_START:
                sale_count[product] -= 1
                sale_revenue[product] -= price

    ads = rng.choice(PRODUCTS, size=IMPRESSIONS, p=pmf)
    engine.process_bulk("ads", ads)
    kept = ads[ads < BLACKLIST_START]
    np.add.at(ad_count, kept, 1.0)

    exact_count = float(sale_count @ ad_count)
    exact_sum = float(sale_revenue @ ad_count)

    count = engine.answer(JoinCountQuery("sales", "ads"))
    revenue = engine.answer(JoinSumQuery("sales", "ads", "sales_revenue"))
    average = engine.answer(JoinAverageQuery("sales", "ads", "sales_revenue"))

    seen, dropped = engine.stream_stats("sales")
    print(f"sales processed              : {seen:,} ({dropped:,} blacklisted)")
    print(f"COUNT(sales x ads)  estimate : {count:,.0f}  "
          f"(exact {exact_count:,.0f}, {abs(count-exact_count)/exact_count:.2%} err)")
    print(f"SUM_rev(sales x ads) estimate: ${revenue:,.0f}  "
          f"(exact ${exact_sum:,.0f}, {abs(revenue-exact_sum)/exact_sum:.2%} err)")
    print(f"AVG matched sale revenue     : ${average:,.2f}  "
          f"(exact ${exact_sum / exact_count:,.2f})")


if __name__ == "__main__":
    main()

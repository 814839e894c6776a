"""Heavy hitters come from the skim (Theorems 3-4).

SKIMDENSE extracts every value whose estimated frequency reaches the
threshold ``theta``; its ``dense_values`` and ``dense_frequencies`` are a
stream's heavy hitters with their estimates.  These tests drive the public
path on a flat ``StreamEngine`` stream and on a dyadic skimmed sketch,
fed a Zipf(1.3) update stream with insert/delete churn: every value with
true net frequency ``>= 2 * theta`` is listed, within a fixed additive
tolerance, and the list follows deletions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SketchParameters, SkimmedSketchSchema, StreamEngine
from repro.streams.generators import insert_delete_stream, zipf_frequencies

DOMAIN = 1 << 12
WIDTH, DEPTH = 1024, 7
#: A fixed additive tolerance on each extracted estimate.  One table's
#: collision noise here is about sqrt(SJ(residual) / width) ~ 100, and the
#: median of seven tables lands within a few units of the truth.
TOLERANCE = 50.0


def _feed(kind: str, seed: int):
    """The skimmed sketch of a churned Zipf(1.3) stream, its true net
    frequencies, and a function that feeds it another batch."""
    rng = np.random.default_rng(seed)
    truth = zipf_frequencies(DOMAIN, 40_000, 1.3, rng)
    stream = insert_delete_stream(truth, 0.25, rng)
    counts = truth.counts.copy()
    if kind == "flat":
        engine = StreamEngine(DOMAIN, SketchParameters(WIDTH, DEPTH), seed=seed)
        engine.register_stream("f")
        engine.process_many("f", stream)

        def feed(values, weights=None):
            engine.process_bulk("f", values, weights)

        sketch = engine.synopsis_for("f")
    else:
        sketch = SkimmedSketchSchema(
            WIDTH, DEPTH, DOMAIN, seed=seed, dyadic=True
        ).create_sketch()
        feed = sketch.update_bulk
        feed(
            np.asarray([u.value for u in stream], dtype=np.int64),
            np.asarray([u.weight for u in stream]),
        )
    return sketch, counts, feed


CASES = [
    pytest.param(kind, seed, id=f"{kind}-{seed}")
    for kind in ("flat", "dyadic")
    for seed in (0, 1, 2)
]


@pytest.mark.parametrize("kind,seed", CASES)
def test_skim_lists_every_heavy_value(kind, seed):
    sketch, counts, _ = _feed(kind, seed)
    result, _ = sketch.skim()
    heavy = np.flatnonzero(counts >= 2 * result.threshold)
    assert heavy.size >= 2
    assert set(heavy.tolist()) <= set(result.dense_values.tolist())
    errors = np.abs(result.dense_frequencies - counts[result.dense_values])
    assert errors.max() <= TOLERANCE


@pytest.mark.parametrize("kind,seed", CASES)
def test_deletions_demote_and_inserts_promote(kind, seed):
    sketch, counts, feed = _feed(kind, seed)
    result, _ = sketch.skim()
    demoted = int(result.dense_values[np.argmax(result.dense_frequencies)])
    promoted = 37
    assert promoted not in result.dense_values

    dropped, pushed = int(0.9 * counts[demoted]), 6_000
    feed(np.full(dropped, demoted), -np.ones(dropped))
    feed(np.full(pushed, promoted))
    counts[demoted] -= dropped
    counts[promoted] += pushed

    after, _ = sketch.skim()
    assert counts[demoted] < after.threshold - TOLERANCE
    assert counts[promoted] >= 2 * after.threshold
    assert demoted not in after.dense_values
    assert promoted in after.dense_values
    assert after.frequency_of(promoted) == pytest.approx(
        counts[promoted], abs=TOLERANCE
    )

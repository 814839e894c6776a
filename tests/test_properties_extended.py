"""Property-based tests for the extension modules (windows, dyadic
ranges, serialization, multi-join linearity)."""

from __future__ import annotations

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_sketch, save_sketch
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.multijoin import MultiJoinSchema
from repro.streams.windows import WindowedSketchSchema

DOMAIN = 64

values_strategy = st.lists(st.integers(0, DOMAIN - 1), max_size=80)
epochs_strategy = st.lists(
    st.lists(st.integers(0, DOMAIN - 1), max_size=20), min_size=1, max_size=6
)


@given(epochs=epochs_strategy, window=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_window_equals_sketch_of_recent_epochs(epochs, window):
    """For any epoch layout, the window sketch equals an ordinary sketch fed
    exactly the last ``window`` epochs' elements."""
    schema = WindowedSketchSchema(16, 3, DOMAIN, window_epochs=window, seed=0)
    sketch = schema.create_sketch()
    for i, epoch_values in enumerate(epochs):
        if i > 0:
            sketch.advance_epoch()
        for value in epoch_values:
            sketch.update(value)
    reference = schema.inner.create_sketch()
    for epoch_values in epochs[-window:]:
        for value in epoch_values:
            reference.update(value)
    assert np.allclose(sketch.window_sketch().counters, reference.counters)


@given(
    values=values_strategy,
    low=st.integers(0, DOMAIN - 1),
    length=st.integers(1, DOMAIN),
)
@settings(max_examples=40, deadline=None)
def test_dyadic_range_covers_each_value_once(values, low, length):
    """With a single occupied value, a range estimate is its frequency if
    covered and ~0 otherwise (the decomposition neither misses nor
    double-counts)."""
    high = min(DOMAIN, low + length)
    schema = DyadicSketchSchema(64, 5, DOMAIN, seed=1, coarse_cutoff=8)
    sketch = schema.create_sketch()
    if not values:
        return
    target = values[0]
    sketch.update(target, 10.0)
    estimate = sketch.range_estimate(low, high)
    expected = 10.0 if low <= target < high else 0.0
    assert abs(estimate - expected) < 1.0


@given(values=values_strategy)
@settings(max_examples=30, deadline=None)
def test_serialization_round_trip_property(values):
    schema = HashSketchSchema(16, 3, DOMAIN, seed=2)
    sketch = schema.create_sketch()
    for value in values:
        sketch.update(value)
    buffer = io.BytesIO()
    save_sketch(sketch, buffer)
    buffer.seek(0)
    restored = load_sketch(buffer)
    assert np.array_equal(restored.counters, sketch.counters)
    assert restored.absolute_mass == sketch.absolute_mass


@given(
    tuples=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40
    )
)
@settings(max_examples=30, deadline=None)
def test_multijoin_relation_sketch_linearity(tuples):
    """Feeding tuples then their deletions zeroes the relation sketch."""
    schema = MultiJoinSchema(4, 3, {"a": 16, "b": 16}, seed=3)
    relation = schema.create_relation(("a", "b"))
    for row in tuples:
        relation.update(row)
    for row in tuples:
        relation.update(row, -1.0)
    assert np.allclose(relation.atomic_sketches, 0.0)

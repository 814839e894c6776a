"""Property-based tests (hypothesis) for the library's core invariants.

These pin down the *algebraic* guarantees every estimator's correctness
rests on: sketches are linear projections (additivity, delete-inverse),
skimming is exact subtraction, bulk and element maintenance coincide, and
shared schemas imply identical randomness.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skim import default_threshold, skim_dense
from repro.sketches.agms import AGMSSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.model import FrequencyVector

DOMAIN = 64

counts_strategy = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=DOMAIN, max_size=DOMAIN
)
updates_strategy = st.lists(
    st.tuples(
        st.integers(0, DOMAIN - 1),
        st.sampled_from([-2.0, -1.0, 1.0, 2.0, 0.5]),
    ),
    max_size=60,
)


def hash_schema(seed=0, width=16, depth=3):
    return HashSketchSchema(width, depth, DOMAIN, seed=seed)


def to_vector(counts) -> FrequencyVector:
    return FrequencyVector(np.asarray(counts, dtype=np.float64))


@given(counts=counts_strategy, other=counts_strategy)
@settings(max_examples=40, deadline=None)
def test_hash_sketch_is_additive(counts, other):
    """sketch(f + g) == sketch(f) + sketch(g), counter by counter."""
    schema = hash_schema()
    f, g = to_vector(counts), to_vector(other)
    merged = schema.sketch_of(f).merged_with(schema.sketch_of(g))
    direct = schema.sketch_of(f + g)
    assert np.allclose(merged.counters, direct.counters)


@given(updates=updates_strategy)
@settings(max_examples=40, deadline=None)
def test_hash_sketch_deletes_invert_inserts(updates):
    """Applying every update then its negation returns the zero sketch."""
    schema = hash_schema(seed=1)
    sketch = schema.create_sketch()
    for value, weight in updates:
        sketch.update(value, weight)
    for value, weight in updates:
        sketch.update(value, -weight)
    assert np.allclose(sketch.counters, 0.0)


@given(updates=updates_strategy)
@settings(max_examples=30, deadline=None)
def test_hash_sketch_order_invariance(updates):
    """Stream order never matters (the model allows arbitrary arrival)."""
    schema = hash_schema(seed=2)
    forward = schema.create_sketch()
    for value, weight in updates:
        forward.update(value, weight)
    backward = schema.create_sketch()
    for value, weight in reversed(updates):
        backward.update(value, weight)
    assert np.allclose(forward.counters, backward.counters)


@given(updates=updates_strategy)
@settings(max_examples=30, deadline=None)
def test_hash_sketch_bulk_equals_elementwise(updates):
    schema = hash_schema(seed=3)
    loop = schema.create_sketch()
    for value, weight in updates:
        loop.update(value, weight)
    bulk = schema.create_sketch()
    if updates:
        values = np.asarray([v for v, _ in updates], dtype=np.int64)
        weights = np.asarray([w for _, w in updates])
        bulk.update_bulk(values, weights)
    assert np.allclose(loop.counters, bulk.counters)


@given(counts=counts_strategy)
@settings(max_examples=30, deadline=None)
def test_agms_bulk_equals_elementwise(counts):
    schema = AGMSSchema(4, 3, DOMAIN, seed=4)
    freqs = to_vector(counts)
    bulk = schema.sketch_of(freqs)
    loop = schema.create_sketch()
    for value, freq in freqs.nonzero_items():
        loop.update(value, freq)
    assert np.allclose(bulk.atomic_sketches, loop.atomic_sketches)


@given(
    counts=st.lists(st.integers(0, 50), min_size=DOMAIN, max_size=DOMAIN),
    threshold=st.floats(1.0, 40.0),
)
@settings(max_examples=30, deadline=None)
def test_skim_residual_is_exact_subtraction(counts, threshold):
    """For any stream and threshold, the skimmed sketch is exactly the
    sketch of (f - extracted)."""
    schema = hash_schema(seed=5, width=32, depth=5)
    freqs = to_vector(counts)
    sketch = schema.sketch_of(freqs)
    result, skimmed = skim_dense(sketch, threshold=threshold)
    residual = freqs.copy()
    if result.dense_count:
        residual.apply_bulk(result.dense_values, -result.dense_frequencies)
    assert np.allclose(skimmed.counters, schema.sketch_of(residual).counters)


@given(
    depth=st.integers(1, 9),
    width=st.integers(4, 256),
    domain=st.integers(1, 4096),
    seed=st.integers(0, 2**16),
    heavy=st.lists(
        st.tuples(st.integers(0, 4095), st.integers(-500, 500)), max_size=12
    ),
    noise=st.integers(0, 4000),
    threshold=st.one_of(
        st.sampled_from([0.1, 0.5, 1.0, 2.0]).map(lambda c: ("multiplier", c)),
        st.floats(0.5, 600.0).map(lambda t: ("value", t)),
    ),
)
@settings(max_examples=80, deadline=None)
def test_hot_bucket_skim_equals_full_scan(
    depth, width, domain, seed, heavy, noise, threshold
):
    """The hot-bucket skim returns what estimating every value returns:
    the same dense values, frequencies and residual counters, bit for bit,
    at odd and even depths, with deletes."""
    rng = np.random.default_rng(seed)
    values = np.concatenate(
        [
            rng.integers(0, domain, noise),
            np.asarray([v % domain for v, _ in heavy], dtype=np.int64),
        ]
    ).astype(np.int64)
    weights = np.concatenate(
        [
            rng.choice([-1.0, 1.0, 2.0], noise),
            np.asarray([float(w) for _, w in heavy], dtype=np.float64),
        ]
    )
    schema = HashSketchSchema(width, depth, domain, seed=seed)
    sketch = schema.create_sketch()
    sketch.update_bulk(values, weights)
    kind, amount = threshold
    theta = default_threshold(sketch, amount) if kind == "multiplier" else amount

    result, skimmed = skim_dense(sketch, theta)

    estimates = sketch.all_point_estimates()
    dense = estimates >= theta
    reference = sketch.copy()
    reference.subtract_frequencies(np.flatnonzero(dense), estimates[dense])
    assert np.array_equal(result.dense_values, np.flatnonzero(dense))
    assert np.array_equal(
        result.dense_frequencies.view(np.uint64), estimates[dense].view(np.uint64)
    )
    assert np.array_equal(
        skimmed.counters.view(np.uint64), reference.counters.view(np.uint64)
    )


@given(counts=st.lists(st.integers(0, 50), min_size=DOMAIN, max_size=DOMAIN))
@settings(max_examples=30, deadline=None)
def test_skim_extracted_frequencies_meet_threshold(counts):
    schema = hash_schema(seed=6, width=32, depth=5)
    sketch = schema.sketch_of(to_vector(counts))
    result, _ = skim_dense(sketch, threshold=10.0)
    assert (result.dense_frequencies >= 10.0).all()


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_same_seed_same_sketch(seed):
    """Schema determinism: equal seeds produce identical projections."""
    freqs = to_vector([1] * DOMAIN)
    a = HashSketchSchema(16, 3, DOMAIN, seed=seed).sketch_of(freqs)
    b = HashSketchSchema(16, 3, DOMAIN, seed=seed).sketch_of(freqs)
    assert np.array_equal(a.counters, b.counters)


@given(counts=counts_strategy, scalar=st.sampled_from([2.0, 3.0, -1.0]))
@settings(max_examples=30, deadline=None)
def test_hash_sketch_homogeneity(counts, scalar):
    """sketch(c * f) == c * sketch(f): full linearity, not just additivity."""
    schema = hash_schema(seed=7)
    freqs = to_vector(counts)
    scaled = FrequencyVector(freqs.counts * scalar)
    assert np.allclose(
        schema.sketch_of(scaled).counters,
        scalar * schema.sketch_of(freqs).counters,
    )


@given(counts=counts_strategy)
@settings(max_examples=30, deadline=None)
def test_agms_self_join_estimate_non_negative_with_averaging(counts):
    """Averaged squares of atomic sketches are non-negative estimates."""
    schema = AGMSSchema(4, 3, DOMAIN, seed=8)
    sketch = schema.sketch_of(to_vector(counts))
    assert sketch.est_self_join_size() >= 0.0

"""The hash lookup-table rule and its byte budget.

A :class:`HashSketchSchema` hashes by the Carter--Wegman polynomials until
it has hashed ``domain_size`` values by them, then builds its lookup
tables if they fit ``TABLE_BUDGET_BYTES`` (one budget per flat schema; a
dyadic hierarchy's rule spends one for all its levels, coarsest first)
and gathers from them.  The tables hold the same evaluations, so whatever
a sketch computes stays, bit for bit, what the polynomials give.
"""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skim import skim_dense, skim_dense_dyadic
from repro.core.skimmed_join import est_skim_join_size
from repro.obs import capturing
from repro.sketches import hash_sketch
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.trace import capturing as capturing_spans

MIB = 1 << 20


@contextlib.contextmanager
def _budget(budget: int | None):
    """``TABLE_BUDGET_BYTES`` patched to ``budget`` (``None``: as it is)."""
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(hash_sketch, "TABLE_BUDGET_BYTES", budget)
        yield


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64).tobytes()


def _state(sketch) -> tuple:
    """Every counter block, bit for bit, and every tracked mass."""
    return (
        [_bits(block) for block in sketch.counters_view()],
        [mass.hex() for mass in sketch.tracked_masses()],
    )


def _apply(sketches: dict, ops, domain: int) -> None:
    """Run ``ops`` with integer weights: Python ints on the scalar path."""
    for kind, stream, batch in ops:
        values = [v % domain for v, _ in batch]
        weights = [w for _, w in batch]
        sketch = sketches[stream]
        if kind == "bulk":
            sketch.update_bulk(np.asarray(values, dtype=np.int64), np.asarray(weights))
        elif kind == "scalar":
            for value, weight in zip(values, weights):
                sketch.update(value, weight)
        else:
            sketch.subtract_frequencies(
                np.asarray(values, dtype=np.int64), np.asarray(weights)
            )


def _skewed_batch(rng: np.random.Generator, domain: int, size: int) -> np.ndarray:
    return (rng.zipf(1.3, size).astype(np.int64) - 1) % domain


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["bulk", "bulk", "scalar", "subtract"]),
        st.sampled_from(["f", "g"]),
        st.lists(
            st.tuples(
                st.integers(0, 1 << 12),
                # Past int8 too: table signs are int8, weights must not be.
                st.one_of(
                    st.integers(-3, 3).filter(bool), st.sampled_from([200, -128, 128])
                ),
            ),
            max_size=40,
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestRuleIsExact:
    """A schema that crosses the rule mid-stream equals, bit for bit, a
    twin that never tables and a twin whose tables were built first."""

    @given(
        width=st.integers(2, 64),
        depth=st.integers(1, 5),
        domain=st.integers(1, 64),
        seed=st.integers(0, 2**16),
        ops=ops_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_flat(self, width, depth, domain, seed, ops):
        def run(budget: int | None, precompute: bool = False):
            with _budget(budget):
                one = HashSketchSchema(width, depth, domain, seed=seed)
                if precompute:
                    one.precompute()
                sketches = {"f": one.create_sketch(), "g": one.create_sketch()}
                _apply(sketches, ops, domain)
                f, g = sketches["f"], sketches["g"]
                result, residual = skim_dense(f)
                outcome = (
                    _state(f),
                    _state(g),
                    result.dense_values.tobytes(),
                    _bits(result.dense_frequencies),
                    _state(residual),
                    f.est_join_size(g).hex(),
                    est_skim_join_size(f, g).estimate.hex(),
                )
            return one, outcome

        never, never_outcome = run(0)
        _, rule_outcome = run(None)
        _, tabled_outcome = run(None, precompute=True)
        assert not never.precomputed
        assert rule_outcome == never_outcome == tabled_outcome

    @given(
        width=st.integers(2, 32),
        depth=st.integers(1, 4),
        domain_bits=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        budget=st.one_of(st.none(), st.integers(0, 20_000)),
        ops=ops_strategy,
    )
    @settings(max_examples=40, deadline=None)
    def test_dyadic(self, width, depth, domain_bits, seed, budget, ops):
        domain = 1 << domain_bits

        def run(budget: int | None, precompute: bool = False):
            with _budget(budget):
                one = DyadicSketchSchema(
                    width, depth, domain, seed=seed, coarse_cutoff=2
                )
                if precompute:
                    for level in one.level_schemas:
                        level.precompute()
                sketches = {"f": one.create_sketch(), "g": one.create_sketch()}
                _apply(sketches, ops, domain)
                f, g = sketches["f"], sketches["g"]
                result, residual = skim_dense_dyadic(f)
                outcome = (
                    _state(f),
                    _state(g),
                    result.dense_values.tobytes(),
                    _bits(result.dense_frequencies),
                    _state(residual),
                    est_skim_join_size(f, g).estimate.hex(),
                )
            return one, outcome

        never, never_outcome = run(0)
        _, rule_outcome = run(budget)
        _, tabled_outcome = run(None, precompute=True)
        assert not any(level.precomputed for level in never.level_schemas)
        assert rule_outcome == never_outcome == tabled_outcome


class TestRule:
    def test_tables_are_built_before_the_call_that_crosses_the_count(self):
        schema = HashSketchSchema(64, 5, 1000, seed=1)
        buckets, signs = schema.bulk_tables(np.arange(999, dtype=np.int64))
        assert not schema.precomputed
        assert buckets.dtype == np.int64 and signs.dtype == np.float64
        # The call that reaches the count gathers from the new tables.
        buckets, signs = schema.bulk_tables(np.asarray([5, 7], dtype=np.int64))
        assert schema.precomputed
        assert buckets.dtype == np.uint16 and signs.dtype == np.int8

    def test_one_whole_domain_call_pays_one_build_and_no_hashing(self):
        # 10,000 values: two full build chunks of 4,096 and a partial one.
        schema = HashSketchSchema(64, 5, 10_000, seed=1)
        twin = HashSketchSchema(64, 5, 10_000, seed=1)
        domain = np.arange(10_000, dtype=np.int64)
        buckets, signs = schema.bulk_tables(domain)
        assert schema.precomputed and buckets.dtype == np.uint16
        assert np.array_equal(buckets, twin.buckets.buckets(domain))
        assert np.array_equal(signs, twin.signs.signs(domain))

    # Python ints past int8, either side of its edges, and floats.
    SCALAR_WEIGHTS = (3, 200, -128, 127, -129, 1, -1, 2.5, -1000, 128)

    def test_scalar_updates_count_and_then_read_the_tables(self):
        schema = HashSketchSchema(32, 3, 50, seed=2)
        with _budget(0):
            polynomial = HashSketchSchema(32, 3, 50, seed=2)
        ours, theirs = schema.create_sketch(), polynomial.create_sketch()
        for step in range(120):
            value = (7 * step) % 50
            weight = self.SCALAR_WEIGHTS[step % len(self.SCALAR_WEIGHTS)]
            ours.update(value, weight)
            theirs.update(value, weight)
            assert schema.precomputed == (step + 1 >= 50)
        assert not polynomial.precomputed
        assert _state(ours) == _state(theirs)

    def test_scalar_dyadic_updates_with_integer_weights_match_the_polynomials(self):
        schema = DyadicSketchSchema(16, 3, 64, seed=2, coarse_cutoff=4)
        with _budget(0):
            polynomial = DyadicSketchSchema(16, 3, 64, seed=2, coarse_cutoff=4)
        ours, theirs = schema.create_sketch(), polynomial.create_sketch()
        for step in range(200):
            value = (13 * step) % 64
            weight = self.SCALAR_WEIGHTS[step % len(self.SCALAR_WEIGHTS)]
            ours.update(value, weight)
            theirs.update(value, weight)
        assert all(level.precomputed for level in schema.level_schemas)
        assert not any(level.precomputed for level in polynomial.level_schemas)
        assert _state(ours) == _state(theirs)

    def test_table_bytes_and_dtypes(self):
        narrow = HashSketchSchema(1 << 16, 3, 100, seed=3)
        wide = HashSketchSchema((1 << 16) + 1, 3, 100, seed=3)
        for schema, dtype, per_entry in ((narrow, np.uint16, 3), (wide, np.int32, 5)):
            schema.precompute()
            buckets, signs = schema._lookup_tables()
            assert buckets.dtype == dtype and signs.dtype == np.int8
            assert schema.table_bytes == buckets.nbytes + signs.nbytes
            assert schema.table_bytes == 3 * 100 * per_entry

    def test_build_peak_memory_is_the_tables_plus_2_mib(self):
        schema = HashSketchSchema(1024, 9, 1 << 16, seed=4)
        tracemalloc.start()
        try:
            schema.precompute()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert schema.table_bytes == 1_769_472
        assert peak <= schema.table_bytes + 2 * MIB

    def test_build_is_counted_and_traced(self):
        schema = HashSketchSchema(64, 5, 1000, seed=5)
        sketch = schema.create_sketch()
        with capturing(fresh=True) as metrics, capturing_spans(fresh=True) as tracer:
            sketch.update_bulk(np.arange(600, dtype=np.int64))
            sketch.update_bulk(np.arange(600, dtype=np.int64))
            sketch.update_bulk(np.arange(600, dtype=np.int64))
        assert metrics.snapshot()["counters"]["hash.tables.built"] == 1
        (span,) = tracer.find("hash.tables.build")
        assert span.attributes == {"domain": 1000, "bytes": schema.table_bytes}


class TestBudget:
    def test_an_over_budget_schema_never_builds_whatever_it_hashes(self):
        with _budget(3 * 200 * 3 - 1):
            schema = HashSketchSchema(16, 3, 200, seed=6)
            sketch = schema.create_sketch()
            rng = np.random.default_rng(6)
            for _ in range(10):
                sketch.update_bulk(rng.integers(0, 200, 500))
                sketch.update(int(rng.integers(0, 200)), 2.0)
            sketch.point_estimates(np.arange(200, dtype=np.int64))
            sketch.all_point_estimates()
            skim_dense(sketch)
            assert not schema.ensure_precomputed()
            assert not schema.precomputed
            schema.precompute()  # the explicit override ignores the budget
            assert schema.precomputed

    def test_a_hierarchys_rule_tables_only_its_coarsest_levels_within_the_budget(
        self,
    ):
        def build() -> DyadicSketchSchema:
            return DyadicSketchSchema(64, 3, 1 << 14, seed=7, coarse_cutoff=16)

        sizes = [level.table_bytes for level in build().level_schemas]
        budget = sum(sizes[-4:]) + sizes[-5] // 2  # the four coarsest fit
        with _budget(budget), capturing_spans(fresh=True) as tracer:
            schema = build()
            sketch = schema.create_sketch()
            rng = np.random.default_rng(7)
            for _ in range(60):
                sketch.update_bulk(_skewed_batch(rng, 1 << 14, 2048))
                sketch.update(int(rng.integers(0, 1 << 14)))
                tabled = sum(
                    level.table_bytes
                    for level in schema.level_schemas
                    if level.precomputed
                )
                assert tabled <= budget
        built = [span.attributes["domain"] for span in tracer.find("hash.tables.build")]
        assert sorted(built) == schema.level_domains[:-5:-1] == [16, 32, 64, 128]
        # The finer levels hashed their domain's worth too: only the budget
        # kept them on the polynomials.
        for level in schema.level_schemas[:-4]:
            assert level._hashed >= level.domain_size and not level.precomputed

    def test_a_full_domain_scan_tables_a_level_the_rule_leaves_out(self):
        """Level 0 of a 2^18-value hierarchy (width 1024, depth 9) takes
        7,077,888 B; with levels 1-8 (7,050,240 B) that is past the
        budget, so the rule leaves it out, but on its own it fits: a
        full-domain scan, as an audit or a flat skim of the base sketch
        makes, tables it once whatever the coarse levels hold."""
        schema = DyadicSketchSchema(1024, 9, 1 << 18, seed=9)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.arange(1 << 18, dtype=np.int64))
        level0, coarse = schema.level_schemas[0], schema.level_schemas[1:]
        assert all(level.precomputed for level in coarse)
        assert sum(level.table_bytes for level in coarse) == 7_050_240
        assert level0._hashed >= level0.domain_size and not level0.precomputed
        with capturing(fresh=True) as metrics:
            sketch.base_sketch.all_point_estimates()
            sketch.base_sketch.all_point_estimates()
        assert level0.precomputed and level0.table_bytes == 7_077_888
        assert metrics.snapshot()["counters"]["hash.tables.built"] == 1

    def test_clear_precomputed_frees_the_tables_and_restarts_the_count(self):
        schema = HashSketchSchema(32, 3, 64, seed=8)
        schema.bulk_tables(np.arange(64, dtype=np.int64))
        assert schema.precomputed
        schema.bucket_members()
        schema.clear_precomputed()
        assert not schema.precomputed and schema._bucket_members is None
        schema.bulk_tables(np.arange(63, dtype=np.int64))
        assert not schema.precomputed  # the count restarted at 0
        schema.bulk_tables(np.asarray([3], dtype=np.int64))
        assert schema.precomputed

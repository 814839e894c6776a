"""Linearity as exactness: shard-and-merge, batch order and re-chunking.

Every synopsis is a linear projection of its stream's frequency vector,
and integer weights sum exactly in float64.  So splitting a stream by
value into parts, sketching each part and folding the parts with
``merged_with`` must reproduce the serially built sketch bit for bit —
the property that lets sites sketch their substreams independently
(paper §4.1).  Permuting batch order or re-chunking a stream must leave
every counter unchanged for the same reason.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SketchParameters
from repro.core.estimator import SkimmedSketchSchema
from repro.sketches.agms import AGMSSchema
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.streams.engine import StreamEngine
from repro.streams.query import JoinCountQuery, SelfJoinQuery

DOMAIN = 1 << 10
PARAMS = SketchParameters(width=128, depth=5)

#: One schema factory (over a domain size) per synopsis kind.
SCHEMA_KINDS = {
    "hash": lambda domain: HashSketchSchema(128, 5, domain, seed=9),
    "dyadic": lambda domain: DyadicSketchSchema(64, 5, domain, seed=2),
    "agms": lambda domain: AGMSSchema(16, 5, domain, seed=4),
    "skimmed": lambda domain: SkimmedSketchSchema(128, 5, domain, seed=6),
    "skimmed-dyadic": lambda domain: SkimmedSketchSchema(
        64, 5, domain, seed=8, dyadic=True
    ),
}


def seeded_batches(n=3000, batches=4, seed=3):
    """Deterministic integer-weight batches with ~5% deletions."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=n, dtype=np.int64)
    weights = np.ones(n, dtype=np.float64)
    weights[rng.random(n) < 0.05] = -1.0
    splits = np.array_split(np.arange(n), batches)
    return [(values[s], weights[s]) for s in splits]


def assert_bit_identical(ours, theirs):
    """Counter blocks equal element for element, tracked masses equal."""
    our_blocks, their_blocks = ours.counters_view(), theirs.counters_view()
    assert len(our_blocks) == len(their_blocks)
    for mine, other in zip(our_blocks, their_blocks):
        assert np.array_equal(mine, other)
    assert ours.tracked_masses() == theirs.tracked_masses()


class TestMerge:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(SCHEMA_KINDS))
    def test_parts_fold_to_serial(self, kind, parts):
        schema = SCHEMA_KINDS[kind](DOMAIN)
        serial = schema.create_sketch()
        sketches = [schema.create_sketch() for _ in range(parts)]
        for values, weights in seeded_batches():
            serial.update_bulk(values, weights)
            for part, sketch in enumerate(sketches):
                mask = values % parts == part
                sketch.update_bulk(values[mask], weights[mask])
        merged = sketches[0]
        for sketch in sketches[1:]:
            merged = merged.merged_with(sketch)
        assert_bit_identical(merged, serial)

    @pytest.mark.parametrize("kind", sorted(SCHEMA_KINDS))
    def test_rechunking_leaves_counters_identical(self, kind):
        schema = SCHEMA_KINDS[kind](DOMAIN)
        batches = seeded_batches(n=6000, batches=7)
        chunked, whole = schema.create_sketch(), schema.create_sketch()
        for values, weights in batches:
            chunked.update_bulk(values, weights)
        whole.update_bulk(
            np.concatenate([v for v, _ in batches]),
            np.concatenate([w for _, w in batches]),
        )
        assert_bit_identical(chunked, whole)


class TestMetamorphic:
    """Order and chunking checks on the repro.workloads corpus.

    The delete-churn family is the sharpest probe: its near-cancelling
    +1/-1 waves would expose any order- or chunk-dependent state.  The
    filtered family adds predicate pushdown to the mix.
    """

    CHURN_PARAMS = {
        "domain": 256, "waves": 3, "per_wave": 600, "survivors": 20,
        "z": 1.1,
    }
    FILTERED_PARAMS = {
        "domain": 256, "total": 1_500, "chunks": 3, "z": 0.9,
        "range_hi_fraction": 0.5, "modulus": 4, "remainder": 1,
        "inset_step": 3,
    }

    @staticmethod
    def _instance(family, params):
        from repro.workloads import build_workload

        return build_workload(family, params=params, seed=11)

    @staticmethod
    def _engine_with_batches(instance, batches):
        engine = StreamEngine(
            instance.domain_size, PARAMS, seed=13
        )
        for name, predicate in instance.streams.items():
            engine.register_stream(name, predicate=predicate)
        for batch in batches:
            engine.process_bulk(batch.stream, batch.values, batch.weights)
        return engine

    @pytest.mark.parametrize(
        "family,params",
        [
            ("delete_churn", CHURN_PARAMS),
            ("filtered_subset_sum", FILTERED_PARAMS),
        ],
        ids=["delete_churn", "filtered_subset_sum"],
    )
    def test_batch_permutation_leaves_engine_identical(self, family, params):
        instance = self._instance(family, params)
        permutation = np.random.default_rng(0).permutation(
            len(instance.batches)
        )
        in_order = self._engine_with_batches(instance, instance.batches)
        permuted = self._engine_with_batches(
            instance, [instance.batches[i] for i in permutation]
        )
        for name in instance.streams:
            assert_bit_identical(
                in_order.synopsis_for(name), permuted.synopsis_for(name)
            )
        for left, right in instance.queries:
            query = (
                SelfJoinQuery(left)
                if left == right
                else JoinCountQuery(left, right)
            )
            assert permuted.answer(query) == in_order.answer(query)

    def test_permuted_ingest_matches_in_order_answers(self):
        instance = self._instance("delete_churn", self.CHURN_PARAMS)
        permutation = np.random.default_rng(1).permutation(
            len(instance.batches)
        )
        in_order = self._engine_with_batches(instance, instance.batches)
        permuted = self._engine_with_batches(
            instance, [instance.batches[i] for i in permutation]
        )
        for left, right in instance.queries:
            query = (
                SelfJoinQuery(left)
                if left == right
                else JoinCountQuery(left, right)
            )
            assert permuted.answer(query) == in_order.answer(query)
        for name in instance.streams:
            assert_bit_identical(
                permuted.synopsis_for(name), in_order.synopsis_for(name)
            )

    @pytest.mark.parametrize("kind", sorted(SCHEMA_KINDS))
    def test_rechunking_churn_stream_is_exact(self, kind):
        instance = self._instance("delete_churn", self.CHURN_PARAMS)
        values = np.concatenate(
            [b.values for b in instance.batches if b.stream == "f"]
        )
        weights = np.concatenate(
            [b.weights for b in instance.batches if b.stream == "f"]
        )
        schema = SCHEMA_KINDS[kind](instance.domain_size)
        coarse, fine = schema.create_sketch(), schema.create_sketch()
        coarse.update_bulk(values, weights)
        for chunk in np.array_split(np.arange(values.size), 9):
            fine.update_bulk(values[chunk], weights[chunk])
        assert_bit_identical(coarse, fine)

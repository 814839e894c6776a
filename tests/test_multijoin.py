"""Tests for multi-join COUNT estimation (Dobra et al. composition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DomainError,
    IncompatibleSketchError,
    ParameterError,
    QueryError,
)
from repro.streams.multijoin import (
    MultiJoinSchema,
    est_multi_join_count,
    validate_join_graph,
)

DOMAINS = {"a": 64, "b": 64}


def exact_chain_count(r1, r2, r3, domains=(64, 64)):
    """Brute-force COUNT(R1(a) join R2(a,b) join R3(b)) from tuple lists."""
    f = np.zeros(domains[0])
    for (a,) in r1:
        f[a] += 1
    g = np.zeros(domains)
    for a, b in r2:
        g[a, b] += 1
    h = np.zeros(domains[1])
    for (b,) in r3:
        h[b] += 1
    return float(f @ g @ h)


def make_relations(schema):
    return (
        schema.create_relation(("a",)),
        schema.create_relation(("a", "b")),
        schema.create_relation(("b",)),
    )


class TestSchema:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiJoinSchema(0, 1, DOMAINS)
        with pytest.raises(ValueError):
            MultiJoinSchema(1, 0, DOMAINS)
        with pytest.raises(ValueError):
            MultiJoinSchema(1, 1, {})
        with pytest.raises(ValueError):
            MultiJoinSchema(1, 1, {"a": 0})

    def test_relation_validation(self):
        schema = MultiJoinSchema(4, 3, DOMAINS)
        with pytest.raises(QueryError):
            schema.create_relation(("z",))
        with pytest.raises(QueryError):
            schema.create_relation(("a", "a"))
        with pytest.raises(ValueError):
            schema.create_relation(())


class TestMaintenance:
    def test_update_and_bulk_agree(self):
        schema = MultiJoinSchema(8, 5, DOMAINS, seed=1)
        tuples = np.random.default_rng(0).integers(0, 64, size=(50, 2))
        bulk = schema.create_relation(("a", "b"))
        bulk.update_bulk(tuples)
        loop = schema.create_relation(("a", "b"))
        for row in tuples:
            loop.update(tuple(int(x) for x in row))
        assert np.allclose(bulk.atomic_sketches, loop.atomic_sketches)

    def test_shape_check(self):
        schema = MultiJoinSchema(2, 2, DOMAINS)
        relation = schema.create_relation(("a", "b"))
        with pytest.raises(ValueError):
            relation.update_bulk(np.asarray([[1, 2, 3]]))

    def test_domain_check(self):
        schema = MultiJoinSchema(2, 2, DOMAINS)
        relation = schema.create_relation(("a",))
        with pytest.raises(DomainError):
            relation.update((64,))

    def test_deletes_cancel(self):
        schema = MultiJoinSchema(3, 3, DOMAINS, seed=2)
        relation = schema.create_relation(("a", "b"))
        relation.update((1, 2))
        relation.update((1, 2), -1.0)
        assert np.allclose(relation.atomic_sketches, 0.0)

    def test_size_accounting(self):
        schema = MultiJoinSchema(8, 5, DOMAINS)
        assert schema.create_relation(("a",)).size_in_counters() == 40


class TestIngestBoundary:
    """Float tuples, non-finite weights and batches past the 2**53 mass
    ceiling are rejected before any atomic sketch moves, as for the other
    sketch kinds.  Unchecked, ``[[1.7, 2.2]]`` was ingested as ``[1, 2]``
    and one NaN weight made every atomic sketch NaN."""

    @staticmethod
    def _relation():
        relation = MultiJoinSchema(4, 3, DOMAINS, seed=1).create_relation(("a", "b"))
        relation.update_bulk(np.asarray([[1, 2], [3, 4]]))
        return relation

    @staticmethod
    def _assert_unchanged(relation, before, mass):
        assert np.array_equal(relation.atomic_sketches, before)
        assert relation.absolute_mass == mass

    @pytest.mark.parametrize("path", ["update", "update_bulk"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 2.0**53])
    def test_bad_weight_rejected(self, path, bad):
        relation = self._relation()
        before, mass = relation.atomic_sketches.copy(), relation.absolute_mass
        with pytest.raises(ParameterError):
            if path == "update":
                relation.update((5, 6), bad)
            else:
                relation.update_bulk(
                    np.asarray([[5, 6], [7, 8]]), np.asarray([1.0, bad])
                )
        self._assert_unchanged(relation, before, mass)

    @pytest.mark.parametrize("path", ["update", "update_bulk"])
    def test_float_tuples_rejected(self, path):
        relation = self._relation()
        before, mass = relation.atomic_sketches.copy(), relation.absolute_mass
        with pytest.raises(DomainError):
            if path == "update":
                relation.update((1.7, 2.2))
            else:
                relation.update_bulk(np.asarray([[1.7, 2.2]]))
        self._assert_unchanged(relation, before, mass)

    def test_just_below_the_ceiling_is_accepted(self):
        relation = MultiJoinSchema(4, 3, DOMAINS, seed=1).create_relation(("a",))
        relation.update((9,), 2.0**53 - 2)
        relation.update((9,), 1.0)
        assert relation.absolute_mass == 2.0**53 - 1
        assert np.all(np.abs(relation.atomic_sketches) == 2.0**53 - 1)


class TestJoinGraphValidation:
    def test_valid_chain_passes(self):
        schema = MultiJoinSchema(2, 2, DOMAINS)
        validate_join_graph(make_relations(schema))

    def test_attribute_in_three_relations_rejected(self):
        schema = MultiJoinSchema(2, 2, DOMAINS)
        relations = [schema.create_relation(("a",)) for _ in range(3)]
        with pytest.raises(QueryError):
            validate_join_graph(relations)

    def test_single_relation_rejected(self):
        schema = MultiJoinSchema(2, 2, DOMAINS)
        with pytest.raises(QueryError):
            validate_join_graph([schema.create_relation(("a",))])

    def test_mixed_schemas_rejected(self):
        r1 = MultiJoinSchema(2, 2, DOMAINS, seed=1).create_relation(("a",))
        r2 = MultiJoinSchema(2, 2, DOMAINS, seed=2).create_relation(("a",))
        with pytest.raises(IncompatibleSketchError):
            validate_join_graph([r1, r2])


class TestEstimation:
    def test_single_shared_tuple_chain(self):
        """One matching path: count must be estimated exactly on expectation
        and, with a decent grid, very accurately."""
        schema = MultiJoinSchema(64, 11, DOMAINS, seed=3)
        r1, r2, r3 = make_relations(schema)
        for _ in range(5):
            r1.update((7,))
        r2.update((7, 9))
        for _ in range(3):
            r3.update((9,))
        estimate = est_multi_join_count([r1, r2, r3])
        assert estimate == pytest.approx(15.0, rel=0.35)

    def test_unbiasedness_across_schemas(self):
        rng = np.random.default_rng(4)
        t1 = [(int(a),) for a in rng.integers(0, 8, 30)]
        t2 = [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(40, 2))]
        t3 = [(int(b),) for b in rng.integers(0, 8, 30)]
        actual = exact_chain_count(t1, t2, t3, (64, 64))
        estimates = []
        for seed in range(200):
            schema = MultiJoinSchema(1, 1, DOMAINS, seed=seed)
            r1, r2, r3 = make_relations(schema)
            for t in t1:
                r1.update(t)
            for t in t2:
                r2.update(t)
            for t in t3:
                r3.update(t)
            estimates.append(est_multi_join_count([r1, r2, r3]))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.3)

    def test_binary_join_special_case(self):
        """A 2-relation multi-join reduces to plain AGMS join estimation."""
        schema = MultiJoinSchema(64, 9, {"a": 64}, seed=5)
        r1 = schema.create_relation(("a",))
        r2 = schema.create_relation(("a",))
        for _ in range(10):
            r1.update((3,))
        for _ in range(6):
            r2.update((3,))
        assert est_multi_join_count([r1, r2]) == pytest.approx(60.0, rel=0.2)

"""Multi-join COUNT estimation by sketch composition (Dobra et al. [5]).

The paper notes (§1, §2.1) that its techniques "can readily be extended to
multi-join queries, as in [5]".  This module implements that extension's
substrate: per-relation atomic sketches over *several* attributes, where a
tuple's contribution is its weight times the **product** of one ±1 sign
variable per join attribute, with each join attribute's sign family shared
by exactly the two relations it joins.  For an acyclic equi-join query

    COUNT(R1 join R2 join ... join Rk)

the expectation of the product of corresponding atomic sketches telescopes
to the exact join count (all cross terms vanish by the independence of the
sign families), and averaging/median boosting works exactly as in the
binary case.

Example (3-way chain)::

    schema = MultiJoinSchema(averaging=64, median=11,
                             attribute_domains={"a": 1024, "b": 1024})
    r1 = schema.create_relation(("a",))        # F(a)
    r2 = schema.create_relation(("a", "b"))    # G(a, b)
    r3 = schema.create_relation(("b",))        # H(b)
    ... feed tuples ...
    estimate = est_multi_join_count([r1, r2, r3])
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..errors import DomainError, IncompatibleSketchError, ParameterError, QueryError
from ..hashing import FourWiseSignFamily
from ..sketches.base import finite_mass, require_integer_values

#: Cap on the (families x tuples) sign matrix materialised per bulk chunk.
_BULK_CHUNK_ELEMENTS = 8_000_000


class MultiJoinSchema:
    """Shared sign families for a set of relations joined on named attributes.

    Parameters
    ----------
    averaging, median:
        Boosting grid, as in basic AGMS (variance / confidence).
    attribute_domains:
        Domain size per join-attribute name; every relation's values for an
        attribute must fall in ``[0, domain)``.
    seed:
        Base seed; each attribute gets an independent family.
    """

    def __init__(
        self,
        averaging: int,
        median: int,
        attribute_domains: dict[str, int],
        seed: int = 0,
    ):
        if averaging < 1:
            raise ParameterError(f"averaging must be >= 1, got {averaging}")
        if median < 1:
            raise ParameterError(f"median must be >= 1, got {median}")
        if not attribute_domains:
            raise ParameterError("at least one join attribute is required")
        for name, domain in attribute_domains.items():
            if domain < 1:
                raise ParameterError(f"attribute {name!r} has invalid domain {domain}")
        self.averaging = averaging
        self.median = median
        self.attribute_domains = dict(attribute_domains)
        self.seed = seed
        children = np.random.SeedSequence(seed).spawn(len(attribute_domains))
        self.sign_families = {
            name: FourWiseSignFamily(
                averaging * median, np.random.default_rng(child)
            )
            for name, child in zip(sorted(attribute_domains), children)
        }

    def create_relation(self, attributes: Sequence[str]) -> "RelationSketch":
        """An empty sketch for a relation with the given join attributes."""
        return RelationSketch(self, tuple(attributes))

    def __repr__(self) -> str:
        return (
            f"MultiJoinSchema(averaging={self.averaging}, median={self.median}, "
            f"attributes={sorted(self.attribute_domains)})"
        )


class RelationSketch:
    """Atomic-sketch array for one relation of a multi-join query.

    Atomic sketch ``(j, i)`` holds
    ``sum_t w(t) * prod_{attr} xi^attr_{j,i}(t[attr])`` over the relation's
    tuple stream; supports inserts and deletes like every linear sketch.
    """

    def __init__(self, schema: MultiJoinSchema, attributes: tuple[str, ...]):
        if not attributes:
            raise ParameterError("a relation needs at least one join attribute")
        unknown = [a for a in attributes if a not in schema.attribute_domains]
        if unknown:
            raise QueryError(f"unknown join attributes {unknown}")
        if len(set(attributes)) != len(attributes):
            raise QueryError(f"duplicate join attributes in {attributes}")
        self._schema = schema
        self.attributes = attributes
        self._atomic = np.zeros((schema.median, schema.averaging))
        self._absolute_mass = 0.0

    @property
    def schema(self) -> MultiJoinSchema:
        """The multi-join schema this relation sketch belongs to."""
        return self._schema

    @property
    def atomic_sketches(self) -> np.ndarray:
        """Read-only ``(median, averaging)`` atomic sketch array."""
        view = self._atomic.view()
        view.flags.writeable = False
        return view

    @property
    def absolute_mass(self) -> float:
        """Sum of ``|weight|`` over processed tuples."""
        return self._absolute_mass

    def update(self, values: Sequence[int], weight: float = 1.0) -> None:
        """Process one relation tuple (its join-attribute values, in order)."""
        self.update_bulk(np.asarray([values]), np.asarray([weight]))

    def update_bulk(
        self, tuples: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Process a batch of tuples, shape ``(m, len(attributes))``.

        Float or bool tuples, non-finite weights and a batch that would
        take the tracked mass past the 2**53 ceiling are rejected before
        any counter moves, as for the other sketch kinds.
        """
        require_integer_values(tuples)
        tuples = np.asarray(tuples, dtype=np.int64)
        if tuples.ndim != 2 or tuples.shape[1] != len(self.attributes):
            raise ParameterError(
                f"tuples must have shape (m, {len(self.attributes)}), "
                f"got {tuples.shape}"
            )
        if tuples.shape[0] == 0:
            return
        self._check_domains(tuples)
        if weights is None:
            weights = np.ones(tuples.shape[0])
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (tuples.shape[0],):
                raise ParameterError("weights must have shape (m,)")
        mass = finite_mass(float(np.abs(weights).sum()), self._absolute_mass)
        flat = self._atomic.reshape(-1)
        num_families = self._schema.averaging * self._schema.median
        chunk = max(1, _BULK_CHUNK_ELEMENTS // num_families)
        for start in range(0, tuples.shape[0], chunk):
            stop = start + chunk
            sign_product = np.ones((num_families, min(stop, tuples.shape[0]) - start))
            for column, attribute in enumerate(self.attributes):
                family = self._schema.sign_families[attribute]
                sign_product *= family.signs(tuples[start:stop, column])
            flat += sign_product @ weights[start:stop]
        self._absolute_mass += mass

    def size_in_counters(self) -> int:
        """Synopsis size in counter words."""
        return int(self._atomic.size)

    def _check_domains(self, tuples: np.ndarray) -> None:
        for column, attribute in enumerate(self.attributes):
            domain = self._schema.attribute_domains[attribute]
            column_values = tuples[:, column]
            if column_values.min() < 0 or column_values.max() >= domain:
                raise DomainError(
                    f"attribute {attribute!r} values outside [0, {domain})"
                )

    def __repr__(self) -> str:
        return (
            f"RelationSketch(attributes={self.attributes}, "
            f"N={self._absolute_mass:g})"
        )


def validate_join_graph(relations: Sequence[RelationSketch]) -> None:
    """Check the relations form a valid (acyclic-style) equi-join query.

    Requirements for the product estimator to be unbiased: all relations
    share one schema, and every join attribute occurs in **exactly two**
    relations (so each sign variable appears squared in the expectation).
    """
    if len(relations) < 2:
        raise QueryError("a multi-join needs at least two relations")
    schema = relations[0].schema
    for relation in relations[1:]:
        if relation.schema is not schema:
            raise IncompatibleSketchError(
                "all relations must be created from the same MultiJoinSchema"
            )
    occurrences = Counter(
        attribute for relation in relations for attribute in relation.attributes
    )
    bad = {a: n for a, n in occurrences.items() if n != 2}
    if bad:
        raise QueryError(
            f"each join attribute must occur in exactly two relations; got {bad}"
        )


def est_multi_join_count(relations: Sequence[RelationSketch]) -> float:
    """Estimate ``COUNT(R1 join ... join Rk)`` from the relation sketches.

    Per boosting cell, multiply the corresponding atomic sketches of every
    relation; average within median groups; median across groups.
    """
    validate_join_graph(relations)
    product = relations[0].atomic_sketches.copy()
    for relation in relations[1:]:
        product *= relation.atomic_sketches
    return float(np.median(np.mean(product, axis=1)))

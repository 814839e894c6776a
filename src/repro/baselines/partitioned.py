"""Domain-partitioned AGMS sketching (Dobra, Garofalakis, Gehrke, Rastogi [5]).

The pre-skimming attempt at taming basic sketching's variance: split the
value domain into partitions, sketch each partition separately, and sum
the per-partition join estimates.  The error of each partition scales with
``sqrt(SJ(f_p) * SJ(g_p))``, so a good partitioning isolates the dense
values — *but* computing a good partitioning "requires a-priori knowledge
of the data distribution in the form of coarse frequency statistics",
which the paper (§1) calls out as the approach's serious limitation.  The
planner below therefore takes explicit frequency *hints* (histograms); the
E11 panel feeds it hints of varying quality to reproduce exactly that
sensitivity.

Planning follows [5]'s structure:

* values are sorted by the ratio ``f_hint / g_hint`` (the optimal
  contiguous-partition ordering for minimising the summed error term);
* partition boundaries are chosen by dynamic programming over a coarsened
  boundary grid to minimise ``sum_p sqrt(SJ_f(p) * SJ_g(p))``;
* the averaging-copy budget is divided across partitions proportionally to
  each partition's ``sqrt(SJ_f(p) * SJ_g(p))`` (the variance-optimal
  space allocation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..sketches.agms import AGMSSchema, AGMSSketch
from ..sketches.base import StreamSynopsis, ingest_checked
from ..streams.model import FrequencyVector

#: Upper bound on boundary-candidate positions for the planner's DP.
_MAX_BOUNDARY_GRID = 256


@dataclass(frozen=True)
class PartitionPlan:
    """A domain partitioning plus its per-partition averaging allocation."""

    #: ``assignment[v]`` = partition index of domain value ``v``.
    assignment: np.ndarray
    #: Averaging copies (``s1``) allocated to each partition.
    averaging: tuple[int, ...]

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the plan."""
        return len(self.averaging)


def plan_partitions(
    f_hint: FrequencyVector,
    g_hint: FrequencyVector,
    num_partitions: int,
    averaging_budget: int,
) -> PartitionPlan:
    """Choose partitions and a space split from coarse frequency hints.

    Parameters
    ----------
    f_hint, g_hint:
        A-priori frequency statistics (e.g. stale histograms).  Quality of
        the final estimate degrades gracefully with hint quality — the
        limitation the skimmed sketch removes.
    num_partitions:
        Number of domain partitions.
    averaging_budget:
        Total averaging copies (``sum of per-partition s1``) to allocate.
    """
    if f_hint.domain_size != g_hint.domain_size:
        raise ParameterError("hint domains differ")
    if num_partitions < 1:
        raise ParameterError(f"num_partitions must be >= 1, got {num_partitions}")
    if averaging_budget < num_partitions:
        raise ParameterError(
            f"averaging_budget {averaging_budget} cannot give every one of "
            f"{num_partitions} partitions a copy"
        )

    fc = np.clip(f_hint.counts, 0.0, None)
    gc = np.clip(g_hint.counts, 0.0, None)
    # Ratio ordering; values absent from both hints sort to the front
    # harmlessly (they contribute no hinted self-join mass anywhere).
    ratio = np.where(gc > 0, fc / np.maximum(gc, 1e-30), np.inf)
    ratio[(fc == 0) & (gc == 0)] = 0.0
    order = np.argsort(ratio, kind="stable")

    f2 = np.concatenate([[0.0], np.cumsum(fc[order] ** 2)])
    g2 = np.concatenate([[0.0], np.cumsum(gc[order] ** 2)])
    domain = f_hint.domain_size

    grid = np.unique(
        np.linspace(0, domain, min(_MAX_BOUNDARY_GRID, domain) + 1).astype(np.int64)
    )

    def segment_cost(a: int, b: int) -> float:
        return float(np.sqrt((f2[b] - f2[a]) * (g2[b] - g2[a])))

    # DP over the coarse grid: best[j][k] = min cost splitting grid[:j+1]
    # into k segments.
    num_nodes = grid.size
    k_max = min(num_partitions, num_nodes - 1)
    best = np.full((num_nodes, k_max + 1), np.inf)
    back = np.zeros((num_nodes, k_max + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for j in range(1, num_nodes):
        for k in range(1, k_max + 1):
            for i in range(k - 1, j):
                cost = best[i, k - 1] + segment_cost(grid[i], grid[j])
                if cost < best[j, k]:
                    best[j, k] = cost
                    back[j, k] = i

    boundaries = [int(grid[-1])]
    j, k = num_nodes - 1, k_max
    while k > 0:
        j = int(back[j, k])
        boundaries.append(int(grid[j]))
        k -= 1
    boundaries = sorted(set(boundaries) | {0, domain})

    assignment = np.zeros(domain, dtype=np.int64)
    costs = []
    for part, (a, b) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        assignment[order[a:b]] = part
        costs.append(segment_cost(a, b))

    averaging = _allocate_budget(np.asarray(costs), averaging_budget)
    return PartitionPlan(assignment=assignment, averaging=tuple(averaging))


def _allocate_budget(costs: np.ndarray, budget: int) -> list[int]:
    """Split ``budget`` copies across partitions proportionally to ``costs``.

    Every partition gets at least one copy; the remainder goes by largest
    fractional share (variance-optimal allocation of [5]).
    """
    num = costs.size
    baseline = np.ones(num, dtype=np.int64)
    spare = budget - num
    total_cost = costs.sum()
    if spare <= 0 or total_cost <= 0:
        baseline[0] += max(0, spare)
        return baseline.tolist()
    shares = costs / total_cost * spare
    extra = np.floor(shares).astype(np.int64)
    remainder = spare - int(extra.sum())
    order = np.argsort(-(shares - extra), kind="stable")
    extra[order[:remainder]] += 1
    return (baseline + extra).tolist()


class PartitionedAGMSSchema:
    """Shared randomness/shape for partition-routed AGMS sketches."""

    def __init__(self, plan: PartitionPlan, median: int, seed: int = 0):
        if median < 1:
            raise ParameterError(f"median must be >= 1, got {median}")
        self.plan = plan
        self.median = median
        self.seed = seed
        self.domain_size = int(plan.assignment.size)
        children = np.random.SeedSequence(seed).spawn(plan.num_partitions)
        self.partition_schemas = [
            AGMSSchema(
                averaging,
                median,
                self.domain_size,
                seed=int(child.generate_state(1)[0]),
            )
            for averaging, child in zip(plan.averaging, children)
        ]

    def create_sketch(self) -> "PartitionedAGMSSketch":
        """A fresh empty partitioned sketch bound to this schema."""
        return PartitionedAGMSSketch(self)

    def sketch_of(self, frequencies: FrequencyVector) -> "PartitionedAGMSSketch":
        """Convenience: a sketch pre-loaded with a whole frequency vector."""
        sketch = self.create_sketch()
        sketch.ingest_frequency_vector(frequencies)
        return sketch


class PartitionedAGMSSketch(StreamSynopsis):
    """One stream's partitioned AGMS synopsis: values routed per partition."""

    def __init__(self, schema: PartitionedAGMSSchema):
        self._schema = schema
        self._partitions = [s.create_sketch() for s in schema.partition_schemas]

    @property
    def schema(self) -> PartitionedAGMSSchema:
        """The partitioned schema this sketch was created from."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    def update(self, value: int, weight: float = 1.0) -> None:
        self.update_bulk(np.asarray([value]), np.asarray([weight]))

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Check the whole batch, then route each value to its partition.

        The check bounds the summed mass of all partitions, so no
        partition's write can cross the 2**53 ceiling on its own.
        """
        tracked = sum(part.absolute_mass for part in self._partitions)
        values, weights, _ = ingest_checked(values, weights, self.domain_size, tracked)
        routed = self._schema.plan.assignment[values]
        for partition, sketch in enumerate(self._partitions):
            mask = routed == partition
            if mask.any():
                part_weights = weights[mask]
                sketch._ingest(
                    values[mask], part_weights, float(np.abs(part_weights).sum())
                )

    def size_in_counters(self) -> int:
        return sum(p.size_in_counters() for p in self._partitions)

    def seed_words(self) -> int:
        return sum(p.seed_words() for p in self._partitions)

    def est_join_size(self, other: "PartitionedAGMSSketch") -> float:
        """Sum of per-partition ESTJOINSIZE estimates (Dobra et al.)."""
        if not isinstance(other, PartitionedAGMSSketch):
            raise IncompatibleSketchError(
                f"cannot combine PartitionedAGMSSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema:
            raise IncompatibleSketchError(
                "partitioned sketches must share one schema object"
            )
        return float(
            sum(
                mine.est_join_size(theirs)
                for mine, theirs in zip(self._partitions, other._partitions)
            )
        )

    def __repr__(self) -> str:
        return (
            f"PartitionedAGMSSketch(partitions={len(self._partitions)}, "
            f"domain_size={self.domain_size})"
        )

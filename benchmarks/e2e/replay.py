"""Traced replay: every program call re-applied to shadow sketches, layer by layer.

The per-layer numbers come from here, not from spans inside the program.
Beside the program, the replay applies the same calls in the same order to
shadow sketches built from a ``HashSketchSchema`` / ``DyadicSketchSchema``
with the program's seed, through the public layer functions, and times
each call:

* ingest: ``Predicate.accepts_bulk`` -> ``coalesce_updates`` /
  ``BulkHashCache.level`` -> ``HashSketchSchema.bulk_tables`` ->
  ``update_coalesced``;
* skim: ``copy`` -> ``all_point_estimates`` or ``heavy_values`` ->
  ``subtract_frequencies``;
* join: ``est_self_join_size``, dense-dense intersect/dot,
  ``est_sub_join_size`` x2, ``table_join_estimates`` + median.

The replay runs one read interval behind the program.  After each
program read it regenerates the interval's batches from its own copy of
the episode's input stream, replays them, then replays the read.  Both
sides thus run the same sequence (generate, ingest, ..., read) and meet the
same cache and allocator state.  A replay call made right after the
identical program call would find its data cached and look cheaper, and a
read after ingests not interleaved with input generation ran up to ~25%
faster.  At each read the shadow counters must equal the program's bit for
bit (read through ``counters_view()``), and the replayed answer must equal
the program's.  Anything else raises :class:`ReplayMismatch`.

``update_coalesced`` hashes its input itself.  Hashing is therefore timed
on an identical ``bulk_tables`` call made just before it, and the scatter
is the rest of ``update_coalesced``'s time.  A layer's self time is its
span minus the timed calls inside it: the program's ingest and answer
calls are the outer spans.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from repro import (
    DyadicHashSketch,
    DyadicSketchSchema,
    HashSketch,
    HashSketchSchema,
    est_sub_join_size,
)
from repro.core.skim import DEFAULT_THRESHOLD_MULTIPLIER, default_threshold
from repro.hashing import BulkHashCache, coalesce_updates

from workloads import DEPTH, ENGINE_SEED, WIDTH, Batch, Step, Workload

_INGEST_LAYERS = ("query.predicate", "coalesce", "hash", "scatter")
_ANSWER_LAYERS = (
    "skim.copy",
    "skim.scan",
    "skim.extract",
    "join.residual_sj",
    "join.dense_dense",
    "join.dense_sparse",
    "join.sparse_dense",
    "join.sparse_sparse",
    "join.median_boost",
)


class ReplayMismatch(RuntimeError):
    """The replay's counters or answers differ from the program's."""


def check_identical(
    label: str,
    program_blocks: Sequence[np.ndarray],
    shadow_blocks: Sequence[np.ndarray],
) -> None:
    """Raise :class:`ReplayMismatch` unless both counter sets match bit for bit."""
    if len(program_blocks) != len(shadow_blocks):
        raise ReplayMismatch(
            f"{label}: {len(program_blocks)} counter blocks, replay has "
            f"{len(shadow_blocks)}"
        )
    for index, (ours, theirs) in enumerate(zip(program_blocks, shadow_blocks)):
        if (
            ours.shape != theirs.shape
            or ours.dtype != theirs.dtype
            or not np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
        ):
            raise ReplayMismatch(f"{label}: counter block {index} differs")


class _IntervalTally:
    """Distinct values each stream touches between two reads, and how many
    of them net to zero weight by the read."""

    def __init__(self, domain: int) -> None:
        self._net = {s: np.zeros(domain, dtype=np.float64) for s in ("f", "g")}
        self._touched = {s: np.zeros(domain, dtype=np.bool_) for s in ("f", "g")}
        self.elements = 0
        self.distinct = 0
        self.annihilated = 0

    def add(self, stream: str, distinct: np.ndarray, masses: np.ndarray, elements: int) -> None:
        self._touched[stream][distinct] = True
        self._net[stream][distinct] += masses
        self.elements += elements

    def close(self) -> None:
        for stream, touched in self._touched.items():
            net = self._net[stream]
            self.distinct += int(np.count_nonzero(touched))
            self.annihilated += int(np.count_nonzero(touched & (net == 0.0)))
            net[touched] = 0.0
            touched[:] = False


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Replay:
    """Shadow of one program for one episode; see the module docstring."""

    def __init__(self, program, spec: Workload, steps: Iterator[Step]) -> None:
        self._program = program
        self._steps = steps
        self._dyadic = spec.dyadic
        self._domain = spec.domain
        schema: HashSketchSchema | DyadicSketchSchema
        if spec.dyadic:
            schema = DyadicSketchSchema(WIDTH, DEPTH, spec.domain, seed=ENGINE_SEED)
            self._levels = schema.num_levels
        else:
            schema = HashSketchSchema(WIDTH, DEPTH, spec.domain, seed=ENGINE_SEED)
            self._levels = 1
        self._shadows = {s: schema.create_sketch() for s in ("f", "g")}
        self._busy: defaultdict[str, float] = defaultdict(float)
        self._counts: defaultdict[str, int] = defaultdict(int)
        self._tally = _IntervalTally(spec.domain)

    # -- ingest ----------------------------------------------------------------

    def ingest(self, program_seconds: float) -> None:
        """Record one program ingest call that took ``program_seconds``; the
        replay repeats it after the program's next read."""
        self._busy["engine.ingest"] += program_seconds

    def _replay_ingest(self, batch: Batch) -> None:
        self._counts["engine.ingest.calls"] += 1
        self._counts["elements"] += batch.values.size
        values, weights = batch.values, batch.weights
        predicate = self._program.predicates.get(batch.stream)
        if predicate is not None:
            start = perf_counter()
            keep = predicate.accepts_bulk(values)
            if int(keep.sum()) != values.size:
                values = values[keep]
                weights = None if weights is None else weights[keep]
            self._busy["query.predicate"] += perf_counter() - start
        self._counts["kept"] += values.size
        if values.size:
            shadow = self._shadows[batch.stream]
            if self._dyadic:
                self._ingest_dyadic(batch.stream, shadow, values, weights)
            else:
                self._ingest_flat(batch.stream, shadow, values, weights)

    def _ingest_flat(
        self, stream: str, shadow: HashSketch, values: np.ndarray, weights: np.ndarray | None
    ) -> None:
        start = perf_counter()
        distinct, masses = coalesce_updates(values, weights)
        observed = float(
            np.abs(np.ones(values.size) if weights is None else weights).sum()
        )
        self._busy["coalesce"] += perf_counter() - start
        self._scatter(shadow, distinct, masses, observed)
        self._tally.add(stream, distinct, masses, values.size)
        self._counts["distinct"] += distinct.size

    def _ingest_dyadic(
        self,
        stream: str,
        shadow: DyadicHashSketch,
        values: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        start = perf_counter()
        cache = BulkHashCache(values, weights)
        observed = cache.total_absolute_mass
        self._busy["coalesce"] += perf_counter() - start
        for level in range(self._levels):
            start = perf_counter()
            level_values, level_masses = cache.level(level)
            self._busy["coalesce"] += perf_counter() - start
            self._scatter(shadow.level_sketch(level), level_values, level_masses, observed)
        distinct, masses = cache.level(0)
        self._tally.add(stream, distinct, masses, values.size)
        self._counts["distinct"] += distinct.size

    def _scatter(
        self, sketch: HashSketch, distinct: np.ndarray, masses: np.ndarray, observed: float
    ) -> None:
        schema = sketch.schema
        self._counts["hash.calls"] += 1
        self._counts["hash.table_calls"] += schema.precomputed
        self._counts["hash.evals"] += distinct.size * schema.depth
        start = perf_counter()
        schema.bulk_tables(distinct)
        hashed = perf_counter()
        sketch.update_coalesced(distinct, masses, observed)
        done = perf_counter()
        self._busy["hash"] += hashed - start
        self._busy["scatter"] += (done - hashed) - (hashed - start)

    def _check(self) -> None:
        for stream, shadow in self._shadows.items():
            synopsis = self._program.synopsis(stream)
            check_identical(stream, synopsis.counters_view(), shadow.counters_view())
            ours = [m.hex() for m in synopsis.tracked_masses()]
            if ours != [m.hex() for m in shadow.tracked_masses()]:
                raise ReplayMismatch(f"{stream}: tracked stream size differs")

    # -- answer ----------------------------------------------------------------

    def answer(self, program_answer: float, program_seconds: float) -> None:
        """Replay the batches since the last read, then this ``COUNT(f ⋈ g)``
        read, which took the program ``program_seconds``."""
        for step in self._steps:
            if step is None:
                break
            self._replay_ingest(step)
        self._check()
        self._busy["engine.answer"] += program_seconds
        self._counts["engine.answer.calls"] += 1
        self._tally.close()
        f_skim = self._skim(self._shadows["f"])
        g_skim = self._skim(self._shadows["g"])
        estimate = self._join(f_skim, g_skim)
        if estimate.hex() != float(program_answer).hex():
            raise ReplayMismatch(
                f"answer {program_answer!r} differs from the replay's {estimate!r}"
            )

    def _timed(self, layer: str, start: float) -> float:
        now = perf_counter()
        self._busy[layer] += now - start
        return now

    def _skim(
        self, sketch: HashSketch | DyadicHashSketch
    ) -> tuple[np.ndarray, np.ndarray, HashSketch]:
        base = sketch.base_sketch if self._dyadic else sketch
        threshold = default_threshold(base, DEFAULT_THRESHOLD_MULTIPLIER)
        start = perf_counter()
        target = sketch.copy()
        start = self._timed("skim.copy", start)
        residual = target.base_sketch if self._dyadic else target
        if not math.isfinite(threshold):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.astype(np.float64), residual
        if self._dyadic:
            self._counts["skim.probes"] += target.estimated_descent_cost(threshold)
            start = perf_counter()
            dense = target.heavy_values(threshold)
            start = self._timed("skim.scan", start)
            frequencies = np.zeros(0, dtype=np.float64)
            if dense.size:
                frequencies = target.base_sketch.point_estimates(dense)
                keep = frequencies >= threshold
                dense, frequencies = dense[keep], frequencies[keep]
        else:
            self._counts["skim.probes"] += self._domain
            target.schema.ensure_precomputed()
            estimates = target.all_point_estimates()
            start = self._timed("skim.scan", start)
            mask = estimates >= threshold
            dense = np.flatnonzero(mask).astype(np.int64)
            frequencies = estimates[mask]
        if dense.size:
            target.subtract_frequencies(dense, frequencies)
        self._timed("skim.extract", start)
        self._counts["skim.dense_values"] += dense.size
        return dense, frequencies, residual

    def _join(
        self,
        f_skim: tuple[np.ndarray, np.ndarray, HashSketch],
        g_skim: tuple[np.ndarray, np.ndarray, HashSketch],
    ) -> float:
        f_values, f_freqs, f_residual = f_skim
        g_values, g_freqs, g_residual = g_skim
        start = perf_counter()
        # The program computes these self-join sizes for its error bound.
        for freqs, residual in ((f_freqs, f_residual), (g_freqs, g_residual)):
            np.dot(freqs, freqs)
            residual.est_self_join_size()
        start = self._timed("join.residual_sj", start)
        common, f_index, g_index = np.intersect1d(f_values, g_values, return_indices=True)
        dense_dense = (
            float(np.dot(f_freqs[f_index], g_freqs[g_index])) if common.size else 0.0
        )
        start = self._timed("join.dense_dense", start)
        dense_sparse = est_sub_join_size(f_values, f_freqs, g_residual)
        start = self._timed("join.dense_sparse", start)
        sparse_dense = est_sub_join_size(g_values, g_freqs, f_residual)
        start = self._timed("join.sparse_dense", start)
        per_table = f_residual.table_join_estimates(g_residual)
        start = self._timed("join.sparse_sparse", start)
        sparse_sparse = float(np.median(per_table))
        self._timed("join.median_boost", start)
        return dense_dense + dense_sparse + sparse_dense + sparse_sparse

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """This episode's per-layer numbers (all but the run-level ones)."""
        if next(self._steps, None) is not None:
            raise ReplayMismatch("batches after the episode's last read were not replayed")
        busy, counts = self._busy, self._counts
        ingest_layers = sum(busy[layer] for layer in _INGEST_LAYERS)
        answer_layers = sum(busy[layer] for layer in _ANSWER_LAYERS)
        tally = self._tally
        out: dict[str, float] = {
            "engine.ingest.calls": counts["engine.ingest.calls"],
            "engine.ingest.busy_s": busy["engine.ingest"],
            "engine.ingest.self_s": busy["engine.ingest"] - ingest_layers,
            "engine.answer.calls": counts["engine.answer.calls"],
            "engine.answer.busy_s": busy["engine.answer"],
            "engine.answer.self_s": busy["engine.answer"] - answer_layers,
            "query.predicate.share": _ratio(busy["query.predicate"], busy["engine.ingest"]),
            "query.predicate.kept_ratio": _ratio(counts["kept"], counts["elements"]),
            "coalesce.distinct_ratio": _ratio(counts["distinct"], counts["kept"]),
            "coalesce.interval_distinct_ratio": _ratio(tally.distinct, tally.elements),
            "coalesce.interval_annihilated_ratio": _ratio(
                tally.annihilated, tally.distinct
            ),
            "hash.evals": counts["hash.evals"],
            "hash.table_ratio": _ratio(counts["hash.table_calls"], counts["hash.calls"]),
            "dyadic.levels": self._levels,
            "skim.dense_values": counts["skim.dense_values"],
            "skim.probes": counts["skim.probes"],
            "trace.coverage.ingest": _ratio(ingest_layers, busy["engine.ingest"]),
            "trace.coverage.answer": _ratio(answer_layers, busy["engine.answer"]),
        }
        for layer in ("coalesce", "hash", "scatter", *_ANSWER_LAYERS):
            out[f"{layer}.busy_s"] = busy[layer]
        return out

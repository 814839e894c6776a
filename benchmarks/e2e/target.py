"""The program under test, as the benchmark drives it.

Two front ends take ``(stream, values, weights)`` batches and answer
``COUNT(f ⋈ g)``: the serial :class:`repro.StreamEngine` for the flat
workloads, and the public dyadic :class:`repro.SkimmedSketch` API for the
wide domain, since ``StreamEngine`` has no dyadic option.  The
benchmark's timers wrap exactly :meth:`ingest` and :meth:`answer`.
"""

from __future__ import annotations

import numpy as np

from repro import SketchParameters, SkimmedSketch, SkimmedSketchSchema, StreamEngine
from repro.streams.query import JoinCountQuery, Predicate, RangePredicate, TruePredicate

from workloads import DEPTH, ENGINE_SEED, WIDTH, Workload


class EngineProgram:
    """``StreamEngine`` with streams ``f`` and ``g`` and one standing COUNT."""

    def __init__(self, spec: Workload) -> None:
        self.engine = StreamEngine(
            spec.domain, SketchParameters(WIDTH, DEPTH), seed=ENGINE_SEED
        )
        #: The selection each stream applies before its synopsis.
        self.predicates: dict[str, Predicate] = {
            "f": TruePredicate(),
            "g": RangePredicate(*spec.g_range) if spec.g_range else TruePredicate(),
        }
        for name, predicate in self.predicates.items():
            self.engine.register_stream(name, predicate=predicate)
        self._query = JoinCountQuery("f", "g")

    def ingest(self, stream: str, values: np.ndarray, weights: np.ndarray | None) -> None:
        self.engine.process_bulk(stream, values, weights)

    def answer(self) -> float:
        return self.engine.answer(self._query)

    def synopsis(self, stream: str) -> SkimmedSketch:
        return self.engine.synopsis_for(stream)

    def size_in_counters(self) -> int:
        return self.engine.total_space_in_counters()


class DyadicProgram:
    """Two dyadic ``SkimmedSketch`` synopses; no selection stage."""

    def __init__(self, spec: Workload) -> None:
        schema = SkimmedSketchSchema(
            WIDTH, DEPTH, spec.domain, seed=ENGINE_SEED, dyadic=True
        )
        self.predicates: dict[str, Predicate] = {}
        self._sketches = {"f": schema.create_sketch(), "g": schema.create_sketch()}

    def ingest(self, stream: str, values: np.ndarray, weights: np.ndarray | None) -> None:
        self._sketches[stream].update_bulk(values, weights)

    def answer(self) -> float:
        return self._sketches["f"].est_join_size(self._sketches["g"])

    def synopsis(self, stream: str) -> SkimmedSketch:
        return self._sketches[stream]

    def size_in_counters(self) -> int:
        return sum(s.size_in_counters() for s in self._sketches.values())


def build(spec: Workload) -> EngineProgram | DyadicProgram:
    """A fresh, empty program for ``spec``."""
    return DyadicProgram(spec) if spec.dyadic else EngineProgram(spec)

"""Sharded parallel ingestion with exact lazy merge.

A sketch is a *linear* projection of the stream's frequency vector, so
splitting a stream across N shard sketches built from the **same schema**
and summing their counters afterwards reproduces the serial sketch
exactly — shard-and-merge parallelism is exact, not approximate (the
property the paper's distributed setting is built on, applied here to
intra-process parallelism).

:class:`ShardedIngestor` picks its path from ``workers`` alone:

* ``workers == 1`` — the one shard's ``update_bulk`` runs inline: no
  partitioning, no worker processes, no merge;
* ``workers > 1`` — the shared-memory plane (:mod:`repro.parallel.shm`):
  one segment and one persistent worker process per shard, deferred
  dense accumulation, zero-copy flush.  Batches pipeline through bounded
  queues, so each batch is validated here, before it is partitioned: a
  bad value or weight raises from :meth:`ShardedIngestor.ingest` rather
  than at the next merge.

Batches are partitioned by a deterministic multiplicative hash of the
value, so a given value always lands in the same shard regardless of
batch boundaries, and merge order is fixed — with integer (or
dyadic-rational) weights the merged counters are bit-identical to serial
ingestion.  docs/PERFORMANCE.md has the measurements that leave these
two paths and no others.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..errors import DomainError, ParameterError
from ..obs import METRICS as _METRICS
from ..sketches.base import finite_mass
from ..trace import TRACER as _TRACER

if TYPE_CHECKING:
    from ..sketches.serialize import AnySketch
    from .shm import _SharedMemoryStrategy

__all__ = ["ShardedIngestor", "partition_batch"]

# Fibonacci-hash multiplier (2**64 / phi): spreads consecutive values
# uniformly across shards while keeping the value -> shard map pure.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _SchemaLike(Protocol):
    """Any sketch schema: all we need is a fresh-synopsis factory."""

    def create_sketch(self) -> "AnySketch":
        """A fresh empty synopsis bound to this schema."""
        ...


def partition_batch(
    values: np.ndarray, weights: np.ndarray | None, workers: int
) -> list[tuple[np.ndarray, np.ndarray | None] | None]:
    """Split a batch into per-shard sub-batches by hashing each value.

    Returns one ``(values, weights)`` pair per shard (``None`` for shards
    that receive nothing from this batch).  The map is a pure function of
    the value — independent of batch boundaries and ingestion order — so
    re-chunking a stream never changes which shard accumulates a value.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [(values, weights)]
    mixed = (values.astype(np.uint64) * _GOLDEN) >> np.uint64(33)
    shard_ids = (mixed % np.uint64(workers)).astype(np.int64)
    parts: list[tuple[np.ndarray, np.ndarray | None] | None] = []
    for shard in range(workers):
        mask = shard_ids == shard
        count = int(np.count_nonzero(mask))
        if not count:
            parts.append(None)
        elif count == values.size:
            parts.append((values, weights))
        else:
            parts.append(
                (values[mask], None if weights is None else weights[mask])
            )
    return parts


class ShardedIngestor:
    """Partition batches across N shard synopses; merge exactly on demand.

    Parameters
    ----------
    schema:
        Any sketch schema (hash / dyadic / AGMS / skimmed); every shard is
        ``schema.create_sketch()``, so shards — and therefore the merge —
        share one set of hash/sign families.
    workers:
        Number of shards.  ``1`` ingests inline into the one shard;
        ``> 1`` starts one shared-memory worker process per shard (see
        the module docstring).

    The merged synopsis is computed lazily (:meth:`merged`) and cached
    behind a dirty flag, so interleaving ingestion and queries only pays
    the counter sum when new data actually arrived.
    """

    def __init__(self, schema: _SchemaLike, workers: int = 1) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self._schema = schema
        self._workers = workers
        self._shards: list[AnySketch] = [
            schema.create_sketch() for _ in range(workers)
        ]
        self._domain = int(self._shards[0].domain_size)
        self._plane: _SharedMemoryStrategy | None = None
        if workers > 1:
            # Imported here so `import repro` never loads multiprocessing.
            from .shm import _SharedMemoryStrategy

            self._plane = _SharedMemoryStrategy(self._shards)
        self._merged: AnySketch | None = None
        self._dirty = False
        self._closed = False
        self._batches = 0
        self._elements = 0

    @property
    def workers(self) -> int:
        """Number of shard synopses (= maximum ingest parallelism)."""
        return self._workers

    @property
    def batches_ingested(self) -> int:
        """Number of non-empty batches accepted so far."""
        return self._batches

    @property
    def elements_ingested(self) -> int:
        """Total elements accepted so far."""
        return self._elements

    def ingest(
        self, values: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Partition one batch across the shards and apply it.

        Raises :class:`~repro.errors.DomainError` for a value outside the
        schema's domain and :class:`~repro.errors.ParameterError` for a
        NaN or infinite weight, before any shard sees the batch.  With
        ``workers > 1`` the sub-batches are queued, not yet applied: a
        worker-side failure surfaces at the next :meth:`merged`.
        """
        if self._closed:
            raise RuntimeError("ShardedIngestor is closed")
        values = np.asarray(values, dtype=np.int64)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ParameterError("weights must have the same shape as values")
        if values.size == 0:
            return
        if self._plane is not None:
            # One shard's update_bulk checks this itself; queued
            # sub-batches must be checked before they leave.
            self._check_batch(values, weights)
        parts = partition_batch(values, weights, self._workers)
        with _TRACER.span(
            "parallel.ingest", elements=int(values.size), workers=self._workers
        ) if _TRACER.enabled else nullcontext():
            if self._plane is None:
                self._shards[0].update_bulk(values, weights)
            else:
                self._plane.ingest(parts)
        self._dirty = True
        self._merged = None
        self._batches += 1
        self._elements += int(values.size)
        if _METRICS.enabled:
            _METRICS.count("parallel.batches")
            _METRICS.count("parallel.elements", int(values.size))
            _METRICS.gauge("parallel.shards", float(self._workers))
            for shard, part in enumerate(parts):
                depth = 0 if part is None else int(part[0].size)
                _METRICS.gauge(f"parallel.shard.{shard}.queue_depth", float(depth))

    def _check_batch(self, values: np.ndarray, weights: np.ndarray | None) -> None:
        low, high = int(values.min()), int(values.max())
        if low < 0 or high >= self._domain:
            raise DomainError(
                f"value {low if low < 0 else high} outside domain "
                f"[0, {self._domain})"
            )
        if weights is not None:
            finite_mass(float(np.abs(weights).sum()))

    def merged(self) -> "AnySketch":
        """The exact merged synopsis of everything ingested so far.

        Lazy and cached: the worker flush barrier and the counter sum only
        happen when new batches arrived since the last call.  With
        ``workers=1`` this is the live shard itself — zero merge cost.
        """
        if self._merged is not None and not self._dirty:
            return self._merged
        with _METRICS.timer(
            "parallel.merge.seconds"
        ) if _METRICS.enabled else nullcontext():
            with _TRACER.span(
                "parallel.merge", workers=self._workers
            ) if _TRACER.enabled else nullcontext():
                if self._plane is not None:
                    self._plane.flush()
                merged = self._shards[0]
                for shard in self._shards[1:]:
                    merged = merged.merged_with(shard)
        if _METRICS.enabled:
            _METRICS.count("parallel.merges")
        self._merged = merged
        self._dirty = False
        return merged

    def drain_worker_telemetry(self) -> list[tuple[int, dict[str, float]]]:
        """Per-shard ingest stats collected from worker processes.

        Non-empty only with ``workers > 1`` after a flush (``merged()`` /
        ``close()``): each entry is ``(shard_index, {"worker.batches":
        ..., "worker.elements": ...})`` — the vitals the worker's
        process-local singletons couldn't publish.  Draining clears the
        pending stats, so each call reports new activity only.
        """
        if self._plane is None:
            return []
        return self._plane.drain_worker_telemetry()

    def reset(self) -> None:
        """Drop all accumulated state (zeroed shards, empty workers)."""
        if self._plane is None or self._closed:
            self._shards = [self._schema.create_sketch() for _ in self._shards]
        else:
            self._plane.reset()
        self._merged = None
        self._dirty = False
        self._batches = 0
        self._elements = 0

    def close(self) -> None:
        """Stop the worker processes (idempotent, exception-safe).

        Pending worker-side state is folded into the parent-side shards
        first, so :meth:`merged` keeps working after close — even if the
        flush itself fails, the workers are still stopped and the
        shared-memory segments unlinked.  Further :meth:`ingest` calls
        are an error.
        """
        if self._closed:
            return
        self._closed = True
        if self._plane is not None:
            try:
                self._plane.flush()
            finally:
                self._plane.close()

    def __enter__(self) -> "ShardedIngestor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedIngestor(workers={self._workers}, "
            f"batches={self._batches}, elements={self._elements})"
        )

"""Parallel sharded ingestion for sketch synopses.

Because every synopsis in this library is a linear projection of the
stream's frequency vector, a stream can be partitioned across N shard
sketches built from one schema and merged later by summing counters —
**exactly**, not approximately.  This package packages that observation
as infrastructure:

* :class:`ShardedIngestor` — N shard synopses with deterministic value
  partitioning, lazy dirty-flag-cached exact merge, and ``parallel.*``
  metrics/span instrumentation; one worker ingests inline, more workers
  run the shared-memory plane (one process per shard);
* :class:`ParallelStreamEngine` — the Figure-1 stream engine with its
  ingestion hooks rerouted through per-stream sharded ingestors; query
  answers are bit-identical (integer-weight regime) to the serial
  :class:`~repro.streams.engine.StreamEngine`;
* ``python -m repro.parallel selfcheck|scaling-gate`` — serial-vs-sharded
  equality proof on a seeded stream, and the "sharded must beat serial"
  throughput gate.

See docs/PERFORMANCE.md for the sharding model, the exact-merge argument
and worker-count guidance.
"""

from .shards import ShardedIngestor, partition_batch
from .engine import ParallelStreamEngine

__all__ = [
    "ParallelStreamEngine",
    "ShardedIngestor",
    "partition_batch",
]

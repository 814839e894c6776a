"""Tests for the sharded parallel ingest subsystem (repro.parallel).

The load-bearing claim is *exactness*: because every synopsis is a
linear projection, sharding a stream across workers and merging the
shard counters reproduces the serial sketch bit-for-bit (integer-weight
regime).  These tests pin that down per worker count, per synopsis kind,
and through the full ParallelStreamEngine query path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SketchParameters
from repro.core.estimator import SkimmedSketchSchema
from repro.errors import DomainError, ParameterError
from repro.parallel import ParallelStreamEngine, ShardedIngestor, partition_batch
from repro.parallel.__main__ import main as parallel_main
from repro.sketches.agms import AGMSSchema
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.sketches.serialize import sketch_state
from repro.streams.engine import StreamEngine
from repro.streams.query import JoinCountQuery, PointQuery, SelfJoinQuery

DOMAIN = 1 << 10
PARAMS = SketchParameters(width=128, depth=5)

#: Worker counts naming the two ingest paths: inline serial at 1, the
#: shared-memory plane above.
PATHS = pytest.mark.parametrize("workers", [1, 3], ids=["serial", "shm"])

#: One schema per synopsis kind the sharded path must reproduce exactly.
SCHEMA_KINDS = {
    "hash": lambda: HashSketchSchema(128, 5, DOMAIN, seed=9),
    "dyadic": lambda: DyadicSketchSchema(64, 5, DOMAIN, seed=2),
    "agms": lambda: AGMSSchema(16, 5, DOMAIN, seed=4),
    "skimmed": lambda: SkimmedSketchSchema(128, 5, DOMAIN, seed=6),
    "skimmed-dyadic": lambda: SkimmedSketchSchema(
        64, 5, DOMAIN, seed=8, dyadic=True
    ),
}


def seeded_batches(n=6000, batches=7, seed=3):
    """Deterministic integer-weight batches with ~5% deletions."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=n, dtype=np.int64)
    weights = np.ones(n, dtype=np.float64)
    weights[rng.random(n) < 0.05] = -1.0
    splits = np.array_split(np.arange(n), batches)
    return [(values[s], weights[s]) for s in splits]


def states_equal(left, right) -> bool:
    left_state, right_state = sketch_state(left), sketch_state(right)
    if left_state.keys() != right_state.keys():
        return False
    for key, lv in left_state.items():
        rv = right_state[key]
        if isinstance(lv, np.ndarray):
            if not np.array_equal(lv, rv):
                return False
        elif lv != rv:
            return False
    return True


class TestPartitionBatch:
    def test_partition_is_exhaustive_and_disjoint(self):
        values = np.arange(500, dtype=np.int64)
        parts = partition_batch(values, None, 4)
        assert len(parts) == 4
        seen = np.concatenate([p[0] for p in parts if p is not None])
        assert sorted(seen.tolist()) == values.tolist()

    def test_value_to_shard_map_ignores_batch_boundaries(self):
        values = np.arange(1000, dtype=np.int64)
        whole = partition_batch(values, None, 3)
        shard_of = {}
        for shard, part in enumerate(whole):
            if part is not None:
                for v in part[0].tolist():
                    shard_of[v] = shard
        for chunk in np.array_split(values, 11):
            for shard, part in enumerate(partition_batch(chunk, None, 3)):
                if part is not None:
                    for v in part[0].tolist():
                        assert shard_of[v] == shard

    def test_single_worker_short_circuits(self):
        values = np.arange(10, dtype=np.int64)
        weights = np.ones(10)
        parts = partition_batch(values, weights, 1)
        assert len(parts) == 1
        assert parts[0][0] is values
        assert parts[0][1] is weights

    def test_weights_follow_their_values(self):
        values = np.arange(200, dtype=np.int64)
        weights = values.astype(np.float64)
        for part in partition_batch(values, weights, 4):
            if part is not None:
                assert np.array_equal(part[0].astype(np.float64), part[1])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ParameterError):
            partition_batch(np.arange(4, dtype=np.int64), None, 0)


def ingest_along(path, schema, workers, batches):
    """Merged sketch of ``batches`` sharded ``workers`` ways.

    ``"serial"`` partitions each batch inline with :func:`partition_batch`
    and merges the per-shard sketches; ``"shm"`` runs the same shard count
    through :class:`ShardedIngestor` (the shared-memory plane above one
    worker).
    """
    if path == "shm":
        with ShardedIngestor(schema, workers=workers) as ingestor:
            for values, weights in batches:
                ingestor.ingest(values, weights)
            return ingestor.merged()
    shards = [schema.create_sketch() for _ in range(workers)]
    for values, weights in batches:
        for shard, part in zip(shards, partition_batch(values, weights, workers)):
            if part is not None:
                shard.update_bulk(*part)
    merged = shards[0]
    for shard in shards[1:]:
        merged = merged.merged_with(shard)
    return merged


class TestShardedIngestorExactness:
    @pytest.mark.parametrize("path", ["serial", "shm"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_hash_sketch_matches_serial(self, path, workers):
        schema = HashSketchSchema(128, 5, DOMAIN, seed=9)
        batches = seeded_batches()
        serial = schema.create_sketch()
        for values, weights in batches:
            serial.update_bulk(values, weights)
        assert states_equal(ingest_along(path, schema, workers, batches), serial)

    @pytest.mark.parametrize("path", ["serial", "shm"])
    def test_dyadic_sketch_matches_serial(self, path):
        schema = DyadicSketchSchema(64, 5, DOMAIN, seed=2)
        batches = seeded_batches(n=3000, batches=4)
        serial = schema.create_sketch()
        for values, weights in batches:
            serial.update_bulk(values, weights)
        assert states_equal(ingest_along(path, schema, 3, batches), serial)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("kind", sorted(SCHEMA_KINDS))
    def test_merged_counters_bit_identical_to_serial(self, kind, workers):
        schema = SCHEMA_KINDS[kind]()
        serial = schema.create_sketch()
        with ShardedIngestor(schema, workers=workers) as ingestor:
            for values, weights in seeded_batches(n=3000, batches=4):
                serial.update_bulk(values, weights)
                ingestor.ingest(values, weights)
            assert states_equal(ingestor.merged(), serial)

    def test_rechunking_does_not_change_merged_counters(self):
        schema = HashSketchSchema(128, 5, DOMAIN, seed=9)
        batches = seeded_batches()
        values = np.concatenate([v for v, _ in batches])
        weights = np.concatenate([w for _, w in batches])
        with ShardedIngestor(schema, workers=4) as chunked, \
                ShardedIngestor(schema, workers=4) as whole:
            for v, w in batches:
                chunked.ingest(v, w)
            whole.ingest(values, weights)
            assert states_equal(chunked.merged(), whole.merged())


class TestShardedIngestorBehaviour:
    def test_merge_is_cached_until_new_data(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        values, weights = seeded_batches(n=500, batches=1)[0]
        with ShardedIngestor(schema, workers=2) as ingestor:
            ingestor.ingest(values, weights)
            first = ingestor.merged()
            assert ingestor.merged() is first
            ingestor.ingest(values, weights)
            assert ingestor.merged() is not first

    def test_single_worker_merged_is_live_shard(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        ingestor = ShardedIngestor(schema, workers=1)
        values, weights = seeded_batches(n=100, batches=1)[0]
        ingestor.ingest(values, weights)
        merged = ingestor.merged()
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        assert states_equal(merged, serial)

    def test_stats_and_repr(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        with ShardedIngestor(schema, workers=2) as ingestor:
            assert ingestor.workers == 2
            values, weights = seeded_batches(n=100, batches=1)[0]
            ingestor.ingest(values, weights)
            ingestor.ingest(np.asarray([], dtype=np.int64))  # ignored
            assert ingestor.batches_ingested == 1
            assert ingestor.elements_ingested == 100
            assert "workers=2" in repr(ingestor)

    def test_reset_drops_everything(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        values, weights = seeded_batches(n=100, batches=1)[0]
        with ShardedIngestor(schema, workers=2) as ingestor:
            ingestor.ingest(values, weights)
            ingestor.reset()
            assert ingestor.elements_ingested == 0
            assert states_equal(ingestor.merged(), schema.create_sketch())

    def test_merged_works_after_close(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        values, weights = seeded_batches(n=400, batches=1)[0]
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        ingestor = ShardedIngestor(schema, workers=1)
        ingestor.ingest(values, weights)
        ingestor.close()
        assert states_equal(ingestor.merged(), serial)

    def test_invalid_parameters_rejected(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        with pytest.raises(ParameterError):
            ShardedIngestor(schema, workers=0)
        with ShardedIngestor(schema, workers=2) as ingestor:
            with pytest.raises(ParameterError):
                ingestor.ingest(
                    np.arange(4, dtype=np.int64), np.ones(3, dtype=np.float64)
                )


class TestShardedIngestorBoundary:
    """Bad batches raise typed errors from ``ingest`` and change nothing.

    With ``workers > 1`` sub-batches are queued to worker processes, so
    a value or weight a worker would reject must be caught before the
    batch is partitioned — otherwise it surfaces only at the next merge
    as a bare ``WorkerError``, or (a NaN weight) silently poisons the
    merged counters.
    """

    @PATHS
    @pytest.mark.parametrize("value", [-1, DOMAIN, DOMAIN + 4000])
    def test_out_of_domain_value_raises_domain_error(self, workers, value):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=1)
        values, weights = seeded_batches(n=300, batches=1)[0]
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        with ShardedIngestor(schema, workers=workers) as ingestor:
            ingestor.ingest(values, weights)
            with pytest.raises(DomainError):
                ingestor.ingest(np.asarray([1, value], dtype=np.int64))
            assert ingestor.elements_ingested == values.size
            assert states_equal(ingestor.merged(), serial)

    @PATHS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_parameter_error(self, workers, bad):
        schema = HashSketchSchema(64, 5, DOMAIN, seed=1)
        values, weights = seeded_batches(n=300, batches=1)[0]
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        with ShardedIngestor(schema, workers=workers) as ingestor:
            ingestor.ingest(values, weights)
            with pytest.raises(ParameterError):
                ingestor.ingest(
                    np.asarray([1, 2, 3], dtype=np.int64),
                    np.asarray([1.0, bad, 1.0]),
                )
            merged = ingestor.merged()
            assert np.isfinite(merged.counters).all()
            assert states_equal(merged, serial)


class TestParallelStreamEngine:
    @PATHS
    def test_answers_match_serial_engine(self, workers):
        serial = StreamEngine(DOMAIN, PARAMS, synopsis="skimmed", seed=5)
        batches = seeded_batches()
        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="skimmed", seed=5, workers=workers
        ) as engine:
            for eng in (serial, engine):
                for name in ("f", "g"):
                    eng.register_stream(name)
                    for values, weights in batches:
                        eng.process_bulk(name, values, weights)
            for query in (
                JoinCountQuery("f", "g"),
                SelfJoinQuery("f"),
                PointQuery("f", 7),
            ):
                assert engine.answer(query) == serial.answer(query)
            for name in ("f", "g"):
                assert states_equal(
                    engine.synopsis_for(name), serial.synopsis_for(name)
                )

    def test_single_element_process_path(self):
        serial = StreamEngine(DOMAIN, PARAMS, synopsis="hash", seed=5)
        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="hash", seed=5, workers=2
        ) as engine:
            for eng in (serial, engine):
                eng.register_stream("f")
                for value in (3, 99, 3, 500):
                    eng.process("f", value, 2.0)
            assert states_equal(engine.synopsis_for("f"), serial.synopsis_for("f"))

    def test_total_space_scales_with_workers(self):
        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="hash", seed=5, workers=3
        ) as engine:
            engine.register_stream("f")
            serial = StreamEngine(DOMAIN, PARAMS, synopsis="hash", seed=5)
            serial.register_stream("f")
            assert (
                engine.total_space_in_counters()
                == 3 * serial.total_space_in_counters()
            )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            ParallelStreamEngine(DOMAIN, PARAMS, workers=0)


class TestAdversarialMetamorphic:
    """Metamorphic linearity checks on the repro.workloads corpus.

    Because every synopsis is a linear projection and corpus weights are
    integers, permuting batch order or re-chunking an adversarial stream
    must leave every sketch counter bit-identical — serial and sharded.
    The delete-churn family is the sharpest probe (its near-cancelling
    +1/-1 waves would expose any order- or chunk-dependent state), and
    the filtered family adds predicate pushdown to the mix.
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
            instance.domain_size, PARAMS, synopsis="skimmed", seed=13
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
    )
    def test_batch_permutation_leaves_serial_sketches_identical(
        self, family, params
    ):
        instance = self._instance(family, params)
        permutation = np.random.default_rng(0).permutation(
            len(instance.batches)
        )
        in_order = self._engine_with_batches(instance, instance.batches)
        permuted = self._engine_with_batches(
            instance, [instance.batches[i] for i in permutation]
        )
        for name in instance.streams:
            assert states_equal(
                in_order.synopsis_for(name), permuted.synopsis_for(name)
            )

    @PATHS
    def test_rechunking_adversarial_stream_is_exact(self, workers):
        instance = self._instance("delete_churn", self.CHURN_PARAMS)
        values = np.concatenate(
            [b.values for b in instance.batches if b.stream == "f"]
        )
        weights = np.concatenate(
            [b.weights for b in instance.batches if b.stream == "f"]
        )
        schema = HashSketchSchema(128, 5, instance.domain_size, seed=13)
        with ShardedIngestor(schema, workers=workers) as coarse, \
                ShardedIngestor(schema, workers=workers) as fine:
            coarse.ingest(values, weights)
            splits = np.array_split(np.arange(values.size), 9)
            for chunk in splits:
                fine.ingest(values[chunk], weights[chunk])
            assert states_equal(coarse.merged(), fine.merged())

    @PATHS
    def test_permuted_ingest_matches_serial_engine_answers(self, workers):
        instance = self._instance("delete_churn", self.CHURN_PARAMS)
        serial = self._engine_with_batches(instance, instance.batches)
        permutation = np.random.default_rng(1).permutation(
            len(instance.batches)
        )
        with ParallelStreamEngine(
            instance.domain_size, PARAMS, synopsis="skimmed", seed=13,
            workers=workers,
        ) as engine:
            for name, predicate in instance.streams.items():
                engine.register_stream(name, predicate=predicate)
            for index in permutation:
                batch = instance.batches[index]
                engine.process_bulk(batch.stream, batch.values, batch.weights)
            for left, right in instance.queries:
                query = (
                    SelfJoinQuery(left)
                    if left == right
                    else JoinCountQuery(left, right)
                )
                assert engine.answer(query) == serial.answer(query)
            for name in instance.streams:
                assert states_equal(
                    engine.synopsis_for(name), serial.synopsis_for(name)
                )


class TestCli:
    def test_selfcheck_passes(self, capsys):
        code = parallel_main(
            ["selfcheck", "--workers", "2", "--elements", "2000", "--domain", "256"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "selfcheck OK" in out

    @pytest.mark.parametrize("command", ["selfcheck", "scaling-gate"])
    def test_no_mode_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            parallel_main([command, "--modes", "shm"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWorkerTelemetry:
    """Worker processes surface their ingest vitals at flush time.

    Worker processes run with their own (disabled) observability
    singletons, so their counters would silently vanish; the federation
    PR routes them back with the sketch state and merges them into the
    parent registry as ``parallel.shard.<N>.worker.*``.
    """

    def _ingest(self, engine, rng, n=4000, batches=4):
        values = rng.integers(0, DOMAIN, size=n, dtype=np.int64)
        engine.register_stream("f")
        for chunk in np.array_split(values, batches):
            engine.process_bulk("f", chunk, None)
        return n

    def test_flush_surfaces_worker_counters(self, rng):
        from repro.obs import METRICS

        METRICS.enable()
        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="hash", seed=5, workers=2
        ) as engine:
            n = self._ingest(engine, rng)
            engine.flush()
        counters = METRICS.snapshot()["counters"]
        elements = {
            name: value
            for name, value in counters.items()
            if name.startswith("parallel.shard.") and name.endswith("worker.elements")
        }
        assert elements, "flush must merge worker counters into the registry"
        assert sum(elements.values()) == float(n)
        batches = [
            value
            for name, value in counters.items()
            if name.startswith("parallel.shard.") and name.endswith("worker.batches")
        ]
        assert sum(batches) >= 1.0

    def test_flush_drains_even_while_disabled(self, rng):
        from repro.obs import METRICS

        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="hash", seed=5, workers=2
        ) as engine:
            self._ingest(engine, rng)
            engine.flush()  # disabled: stats must be dropped, not queued
            METRICS.enable()
            engine.process_bulk(
                "f", np.asarray([1, 2, 3], dtype=np.int64), None
            )
            engine.flush()
        counters = METRICS.snapshot()["counters"]
        elements = sum(
            value
            for name, value in counters.items()
            if name.startswith("parallel.shard.") and name.endswith("worker.elements")
        )
        assert elements == 3.0

    def test_single_worker_has_no_worker_telemetry(self, rng):
        from repro.obs import METRICS

        METRICS.enable()
        with ParallelStreamEngine(
            DOMAIN, PARAMS, synopsis="hash", seed=5, workers=1
        ) as engine:
            self._ingest(engine, rng)
            engine.flush()
        counters = METRICS.snapshot()["counters"]
        assert not any(name.startswith("parallel.shard.") for name in counters)


class TestSharedMemoryLifecycle:
    """No leaked ``/dev/shm`` segments, whatever tears the shm plane down.

    Segment names are ``repro_shm_*``; :func:`active_segment_names`
    enumerates the live ones, so every test can assert the before/after
    set difference directly.
    """

    @staticmethod
    def _ingestor(workers=2):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        return ShardedIngestor(schema, workers=workers)

    def test_segments_live_during_ingest_and_unlinked_on_close(self):
        from repro.parallel.shm import SEGMENT_PREFIX, active_segment_names

        before = set(active_segment_names())
        ingestor = self._ingestor()
        created = set(active_segment_names()) - before
        assert len(created) == 2
        assert all(name.startswith(SEGMENT_PREFIX) for name in created)
        values, weights = seeded_batches(n=300, batches=1)[0]
        ingestor.ingest(values, weights)
        ingestor.close()
        assert not (set(active_segment_names()) & created)

    def test_double_close_is_safe(self):
        from repro.parallel.shm import active_segment_names

        before = set(active_segment_names())
        ingestor = self._ingestor()
        values, weights = seeded_batches(n=200, batches=1)[0]
        ingestor.ingest(values, weights)
        ingestor.close()
        ingestor.close()
        assert set(active_segment_names()) == before

    def test_merged_works_and_is_exact_after_close(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        values, weights = seeded_batches(n=400, batches=1)[0]
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        ingestor = ShardedIngestor(schema, workers=2)
        ingestor.ingest(values, weights)
        ingestor.close()
        assert states_equal(ingestor.merged(), serial)

    def test_ingest_after_close_raises(self):
        ingestor = self._ingestor()
        values, weights = seeded_batches(n=100, batches=1)[0]
        ingestor.close()
        with pytest.raises(RuntimeError):
            ingestor.ingest(values, weights)

    def test_context_manager_exception_path_releases_segments(self):
        from repro.parallel.shm import active_segment_names

        before = set(active_segment_names())
        with pytest.raises(KeyboardInterrupt):
            with self._ingestor() as ingestor:
                values, weights = seeded_batches(n=200, batches=1)[0]
                ingestor.ingest(values, weights)
                raise KeyboardInterrupt
        assert set(active_segment_names()) == before

    def test_worker_failure_surfaces_and_close_still_releases(self):
        from repro.parallel.pool import WorkerError
        from repro.parallel.shm import active_segment_names

        before = set(active_segment_names())
        ingestor = self._ingestor()
        # Bypass the ingest-side checks: a worker that fails anyway must
        # still surface at the merge barrier and leave nothing behind.
        ingestor._plane.ingest([(np.asarray([DOMAIN + 17]), None), None])
        with pytest.raises(WorkerError):
            ingestor.merged()
        ingestor.close()
        assert set(active_segment_names()) == before

    def test_reset_clears_state_and_ingestor_stays_usable(self):
        schema = HashSketchSchema(64, 3, DOMAIN, seed=1)
        values, weights = seeded_batches(n=500, batches=1)[0]
        serial = schema.create_sketch()
        serial.update_bulk(values, weights)
        with ShardedIngestor(schema, workers=2) as ingestor:
            ingestor.ingest(values, weights)
            ingestor.reset()
            assert states_equal(ingestor.merged(), schema.create_sketch())
            ingestor.ingest(values, weights)
            assert states_equal(ingestor.merged(), serial)

    def test_interpreter_exit_without_close_leaks_nothing(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "leaker.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.parallel import ShardedIngestor\n"
            "from repro.parallel.shm import active_segment_names\n"
            "from repro.sketches.hash_sketch import HashSketchSchema\n"
            "schema = HashSketchSchema(64, 3, 1 << 10, seed=1)\n"
            "ingestor = ShardedIngestor(schema, workers=2)\n"
            "ingestor.ingest(np.arange(64, dtype=np.int64))\n"
            "ingestor.merged()\n"
            "print(','.join(active_segment_names()))\n"
            "# exit without close(): weakref.finalize must unlink at exit\n"
        )
        import os
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            cwd=str(repo_root),
        )
        assert result.returncode == 0, result.stderr
        created = {name for name in result.stdout.strip().split(",") if name}
        assert created, "the child must have had live segments"
        from repro.parallel.shm import active_segment_names

        assert not (set(active_segment_names()) & created)
        assert "leaked shared_memory" not in result.stderr

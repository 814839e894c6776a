"""Tests for sketch persistence (save/load round trips)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro import load_sketch, save_sketch, sketch_from_state, sketch_state
from repro.core.estimator import SkimmedSketchSchema
from repro.sketches.agms import AGMSSchema
from repro.sketches.dyadic import DyadicSketchSchema
from repro.sketches.hash_sketch import HashSketchSchema
from repro.sketches.serialize import (
    FORMAT_VERSION,
    SerializationError,
    merge_sketch_state,
    sketch_from_spec,
    sketch_spec,
)
from repro.streams.generators import zipf_frequencies

DOMAIN = 1 << 10


def loaded_roundtrip(sketch):
    buffer = io.BytesIO()
    save_sketch(sketch, buffer)
    buffer.seek(0)
    return load_sketch(buffer)


class TestHashSketchRoundTrip:
    def test_counters_and_mass_preserved(self):
        schema = HashSketchSchema(32, 5, DOMAIN, seed=3)
        sketch = schema.sketch_of(zipf_frequencies(DOMAIN, 5_000, 1.2))
        restored = loaded_roundtrip(sketch)
        assert np.array_equal(restored.counters, sketch.counters)
        assert restored.absolute_mass == sketch.absolute_mass

    def test_restored_sketch_is_join_compatible_with_live_one(self):
        """The whole point: a checkpointed synopsis keeps working."""
        schema = HashSketchSchema(64, 5, DOMAIN, seed=4)
        f = zipf_frequencies(DOMAIN, 10_000, 1.2)
        sketch_f = schema.sketch_of(f)
        restored = loaded_roundtrip(sketch_f)
        live_g = schema.sketch_of(f)
        assert restored.est_join_size(live_g) == pytest.approx(
            sketch_f.est_join_size(live_g)
        )

    def test_restored_sketch_accepts_updates(self):
        schema = HashSketchSchema(32, 5, DOMAIN, seed=5)
        sketch = schema.create_sketch()
        sketch.update(1)
        restored = loaded_roundtrip(sketch)
        restored.update(1)
        assert restored.point_estimate(1) == pytest.approx(2.0)

    def test_file_round_trip(self, tmp_path):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=6)
        sketch = schema.create_sketch()
        sketch.update(7, 2.5)
        path = tmp_path / "sketch.npz"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert np.array_equal(restored.counters, sketch.counters)


class TestOtherKinds:
    def test_agms_round_trip(self):
        schema = AGMSSchema(8, 5, DOMAIN, seed=7)
        sketch = schema.sketch_of(zipf_frequencies(DOMAIN, 3_000, 1.0))
        restored = loaded_roundtrip(sketch)
        assert np.array_equal(restored.atomic_sketches, sketch.atomic_sketches)
        assert restored.est_self_join_size() == pytest.approx(
            sketch.est_self_join_size()
        )

    def test_dyadic_round_trip(self):
        schema = DyadicSketchSchema(32, 3, DOMAIN, seed=8, coarse_cutoff=32)
        sketch = schema.sketch_of(zipf_frequencies(DOMAIN, 3_000, 1.3))
        restored = loaded_roundtrip(sketch)
        for level in range(schema.num_levels):
            assert np.array_equal(
                restored.level_sketch(level).counters,
                sketch.level_sketch(level).counters,
            )

    def test_skimmed_round_trip(self):
        schema = SkimmedSketchSchema(
            64, 5, DOMAIN, seed=9, threshold_multiplier=1.5
        )
        f = zipf_frequencies(DOMAIN, 10_000, 1.3)
        sketch = schema.sketch_of(f)
        restored = loaded_roundtrip(sketch)
        assert restored.schema.threshold_multiplier == 1.5
        assert restored.est_self_join_size() == pytest.approx(
            sketch.est_self_join_size()
        )

    def test_skimmed_dyadic_round_trip(self):
        schema = SkimmedSketchSchema(32, 3, DOMAIN, seed=10, dyadic=True)
        sketch = schema.create_sketch()
        sketch.update(5, 3.0)
        restored = loaded_roundtrip(sketch)
        assert restored.schema.dyadic
        assert restored.point_estimate(5) == pytest.approx(3.0)


class TestSpecHelpers:
    """Schema-only specs: build empty twins, merge shipped counter state."""

    SCHEMAS = [
        HashSketchSchema(16, 3, DOMAIN, seed=4),
        AGMSSchema(8, 3, DOMAIN, seed=4),
        DyadicSketchSchema(16, 3, DOMAIN, seed=4),
        SkimmedSketchSchema(16, 3, DOMAIN, seed=4),
        SkimmedSketchSchema(16, 3, DOMAIN, seed=4, dyadic=True),
    ]
    KINDS = ["hash", "agms", "dyadic", "skimmed", "skimmed-dyadic"]

    @pytest.mark.parametrize("schema", SCHEMAS, ids=KINDS)
    def test_spec_round_trip_builds_empty_twin(self, schema):
        original = schema.create_sketch()
        twin = sketch_from_spec(sketch_spec(original))
        assert type(twin) is type(original)
        left, right = sketch_state(original), sketch_state(twin)
        assert left.keys() == right.keys()
        for key, lv in left.items():
            rv = right[key]
            if isinstance(lv, np.ndarray):
                assert np.array_equal(lv, rv), key
            else:
                assert lv == rv, key

    def test_spec_twin_shares_hash_families(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=4)
        original = schema.create_sketch()
        twin = sketch_from_spec(sketch_spec(original))
        original.update(9, 2.0)
        twin.update(9, 2.0)
        assert np.array_equal(original.counters, twin.counters)

    def test_merge_sketch_state_adds_counters(self):
        schema = HashSketchSchema(16, 3, DOMAIN, seed=4)
        left, right = schema.create_sketch(), schema.create_sketch()
        left.update(1, 2.0)
        right.update(3, 5.0)
        merged = merge_sketch_state(left, sketch_state(right))
        reference = schema.create_sketch()
        reference.update(1, 2.0)
        reference.update(3, 5.0)
        assert np.array_equal(merged.counters, reference.counters)
        assert merged.absolute_mass == reference.absolute_mass

    def test_merge_rejects_kind_mismatch(self):
        hash_sketch = HashSketchSchema(16, 3, DOMAIN, seed=4).create_sketch()
        agms_state = sketch_state(AGMSSchema(8, 3, DOMAIN, seed=4).create_sketch())
        with pytest.raises(SerializationError):
            merge_sketch_state(hash_sketch, agms_state)

    def test_spec_rejects_unknown_kind_and_version(self):
        with pytest.raises(SerializationError):
            sketch_from_spec({"version": FORMAT_VERSION, "kind": "mystery"})
        with pytest.raises(SerializationError):
            sketch_from_spec({"version": 999, "kind": "hash"})

    SPEC_FIELDS = [
        pytest.param(schema, field, id=f"{kind}-{field}")
        for kind, schema in zip(KINDS, SCHEMAS)
        for field in sketch_spec(schema.create_sketch())
    ]

    @pytest.mark.parametrize("malform", ["dropped", "garbage"])
    @pytest.mark.parametrize("schema,field", SPEC_FIELDS)
    def test_malformed_spec_field_raises_serialization_error(
        self, schema, field, malform
    ):
        spec = sketch_spec(schema.create_sketch())
        if malform == "dropped":
            del spec[field]
        else:
            spec[field] = "garbage"
        with pytest.raises(SerializationError, match=field):
            sketch_from_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            ["not", "a", "dict"],
            {"version": FORMAT_VERSION, "kind": "hash", "width": 0, "depth": 3,
             "domain_size": DOMAIN, "seed": 4},
            {"version": FORMAT_VERSION, "kind": "hash", "width": 16, "depth": 3,
             "domain_size": DOMAIN, "seed": -1},
        ],
        ids=["not-a-dict", "zero-width", "negative-seed"],
    )
    def test_unbuildable_spec_raises_serialization_error(self, spec):
        with pytest.raises(SerializationError):
            sketch_from_spec(spec)


class TestStateValidation:
    """A restored state feeds merges and coordinator answers, so anything
    that cannot be restored exactly raises :class:`SerializationError`."""

    MULTILEVEL = DyadicSketchSchema(16, 3, DOMAIN, seed=4, coarse_cutoff=64)
    SCHEMAS = [*TestSpecHelpers.SCHEMAS, MULTILEVEL]
    KINDS = [*TestSpecHelpers.KINDS, "dyadic-5-levels"]
    STATE_FIELDS = [
        pytest.param(schema, field, id=f"{kind}-{field}")
        for kind, schema in zip(KINDS, SCHEMAS)
        for field in sketch_state(schema.create_sketch())
    ]

    @pytest.mark.parametrize("malform", ["dropped", "garbage"])
    @pytest.mark.parametrize("schema,field", STATE_FIELDS)
    def test_malformed_state_field_raises_serialization_error(
        self, schema, field, malform
    ):
        state = sketch_state(schema.create_sketch())
        if malform == "dropped":
            del state[field]
        else:
            state[field] = "garbage"
        with pytest.raises(SerializationError, match=field):
            sketch_from_state(state)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("schema", SCHEMAS, ids=KINDS)
    def test_non_finite_counters_rejected(self, schema, bad):
        sketch = schema.create_sketch()
        sketch.update(7, 2.0)
        state = sketch_state(sketch)
        field = next(name for name in state if name.startswith("counters"))
        state[field][0, 0] = bad
        with pytest.raises(SerializationError, match=field):
            sketch_from_state(state)

    @pytest.mark.parametrize("mass", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("schema", SCHEMAS, ids=KINDS)
    def test_bad_absolute_mass_rejected(self, schema, mass):
        state = sketch_state(schema.create_sketch())
        field = next(name for name in state if name.startswith("absolute_mass"))
        state[field] = mass
        with pytest.raises(SerializationError, match=field):
            sketch_from_state(state)

    def test_dyadic_level_of_wrong_shape_rejected(self):
        state = sketch_state(self.MULTILEVEL.create_sketch())
        state["counters_2"] = np.zeros((3, 8))
        with pytest.raises(SerializationError, match="shape"):
            sketch_from_state(state)

    def test_skimmed_state_with_a_foreign_hierarchy_rejected(self):
        """A skimmed schema builds its hierarchy at the default cutoff, so
        a state carrying another one restores a sketch it cannot merge."""
        state = sketch_state(self.MULTILEVEL.create_sketch())
        state.update(kind="skimmed", inner_kind="dyadic", threshold_multiplier=1.0)
        with pytest.raises(SerializationError, match="does not match"):
            sketch_from_state(state)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda state: ["not", "a", "dict"],
            lambda state: {**state, "width": 0},
            lambda state: {**state, "threshold_multiplier": float("nan")},
        ],
        ids=["not-a-dict", "zero-width", "nan-threshold"],
    )
    def test_unbuildable_state_raises_serialization_error(self, mutate):
        schema = SkimmedSketchSchema(16, 3, DOMAIN, seed=4)
        with pytest.raises(SerializationError):
            sketch_from_state(mutate(sketch_state(schema.create_sketch())))


class TestErrors:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            sketch_from_state({"version": FORMAT_VERSION, "kind": "mystery"})

    def test_bad_version_rejected(self):
        with pytest.raises(SerializationError):
            sketch_from_state({"version": 999, "kind": "hash"})

    def test_unserialisable_object_rejected(self):
        with pytest.raises(SerializationError):
            sketch_state("not a sketch")  # type: ignore[arg-type]

    def test_corrupt_counters_rejected(self):
        schema = HashSketchSchema(8, 3, DOMAIN, seed=11)
        state = sketch_state(schema.create_sketch())
        state["counters"] = np.zeros((1, 1))
        with pytest.raises(SerializationError):
            sketch_from_state(state)

    def test_garbage_archive_rejected(self):
        with pytest.raises(SerializationError):
            load_sketch(io.BytesIO(b"not an npz archive"))

"""Synopsis persistence: save/load sketches with their schemas.

A deployed stream processor checkpoints its synopses (process restarts,
node migration, "ship the sketch to the coordinator" patterns — the
natural operations on a linear, mergeable summary).  Persistence must
round-trip the *schema* too: a sketch without its hash/sign families is
just noise, and a restored sketch must remain join-compatible with live
sketches built from the same seed.

Everything is serialised to a flat ``dict`` of JSON-safe scalars and
numpy arrays, written with :func:`numpy.savez_compressed`.  Schemas are
reconstructed from their defining parameters (seeded randomness makes the
families identical), counters are restored verbatim.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import Any, BinaryIO, Callable, Union

import numpy as np

from ..core.estimator import SkimmedSketch, SkimmedSketchSchema
from ..errors import ReproError
from .agms import AGMSSchema, AGMSSketch
from .dyadic import DyadicHashSketch, DyadicSketchSchema
from .hash_sketch import HashSketch, HashSketchSchema

#: Format marker embedded in every archive (bump on layout changes).
FORMAT_VERSION = 1

_KIND_HASH = "hash"
_KIND_AGMS = "agms"
_KIND_DYADIC = "dyadic"
_KIND_SKIMMED = "skimmed"

#: Every sketch kind the persistence layer round-trips.
AnySketch = Union[HashSketch, AGMSSketch, DyadicHashSketch, SkimmedSketch]
AnySchema = Union[HashSketchSchema, AGMSSchema, DyadicSketchSchema, SkimmedSketchSchema]


class SerializationError(ReproError):
    """The archive is missing, malformed, or of an unknown kind/version."""


def _schema_fields(sketch: AnySketch) -> dict[str, Any]:
    """Common schema parameters shared by all sketch kinds."""
    schema = sketch.schema
    return {
        "version": FORMAT_VERSION,
        "width": getattr(schema, "width", 0),
        "depth": getattr(schema, "depth", 0),
        "domain_size": schema.domain_size,
        "seed": schema.seed,
    }


def sketch_state(sketch: AnySketch) -> dict[str, Any]:
    """The complete state of a sketch as a flat, array-valued dict."""
    if isinstance(sketch, HashSketch):
        return {
            **_schema_fields(sketch),
            "kind": _KIND_HASH,
            "counters": sketch.counters.copy(),
            "absolute_mass": sketch.absolute_mass,
        }
    if isinstance(sketch, AGMSSketch):
        return {
            "version": FORMAT_VERSION,
            "kind": _KIND_AGMS,
            "averaging": sketch.schema.averaging,
            "median": sketch.schema.median,
            "domain_size": sketch.schema.domain_size,
            "seed": sketch.schema.seed,
            "counters": sketch.atomic_sketches.copy(),
            "absolute_mass": sketch.absolute_mass,
        }
    if isinstance(sketch, DyadicHashSketch):
        state = {
            **_schema_fields(sketch),
            "kind": _KIND_DYADIC,
            "coarse_cutoff": sketch.schema.coarse_cutoff,
            "num_levels": sketch.schema.num_levels,
        }
        for level in range(sketch.schema.num_levels):
            inner = sketch.level_sketch(level)
            state[f"counters_{level}"] = inner.counters.copy()
            state[f"absolute_mass_{level}"] = inner.absolute_mass
        return state
    if isinstance(sketch, SkimmedSketch):
        inner_state = sketch_state(sketch._inner)  # noqa: SLF001
        inner_state["kind"] = _KIND_SKIMMED
        inner_state["inner_kind"] = (
            _KIND_DYADIC if sketch.schema.dyadic else _KIND_HASH
        )
        inner_state["threshold_multiplier"] = sketch.schema.threshold_multiplier
        return inner_state
    raise SerializationError(f"cannot serialise {type(sketch).__name__}")


def _restore_hash(state: dict[str, Any]) -> HashSketch:
    schema = HashSketchSchema(
        int(state["width"]),
        int(state["depth"]),
        int(state["domain_size"]),
        seed=int(state["seed"]),
    )
    sketch = schema.create_sketch()
    counters = np.asarray(state["counters"], dtype=np.float64)
    if counters.shape != (schema.depth, schema.width):
        raise SerializationError(
            f"counter shape {counters.shape} does not match schema "
            f"({schema.depth}, {schema.width})"
        )
    sketch._counters = counters  # noqa: SLF001
    sketch._absolute_mass = float(state["absolute_mass"])  # noqa: SLF001
    return sketch


def _restore_agms(state: dict[str, Any]) -> AGMSSketch:
    schema = AGMSSchema(
        int(state["averaging"]),
        int(state["median"]),
        int(state["domain_size"]),
        seed=int(state["seed"]),
    )
    sketch = schema.create_sketch()
    counters = np.asarray(state["counters"], dtype=np.float64)
    if counters.shape != (schema.median, schema.averaging):
        raise SerializationError(
            f"counter shape {counters.shape} does not match schema "
            f"({schema.median}, {schema.averaging})"
        )
    sketch._atomic = counters  # noqa: SLF001
    sketch._absolute_mass = float(state["absolute_mass"])  # noqa: SLF001
    return sketch


def _restore_dyadic(state: dict[str, Any]) -> DyadicHashSketch:
    schema = DyadicSketchSchema(
        int(state["width"]),
        int(state["depth"]),
        int(state["domain_size"]),
        seed=int(state["seed"]),
        coarse_cutoff=int(state["coarse_cutoff"]),
    )
    if schema.num_levels != int(state["num_levels"]):
        raise SerializationError(
            f"archive has {state['num_levels']} levels, schema rebuilds "
            f"{schema.num_levels}"
        )
    sketch = schema.create_sketch()
    for level in range(schema.num_levels):
        inner = sketch.level_sketch(level)
        inner._counters = np.asarray(  # noqa: SLF001
            state[f"counters_{level}"], dtype=np.float64
        )
        inner._absolute_mass = float(state[f"absolute_mass_{level}"])  # noqa: SLF001
    return sketch


def _restore_skimmed(state: dict[str, Any]) -> SkimmedSketch:
    schema = SkimmedSketchSchema(
        int(state["width"]),
        int(state["depth"]),
        int(state["domain_size"]),
        seed=int(state["seed"]),
        dyadic=str(state["inner_kind"]) == _KIND_DYADIC,
        threshold_multiplier=float(state["threshold_multiplier"]),
    )
    sketch = schema.create_sketch()
    inner_state = dict(state)
    inner_state["kind"] = str(state["inner_kind"])
    sketch._inner = sketch_from_state(inner_state)  # noqa: SLF001
    return sketch


def sketch_from_state(state: dict[str, Any]) -> AnySketch:
    """Rebuild a sketch (schema included) from :func:`sketch_state` output."""
    version = int(state.get("version", -1))
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported archive version {version}")
    kind = str(state.get("kind", ""))
    restorers = {
        _KIND_HASH: _restore_hash,
        _KIND_AGMS: _restore_agms,
        _KIND_DYADIC: _restore_dyadic,
        _KIND_SKIMMED: _restore_skimmed,
    }
    if kind not in restorers:
        raise SerializationError(f"unknown sketch kind {kind!r}")
    return restorers[kind](state)


def sketch_spec(sketch: AnySketch) -> dict[str, Any]:
    """Schema-only construction recipe for a sketch: parameters, no counters.

    A spec is tiny and JSON-safe, which makes it the right thing to ship
    to another process: the receiver rebuilds an *empty* join-compatible
    sketch via :func:`sketch_from_spec` (seeded randomness makes the hash
    families identical) and accumulates locally — only counter state ever
    travels back.
    """
    if isinstance(sketch, HashSketch):
        return {**_schema_fields(sketch), "kind": _KIND_HASH}
    if isinstance(sketch, AGMSSketch):
        return {
            "version": FORMAT_VERSION,
            "kind": _KIND_AGMS,
            "averaging": sketch.schema.averaging,
            "median": sketch.schema.median,
            "domain_size": sketch.schema.domain_size,
            "seed": sketch.schema.seed,
        }
    if isinstance(sketch, DyadicHashSketch):
        return {
            **_schema_fields(sketch),
            "kind": _KIND_DYADIC,
            "coarse_cutoff": sketch.schema.coarse_cutoff,
            "num_levels": sketch.schema.num_levels,
        }
    if isinstance(sketch, SkimmedSketch):
        return {
            **_schema_fields(sketch),
            "kind": _KIND_SKIMMED,
            "inner_kind": _KIND_DYADIC if sketch.schema.dyadic else _KIND_HASH,
            "threshold_multiplier": sketch.schema.threshold_multiplier,
        }
    raise SerializationError(f"cannot spec {type(sketch).__name__}")


def _spec_field(spec: dict[str, Any], name: str, cast: Callable[[Any], Any]) -> Any:
    """``cast(spec[name])``, or a :class:`SerializationError` naming the field."""
    try:
        return cast(spec[name])
    except KeyError as exc:
        raise SerializationError(f"spec has no {name!r} field") from exc
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"spec field {name!r} is malformed: {spec[name]!r}"
        ) from exc


def _schema_from_spec(spec: dict[str, Any], kind: str) -> AnySchema:
    def field(name: str, cast: Callable[[Any], Any] = operator.index) -> Any:
        return _spec_field(spec, name, cast)

    if kind == _KIND_HASH:
        return HashSketchSchema(
            field("width"), field("depth"), field("domain_size"), seed=field("seed")
        )
    if kind == _KIND_AGMS:
        return AGMSSchema(
            field("averaging"),
            field("median"),
            field("domain_size"),
            seed=field("seed"),
        )
    if kind == _KIND_DYADIC:
        schema = DyadicSketchSchema(
            field("width"),
            field("depth"),
            field("domain_size"),
            seed=field("seed"),
            coarse_cutoff=field("coarse_cutoff"),
        )
        num_levels = field("num_levels")
        if schema.num_levels != num_levels:
            raise SerializationError(
                f"spec has {num_levels} levels, schema rebuilds {schema.num_levels}"
            )
        return schema
    if kind == _KIND_SKIMMED:
        inner_kind = field("inner_kind", str)
        if inner_kind not in (_KIND_HASH, _KIND_DYADIC):
            raise SerializationError(f"spec has unknown inner_kind {inner_kind!r}")
        return SkimmedSketchSchema(
            field("width"),
            field("depth"),
            field("domain_size"),
            seed=field("seed"),
            dyadic=inner_kind == _KIND_DYADIC,
            threshold_multiplier=field("threshold_multiplier", float),
        )
    raise SerializationError(f"unknown sketch kind {kind!r}")


def sketch_from_spec(spec: dict[str, Any]) -> AnySketch:
    """Build a fresh *empty* sketch from :func:`sketch_spec` output.

    Raises :class:`SerializationError`, and nothing else, when ``spec`` is
    not a dict, lacks a field or holds a mistyped one, or describes a
    schema that cannot be built.
    """
    if not isinstance(spec, dict):
        raise SerializationError(f"spec must be a dict, got {type(spec).__name__}")
    version = _spec_field(spec, "version", operator.index)
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported spec version {version}")
    kind = _spec_field(spec, "kind", str)
    try:
        schema = _schema_from_spec(spec, kind)
    except ValueError as exc:  # ParameterError, or numpy rejecting the seed
        raise SerializationError(f"spec describes no valid {kind} schema: {exc}") from exc
    return schema.create_sketch()


def merge_sketch_state(sketch: AnySketch, state: dict[str, Any]) -> AnySketch:
    """Merge a serialised sketch state into a live sketch (counter sum).

    Rebuilds the state's sketch (schema and all) and returns
    ``sketch.merged_with(restored)`` — linearity makes the result exactly
    the sketch of both underlying streams concatenated.  Compatibility
    (dimensions *and* seeded randomness) is validated by ``merged_with``;
    a kind mismatch raises :class:`SerializationError`.
    """
    other = sketch_from_state(state)
    if type(other) is not type(sketch):
        raise SerializationError(
            f"cannot merge {state.get('kind')!r} state into "
            f"{type(sketch).__name__}"
        )
    return sketch.merged_with(other)


def save_sketch(sketch: AnySketch, destination: str | Path | BinaryIO) -> None:
    """Persist a sketch (with schema parameters) to an ``.npz`` archive."""
    state = sketch_state(sketch)
    np.savez_compressed(destination, **state)


def load_sketch(source: str | Path | BinaryIO) -> AnySketch:
    """Load a sketch previously written by :func:`save_sketch`.

    The restored sketch is join-compatible with any live sketch built from
    the same schema parameters and seed.
    """
    try:
        with np.load(source, allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except Exception as error:  # zipfile/numpy raise various types here
        raise SerializationError(f"unreadable sketch archive: {error}") from error
    # Scalars come back as 0-d arrays; unwrap them.
    state = {
        key: value.item() if getattr(value, "ndim", 1) == 0 else value
        for key, value in state.items()
    }
    return sketch_from_state(state)

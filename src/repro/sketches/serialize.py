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
    """``cast(spec[name])``, or a :class:`SerializationError` naming the field.

    Reads spec and state fields alike (a state is a spec plus counters).
    """
    try:
        return cast(spec[name])
    except KeyError as exc:
        raise SerializationError(f"no {name!r} field") from exc
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"field {name!r} is malformed: {spec[name]!r}"
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
                f"{num_levels} levels given, schema rebuilds {schema.num_levels}"
            )
        return schema
    if kind == _KIND_SKIMMED:
        inner_kind = field("inner_kind", str)
        if inner_kind not in (_KIND_HASH, _KIND_DYADIC):
            raise SerializationError(f"unknown inner_kind {inner_kind!r}")
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
        raise SerializationError(f"expected a dict, got {type(spec).__name__}")
    version = _spec_field(spec, "version", operator.index)
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    kind = _spec_field(spec, "kind", str)
    try:
        schema = _schema_from_spec(spec, kind)
    except ValueError as exc:  # ParameterError, or numpy rejecting the seed
        raise SerializationError(f"no valid {kind} schema: {exc}") from exc
    return schema.create_sketch()


def _checked_counters(
    state: dict[str, Any], suffix: str, shape: tuple[int, ...]
) -> tuple[np.ndarray, float]:
    """The ``counters<suffix>`` block and ``absolute_mass<suffix>`` of a state.

    Raises :class:`SerializationError` unless the counters have ``shape``
    and are all finite, and the mass is finite and non-negative.
    """
    counters = _spec_field(
        state, f"counters{suffix}", lambda v: np.asarray(v, dtype=np.float64)
    )
    if counters.shape != shape:
        raise SerializationError(
            f"'counters{suffix}' has shape {counters.shape}, schema needs {shape}"
        )
    if not np.isfinite(counters).all():
        raise SerializationError(f"'counters{suffix}' holds non-finite counters")
    mass = _spec_field(state, f"absolute_mass{suffix}", float)
    if not 0.0 <= mass < np.inf:
        raise SerializationError(
            f"'absolute_mass{suffix}' must be finite and >= 0, got {mass}"
        )
    return counters, mass


def sketch_from_state(state: dict[str, Any]) -> AnySketch:
    """Rebuild a sketch (schema included) from :func:`sketch_state` output.

    A state is a spec plus counters, so it is rejected wherever
    :func:`sketch_from_spec` rejects a spec, and also when a counter block
    or absolute mass is missing, malformed, of the wrong shape, or not
    finite (or the mass is negative).  Every rejection is a
    :class:`SerializationError`.
    """
    sketch = sketch_from_spec(state)
    if isinstance(sketch, SkimmedSketch):
        inner = sketch_from_state({**state, "kind": state["inner_kind"]})
        own = sketch._inner  # noqa: SLF001
        if not isinstance(inner, (HashSketch, DyadicHashSketch)) or (
            sketch_spec(inner) != sketch_spec(own)
        ):
            raise SerializationError(
                f"inner {inner!r} does not match the skimmed schema's {own!r}"
            )
        sketch._inner = inner  # noqa: SLF001
    elif isinstance(sketch, DyadicHashSketch):
        for level in range(sketch.schema.num_levels):
            part = sketch.level_sketch(level)
            counters, mass = _checked_counters(
                state, f"_{level}", (part.schema.depth, part.schema.width)
            )
            part._counters = counters  # noqa: SLF001
            part._absolute_mass = mass  # noqa: SLF001
    elif isinstance(sketch, AGMSSketch):
        counters, mass = _checked_counters(
            state, "", (sketch.schema.median, sketch.schema.averaging)
        )
        sketch._atomic = counters  # noqa: SLF001
        sketch._absolute_mass = mass  # noqa: SLF001
    else:
        counters, mass = _checked_counters(
            state, "", (sketch.schema.depth, sketch.schema.width)
        )
        sketch._counters = counters  # noqa: SLF001
        sketch._absolute_mass = mass  # noqa: SLF001
    return sketch


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

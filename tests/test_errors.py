"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    DomainError,
    IncompatibleSketchError,
    QueryError,
    ReproError,
)


@pytest.mark.parametrize(
    "exc",
    [DomainError, IncompatibleSketchError, QueryError],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_repro_error_is_an_exception():
    assert issubclass(ReproError, Exception)


def test_catchable_at_api_boundary():
    """One except clause suffices for all library errors."""
    from repro.sketches.hash_sketch import HashSketchSchema

    schema = HashSketchSchema(4, 3, 8, seed=0)
    sketch = schema.create_sketch()
    try:
        sketch.update(100)
    except ReproError as error:
        assert isinstance(error, DomainError)
    else:
        pytest.fail("expected a ReproError")

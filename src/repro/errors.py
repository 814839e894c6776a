"""Exception hierarchy for the skimmed-sketch library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one type at an API boundary.  Parameter-validation failures raise
:class:`ParameterError`, which also subclasses ``ValueError`` so code (and
tests) written against the standard idiom keep working; wrong *types* still
raise the standard ``TypeError``.  The ``repro.analysis`` linter (rule R5)
enforces that library code never raises a bare ``ValueError`` and never
relies on ``assert`` for validation (asserts vanish under ``python -O``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ParameterError(ReproError, ValueError):
    """An argument or constructor parameter is out of range or malformed.

    Subclasses both :class:`ReproError` (so one ``except ReproError`` guards
    a whole API boundary) and :class:`ValueError` (so callers using the
    standard-library idiom — and the pre-existing test suite — continue to
    catch it).
    """


class IncompatibleSketchError(ReproError):
    """Two synopses that must share randomness or shape do not.

    Join estimation combines sketches *pairwise per bucket/atomic sketch*;
    that only has the right expectation when both sketches were built from
    the same schema (identical hash and sign families) and have the same
    dimensions.  Mixing sketches from different schemas is a silent
    correctness bug, so it is detected and rejected eagerly.
    """


class DomainError(ReproError):
    """A stream element falls outside the synopsis' declared domain."""


class QueryError(ReproError):
    """A stream query is malformed or references unknown streams/synopses."""

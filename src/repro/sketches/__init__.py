"""Sketch synopses: basic AGMS, hash sketches, dyadic hierarchies.

These are the stream summaries of Sections 2.2 and 4.1-4.2 of the paper.
The skimmed-sketch join estimator itself lives in :mod:`repro.core` and is
built on top of :class:`HashSketch` / :class:`DyadicHashSketch`.
"""

from .base import StreamSynopsis
from .agms import AGMSSchema, AGMSSketch
from .hash_sketch import HashSketch, HashSketchSchema
from .dyadic import DyadicHashSketch, DyadicSketchSchema

__all__ = [
    "StreamSynopsis",
    "AGMSSchema",
    "AGMSSketch",
    "HashSketch",
    "HashSketchSchema",
    "DyadicHashSketch",
    "DyadicSketchSchema",
]

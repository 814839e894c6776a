"""R3 fixture: telemetry recorded without the enabled-flag guard."""

from ..obs import METRICS as _METRICS
from ..trace import TRACER as _TRACER


def ingest(engine, value):
    engine.update(value)
    _METRICS.count("engine.elements.seen")  # R3: no guard
    with _METRICS.timer("engine.ingest.seconds"):  # R3: unguarded timer
        engine.flush()
    if _TRACER.enabled:
        _METRICS.count("engine.flushes")  # R3: wrong singleton

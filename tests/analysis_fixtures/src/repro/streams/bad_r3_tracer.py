"""R3 fixture (tracer): spans recorded without the enabled-flag guard."""

from ..trace import TRACER as _TRACER


def ingest(engine, value):
    engine.update(value)
    _TRACER.instant("engine.ingest", elements=1)  # R3: no guard
    with _TRACER.span("engine.flush"):  # R3: unguarded span
        engine.flush()

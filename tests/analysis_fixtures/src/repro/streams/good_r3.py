"""R3 fixture (clean): every accepted guard shape."""

from contextlib import nullcontext

from ..obs import METRICS as _METRICS


def ingest(engine, value):
    engine.update(value)
    if _METRICS.enabled:
        _METRICS.count("engine.elements.seen")
    with _METRICS.timer("engine.ingest.seconds") if _METRICS.enabled else nullcontext():
        engine.flush()


def record_batch(count):
    if not _METRICS.enabled:
        return
    _METRICS.count("engine.batches")
    _METRICS.count("engine.elements.seen", count)


def shutdown():
    # Administrative methods need no guard: they run once, off hot paths.
    _METRICS.disable()
    _METRICS.reset()

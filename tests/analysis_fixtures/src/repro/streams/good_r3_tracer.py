"""R3 fixture (tracer, clean): every accepted guard shape."""

from contextlib import nullcontext

from ..trace import TRACER as _TRACER


def ingest(engine, value):
    engine.update(value)
    if _TRACER.enabled:
        _TRACER.instant("engine.ingest", elements=1)
    with _TRACER.span("engine.flush") if _TRACER.enabled else nullcontext() as sp:
        engine.flush()
        if sp is not None:
            sp.set(flushed=True)


def record_round(site, reports):
    if not _TRACER.enabled:
        return
    with _TRACER.span("dist.round", site=site):
        _TRACER.instant("dist.reports", count=len(reports))

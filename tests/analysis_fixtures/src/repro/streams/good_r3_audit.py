"""R3 fixture (audit, clean): every accepted guard shape."""

from ..monitor import AUDIT as _AUDIT


def answer(engine, query, audit, alert):
    estimate = engine.answer(query)
    if _AUDIT.enabled:
        _AUDIT.record(audit)
        _AUDIT.alert(alert)
    return estimate


def emit(audit, alert):
    if not _AUDIT.enabled:
        return
    _AUDIT.record(audit)
    if alert is not None:
        _AUDIT.alert(alert)

"""R3 fixture (audit): audits recorded without the enabled-flag guard."""

from ..monitor import AUDIT as _AUDIT


def answer(engine, query, audit, alert):
    estimate = engine.answer(query)
    _AUDIT.record(audit)  # R3: no guard
    _AUDIT.alert(alert)  # R3: still unguarded
    return estimate

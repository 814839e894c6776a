"""R3 — observability recording calls guarded by an ``.enabled`` flag.

Three process-wide singletons record on hot paths: ``METRICS``,
``TRACER`` and ``AUDIT``.  :data:`GUARDS` lists each one's recording
methods.  Only the receiving singleton's own ``.enabled`` excuses a call
(``_TRACER.enabled`` does not excuse ``_METRICS.count``).

A call is guarded inside an ``if``/conditional-expression branch whose
test reads that ``<SINGLETON>.enabled``, and after an early-exit
guard (``if not X.enabled: return``) in the same function body.  The
``else`` branch of such a test is unguarded, and a guard outside a
``def`` does not cover the calls inside it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..context import FileContext, Role
from ..findings import Finding
from ..registry import Rule, register

#: Names the process-wide observability singletons are imported under.
SINGLETON_NAME_RE = re.compile(r"^_?(METRICS|TRACER|AUDIT)$")

#: singleton -> the recording methods R3 polices.  Administrative methods
#: (enable/disable/reset/snapshot/...) are absent: they run at setup and
#: teardown, not per element.
GUARDS: dict[str, frozenset[str]] = {
    "METRICS": frozenset(
        {"count", "counter", "gauge", "gauge_max", "histogram", "observe", "timer"}
    ),
    "TRACER": frozenset({"span", "instant"}),
    "AUDIT": frozenset({"record", "alert"}),
}


def _singleton(name: str) -> str:
    return name.lstrip("_")


def _enabled_singletons(test: ast.expr) -> frozenset[str]:
    """Singletons whose ``.enabled`` flag ``test`` reads."""
    return frozenset(
        _singleton(node.value.id)
        for node in ast.walk(test)
        if isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and SINGLETON_NAME_RE.match(node.value.id)
    )


def _early_exit_singletons(stmt: ast.stmt) -> frozenset[str]:
    """Singletons guarded by an ``if not X.enabled: return/raise`` exit."""
    if not isinstance(stmt, ast.If) or not any(
        isinstance(s, (ast.Return, ast.Raise)) for s in stmt.body
    ):
        return frozenset()
    return _enabled_singletons(stmt.test)


def _policed_call(node: ast.AST) -> tuple[str, str] | None:
    """``(receiver, method)`` of a recording call R3 polices, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
        return None
    receiver = func.value.id
    if not SINGLETON_NAME_RE.match(receiver):
        return None
    if func.attr not in GUARDS[_singleton(receiver)]:
        return None
    return receiver, func.attr


@register
class GuardedTelemetry(Rule):
    """Every ``_METRICS``/``_TRACER``/``_AUDIT`` recording call must be
    guarded by that singleton's own ``.enabled`` flag.

    The observability plane promises that *disabled* instrumentation
    costs one attribute read and one branch per call site.  That only
    holds if every recording call is lexically behind a branch on the
    receiving singleton's ``enabled`` flag.  The policed methods are:

    * ``_METRICS``: ``count`` / ``counter`` / ``gauge`` / ``gauge_max`` /
      ``histogram`` / ``observe`` / ``timer``;
    * ``_TRACER``: ``span`` / ``instant`` (they self-guard, but an
      unguarded call still pays argument construction and a call);
    * ``_AUDIT``: ``record`` / ``alert`` (building the recorded audit
      runs residual-norm domain scans).

    The guard is **per singleton**: ``_TRACER.enabled`` does not excuse
    a ``_METRICS.count``; the switches are independent.  Accepted guard
    shapes::

        if _METRICS.enabled:
            _METRICS.count("sketch.update.elements")

        with _TRACER.span("skim", kind="flat") if _TRACER.enabled \\
                else nullcontext():
            ...

        def _emit(...):
            if not _AUDIT.enabled:
                return          # early-exit guard; rest of body is guarded
            _AUDIT.record(audit)

    Example violation::

        _METRICS.count("engine.queries")       # R3 (no guard in sight)
        if _TRACER.enabled:
            _METRICS.count("engine.queries")   # R3 (wrong singleton)

    Suppress only where the timer's wall-clock reading is itself the
    product (e.g. printing elapsed seconds regardless of telemetry)::

        with _METRICS.timer("eval.seconds") as t:  # repro: noqa[R3]
    """

    rule_id = "R3"
    title = "observability recording guarded by its own enabled flag"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.role in (Role.KERNEL, Role.LIBRARY)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(ctx.tree):
            yield from self._visit(ctx, node, frozenset())

    def _visit(
        self, ctx: FileContext, node: ast.AST, guarded: frozenset[str]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body_guarded: frozenset[str] = frozenset()
            for stmt in node.body:
                yield from self._visit(ctx, stmt, body_guarded)
                body_guarded |= _early_exit_singletons(stmt)
            return
        if isinstance(node, (ast.If, ast.IfExp)):
            yield from self._visit(ctx, node.test, guarded)
            branch = guarded | _enabled_singletons(node.test)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) else [node.orelse]
            for child in body:
                yield from self._visit(ctx, child, branch)
            for child in orelse:
                yield from self._visit(ctx, child, guarded)
            return
        call = _policed_call(node)
        if call is not None and _singleton(call[0]) not in guarded:
            receiver, method = call
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"unguarded {receiver}.{method}(...) — wrap in "
                f"'if {receiver}.enabled:' so disabled instrumentation "
                "stays free",
            )
            # fall through: nested calls in arguments are reported too
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child, guarded)

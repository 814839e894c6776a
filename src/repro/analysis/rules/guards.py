"""R3, R7, R8, R12, R13 — observability calls guarded by an ``.enabled`` flag.

The five rules share one walker.  A row of :data:`GUARDS` says which
calls a rule polices and which guard excuses them:

* the receiver-name pattern (``None``: any receiver, or a bare call);
* the recording methods;
* whether the guard must read the *same* singleton's ``.enabled``
  (``_PROFILER.enabled`` does not excuse ``_RECORDER.pulse``) or *any*
  observability singleton's.

A call is guarded inside an ``if``/conditional-expression branch whose
test reads a qualifying ``<SINGLETON>.enabled``, and after an early-exit
guard (``if not X.enabled: return``) in the same function body.  The
``else`` branch of such a test is unguarded, and a guard outside a
``def`` does not cover the calls inside it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from ..context import FileContext, Role
from ..findings import Finding
from ..registry import Rule, register

#: Names the process-wide observability singletons are imported under.
SINGLETON_NAME_RE = re.compile(r"^_?(METRICS|TRACER|RECORDER|PROFILER|AUDIT)$")


@dataclass(frozen=True)
class Guard:
    """One rule's row: what it polices and what excuses it."""

    receiver: re.Pattern[str] | None
    methods: frozenset[str]
    same_singleton: bool
    hint: str


#: rule id -> guard row.  Administrative methods (enable/disable/reset/
#: snapshot/...) are absent from every ``methods`` set: they run at
#: setup and teardown, not per element.
GUARDS: dict[str, Guard] = {
    "R3": Guard(
        re.compile(r"^_?METRICS$"),
        frozenset(
            {"count", "counter", "gauge", "gauge_max", "histogram", "observe", "timer"}
        ),
        True,
        "disabled telemetry stays free",
    ),
    "R7": Guard(
        re.compile(r"^_?TRACER$"),
        frozenset({"span", "instant"}),
        True,
        "disabled tracing stays free",
    ),
    "R8": Guard(
        re.compile(r"^_?AUDIT$"),
        frozenset({"record", "annotate_last", "alert"}),
        True,
        "disabled auditing stays free",
    ),
    "R12": Guard(
        re.compile(r"^_?(PROFILER|RECORDER)$"),
        frozenset({"mark", "pulse"}),
        True,
        "disabled profiling stays free",
    ),
    "R13": Guard(
        None,
        frozenset({"capture_telemetry"}),
        False,
        "nothing is serialized while every singleton is off",
    ),
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


class GuardRule(Rule):
    """Base of the five guard rules; the row in :data:`GUARDS` drives it."""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.role in (Role.KERNEL, Role.LIBRARY)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        guard = GUARDS[self.rule_id]
        for node in ast.iter_child_nodes(ctx.tree):
            yield from self._visit(ctx, guard, node, frozenset())

    def _visit(
        self, ctx: FileContext, guard: Guard, node: ast.AST, guarded: frozenset[str]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body_guarded: frozenset[str] = frozenset()
            for stmt in node.body:
                yield from self._visit(ctx, guard, stmt, body_guarded)
                body_guarded |= _early_exit_singletons(stmt)
            return
        if isinstance(node, (ast.If, ast.IfExp)):
            yield from self._visit(ctx, guard, node.test, guarded)
            branch = guarded | _enabled_singletons(node.test)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) else [node.orelse]
            for child in body:
                yield from self._visit(ctx, guard, child, branch)
            for child in orelse:
                yield from self._visit(ctx, guard, child, guarded)
            return
        call = _policed_call(guard, node)
        if call is not None and not _is_guarded(guard, call[0], guarded):
            yield self.finding(
                ctx, node.lineno, node.col_offset, _message(guard, *call)
            )
            # fall through: nested calls in arguments are reported too
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, guard, child, guarded)


def _policed_call(guard: Guard, node: ast.AST) -> tuple[str, str] | None:
    """``(receiver, method)`` of a call ``guard`` polices, else None.

    The receiver is ``""`` for rules that police any receiver.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        is_bare_match = guard.receiver is None and func.id in guard.methods
        return ("", func.id) if is_bare_match else None
    if not isinstance(func, ast.Attribute) or func.attr not in guard.methods:
        return None
    if guard.receiver is None:
        return "", func.attr
    if isinstance(func.value, ast.Name) and guard.receiver.match(func.value.id):
        return func.value.id, func.attr
    return None


def _is_guarded(guard: Guard, receiver: str, guarded: frozenset[str]) -> bool:
    if guard.same_singleton:
        return _singleton(receiver) in guarded
    return bool(guarded)


def _message(guard: Guard, receiver: str, method: str) -> str:
    if not receiver:
        return (
            f"unguarded {method}() — branch on an observability singleton's "
            f"'.enabled' flag first, so {guard.hint}"
        )
    return (
        f"unguarded {receiver}.{method}(...) — wrap in "
        f"'if {receiver}.enabled:' so {guard.hint}"
    )


@register
class GuardedTelemetry(GuardRule):
    """Every ``_METRICS`` recording call must be guarded by ``.enabled``.

    PR 1's observability layer promises that *disabled* instrumentation
    costs one attribute read and one branch per call site.  That only
    holds if every recording call (``count`` / ``gauge`` / ``observe`` /
    ``histogram`` / ``timer`` / ``counter``) is lexically behind a branch
    on the registry's ``enabled`` flag.  Accepted guard shapes::

        if _METRICS.enabled:
            _METRICS.count("sketch.update.elements")

        with _METRICS.timer("skim.seconds") if _METRICS.enabled \\
                else nullcontext():
            ...

        def _record(...):
            if not _METRICS.enabled:
                return          # early-exit guard; rest of body is guarded
            _METRICS.count(...)

    Example violation::

        _METRICS.count("engine.queries")       # R3 (no guard in sight)

    Suppress only where the timer's wall-clock reading is itself the
    product (e.g. printing elapsed seconds regardless of telemetry)::

        with _METRICS.timer("eval.seconds") as t:  # repro: noqa[R3]
    """

    rule_id = "R3"
    title = "metrics recording guarded by the enabled flag"


@register
class GuardedTracing(GuardRule):
    """Every ``_TRACER`` recording call must be guarded by ``.enabled``.

    The query-path tracer makes the same promise the metrics registry
    does: *disabled* instrumentation costs one attribute read and one
    branch per call site.  (The tracer's methods do self-guard, but an
    unguarded call still pays argument construction and a function call
    on the hot path — the rule keeps the guarantee lexical, exactly as
    R3 does for ``_METRICS``.)  Accepted guard shapes::

        if _TRACER.enabled:
            _TRACER.instant("sketch.update", tables=depth)

        with _TRACER.span("skim", kind="flat") if _TRACER.enabled \\
                else nullcontext():
            ...

        def _record(...):
            if not _TRACER.enabled:
                return          # early-exit guard; rest of body is guarded
            _TRACER.instant(...)

    Example violation::

        with _TRACER.span("engine.answer"):    # R7 (no guard in sight)
    """

    rule_id = "R7"
    title = "span recording guarded by the enabled flag"


@register
class GuardedAuditing(GuardRule):
    """Every ``_AUDIT`` recording call must be guarded by ``.enabled``.

    Estimate-quality audits are the most expensive telemetry layer in the
    repo — recording one runs residual-norm domain scans and (through the
    engine) whole skims.  The contract is therefore the same lexical one
    R3 makes for ``_METRICS`` and R7 for ``_TRACER``: with auditing
    *disabled*, a query path pays exactly one attribute read and one
    branch.  Accepted guard shapes::

        if _AUDIT.enabled:
            _AUDIT.record(audit)

        def _emit(...):
            if not _AUDIT.enabled:
                return          # early-exit guard; rest of body is guarded
            _AUDIT.annotate_last(n_f=n_f)

    Example violation::

        _AUDIT.record(audit)       # R8 (no guard in sight)
    """

    rule_id = "R8"
    title = "audit recording guarded by the enabled flag"


@register
class GuardedProfiling(GuardRule):
    """Every ``_PROFILER``/``_RECORDER`` hook must be guarded by ``.enabled``.

    The continuous profiler makes the same promise the metrics registry
    (R3) and tracer (R7) do: *disabled* instrumentation costs one
    attribute read and one branch per call site.  ``mark``/``pulse``
    self-guard internally, but an unguarded call still pays argument
    construction and a function call on the hot path.  The guard is
    **per singleton** — ``_PROFILER.enabled`` does not excuse a
    ``_RECORDER.pulse``; the two are enabled independently.  Accepted
    shapes::

        if _PROFILER.enabled:
            _PROFILER.mark("engine.ingest")

        if _RECORDER.enabled:
            _RECORDER.pulse("ingest.elements", kept)

        def _hook(...):
            if not _RECORDER.enabled:
                return          # early-exit guard; rest of body is guarded
            _RECORDER.pulse(...)

    Example violation::

        _PROFILER.mark("engine.ingest")          # R12 (no guard in sight)
        if _PROFILER.enabled:
            _RECORDER.pulse("queries")           # R12 (wrong singleton)
    """

    rule_id = "R12"
    title = "profiler hooks guarded by their own enabled flag"


@register
class GuardedFederation(GuardRule):
    """``capture_telemetry()`` must be guarded by a singleton's ``enabled``.

    The federation plane piggybacks telemetry snapshots on protocol
    messages (``SketchReport.telemetry``).  Capturing a snapshot walks
    the whole metrics registry, drains the span ring, and serializes the
    result — work that must not happen on the hot report path when every
    observability singleton is off.  Any function that serializes a
    snapshot into a protocol message must therefore branch on the owning
    singleton's ``enabled`` flag first.  Accepted guard shapes::

        if _METRICS.enabled or _TRACER.enabled:
            report = replace(report, telemetry=shipper.capture_telemetry())

        def _attach(...):
            if not _METRICS.enabled:
                return          # early-exit guard; rest of body is guarded
            doc = self.shipper.capture_telemetry()

    Example violation::

        doc = shipper.capture_telemetry()      # R13 (no guard in sight)

    Suppress only where the shipper wraps a private, always-enabled
    registry (e.g. the CLI's emulated origins)::

        doc = shipper.capture_telemetry()  # repro: noqa[R13] -- private registry
    """

    rule_id = "R13"
    title = "telemetry snapshot capture guarded by an enabled flag"

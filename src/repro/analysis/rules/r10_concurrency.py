"""R10 — concurrency discipline over the parallel ingestion plane."""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..flow.callgraph import CallGraph, FunctionNode
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..flow.project import ProjectContext

#: Mutating container-method names: calling one on shared state from the
#: worker plane is a write, not a read.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "clear",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Names that, by parallel-plane convention, hold one entry *per shard*
#: (attached counter views, shared-memory segments, shard sketches).
#: Worker-plane code indexing into such a collection to write can reach
#: another worker's memory.
_SHARD_COLLECTIONS = re.compile(r"(?:^|_)(?:views|segments|shards)$")


@register
class ConcurrencyDiscipline(Rule):
    """Worker-plane code must not write coordinator or module state.

    The parallel plane is exact *because* of a strict ownership split:
    worker strategies (``*Strategy.ingest`` and the ``_worker_*`` process
    functions) only touch their own shard sketches, and every result
    re-enters the coordinator exclusively through the flush/merge seam
    (``flush`` → ``merged``).  A worker writing a coordinator attribute
    (shard list, dirty flag, pending counters) or mutating module-level
    state is a data race waiting for the shared-memory rewrite.

    The shared-memory plane sharpens the discipline: a worker's writes to
    sketch counters are legal only inside its *own* attached segment
    view (shard ``i`` -> worker ``i``), with everything else crossing at
    the flush barrier.  Indexing into a per-shard collection (``views``,
    ``segments``, ``shards``) to write is how code reaches *another*
    worker's memory, so the pass treats it as a violation regardless of
    the index expression.

    This pass builds the worker-plane call closure over
    ``repro.parallel`` and flags writes, from inside it, to (a) any
    attribute name a coordinator class initialises in ``__init__``,
    (b) any module-level variable, or (c) any element of a per-shard
    collection.

    Example violations::

        class _EagerStrategy:
            def ingest(self, owner, parts):
                owner._merged = None        # R10: bypasses the flush seam

        def _worker_scrub(views, shard):
            views[shard + 1][:] = 0.0       # R10: another shard's view

    Fix: leave coordinator state to the coordinator; hand results back
    from ``flush`` and let ``merged()`` fold them in; write counters
    only through the single view the worker attached at startup.
    """

    rule_id = "R10"
    title = "worker-plane writes must pass through the flush/merge seam"
    scope = "project"

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        contexts = [
            ctx for ctx in project.contexts if ctx.subpackage == "parallel"
        ]
        if not contexts:
            return
        graph = project.graph
        parallel_paths = {ctx.path for ctx in contexts}

        shared_attrs = _coordinator_attrs(graph, parallel_paths)
        module_state = _module_level_names(contexts)
        seeds = _worker_seeds(graph, parallel_paths)
        worker_plane = {
            qualname
            for qualname in graph.reachable_from(seeds)
            if graph.functions[qualname].path in parallel_paths
        }

        for qualname in sorted(worker_plane):
            fn = graph.functions[qualname]
            path = graph.call_path_to(qualname)
            via = " -> ".join(path)
            for node, detail in _shared_writes(
                fn, shared_attrs, module_state.get(fn.module, frozenset())
            ):
                yield Finding(
                    self.rule_id,
                    fn.path,
                    node.lineno,
                    node.col_offset,
                    f"worker-plane code writes {detail} in {fn.qualname} "
                    f"(reached from a worker strategy via: {via}); shared "
                    "state must only change through the coordinator's "
                    "flush/merge seam",
                )


def _coordinator_attrs(graph: CallGraph, parallel_paths: set[str]) -> frozenset[str]:
    """Attribute names coordinator classes initialise in ``__init__``.

    A coordinator is any parallel-plane class exposing the merge seam
    (``merged`` or ``flush``) that is *not* itself a worker strategy.
    """
    attrs: set[str] = set()
    for cls in graph.classes.values():
        if cls.path not in parallel_paths or cls.name.endswith("Strategy"):
            continue
        if not ({"merged", "flush"} & cls.methods.keys()):
            continue
        init = cls.methods.get("__init__")
        if init is None:
            continue
        for node in ast.walk(graph.functions[init].node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
    return frozenset(attrs)


def _module_level_names(contexts: list) -> dict[str, frozenset[str]]:
    """Module -> names bound by module-level assignments (mutable state)."""
    from ..flow.callgraph import module_name_for_path

    out: dict[str, frozenset[str]] = {}
    for ctx in contexts:
        names: set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        out[module_name_for_path(ctx.path)] = frozenset(names)
    return out


def _worker_seeds(graph: CallGraph, parallel_paths: set[str]) -> list[str]:
    """Entry points of the worker plane: strategy ``ingest`` methods and
    process-worker module functions (``_worker_*``)."""
    seeds = []
    for fn in graph.functions.values():
        if fn.path not in parallel_paths:
            continue
        if fn.class_name is not None and fn.class_name.endswith("Strategy"):
            if fn.name == "ingest":
                seeds.append(fn.qualname)
        elif fn.class_name is None and fn.name.startswith("_worker_"):
            seeds.append(fn.qualname)
    return seeds


def _is_shard_collection(base: ast.AST) -> bool:
    """True if ``base`` names a per-shard collection (views/segments/shards)."""
    if isinstance(base, ast.Name):
        return bool(_SHARD_COLLECTIONS.search(base.id))
    if isinstance(base, ast.Attribute):
        return bool(_SHARD_COLLECTIONS.search(base.attr))
    return False


def _shared_writes(
    fn: FunctionNode,
    shared_attrs: frozenset[str],
    module_state: frozenset[str],
) -> Iterator[tuple[ast.AST, str]]:
    """Write sites inside ``fn`` that hit shared coordinator/module state."""
    locals_bound: set[str] = {
        arg.arg
        for arg in [
            *fn.node.args.posonlyargs,
            *fn.node.args.args,
            *fn.node.args.kwonlyargs,
        ]
    }
    in_init = fn.name == "__init__"
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                base = target
                subscripted = False
                while isinstance(base, ast.Subscript):
                    base = base.value
                    subscripted = True
                if isinstance(base, ast.Attribute) and base.attr in shared_attrs:
                    receiver_is_self = (
                        isinstance(base.value, ast.Name)
                        and base.value.id == "self"
                    )
                    if in_init and receiver_is_self:
                        continue
                    yield base, f"coordinator attribute `{base.attr}`"
                elif subscripted and _is_shard_collection(base):
                    name = base.id if isinstance(base, ast.Name) else base.attr
                    yield base, (
                        f"through shard-view collection `{name}` (a worker "
                        "owns exactly one attached view; indexing across "
                        "the collection reaches another worker's memory)"
                    )
                elif isinstance(base, ast.Name) and base.id in module_state:
                    if base is target:
                        # Rebinding a local of the same name, not the global
                        # (workers never declare `global`), unless augmented.
                        if isinstance(node, ast.AugAssign):
                            yield base, f"module-level state `{base.id}`"
                        else:
                            locals_bound.add(base.id)
                    elif base.id not in locals_bound:
                        yield base, f"module-level state `{base.id}`"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in module_state
                and func.value.id not in locals_bound
            ):
                yield func, (
                    f"module-level state `{func.value.id}` (via .{func.attr})"
                )

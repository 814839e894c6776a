"""Project-wide call graph over the analysed files (stdlib ``ast`` only).

The graph is deliberately an *approximation* tuned for soundness of the
interprocedural rules rather than precision:

* **Module-level name resolution** — ``import``/``from .. import``
  statements (including relative imports and package ``__init__``
  re-exports) are resolved to fully-qualified names, so a call to
  ``coalesce_updates`` inside ``repro.sketches.hash_sketch`` links to
  ``repro.hashing.bulk.coalesce_updates``.
* **Method dispatch via class-hierarchy approximation** — ``self.m()``
  resolves through the enclosing class and its known bases *and* known
  subclass overrides; ``obj.m()`` on an unknown receiver links to every
  known class method named ``m`` (classic CHA over-approximation).
* **Callable references as call edges** — a known function passed as an
  argument (``executor.submit(shard.update_bulk, ...)``) is treated as
  called: deferred execution must not hide a mutation from R9.

Query: :meth:`CallGraph.call_path_to` (shortest caller chain, used by the
rules to name the offending call path in finding messages).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterable, Iterator

from ..context import FIXTURE_MARKER, FileContext

#: Maximum import-alias hops followed when resolving a dotted name
#: (guards against pathological re-export cycles).
_MAX_ALIAS_HOPS = 8


def module_name_for_path(path: str) -> str:
    """Dotted module name a file would import as (fixture marker stripped).

    ``src/repro/sketches/hash_sketch.py`` -> ``repro.sketches.hash_sketch``;
    ``src/repro/hashing/__init__.py`` -> ``repro.hashing``; files outside a
    ``repro`` tree fall back to their stem (tests, benchmarks, examples).
    """
    parts = list(PurePath(path).parts)
    if FIXTURE_MARKER in parts:
        parts = parts[parts.index(FIXTURE_MARKER) + 1 :]
    stem = PurePath(parts[-1]).stem if parts else ""
    if "repro" in parts[:-1]:
        rest = parts[parts.index("repro") : -1] + ([] if stem == "__init__" else [stem])
        return ".".join(rest)
    return stem


@dataclass
class FunctionNode:
    """One function or method definition in the project."""

    qualname: str  #: e.g. ``repro.sketches.hash_sketch.HashSketch.update``
    name: str  #: bare name, e.g. ``update``
    module: str
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None  #: bare name of the enclosing class
    class_qualname: str | None = None


@dataclass
class ClassNode:
    """One class definition: bases (as written) and its own methods."""

    qualname: str
    name: str
    module: str
    path: str
    lineno: int
    base_names: list[str] = field(default_factory=list)  #: unresolved, as written
    methods: dict[str, str] = field(default_factory=dict)  #: name -> fn qualname


class CallGraph:
    """Call graph built from a sequence of :class:`FileContext` objects."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        #: module name -> {local alias -> fully-qualified target}
        self.imports: dict[str, dict[str, str]] = {}
        #: module name -> {module-level name -> qualname} (functions + classes)
        self.module_scope: dict[str, dict[str, str]] = {}
        self.edges: dict[str, set[str]] = {}
        self.reverse: dict[str, set[str]] = {}
        #: method bare name -> list of method qualnames (for CHA dispatch)
        self.methods_by_name: dict[str, list[str]] = {}
        #: class qualname -> resolved base class qualnames
        self.bases: dict[str, list[str]] = {}
        #: class qualname -> resolved direct subclass qualnames
        self.subclasses: dict[str, list[str]] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "CallGraph":
        """Collect every definition, then resolve hierarchy and call edges."""
        graph = cls()
        ordered = list(contexts)
        for ctx in ordered:
            graph._collect_module(ctx)
        graph._resolve_hierarchy()
        for ctx in ordered:
            graph._collect_edges(ctx)
        return graph

    def _collect_module(self, ctx: FileContext) -> None:
        module = module_name_for_path(ctx.path)
        is_package = PurePath(ctx.path).name == "__init__.py"
        imports = self.imports.setdefault(module, {})
        scope = self.module_scope.setdefault(module, {})
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node, is_package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        self._collect_defs(ctx, module, ctx.tree, prefix=module, class_node=None)
        for name, qualname in list(scope.items()):
            imports.setdefault(name, qualname)

    @staticmethod
    def _import_base(module: str, node: ast.ImportFrom, is_package: bool) -> str:
        """Absolute module a ``from X import ...`` statement pulls from."""
        if not node.level:
            return node.module or ""
        parts = module.split(".")
        # For a plain module, level=1 strips its own name; for a package
        # (``__init__.py``), level=1 is the package itself.  Each extra
        # level climbs one more package either way.
        strip = node.level - 1 if is_package else node.level
        parts = parts[: max(len(parts) - strip, 0)]
        if node.module:
            parts.append(node.module)
        return ".".join(parts)

    def _collect_defs(
        self,
        ctx: FileContext,
        module: str,
        tree: ast.AST,
        prefix: str,
        class_node: ClassNode | None,
    ) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                fn = FunctionNode(
                    qualname=qualname,
                    name=node.name,
                    module=module,
                    path=ctx.path,
                    lineno=node.lineno,
                    node=node,
                    class_name=class_node.name if class_node else None,
                    class_qualname=class_node.qualname if class_node else None,
                )
                self.functions[qualname] = fn
                if class_node is not None:
                    class_node.methods[node.name] = qualname
                    self.methods_by_name.setdefault(node.name, []).append(qualname)
                elif prefix == module:
                    self.module_scope[module][node.name] = qualname
                # Nested defs become their own nodes under the parent prefix.
                self._collect_defs(ctx, module, node, qualname, class_node=None)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                cls_node = ClassNode(
                    qualname=qualname,
                    name=node.name,
                    module=module,
                    path=ctx.path,
                    lineno=node.lineno,
                    base_names=[
                        text
                        for base in node.bases
                        if (text := _expr_name(base)) is not None
                    ],
                )
                self.classes[qualname] = cls_node
                if prefix == module:
                    self.module_scope[module][node.name] = qualname
                self._collect_defs(ctx, module, node, qualname, class_node=cls_node)

    def _resolve_hierarchy(self) -> None:
        for cls_node in self.classes.values():
            resolved = []
            for base in cls_node.base_names:
                target = self.resolve_name(cls_node.module, base)
                if target in self.classes:
                    resolved.append(target)
            self.bases[cls_node.qualname] = resolved
            for base_qual in resolved:
                self.subclasses.setdefault(base_qual, []).append(cls_node.qualname)

    # -- name resolution -------------------------------------------------------

    def resolve_name(self, module: str, dotted: str) -> str | None:
        """Resolve ``dotted`` as seen from ``module`` to a known qualname.

        Follows module-scope names, import aliases, and package
        ``__init__`` re-exports (bounded hops).  Returns ``None`` for
        anything external (numpy, stdlib) or otherwise unknown.
        """
        head, _, rest = dotted.partition(".")
        aliases = self.imports.get(module, {})
        if head in aliases:
            base = aliases[head]
            candidate = f"{base}.{rest}" if rest else base
        else:
            candidate = dotted
        for _ in range(_MAX_ALIAS_HOPS):
            if candidate in self.functions or candidate in self.classes:
                return candidate
            # Maybe the prefix is a package whose __init__ re-exports the tail.
            prefix, _, tail = candidate.rpartition(".")
            if not prefix:
                return None
            hop = self.imports.get(prefix, {}).get(tail)
            if hop is None or hop == candidate:
                return None
            candidate = hop
        return None

    def _method_in_hierarchy(self, class_qual: str, method: str) -> list[str]:
        """Implementations ``method`` could dispatch to for a ``class_qual``
        receiver: the class's own/inherited definition plus every known
        subclass override (class-hierarchy approximation)."""
        found: list[str] = []
        seen: set[str] = set()
        # Up the MRO approximation: first definition wins.
        queue = deque([class_qual])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            cls_node = self.classes.get(current)
            if cls_node is None:
                continue
            if method in cls_node.methods:
                found.append(cls_node.methods[method])
                break
            queue.extend(self.bases.get(current, []))
        # Down the hierarchy: subclass overrides.
        queue = deque(self.subclasses.get(class_qual, []))
        seen = set()
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            cls_node = self.classes.get(current)
            if cls_node is not None and method in cls_node.methods:
                found.append(cls_node.methods[method])
            queue.extend(self.subclasses.get(current, []))
        return found

    def resolve_call(
        self, caller: FunctionNode, func: ast.expr
    ) -> list[str]:
        """Possible callee qualnames for a call expression inside ``caller``."""
        if isinstance(func, ast.Name):
            # Nested function of the caller first, then module scope/imports.
            nested = f"{caller.qualname}.{func.id}"
            if nested in self.functions:
                return [nested]
            target = self.resolve_name(caller.module, func.id)
            return self._expand_target(target)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller.class_qualname is not None
            ):
                return self._method_in_hierarchy(caller.class_qualname, func.attr)
            dotted = _expr_name(func)
            if dotted is not None:
                target = self.resolve_name(caller.module, dotted)
                if target is not None:
                    return self._expand_target(target)
            # Unknown receiver: CHA over every known method of that name.
            return list(self.methods_by_name.get(func.attr, []))
        return []

    def _expand_target(self, target: str | None) -> list[str]:
        if target is None:
            return []
        if target in self.functions:
            return [target]
        if target in self.classes:  # instantiation calls __init__
            init = self.classes[target].methods.get("__init__")
            return [init] if init else []
        return []

    # -- edge collection -------------------------------------------------------

    def _collect_edges(self, ctx: FileContext) -> None:
        module = module_name_for_path(ctx.path)
        for fn in [f for f in self.functions.values() if f.module == module and f.path == ctx.path]:
            callees: set[str] = set()
            for call in _own_calls(fn.node):
                callees.update(self.resolve_call(fn, call.func))
                # Known callables passed as arguments will be invoked later.
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        callees.update(self.resolve_call(fn, arg))
            callees.discard(fn.qualname)
            self.edges[fn.qualname] = callees
            for callee in callees:
                self.reverse.setdefault(callee, set()).add(fn.qualname)

    # -- queries ---------------------------------------------------------------

    def call_path_to(self, target: str, stop: frozenset[str] = frozenset()) -> list[str]:
        """Shortest caller chain ending at ``target`` (entry point first).

        Walks reverse edges breadth-first until a function with no known
        callers (or a ``stop`` function, exclusive) is reached.  Returns
        ``[target]`` when nothing calls it.
        """
        parent: dict[str, str] = {}
        queue = deque([target])
        seen = {target}
        entry = target
        while queue:
            current = queue.popleft()
            callers = [
                c
                for c in sorted(self.reverse.get(current, ()))
                if c not in stop
            ]
            if not callers:
                entry = current
                break
            for caller in callers:
                if caller not in seen:
                    seen.add(caller)
                    parent[caller] = current
                    queue.append(caller)
            entry = current  # fall back to the deepest node examined
        path = [entry]
        while path[-1] != target:
            path.append(parent[path[-1]])
        return path

    def to_dict(self, purity: dict[str, str] | None = None) -> dict[str, object]:
        """JSON-ready dump (the ``--graph-out`` schema)."""
        return {
            "version": 1,
            "functions": [
                {
                    "qualname": fn.qualname,
                    "path": fn.path,
                    "line": fn.lineno,
                    "class": fn.class_qualname,
                    **({"purity": purity[fn.qualname]} if purity and fn.qualname in purity else {}),
                }
                for fn in sorted(self.functions.values(), key=lambda f: f.qualname)
            ],
            "classes": [
                {
                    "qualname": c.qualname,
                    "path": c.path,
                    "bases": sorted(self.bases.get(c.qualname, [])),
                }
                for c in sorted(self.classes.values(), key=lambda c: c.qualname)
            ],
            "edges": sorted(
                [caller, callee]
                for caller, callees in self.edges.items()
                for callee in callees
            ),
        }


def _expr_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute/name chains as dotted text (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_calls(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Call expressions lexically inside ``fn`` but not in nested defs."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))

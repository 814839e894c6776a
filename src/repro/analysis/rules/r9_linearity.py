"""R9 — interprocedural linearity contract for sketch counter state."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..context import Role
from ..findings import Finding
from ..flow.callgraph import FunctionNode, _expr_name
from ..registry import Rule, register

if TYPE_CHECKING:
    from ..flow.project import ProjectContext

#: Attributes holding sketch counter state (the frequency-vector projection).
COUNTER_ATTRS = frozenset({"_counters", "_levels"})

#: The sanctioned mutation primitives: the linear update/merge algebra.
SANCTIONED = frozenset(
    {
        "update_coalesced",
        "_apply_point_masses",
        "merge_sketch_state",
        "subtract_frequencies",
    }
)

#: Calls whose result is a *fresh* sketch the caller exclusively owns;
#: initialising a fresh object's counters is construction, not mutation.
FRESH_FACTORIES = frozenset(
    {
        "create_sketch",
        "copy",
        "merged_with",
        "level_sketch",
        "sketch_from_spec",
        "sketch_from_state",
        "sketch_of",
    }
)

#: Identifier substrings marking a receiver as sketch-like.
_SKETCHY_NAMES = ("sketch", "synopsis", "shard")

#: Roles whose code can reach live sketches (tests are exempt by policy).
_CHECKED_ROLES = frozenset({Role.KERNEL, Role.LIBRARY, Role.SCRIPT})


@register
class LinearityContract(Rule):
    """Sketch counter state may only change through the linear algebra.

    The paper's correctness story rests on sketches being *linear*
    projections of the stream's frequency vector: estimates are unbiased
    and shard/merge parallelism is exact only if every counter mutation
    flows through the sanctioned primitives (``update_coalesced``,
    ``_apply_point_masses``, ``merge_sketch_state``,
    ``subtract_frequencies``).  This pass walks the *project-wide* call
    graph and flags any write to a sketch's counter arrays
    (``_counters`` / ``_levels``) outside those primitives — even when
    the write hides two calls away from the public API.

    Writes inside ``__init__`` and writes to freshly-constructed local
    sketches (``result = HashSketch(schema); result._counters = ...``)
    are construction, not mutation, and are exempt.

    Example violation::

        def rebalance(sketch):
            sketch._counters[0] *= 0.5       # R9: breaks linearity

    Fix: express the change as a linear operation, e.g.::

        sketch.subtract_frequencies(values, frequencies)
    """

    rule_id = "R9"
    title = "counter mutations must flow through sanctioned primitives"
    scope = "project"

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        graph = project.graph
        for fn in sorted(
            project.functions(roles=_CHECKED_ROLES), key=lambda f: f.qualname
        ):
            if fn.name in SANCTIONED or fn.name == "__init__":
                continue
            for write in _counter_writes(fn):
                path = graph.call_path_to(fn.qualname)
                yield Finding(
                    self.rule_id,
                    fn.path,
                    write.lineno,
                    write.col_offset,
                    f"sketch counter state `{write.attr}` mutated in "
                    f"{fn.qualname} outside the sanctioned primitives "
                    f"(call path: {' -> '.join(path)}); route the change "
                    "through update_coalesced / _apply_point_masses / "
                    "merge_sketch_state / subtract_frequencies",
                )


def classify_purity(project: "ProjectContext") -> dict[str, str]:
    """Classify every function w.r.t. sketch counter state.

    ``sanctioned`` — one of the linear mutation primitives;
    ``mutates-counters`` — writes counter state directly (exemptions
    applied); ``calls-mutator`` — reaches a mutator or a sanctioned
    primitive through the call graph; ``pure`` — provably never touches
    counter state.  Surfaced via the CLI's ``--graph-out`` dump.
    """
    graph = project.graph
    direct: set[str] = set()
    sanctioned: set[str] = set()
    for fn in graph.functions.values():
        if fn.name in SANCTIONED:
            sanctioned.add(fn.qualname)
        elif fn.name != "__init__" and any(True for _ in _counter_writes(fn)):
            direct.add(fn.qualname)
    # Reverse closure: everything that can reach a mutation.
    reaches: set[str] = set()
    frontier = list(direct | sanctioned)
    while frontier:
        current = frontier.pop()
        for caller in graph.reverse.get(current, ()):
            if caller not in reaches:
                reaches.add(caller)
                frontier.append(caller)
    out: dict[str, str] = {}
    for qualname in graph.functions:
        if qualname in sanctioned:
            out[qualname] = "sanctioned"
        elif qualname in direct:
            out[qualname] = "mutates-counters"
        elif qualname in reaches:
            out[qualname] = "calls-mutator"
        else:
            out[qualname] = "pure"
    return out


class _Write:
    """One offending counter write site."""

    __slots__ = ("lineno", "col_offset", "attr")

    def __init__(self, node: ast.AST, attr: str) -> None:
        self.lineno = getattr(node, "lineno", 1)
        self.col_offset = getattr(node, "col_offset", 0)
        self.attr = attr


def _counter_writes(fn: FunctionNode) -> Iterator[_Write]:
    """Non-exempt writes to counter attributes lexically inside ``fn``."""
    fresh: set[str] = set()
    for node in _ordered(fn.node):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr_node = _counter_attr(target)
            if attr_node is None:
                continue
            receiver = attr_node.value
            if _is_fresh(receiver, fresh):
                continue
            if not _sketch_like(receiver, fn):
                continue
            yield _Write(attr_node, attr_node.attr)
        if isinstance(node, ast.Assign):
            _track_freshness(node, fresh)


def _ordered(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Pre-order lexical traversal of ``fn``'s body, skipping nested defs
    (they are their own :class:`FunctionNode` and checked separately)."""
    stack: list[ast.AST] = list(reversed(fn.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _counter_attr(target: ast.expr) -> ast.Attribute | None:
    """The counter :class:`ast.Attribute` a store target hits, if any.

    Handles both rebinding (``x._counters = ...``) and element stores
    (``x._counters[i, j] += ...`` via any subscript depth).
    """
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in COUNTER_ATTRS:
        return node
    return None


def _track_freshness(node: ast.Assign, fresh: set[str]) -> None:
    """Maintain the set of locals bound to freshly-constructed sketches."""
    value = node.value
    is_fresh_value = False
    if isinstance(value, ast.Call):
        name = _callee_bare_name(value) or ""
        is_fresh_value = name in FRESH_FACTORIES or name.endswith("Sketch")
    for target in node.targets:
        if isinstance(target, ast.Name):
            if is_fresh_value:
                fresh.add(target.id)
            else:
                fresh.discard(target.id)


def _callee_bare_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_fresh(receiver: ast.expr, fresh: set[str]) -> bool:
    return isinstance(receiver, ast.Name) and receiver.id in fresh


def _sketch_like(receiver: ast.expr, fn: FunctionNode) -> bool:
    """Whether ``receiver`` plausibly holds live sketch state.

    ``self`` counts only inside ``*Sketch`` classes (so unrelated
    ``_counters`` attributes — e.g. a telemetry counter registry — never
    fire); names count when a parameter annotation mentions ``Sketch``
    or the identifier itself reads sketch-like."""
    if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
        return fn.class_name is not None and "Sketch" in fn.class_name
    if isinstance(receiver, ast.Name):
        annotation = _param_annotation(fn, receiver.id)
        if annotation is not None and "Sketch" in ast.dump(annotation):
            return True
    dotted = _expr_name(receiver)
    if dotted is not None:
        lowered = dotted.lower()
        return any(marker in lowered for marker in _SKETCHY_NAMES)
    return False


def _param_annotation(fn: FunctionNode, name: str) -> ast.expr | None:
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == name:
            return arg.annotation
    return None

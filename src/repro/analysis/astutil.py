"""Small AST helpers shared by the rules (stdlib ``ast`` only)."""

from __future__ import annotations

import ast

#: Names the ``numpy`` module is conventionally bound to.
NUMPY_ALIASES = frozenset({"np", "numpy"})


def is_numpy_attr(node: ast.AST, attr: str | frozenset[str]) -> bool:
    """True for ``np.<attr>`` / ``numpy.<attr>`` attribute nodes."""
    attrs = frozenset({attr}) if isinstance(attr, str) else attr
    return (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id in NUMPY_ALIASES
    )


def call_keyword(node: ast.Call, name: str) -> ast.keyword | None:
    """The keyword argument ``name`` of ``node``, if passed."""
    for kw in node.keywords:
        if kw.arg == name:
            return kw
    return None


def enclosing_class_names(tree: ast.AST) -> dict[ast.AST, str]:
    """Map each node to the name of its innermost enclosing class, if any."""
    owners: dict[ast.AST, str] = {}

    def visit(node: ast.AST, current: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            current = node.name
        for child in ast.iter_child_nodes(node):
            if current is not None:
                owners[child] = current
            visit(child, current)

    visit(tree, None)
    return owners


def annotation_mentions(annotation: ast.AST | None, needles: frozenset[str]) -> bool:
    """True if the unparsed annotation text contains any needle."""
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return any(needle in text for needle in needles)

"""Rule base class and registry.

Every rule is a class decorated with :func:`register`; the decorator
instantiates it and files it under its ``rule_id``.  The rule's
*docstring* is the canonical description — :func:`catalogue` renders the
registry straight from those docstrings, so the CLI's ``--catalogue``
output can never drift from the code.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Iterator, Type

from .context import FileContext
from .findings import Finding


class Rule:
    """One domain invariant, checked against one file at a time.

    Subclasses set ``rule_id`` (``R<n>``) and ``title`` (one line), decide
    applicability in :meth:`applies_to`, and yield :class:`Finding` objects
    from :meth:`check`.  Rules must be stateless: one instance serves every
    file.
    """

    rule_id: str = ""
    title: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` (default: everywhere)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for ``ctx``; must not mutate the context."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(self.rule_id, ctx.path, line, col, message)


_REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    instance = cls()
    if not instance.rule_id:
        raise RuntimeError(f"rule {cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise RuntimeError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Registered rules, optionally restricted to ``select`` ids.

    Raises ``KeyError`` naming the first unknown id, so the CLI can turn
    it into a usage error.
    """
    if select is None:
        return all_rules()
    chosen = []
    for rule_id in select:
        if rule_id not in _REGISTRY:
            raise KeyError(rule_id)
        chosen.append(_REGISTRY[rule_id])
    return sorted(chosen, key=lambda r: r.rule_id)


def catalogue() -> Iterator[str]:
    """Render the rule catalogue from rule docstrings, one block per rule."""
    for rule in all_rules():
        doc = inspect.cleandoc(rule.__doc__ or "(undocumented)")
        yield f"{rule.rule_id} — {rule.title}\n\n{doc}\n"

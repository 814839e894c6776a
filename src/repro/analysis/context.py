"""Per-file analysis context: role classification, AST, and suppressions.

The rule set is *domain-aware*: what counts as a violation depends on
where the code lives.  ``classify`` maps a path onto a :class:`Role`:

* ``KERNEL`` — the numerical hot paths (``src/repro/sketches``,
  ``src/repro/hashing``, ``src/repro/core``) where dtype and purity rules
  apply;
* ``LIBRARY`` — any other module under ``src/repro``;
* ``SCRIPT`` — examples and benchmarks (library conventions apply, but
  not kernel ones);
* ``TEST`` — test modules, where no rules apply by default;
* ``UNKNOWN`` — anything else (no rules apply).

Fixture files used by the linter's own test suite live under a directory
named ``analysis_fixtures`` and *mirror* the repo layout below that
marker (e.g. ``tests/analysis_fixtures/src/repro/sketches/bad.py`` is
classified as KERNEL).  Directory walks skip fixture directories, so the
repository itself lints clean; fixtures are only analysed when named
explicitly.

Suppression syntax (matched per finding line)::

    something_noisy()  # repro: noqa          -- silences every rule
    something_noisy()  # repro: noqa[R2]      -- silences listed rules
    something_noisy()  # repro: noqa[R2,R3]
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from pathlib import PurePath

#: Directory marker under which self-test fixtures mirror the repo layout.
FIXTURE_MARKER = "analysis_fixtures"

#: Sub-packages of ``repro`` holding the numerical kernels.
KERNEL_PACKAGES = frozenset({"sketches", "hashing", "core"})

#: Sub-packages that are deliberately standalone (vendorable with no
#: intra-repo imports); the error-discipline rule exempts them.
STANDALONE_PACKAGES = frozenset(
    {"obs", "analysis", "trace", "bench", "monitor", "profile"}
)

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


class Role(enum.Enum):
    """Which rule profile applies to a file (see module docstring)."""

    KERNEL = "kernel"
    LIBRARY = "library"
    SCRIPT = "script"
    TEST = "test"
    UNKNOWN = "unknown"


def _effective_parts(path: str) -> tuple[str, ...]:
    """Path components used for classification, fixture marker stripped."""
    parts = PurePath(path).parts
    if FIXTURE_MARKER in parts:
        parts = parts[parts.index(FIXTURE_MARKER) + 1 :]
    return parts


def classify(path: str) -> Role:
    """Map a file path onto the :class:`Role` its rules are chosen by."""
    parts = _effective_parts(path)
    if not parts:
        return Role.UNKNOWN
    name = parts[-1]
    if "tests" in parts[:-1] or name.startswith("test_") or name == "conftest.py":
        return Role.TEST
    if "repro" in parts[:-1]:
        sub = subpackage(path)
        return Role.KERNEL if sub in KERNEL_PACKAGES else Role.LIBRARY
    if "examples" in parts[:-1] or "benchmarks" in parts[:-1]:
        return Role.SCRIPT
    return Role.UNKNOWN


def subpackage(path: str) -> str | None:
    """First package component under ``repro`` (``None`` outside it).

    ``src/repro/sketches/hash_sketch.py`` -> ``"sketches"``;
    ``src/repro/errors.py`` -> ``""`` (top-level module).
    """
    parts = _effective_parts(path)
    if "repro" not in parts[:-1]:
        return None
    rest = parts[parts.index("repro") + 1 :]
    return rest[0] if len(rest) > 1 else ""


def parse_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed rule ids (``None`` means all rules)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                r.strip() for r in rules.split(",") if r.strip()
            )
    return out


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: str
    source: str
    tree: ast.Module
    role: Role
    subpackage: str | None
    module_name: str
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        """Parse ``source`` into a context (raises ``SyntaxError`` as-is)."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            role=classify(path),
            subpackage=subpackage(path),
            module_name=PurePath(path).name,
            suppressions=parse_suppressions(source),
        )

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True if a ``# repro: noqa`` comment on ``line`` covers ``rule``."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule in rules

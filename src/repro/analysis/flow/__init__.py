"""repro.analysis.flow — whole-program dataflow infrastructure.

Everything the interprocedural rules (R9 linearity-contract, R11
kernel-dtype propagation) share:

* :mod:`.callgraph` — a project-wide call graph over ``src/repro``:
  module-level name resolution (imports, aliases, relative imports) plus
  method dispatch via a class-hierarchy approximation, with a
  shortest-call-path query so findings can name the offending call path;
* :mod:`.project` — :class:`ProjectContext`, the multi-file analogue of
  :class:`~repro.analysis.context.FileContext` handed to project-scoped
  rules;
* :mod:`.dtypes` — a small numpy-dtype lattice and abstract interpreter
  that propagates dtypes through locals, calls, and returns.

Like the rest of :mod:`repro.analysis`, this subpackage imports only the
standard library: it reasons *about* numpy code without importing numpy.
"""

from __future__ import annotations

from .callgraph import CallGraph, ClassNode, FunctionNode, module_name_for_path
from .dtypes import BOTTOM, DTYPES, UNKNOWN, DtypeInterpreter, join
from .project import ProjectContext

__all__ = [
    "BOTTOM",
    "CallGraph",
    "ClassNode",
    "DTYPES",
    "DtypeInterpreter",
    "FunctionNode",
    "ProjectContext",
    "UNKNOWN",
    "join",
    "module_name_for_path",
]

"""The built-in rule set (importing this package registers every rule)."""

from __future__ import annotations

from . import (  # noqa: F401  (imported for their registration side effect)
    guards,
    r1_dtype,
    r2_hotpath,
    r4_randomness,
    r5_errors,
    r6_rng,
    r9_linearity,
    r10_concurrency,
    r11_dtypeflow,
)

__all__ = [
    "guards",
    "r1_dtype",
    "r2_hotpath",
    "r4_randomness",
    "r5_errors",
    "r6_rng",
    "r9_linearity",
    "r10_concurrency",
    "r11_dtypeflow",
]

"""Synopsis health diagnostics: what is this sketch seeing, and is it
sized right for it?

Operators of a deployed stream monitor can't inspect the raw stream — the
synopsis is all there is.  Fortunately the synopsis itself supports the
introspection that matters:

* estimated stream size, second moment, and a **skew score** (how far the
  second moment sits above the uniform-stream floor ``N²/D`` — the single
  number that predicts whether basic sketching would have struggled and
  how much skimming will help);
* the current skim threshold and how many values would be extracted at it;
* a width recommendation from the Theorem-5 sizing rule, given a target
  accuracy and the stream's own measured statistics.

The report is a plain dataclass (render with ``describe()``), so it can
feed dashboards as easily as terminals.  It is defined next to the
skimmed sketch (:mod:`repro.core.estimator`), where an engine audit
builds the same report from the answer's own skim.
"""

from __future__ import annotations

import math

from ..core.estimator import SketchHealthReport, SkimmedSketch, health_report
from ..core.skim import default_threshold, residual_infinity_norm, skim_dense
from ..errors import ParameterError


def sketch_health(
    sketch: SkimmedSketch,
    target_error: float | None = None,
    target_join_size: float | None = None,
) -> SketchHealthReport:
    """Build a :class:`SketchHealthReport` from a live skimmed sketch.

    Parameters
    ----------
    sketch:
        The synopsis to inspect (flat mode; dyadic sketches are inspected
        through their base level).
    target_error, target_join_size:
        When both are given, the report also checks the Theorem-5 sizing
        rule ``width >= N**2 / (target_error * target_join_size)`` against
        the sketch's actual width.
    """
    inner = sketch._inner.base_sketch if sketch.schema.dyadic else sketch._inner  # noqa: SLF001
    n = inner.absolute_mass
    recommended = None
    if target_error is not None and target_join_size is not None:
        if target_error <= 0 or target_join_size <= 0:
            raise ParameterError("target_error and target_join_size must be positive")
        recommended = max(1, math.ceil(n * n / (target_error * target_join_size)))

    threshold = default_threshold(inner, sketch.schema.threshold_multiplier)
    skim, skimmed = skim_dense(inner, threshold)
    # An infinite threshold (empty stream) skims nothing: no scan needed.
    residual_linf = (
        residual_infinity_norm(skimmed) if math.isfinite(threshold) else 0.0
    )
    return health_report(sketch, skim, residual_linf, recommended)

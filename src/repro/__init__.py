"""repro — skimmed sketches for data-stream join aggregates.

A from-scratch reproduction of *"Processing Data-Stream Join Aggregates
Using Skimmed Sketches"* (Ganguly, Garofalakis, Rastogi; EDBT 2004):
single-pass, small-space estimation of ``COUNT``/``SUM``/``AVERAGE``
aggregates over joins of update streams (inserts *and* deletes), with the
paper's skimmed-sketch estimator as the headline API and every baseline it
compares against implemented alongside.

Quick start::

    import numpy as np
    from repro import SkimmedSketchSchema

    schema = SkimmedSketchSchema(width=200, depth=11, domain_size=1 << 16,
                                 seed=42)
    f, g = schema.create_sketch(), schema.create_sketch()
    f.update(17)            # insert value 17 into stream F
    g.update(17)
    g.update(23, -1.0)      # delete an occurrence of 23 from stream G
    print(f.est_join_size(g))

Package map (details in DESIGN.md):

* :mod:`repro.core` — skimming (which also lists heavy hitters) + the
  skimmed-sketch join estimator;
* :mod:`repro.sketches` — AGMS, hash sketches, dyadic hierarchies;
* :mod:`repro.hashing` — k-wise independent hash/sign families;
* :mod:`repro.streams` — stream model, generators, query engine, multi-join;
* :mod:`repro.baselines` — exact / sampling / bifocal / partitioned AGMS;
* :mod:`repro.workloads` — adversarial workload corpus + accuracy gate;
* :mod:`repro.eval` — the paper's evaluation methodology and experiments.
"""

from .errors import (
    DomainError,
    IncompatibleSketchError,
    QueryError,
    ReproError,
)
from .core import (
    JoinEstimateBreakdown,
    SketchParameters,
    SkimResult,
    SkimmedSketch,
    SkimmedSketchSchema,
    est_skim_join_size,
    est_sub_join_size,
    skim_dense,
    skim_dense_dyadic,
)
from .sketches import (
    AGMSSchema,
    AGMSSketch,
    DyadicHashSketch,
    DyadicSketchSchema,
    HashSketch,
    HashSketchSchema,
    StreamSynopsis,
)
from .hashing import BulkHashCache
from .streams import (
    FrequencyVector,
    StreamEngine,
    Update,
)
from .sketches.serialize import (
    SerializationError,
    load_sketch,
    merge_sketch_state,
    save_sketch,
    sketch_from_spec,
    sketch_from_state,
    sketch_spec,
    sketch_state,
)

__version__ = "1.0.0"

__all__ = [
    "AGMSSchema",
    "AGMSSketch",
    "BulkHashCache",
    "DomainError",
    "DyadicHashSketch",
    "DyadicSketchSchema",
    "FrequencyVector",
    "HashSketch",
    "HashSketchSchema",
    "IncompatibleSketchError",
    "JoinEstimateBreakdown",
    "QueryError",
    "ReproError",
    "SerializationError",
    "SketchParameters",
    "SkimResult",
    "SkimmedSketch",
    "SkimmedSketchSchema",
    "StreamEngine",
    "StreamSynopsis",
    "Update",
    "est_skim_join_size",
    "est_sub_join_size",
    "load_sketch",
    "merge_sketch_state",
    "save_sketch",
    "sketch_from_spec",
    "sketch_from_state",
    "sketch_spec",
    "sketch_state",
    "skim_dense",
    "skim_dense_dyadic",
    "__version__",
]

"""Adversarial workload corpus: named, seed-deterministic stream generators.

The paper's guarantees (Lemma 4.1's error bound, linearity under
insert/delete streams, predicate pushdown "prior to updating the
synopses") are easy to exercise on benign Zipf streams and easy to break
everywhere else.  This module is the repo's corpus of *adversarial*
workloads — each a named, parameterised generator producing a
deterministic sequence of per-stream update batches plus exact ground
truth, so estimate quality can be measured, tracked and **gated** per
workload (see :mod:`repro.workloads.harness` and the ``compare`` CLI).

Families
--------
``skew_drift``
    The Zipf exponent sweeps across phases (e.g. 0.4 -> 1.6): the stream
    the sketch was "sized for" at the start is not the stream it sees at
    the end.  Stresses the skim threshold's dependence on skew.
``delete_churn``
    Insert-then-delete waves that annihilate most of each wave: the net
    frequency vector stays tiny while gross domain pressure is high.
    Stresses linearity and the SKIMDENSE residual contract near ``f = 0``.
``filtered_subset_sum``
    Ting-style disaggregated subset sums: one element stream fanned into
    three predicate-filtered streams (Range / InSet / Modulo), joined
    pairwise.  Stresses predicate pushdown on the bulk path.
``join_correlated`` / ``join_anticorrelated``
    Join pairs with aligned vs. opposed heavy hitters (the anti pair maps
    values through ``domain - 1 - v``), with known exact join sizes.
    Correlated joins are the estimator's best case, anti-correlated its
    variance-dominated worst case.

Contract
--------
* This module imports without numpy (``python -m repro.workloads list``
  must work on a bare box); numpy and the stream generators are imported
  lazily inside each family's builder.
* Builders consume **only** their ``params`` and ``seed`` through seeded
  ``np.random.default_rng`` instances (linter rule R6), so the same
  ``(family, params, seed)`` triple always yields byte-identical batches
  — :meth:`WorkloadInstance.fingerprint` hashes the realized corpus and
  the selfcheck CLI proves the repeatability.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..errors import ParameterError
from ..streams.query import (
    InSetPredicate,
    ModuloPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
)

if TYPE_CHECKING:  # realized batches are numpy arrays
    import numpy as np

    from ..streams.model import FrequencyVector

__all__ = [
    "FAMILIES",
    "Family",
    "WorkloadBatch",
    "WorkloadInstance",
    "build_workload",
    "family_names",
    "suite_names",
    "workloads_for",
]


@dataclass(frozen=True)
class WorkloadBatch:
    """One ingestion step: a batch of weighted updates for one stream."""

    stream: str
    values: "np.ndarray"
    weights: "np.ndarray"

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class WorkloadInstance:
    """A fully realized workload: streams, batches, queries, ground truth.

    ``streams`` maps each stream name onto the selection predicate the
    engine must register it with (predicates filter *before* synopsis
    maintenance, so ground truth applies the same mask).  ``queries``
    are ``(left, right)`` join pairs; ``left == right`` denotes a
    self-join.  ``batches`` is the ingestion order the harness replays —
    but linearity means any permutation or re-chunking must land the
    sketches in the same state (the metamorphic tests hold us to that).
    """

    name: str
    family: str
    params: dict[str, Any]
    seed: int
    domain_size: int
    streams: dict[str, Predicate]
    batches: list[WorkloadBatch]
    queries: list[tuple[str, str]]
    description: str = ""
    _exact: dict[str, "FrequencyVector"] = field(default_factory=dict, repr=False)

    # -- bookkeeping -------------------------------------------------------

    def total_updates(self) -> int:
        """Gross number of update records across every batch."""
        return sum(len(batch) for batch in self.batches)

    def gross_mass(self, stream: str) -> float:
        """``sum |w|`` over the stream's updates (domain pressure)."""
        total = 0.0
        for batch in self.batches:
            if batch.stream == stream:
                total += float(abs(batch.weights).sum())
        return total

    def net_weight(self, stream: str) -> float:
        """Signed weight sum over the stream's updates (pre-predicate)."""
        total = 0.0
        for batch in self.batches:
            if batch.stream == stream:
                total += float(batch.weights.sum())
        return total

    # -- ground truth ------------------------------------------------------

    def exact_frequencies(self, stream: str) -> "FrequencyVector":
        """Exact post-predicate net frequency vector of one stream."""
        cached = self._exact.get(stream)
        if cached is not None:
            return cached
        if stream not in self.streams:
            raise ParameterError(f"unknown stream {stream!r} in workload {self.name!r}")
        from ..streams.model import FrequencyVector

        vector = FrequencyVector.zeros(self.domain_size)
        predicate = self.streams[stream]
        for batch in self.batches:
            if batch.stream != stream:
                continue
            keep = predicate.accepts_bulk(batch.values)
            if keep.any():
                vector.apply_bulk(batch.values[keep], batch.weights[keep])
        self._exact[stream] = vector
        return vector

    def exact_join(self, left: str, right: str) -> float:
        """Exact join size (self-join size when ``left == right``)."""
        if left == right:
            return self.exact_frequencies(left).self_join_size()
        return self.exact_frequencies(left).join_size(self.exact_frequencies(right))

    def fingerprint(self) -> str:
        """SHA-256 over the realized corpus bytes (determinism witness).

        Covers stream names, batch order, and the exact bytes of every
        values/weights array — two instances with equal fingerprints
        produce bit-identical sketches.
        """
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {"name": self.name, "family": self.family, "seed": self.seed,
                 "domain_size": self.domain_size},
                sort_keys=True,
            ).encode()
        )
        for batch in self.batches:
            digest.update(batch.stream.encode())
            digest.update(batch.values.tobytes())
            digest.update(batch.weights.tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"WorkloadInstance(name={self.name!r}, family={self.family!r}, "
            f"streams={list(self.streams)}, batches={len(self.batches)}, "
            f"updates={self.total_updates()})"
        )


# -- family registry -----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One registered corpus family.

    ``suites`` maps suite name -> params; a family absent from a suite
    simply does not run there.  ``build`` realizes the family for
    concrete ``(params, seed)``.
    """

    name: str
    description: str
    suites: dict[str, dict[str, Any]]
    build: Callable[[dict[str, Any], int], WorkloadInstance]


FAMILIES: dict[str, Family] = {}


def _register(
    name: str, description: str, suites: dict[str, dict[str, Any]]
) -> Callable[
    [Callable[[dict[str, Any], int], WorkloadInstance]],
    Callable[[dict[str, Any], int], WorkloadInstance],
]:
    def decorate(
        fn: Callable[[dict[str, Any], int], WorkloadInstance]
    ) -> Callable[[dict[str, Any], int], WorkloadInstance]:
        FAMILIES[name] = Family(name, description, suites, fn)
        return fn

    return decorate


def family_names() -> list[str]:
    """All registered family names, sorted."""
    return sorted(FAMILIES)


def suite_names() -> list[str]:
    """All suite names any family participates in."""
    names: set[str] = set()
    for family in FAMILIES.values():
        names.update(family.suites)
    return sorted(names)


def build_workload(
    family: str, params: dict[str, Any] | None = None, seed: int = 0
) -> WorkloadInstance:
    """Realize one family with explicit params (default: its smoke params)."""
    spec = FAMILIES.get(family)
    if spec is None:
        raise ParameterError(
            f"unknown workload family {family!r}; known: {family_names()}"
        )
    if params is None:
        params = spec.suites.get("smoke")
        if params is None:
            raise ParameterError(f"family {family!r} has no smoke suite params")
    return spec.build(dict(params), seed)


def workloads_for(suite: str, seed: int = 0) -> Iterator[WorkloadInstance]:
    """Realize every family registered for ``suite`` (sorted by name)."""
    if suite not in suite_names():
        raise ParameterError(
            f"unknown suite {suite!r}; known: {suite_names()}"
        )
    for name in family_names():
        family = FAMILIES[name]
        if suite in family.suites:
            yield family.build(dict(family.suites[suite]), seed)


# -- builders ------------------------------------------------------------------


def _zipf_elements(rng: Any, domain: int, total: int, z: float) -> "np.ndarray":
    """``total`` i.i.d. Zipf(z) element draws over ``[0, domain)``."""
    import numpy as np

    from ..streams.generators import zipf_probabilities

    pmf = zipf_probabilities(domain, z)
    return rng.choice(domain, size=total, p=pmf).astype(np.int64)


def _ones(n: int) -> "np.ndarray":
    import numpy as np

    return np.ones(n, dtype=np.float64)


def _require(params: dict[str, Any], *names: str) -> list[Any]:
    missing = [name for name in names if name not in params]
    if missing:
        raise ParameterError(f"workload params missing {missing}")
    return [params[name] for name in names]


@_register(
    "skew_drift",
    "Zipf exponent sweeps across phases (skew the sketch was sized for "
    "at phase 0 is not the skew it sees at the end)",
    {
        "smoke": {
            "domain": 1 << 10, "phases": 5, "per_phase": 4_000,
            "z_start": 0.4, "z_end": 1.6, "shift": 32,
        },
        "full": {
            "domain": 1 << 14, "phases": 8, "per_phase": 25_000,
            "z_start": 0.2, "z_end": 1.8, "shift": 512,
        },
    },
)
def _build_skew_drift(params: dict[str, Any], seed: int) -> WorkloadInstance:
    import numpy as np

    domain, phases, per_phase, z_start, z_end, shift = _require(
        params, "domain", "phases", "per_phase", "z_start", "z_end", "shift"
    )
    if phases < 1:
        raise ParameterError(f"phases must be >= 1, got {phases}")
    rng = np.random.default_rng(seed)
    batches: list[WorkloadBatch] = []
    for phase in range(phases):
        frac = phase / (phases - 1) if phases > 1 else 0.0
        z = z_start + (z_end - z_start) * frac
        f_values = _zipf_elements(rng, domain, per_phase, z)
        g_values = (_zipf_elements(rng, domain, per_phase, z) + shift) % domain
        batches.append(WorkloadBatch("f", f_values, _ones(per_phase)))
        batches.append(WorkloadBatch("g", g_values.astype(np.int64), _ones(per_phase)))
    return WorkloadInstance(
        name="skew_drift",
        family="skew_drift",
        params=dict(params),
        seed=seed,
        domain_size=domain,
        streams={"f": TruePredicate(), "g": TruePredicate()},
        batches=batches,
        queries=[("f", "g"), ("f", "f"), ("g", "g")],
        description=FAMILIES["skew_drift"].description,
    )


@_register(
    "delete_churn",
    "insert-then-delete waves annihilating most of each wave: tiny net "
    "frequencies under high gross domain pressure (the near-annihilation "
    "stress for linearity and the SKIMDENSE residual contract)",
    {
        "smoke": {
            "domain": 1 << 10, "waves": 6, "per_wave": 3_000,
            "survivors": 60, "z": 1.1,
        },
        "full": {
            "domain": 1 << 14, "waves": 10, "per_wave": 20_000,
            "survivors": 250, "z": 1.1,
        },
    },
)
def _build_delete_churn(params: dict[str, Any], seed: int) -> WorkloadInstance:
    import numpy as np

    domain, waves, per_wave, survivors, z = _require(
        params, "domain", "waves", "per_wave", "survivors", "z"
    )
    if not 0 <= survivors <= per_wave:
        raise ParameterError(
            f"survivors must be in [0, per_wave={per_wave}], got {survivors}"
        )
    rng = np.random.default_rng(seed)
    batches: list[WorkloadBatch] = []
    for _ in range(waves):
        for stream in ("f", "g"):
            values = _zipf_elements(rng, domain, per_wave, z)
            batches.append(WorkloadBatch(stream, values, _ones(per_wave)))
            doomed = np.ones(per_wave, dtype=bool)
            doomed[rng.choice(per_wave, size=survivors, replace=False)] = False
            deleted = values[doomed]
            batches.append(
                WorkloadBatch(stream, deleted, -_ones(int(deleted.size)))
            )
    return WorkloadInstance(
        name="delete_churn",
        family="delete_churn",
        params=dict(params),
        seed=seed,
        domain_size=domain,
        streams={"f": TruePredicate(), "g": TruePredicate()},
        batches=batches,
        queries=[("f", "g"), ("f", "f"), ("g", "g")],
        description=FAMILIES["delete_churn"].description,
    )


@_register(
    "filtered_subset_sum",
    "one element stream fanned into Range/InSet/Modulo-filtered streams "
    "joined pairwise (Ting-style disaggregated subset sums; stresses "
    "predicate pushdown on the bulk ingest path)",
    {
        "smoke": {
            "domain": 1 << 10, "total": 16_000, "chunks": 4, "z": 0.9,
            "range_hi_fraction": 0.5, "modulus": 4, "remainder": 1,
            "inset_step": 3,
        },
        "full": {
            "domain": 1 << 14, "total": 120_000, "chunks": 8, "z": 0.9,
            "range_hi_fraction": 0.5, "modulus": 8, "remainder": 1,
            "inset_step": 5,
        },
    },
)
def _build_filtered_subset_sum(
    params: dict[str, Any], seed: int
) -> WorkloadInstance:
    import numpy as np

    domain, total, chunks, z, hi_fraction, modulus, remainder, inset_step = _require(
        params, "domain", "total", "chunks", "z", "range_hi_fraction",
        "modulus", "remainder", "inset_step",
    )
    if chunks < 1:
        raise ParameterError(f"chunks must be >= 1, got {chunks}")
    if inset_step < 1:
        raise ParameterError(f"inset_step must be >= 1, got {inset_step}")
    rng = np.random.default_rng(seed)
    elements = _zipf_elements(rng, domain, total, z)
    streams: dict[str, Predicate] = {
        "range": RangePredicate(0, max(1, int(domain * hi_fraction))),
        "inset": InSetPredicate(frozenset(range(0, domain, inset_step))),
        "mod": ModuloPredicate(modulus, remainder),
    }
    batches: list[WorkloadBatch] = []
    for chunk in np.array_split(elements, chunks):
        for stream in streams:
            batches.append(
                WorkloadBatch(stream, chunk.astype(np.int64), _ones(int(chunk.size)))
            )
    return WorkloadInstance(
        name="filtered_subset_sum",
        family="filtered_subset_sum",
        params=dict(params),
        seed=seed,
        domain_size=domain,
        streams=streams,
        batches=batches,
        queries=[("range", "mod"), ("inset", "mod"), ("range", "range")],
        description=FAMILIES["filtered_subset_sum"].description,
    )


def _build_join_pair(
    name: str, params: dict[str, Any], seed: int, anti: bool
) -> WorkloadInstance:
    import numpy as np

    domain, total, chunks, z = _require(params, "domain", "total", "chunks", "z")
    if chunks < 1:
        raise ParameterError(f"chunks must be >= 1, got {chunks}")
    rng = np.random.default_rng(seed)
    f_values = _zipf_elements(rng, domain, total, z)
    g_values = _zipf_elements(rng, domain, total, z)
    if anti:
        # Reflect g's ranks: its heavy hitters sit where f's lightest
        # values are, so the join is dominated by the tails (small exact
        # join, variance-dominated estimate) yet never exactly zero.
        g_values = (domain - 1 - g_values).astype(np.int64)
    batches: list[WorkloadBatch] = []
    for f_chunk, g_chunk in zip(
        np.array_split(f_values, chunks), np.array_split(g_values, chunks)
    ):
        batches.append(
            WorkloadBatch("f", f_chunk.astype(np.int64), _ones(int(f_chunk.size)))
        )
        batches.append(
            WorkloadBatch("g", g_chunk.astype(np.int64), _ones(int(g_chunk.size)))
        )
    return WorkloadInstance(
        name=name,
        family=name,
        params=dict(params),
        seed=seed,
        domain_size=domain,
        streams={"f": TruePredicate(), "g": TruePredicate()},
        batches=batches,
        queries=[("f", "g"), ("f", "f"), ("g", "g")],
        description=FAMILIES[name].description,
    )


_JOIN_PAIR_SUITES = {
    "smoke": {"domain": 1 << 10, "total": 16_000, "chunks": 4, "z": 1.0},
    "full": {"domain": 1 << 14, "total": 120_000, "chunks": 8, "z": 1.0},
}


@_register(
    "join_correlated",
    "independent equal-skew draws with aligned heavy hitters: the large-"
    "join best case (estimate dominated by the dense-dense exact term)",
    _JOIN_PAIR_SUITES,
)
def _build_join_correlated(params: dict[str, Any], seed: int) -> WorkloadInstance:
    return _build_join_pair("join_correlated", params, seed, anti=False)


@_register(
    "join_anticorrelated",
    "rank-reflected pair (g ingests domain-1-v): opposed heavy hitters, "
    "small exact join, variance-dominated estimate — the hard case",
    _JOIN_PAIR_SUITES,
)
def _build_join_anticorrelated(
    params: dict[str, Any], seed: int
) -> WorkloadInstance:
    return _build_join_pair("join_anticorrelated", params, seed, anti=True)

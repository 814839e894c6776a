"""Seeded inputs and exact ground truth for the end-to-end benchmark.

numpy only: nothing here imports the program under test, so generating
inputs and keeping exact answers never shares a timer with it.

Every workload is a closed loop over two streams ``f`` and ``g`` (one
caller; each call is issued after the previous one returns).  Work is cut
into *episodes*: one episode feeds a fresh program a fixed script of batch
pairs and ``COUNT(f ⋈ g)`` reads.  Each episode of a run replays the same
inputs, so every episode does identical work on both sides of a
comparison, and a run measures whole episodes until its time is up.
``BENCHMARK.json`` and the README say why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

#: Sketch shape and hash seed shared by every workload.
WIDTH = 1024
DEPTH = 9
ENGINE_SEED = 101

#: ``g`` is ``f``'s Zipf law shifted by this many values (the shifted-Zipf
#: pair of the paper's Figure 5): the two heavy heads do not overlap.
G_SHIFT = 64

#: Batch pairs fed to the program before anything is timed, and by the
#: set-up probe.
WARMUP_PAIRS = 4

#: Median relative error above which a run is wrong (claim C1: "< 10%").
MAX_REL_ERROR = 0.10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input law, batch shape and read schedule."""

    name: str
    domain_bits: int
    zipf: float
    batch: int
    #: Batch pairs between two COUNT reads.
    answer_every: int
    #: COUNT reads per episode; an episode is ``answer_every * answers`` pairs.
    answers: int
    #: Use the public dyadic ``SkimmedSketch`` API instead of ``StreamEngine``.
    dyadic: bool = False
    #: Half-open value range a ``RangePredicate`` on ``g`` keeps.
    g_range: tuple[int, int] | None = None
    #: Insert/delete wave length in batch pairs (0: inserts only).  Every
    #: odd wave re-sends three quarters of the previous wave with weight -1.
    churn_cycle: int = 0

    @property
    def domain(self) -> int:
        return 1 << self.domain_bits

    def scaled(self, scale: float) -> "Workload":
        """The same workload with shorter episodes (smoke tests)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            answer_every=max(1, round(self.answer_every * scale)),
            answers=max(1, round(self.answers * scale)),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_skewed",
            domain_bits=16,
            zipf=1.1,
            batch=8192,
            answer_every=120,
            answers=1,
        ),
        Workload(
            name="standing_join",
            domain_bits=16,
            zipf=1.0,
            batch=8192,
            answer_every=1,
            answers=100,
        ),
        Workload(
            name="churn_small_batch",
            domain_bits=16,
            zipf=0.8,
            batch=256,
            answer_every=800,
            answers=10,
            g_range=(0, 1 << 15),
            churn_cycle=64,
        ),
        Workload(
            name="wide_dyadic",
            domain_bits=20,
            zipf=1.1,
            batch=8192,
            answer_every=2,
            answers=100,
            dyadic=True,
        ),
    )
}


@dataclass(frozen=True)
class Batch:
    """One ingest call: ``values`` (with ``weights``, or all +1) into ``stream``."""

    stream: str
    values: np.ndarray
    weights: np.ndarray | None


#: An episode step: a batch to ingest, or ``None`` for a ``COUNT(f ⋈ g)`` read.
Step = Batch | None


def zipf_cdf(domain: int, exponent: float) -> np.ndarray:
    """CDF of a Zipf law over ranks ``0 .. domain - 1`` (last entry exactly 1)."""
    weights = np.arange(1, domain + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


class InputSource:
    """Seeded episode inputs for one workload.

    Each batch is a fresh inverse-CDF draw.  A recycled pool of values
    would repeat across batches more than independent draws do, which
    flatters coalescing.  Every episode restarts the generator, so all
    episodes of a run see the same inputs.
    """

    def __init__(self, spec: Workload, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self._cdf = zipf_cdf(spec.domain, spec.zipf)
        # One independent stream per (seed, workload).
        self._entropy = [seed, zlib.crc32(spec.name.encode())]

    def _draw(self, rng: np.random.Generator, shift: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, rng.random(self.spec.batch), side="right")
        return (ranks.astype(np.int64) + shift) % self.spec.domain

    def episode(self) -> Iterator[Step]:
        """The episode's steps, in order."""
        spec = self.spec
        rng = np.random.default_rng(self._entropy)
        previous: list[tuple[np.ndarray, np.ndarray]] = []
        current: list[tuple[np.ndarray, np.ndarray]] = []
        for pair in range(spec.answer_every * spec.answers):
            weights = None
            if spec.churn_cycle:
                wave, slot = divmod(pair, spec.churn_cycle)
                if slot == 0:
                    previous, current = current, []
                if wave % 2 == 1 and slot % 4 != 3:
                    f_values, g_values = previous[slot]
                    weights = np.full(spec.batch, -1.0)
                else:
                    f_values, g_values = self._draw(rng, 0), self._draw(rng, G_SHIFT)
                current.append((f_values, g_values))
            else:
                f_values, g_values = self._draw(rng, 0), self._draw(rng, G_SHIFT)
            yield Batch("f", f_values, weights)
            yield Batch("g", g_values, weights)
            if (pair + 1) % spec.answer_every == 0:
                yield None

    def warmup(self) -> list[Batch]:
        """The first :data:`WARMUP_PAIRS` batch pairs of an episode."""
        source = InputSource(
            replace(self.spec, answer_every=WARMUP_PAIRS, answers=1), self.seed
        )
        return [step for step in source.episode() if step is not None]


class Fingerprint:
    """SHA-256 over every step of an episode, in order."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def update(self, step: Step) -> None:
        if step is None:
            self._digest.update(b"?")
            return
        self._digest.update(step.stream.encode())
        self._digest.update(step.values.tobytes())
        if step.weights is not None:
            self._digest.update(step.weights.tobytes())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class ExactJoin:
    """Exact frequency vectors of ``f`` and ``g`` and their join size.

    Applies ``g``'s range predicate itself, so the exact answer is over the
    same selection the program sees.  Counts are integers well below 2^53,
    so the float64 sums are exact.
    """

    def __init__(self, spec: Workload) -> None:
        self._g_range = spec.g_range
        self._freq = {
            name: np.zeros(spec.domain, dtype=np.float64) for name in ("f", "g")
        }

    def apply(self, batch: Batch) -> None:
        values, weights = batch.values, batch.weights
        if batch.stream == "g" and self._g_range is not None:
            low, high = self._g_range
            keep = (values >= low) & (values < high)
            values = values[keep]
            weights = None if weights is None else weights[keep]
        distinct, inverse = np.unique(values, return_inverse=True)
        self._freq[batch.stream][distinct] += np.bincount(
            inverse, weights=weights, minlength=distinct.size
        )

    def join(self) -> float:
        return float(self._freq["f"] @ self._freq["g"])

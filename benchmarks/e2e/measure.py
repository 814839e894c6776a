"""One workload in one fresh process: a set-up probe, or a measured run.

``run.py`` starts this file with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``
and ``src`` on ``PYTHONPATH``, and reads the JSON object it prints last::

    python benchmarks/e2e/measure.py --workload W --seed S --probe
    python benchmarks/e2e/measure.py --workload W --seed S --seconds T [--trace]

A measured run warms the program up, then runs whole episodes on fresh
programs until ``--seconds`` have passed and, untraced, at least
:data:`MIN_ANSWERS` answers were timed.  Only the program's ``ingest``
and ``answer`` calls are timed.  The first episode also keeps the exact
answers and the input fingerprint; every later episode must return the
first one's answers bit for bit.  With ``--trace`` every other episode
also runs the replay of ``replay.py`` beside the program.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from workloads import MAX_REL_ERROR, WORKLOADS, ExactJoin, Fingerprint, InputSource, Workload

#: An untraced run goes on past ``--seconds`` until it has timed this many
#: answers, so ``answer_p50_ms`` is always a median of at least 20.
MIN_ANSWERS = 20


@dataclass
class Episode:
    """What one episode offered the program and how long the program took."""

    offered: int = 0
    ingest_s: float = 0.0
    answer_s: float = 0.0
    calls: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    answers: list[float] = field(default_factory=list)
    exact: list[float] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def busy_s(self) -> float:
        return self.ingest_s + self.answer_s


def run_episode(
    source: InputSource,
    program,
    *,
    exact: ExactJoin | None = None,
    fingerprint: Fingerprint | None = None,
    replay=None,
) -> Episode:
    """Feed one episode to ``program``; stops at the first call that raises."""
    episode = Episode()
    for step in source.episode():
        if fingerprint is not None:
            fingerprint.update(step)
        if step is not None and exact is not None:
            exact.apply(step)
        episode.calls += 1
        try:
            start = perf_counter()
            if step is None:
                estimate = program.answer()
            else:
                program.ingest(step.stream, step.values, step.weights)
            elapsed = perf_counter() - start
        except Exception:  # a failed call is counted and ends the episode
            traceback.print_exc()
            episode.failed += 1
            return episode
        if step is None:
            episode.answer_s += elapsed
            episode.latencies.append(elapsed)
            episode.answers.append(estimate)
            if exact is not None:
                episode.exact.append(exact.join())
            if replay is not None:
                replay.answer(estimate, elapsed)
        else:
            episode.ingest_s += elapsed
            episode.offered += step.values.size
            if replay is not None:
                replay.ingest(elapsed)
    if replay is not None:
        episode.layers = replay.summary()
    return episode


def probe(spec: Workload, seed: int) -> dict:
    """Time ``import repro`` + construction + registration + warm-up."""
    warmup = InputSource(spec, seed).warmup()
    start = perf_counter()
    import target

    program = target.build(spec)
    for batch in warmup:
        program.ingest(batch.stream, batch.values, batch.weights)
    program.answer()
    return {"setup_s": perf_counter() - start}


def _hex(values: list[float]) -> list[str]:
    return [float(v).hex() for v in values]


def measure(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole episodes for ``seconds``; see the module docstring."""
    import target
    from replay import Replay, ReplayMismatch

    source = InputSource(spec, seed)
    warm = target.build(spec)
    for batch in source.warmup():
        warm.ingest(batch.stream, batch.values, batch.weights)
    warm.answer()

    problems: list[str] = []
    fingerprint = Fingerprint()
    episodes: list[Episode] = []
    start = perf_counter()
    while True:
        first = not episodes
        program = target.build(spec)
        replay = None
        if trace and len(episodes) % 2 == 1:
            replay = Replay(program, spec, source.episode())
        try:
            episode = run_episode(
                source,
                program,
                exact=ExactJoin(spec) if first else None,
                fingerprint=fingerprint if first else None,
                replay=replay,
            )
        except ReplayMismatch as exc:
            problems.append(f"replay: {exc}")
            break
        episodes.append(episode)
        if episode.failed:
            problems.append("a program call raised")
            break
        if not all(math.isfinite(a) for a in episode.answers):
            problems.append("non-finite estimate")
            break
        if not first and _hex(episode.answers) != _hex(episodes[0].answers):
            problems.append("answers differ between identical episodes")
            break
        elapsed = perf_counter() - start
        enough = (
            len(episodes) >= 2
            if trace
            else sum(len(e.latencies) for e in episodes) >= MIN_ANSWERS
        )
        if elapsed >= seconds and enough:
            break

    reference = episodes[0]
    errors = [
        abs(est - exact) / exact if exact else math.inf
        for est, exact in zip(reference.answers, reference.exact)
    ]
    rel_error = statistics.median(errors) if errors else math.inf
    if rel_error > MAX_REL_ERROR:
        problems.append(f"median rel_error {rel_error:.4g} > {MAX_REL_ERROR}")

    traced = [e for e in episodes if e.layers is not None]
    plain = [e for e in episodes if e.layers is None and e.busy_s > 0]
    result = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "episodes": len(episodes),
        "answers": sum(len(e.latencies) for e in plain),
        "attempted": sum(e.calls for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "correct": not problems,
        "problems": problems,
        "fingerprint": fingerprint.hexdigest(),
        "rel_error": rel_error,
    }
    if plain:
        latencies = [t for e in plain for t in e.latencies]
        # Reported, not bounded: on a shared host the tail tracks interference.
        result["answer_p95_ms"] = 1e3 * float(np.percentile(latencies, 95))
    if not plain or (trace and not traced):
        result["metrics"] = {}
    elif trace:
        result["metrics"] = _layer_metrics(traced, plain, rel_error)
    else:
        result["metrics"] = _e2e_metrics(plain, program.size_in_counters(), rel_error)
    return result


def _e2e_metrics(
    episodes: list[Episode], counters: int, rel_error: float
) -> dict[str, float]:
    """``BENCHMARK.json``'s end-to-end metrics, plus ``rel_error``."""
    latencies = [t for e in episodes for t in e.latencies]
    return {
        "run_ups": statistics.median(e.offered / e.busy_s for e in episodes),
        "ingest_ups": statistics.median(e.offered / e.ingest_s for e in episodes),
        "answer_p50_ms": 1e3 * statistics.median(latencies),
        "sketch_kib": counters * 8 / 1024,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rel_error": rel_error,
    }


def _layer_metrics(
    traced: list[Episode], plain: list[Episode], rel_error: float
) -> dict[str, float]:
    """Per-layer medians over the traced episodes, plus the run-level ones."""
    layers = [e.layers for e in traced]
    out = {
        name: statistics.median_low(layer[name] for layer in layers)
        for name in layers[0]
    }
    out["join.rel_error"] = rel_error
    out["trace.overhead"] = statistics.median(
        e.busy_s for e in traced
    ) / statistics.median(e.busy_s for e in plain)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=0.0, help="default: one episode"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.probe:
        result = probe(spec, args.seed)
    else:
        result = measure(spec.scaled(args.scale), args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Profiling toolbox: record a profiled smoke run, inspect, convert.

Usage::

    python -m repro.profile record --out run.prof.jsonl --seconds 2
    python -m repro.profile top run.prof.jsonl
    python -m repro.profile convert run.prof.jsonl run.collapsed
    python -m repro.profile convert run.prof.jsonl run.speedscope.json
    python -m repro.profile selfcheck

``record`` drives the built-in skimmed-join smoke workload (stream
engine ingest + join/self-join answers) under the sampling profiler and
the span tracer, then writes the samples JSONL.  ``top`` prints the
aggregate hottest-frames report.  ``convert`` emits collapsed stacks
(flamegraph input) or speedscope JSON, chosen by ``--format`` or
inferred from the output extension.  ``selfcheck`` proves the profiler
end to end (span attribution, exporter round trips) and exits non-zero
on the first failure — ``make profile-smoke`` runs it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from . import PROFILER
from .export import (
    aggregate_samples,
    parse_collapsed,
    profile_from_jsonl,
    profile_to_collapsed,
    profile_to_jsonl,
    profile_to_speedscope,
    read_profile_jsonl,
    render_top,
    validate_speedscope,
    write_profile_jsonl,
)
from .sampler import DEFAULT_HZ

#: Span-name prefixes that count as "attributed to a skim/join phase".
JOIN_SPAN_PREFIXES = ("skim", "estimate", "engine.answer")


def _smoke_workload(
    domain: int,
    elements: int,
    seed: int,
    seconds: float,
    until: Callable[[], bool] | None = None,
) -> int:
    """Ingest-and-answer loop on a skimmed-synopsis engine.

    Runs for ``seconds`` of wall-clock (or until ``until()`` goes true),
    alternating bulk ingest with join / self-join answers so samples
    land in the update, SKIMDENSE and ESTSKIMJOINSIZE paths.  Returns
    the number of queries answered.  Imports numpy lazily — the package
    itself must stay importable without it.
    """
    import numpy as np

    from ..core.config import SketchParameters
    from ..streams.engine import StreamEngine
    from ..streams.query import JoinCountQuery, SelfJoinQuery

    rng = np.random.default_rng(seed)
    engine = StreamEngine(
        domain, SketchParameters(width=128, depth=5), synopsis="skimmed", seed=seed
    )
    for name in ("f", "g"):
        engine.register_stream(name)
    values = rng.integers(0, domain, size=elements)
    weights = rng.integers(1, 4, size=elements).astype(float)
    queries = [JoinCountQuery("f", "g"), SelfJoinQuery("f")]

    deadline = time.perf_counter() + seconds
    answered = 0
    while time.perf_counter() < deadline:
        if until is not None and until():
            break
        for name in ("f", "g"):
            engine.process_bulk(name, values, weights)
        for query in queries:
            engine.answer(query)
            answered += 1
    return answered


def _record(args: argparse.Namespace) -> int:
    from ..trace import TRACER

    try:
        with open(args.out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"cannot write --out path: {exc}", file=sys.stderr)
        return 1

    PROFILER.reset()
    TRACER.reset()
    TRACER.enable()
    PROFILER.start(hz=args.hz)
    try:
        answered = _smoke_workload(args.domain, args.elements, args.seed, args.seconds)
    finally:
        PROFILER.stop()
        TRACER.disable()

    snapshot = PROFILER.snapshot()
    write_profile_jsonl(args.out, snapshot)
    print(
        f"recorded {len(snapshot['samples'])} samples at {snapshot['hz']:g} Hz "
        f"({answered} queries answered) -> {args.out}"
    )
    return 0


def _top(args: argparse.Namespace) -> int:
    try:
        snapshot = read_profile_jsonl(args.profile)
    except (OSError, ValueError) as exc:
        print(f"invalid profile {args.profile}: {exc}", file=sys.stderr)
        return 1
    print(render_top(aggregate_samples(snapshot), limit=args.limit))
    return 0


def _convert(args: argparse.Namespace) -> int:
    try:
        snapshot = read_profile_jsonl(args.profile)
    except (OSError, ValueError) as exc:
        print(f"invalid profile {args.profile}: {exc}", file=sys.stderr)
        return 1
    fmt = args.format
    if fmt is None:
        fmt = "speedscope" if args.out.endswith(".json") else "collapsed"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            if fmt == "collapsed":
                fh.write(profile_to_collapsed(snapshot))
            else:
                json.dump(profile_to_speedscope(snapshot, name=args.profile), fh)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    where = (
        "feed it to flamegraph.pl / speedscope"
        if fmt == "collapsed"
        else "open it at https://www.speedscope.app"
    )
    print(f"wrote {fmt} output to {args.out}; {where}")
    return 0


def _check_roundtrip(snapshot: dict[str, Any], fail: Callable[[str], None]) -> None:
    reparsed = profile_from_jsonl(profile_to_jsonl(snapshot))
    if len(reparsed["samples"]) != len(snapshot["samples"]):
        fail("JSONL round-trip changed the sample count")

    collapsed = profile_to_collapsed(snapshot)
    stacks = parse_collapsed(collapsed)
    if sum(stacks.values()) != len(snapshot["samples"]):
        fail(
            f"collapsed round-trip lost samples: {sum(stacks.values())} "
            f"counted, {len(snapshot['samples'])} recorded"
        )

    speedscope = validate_speedscope(profile_to_speedscope(snapshot))
    exported = sum(len(p["samples"]) for p in speedscope["profiles"])
    if exported != len(snapshot["samples"]):
        fail(
            f"speedscope round-trip lost samples: {exported} exported, "
            f"{len(snapshot['samples'])} recorded"
        )
    weight_in = sum(s["weight"] for s in snapshot["samples"])
    weight_out = sum(sum(p["weights"]) for p in speedscope["profiles"])
    if abs(weight_in - weight_out) > 1e-9 * max(1.0, weight_in):
        fail("speedscope round-trip changed total sampled seconds")


def _selfcheck(args: argparse.Namespace) -> int:
    from ..trace import TRACER

    failures: list[str] = []

    def fail(message: str) -> None:
        failures.append(message)
        print(f"FAIL: {message}")

    def ok(message: str) -> None:
        print(f"ok: {message}")

    # 1. Profiled smoke run with span attribution.
    PROFILER.reset()
    TRACER.reset()
    TRACER.enable()

    def attributed() -> list[Any]:
        return [
            s
            for s in PROFILER.samples()
            if s.span is not None and s.span.startswith(JOIN_SPAN_PREFIXES)
        ]

    PROFILER.start(hz=args.hz)
    try:
        answered = _smoke_workload(
            args.domain,
            args.elements,
            args.seed,
            args.seconds,
            until=lambda: bool(attributed()),
        )
    finally:
        PROFILER.stop()
        TRACER.disable()

    samples = PROFILER.samples()
    if not samples:
        fail("profiled smoke run produced no samples")
    else:
        ok(f"smoke run: {len(samples)} samples over {answered} answered queries")
    hits = attributed()
    if hits:
        names = sorted({s.span for s in hits})
        ok(f"{len(hits)} samples attributed to skim/join spans ({', '.join(names)})")
    else:
        fail("no sample was attributed to a skim/join span")

    # 2. Exporter round-trips.
    if samples:
        snapshot = PROFILER.snapshot()
        before = len(failures)
        _check_roundtrip(snapshot, fail)
        if len(failures) == before:
            ok("collapsed + speedscope + JSONL exports round-trip")

    if failures:
        print(f"selfcheck: {len(failures)} failure(s)")
        return 1
    print("selfcheck: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Record, inspect and convert repro.profile artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser(
        "record", help="profile the built-in smoke workload and write JSONL"
    )
    p_record.add_argument("--out", required=True, metavar="PATH",
                          help="samples JSONL output path")
    p_record.add_argument("--hz", type=float, default=DEFAULT_HZ)
    p_record.add_argument("--seconds", type=float, default=2.0,
                          help="workload duration")
    p_record.add_argument("--domain", type=int, default=1 << 12)
    p_record.add_argument("--elements", type=int, default=20_000)
    p_record.add_argument("--seed", type=int, default=7)

    p_top = sub.add_parser("top", help="hottest-frames report of a JSONL profile")
    p_top.add_argument("profile", help="JSONL profile file")
    p_top.add_argument("--limit", type=int, default=20)

    p_convert = sub.add_parser(
        "convert", help="convert a JSONL profile to collapsed stacks or speedscope"
    )
    p_convert.add_argument("profile", help="JSONL profile file")
    p_convert.add_argument("out", help="output path")
    p_convert.add_argument(
        "--format",
        choices=("collapsed", "speedscope"),
        default=None,
        help="output format (default: speedscope for *.json, else collapsed)",
    )

    p_selfcheck = sub.add_parser(
        "selfcheck", help="end-to-end check of span attribution and exporters"
    )
    p_selfcheck.add_argument("--hz", type=float, default=250.0,
                             help="sampling rate during the smoke run")
    p_selfcheck.add_argument("--seconds", type=float, default=30.0,
                             help="max smoke-run duration (exits early once attributed)")
    p_selfcheck.add_argument("--domain", type=int, default=1 << 12)
    p_selfcheck.add_argument("--elements", type=int, default=20_000)
    p_selfcheck.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    if args.command == "record":
        return _record(args)
    if args.command == "top":
        return _top(args)
    if args.command == "convert":
        return _convert(args)
    return _selfcheck(args)


if __name__ == "__main__":
    sys.exit(main())

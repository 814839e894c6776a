"""Jumping-window synopses: join aggregates over the last ``W`` epochs.

Many of the paper's motivating applications (§1: SNMP polling rounds, CDR
batches) care about *recent* traffic, not the whole stream — the classic
sliding-window setting of Datar et al. [12], which the paper lists as
related work.  Because every sketch in this library is a **linear
projection**, windowing needs no new estimator theory: maintain one
sub-sketch per epoch in a ring of ``window_epochs`` buckets, and the
window synopsis is simply the *sum* of the live epochs' sketches (a
"jumping" window with epoch granularity).  Expiring an epoch is exact —
its sketch is dropped, not approximated — so windowed join estimates have
exactly the accuracy of an ordinary sketch over the window's content.

Space cost is ``window_epochs`` times one sketch, the standard trade for
epoch-granular expiry.

Example::

    schema = WindowedSketchSchema(width=128, depth=7, domain_size=1 << 16,
                                  window_epochs=12, seed=1)
    f, g = schema.create_sketch(), schema.create_sketch()
    ... feed updates; call f.advance_epoch() / g.advance_epoch() on each
        clock tick (both streams must tick together) ...
    estimate = f.est_join_size(g)     # join over the last 12 epochs only
"""

from __future__ import annotations

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..sketches.base import StreamSynopsis, ingest_checked, ingest_checked_one
from ..sketches.hash_sketch import HashSketch, HashSketchSchema


class WindowedSketchSchema:
    """Shared randomness/shape for join-compatible windowed sketches.

    Every epoch's sub-sketch uses the *same* hash/sign families (they
    summarise disjoint substreams of one stream), so the ring collapses to
    a single sketch by counter addition.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        domain_size: int,
        window_epochs: int,
        seed: int = 0,
    ):
        if window_epochs < 1:
            raise ParameterError(f"window_epochs must be >= 1, got {window_epochs}")
        self.window_epochs = window_epochs
        self.inner = HashSketchSchema(width, depth, domain_size, seed=seed)

    @property
    def width(self) -> int:
        """Buckets per table of each epoch sub-sketch."""
        return self.inner.width

    @property
    def depth(self) -> int:
        """Tables per epoch sub-sketch."""
        return self.inner.depth

    @property
    def domain_size(self) -> int:
        """Stream value domain."""
        return self.inner.domain_size

    def create_sketch(self) -> "WindowedSketch":
        """A fresh empty windowed sketch bound to this schema."""
        return WindowedSketch(self)

    def is_compatible(self, other: "WindowedSketchSchema") -> bool:
        """True if sketches from ``other`` may be combined with ours."""
        return (
            self.window_epochs == other.window_epochs
            and self.inner.is_compatible(other.inner)
        )

    def __repr__(self) -> str:
        return (
            f"WindowedSketchSchema(width={self.width}, depth={self.depth}, "
            f"domain_size={self.domain_size}, window_epochs={self.window_epochs})"
        )


class WindowedSketch(StreamSynopsis):
    """Hash sketch over the most recent ``window_epochs`` epochs of a stream."""

    def __init__(self, schema: WindowedSketchSchema):
        self._schema = schema
        self._ring: list[HashSketch] = [schema.inner.create_sketch()]
        self._epochs_seen = 1

    # -- synopsis contract ---------------------------------------------------

    @property
    def schema(self) -> WindowedSketchSchema:
        """The schema (shared randomness and window length) of this sketch."""
        return self._schema

    @property
    def domain_size(self) -> int:
        """Size of the integer value domain this synopsis covers."""
        return self._schema.domain_size

    @property
    def current_epoch(self) -> int:
        """Index of the epoch currently receiving updates (0-based)."""
        return self._epochs_seen - 1

    @property
    def live_epochs(self) -> int:
        """Number of epochs currently contributing to the window."""
        return len(self._ring)

    def update(self, value: int, weight: float = 1.0) -> None:
        mass = ingest_checked_one(value, weight, self.domain_size, self._window_mass())
        self._ring[-1]._ingest_one(value, weight, mass)

    def update_bulk(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        self._ring[-1]._ingest(
            *ingest_checked(values, weights, self.domain_size, self._window_mass())
        )

    def _window_mass(self) -> float:
        """Tracked ``sum |weight|`` of the live window: the sketch
        :meth:`window_sketch` merges must stay under the 2**53 ceiling."""
        return sum(epoch.absolute_mass for epoch in self._ring)

    def size_in_counters(self) -> int:
        # The ring always provisions the full window's epochs worth of space.
        return self._schema.window_epochs * (
            self._schema.width * self._schema.depth
        )

    def seed_words(self) -> int:
        # Every epoch shares the schema's families: count one live epoch's.
        return self._ring[-1].seed_words()

    # -- window control -------------------------------------------------------

    def advance_epoch(self) -> None:
        """Close the current epoch and start a new one.

        If the ring is full, the oldest epoch's sub-sketch is dropped —
        its contribution leaves the window *exactly* (no decay error).
        """
        self._ring.append(self._schema.inner.create_sketch())
        if len(self._ring) > self._schema.window_epochs:
            self._ring.pop(0)
        self._epochs_seen += 1

    def window_sketch(self) -> HashSketch:
        """The live window collapsed into a single ordinary hash sketch.

        All epoch sub-sketches share one schema, so their counter-wise sum
        is the sketch of the concatenated window content; every ordinary
        estimator (point, join, self-join, skim) applies to the result.
        """
        collapsed = self._ring[0].copy()
        for epoch_sketch in self._ring[1:]:
            collapsed = collapsed.merged_with(epoch_sketch)
        return collapsed

    # -- estimation -------------------------------------------------------------

    def est_join_size(self, other: "WindowedSketch") -> float:
        """Estimated ``COUNT(F_window join G_window)``.

        Both windows must be aligned (same number of epoch advances); an
        estimate across misaligned windows would silently compare
        different time ranges, so it is rejected.
        """
        self._check_compatible(other)
        return self.window_sketch().est_join_size(other.window_sketch())

    def est_self_join_size(self) -> float:
        """Estimated second moment of the window's content."""
        return self.window_sketch().est_self_join_size()

    def point_estimate(self, value: int) -> float:
        """Estimated frequency of ``value`` within the window."""
        return self.window_sketch().point_estimate(value)

    def _check_compatible(self, other: "WindowedSketch") -> None:
        if not isinstance(other, WindowedSketch):
            raise IncompatibleSketchError(
                f"cannot combine WindowedSketch with {type(other).__name__}"
            )
        if other._schema is not self._schema and not self._schema.is_compatible(
            other._schema
        ):
            raise IncompatibleSketchError(
                "windowed sketches come from different schemas"
            )
        if other._epochs_seen != self._epochs_seen:
            raise IncompatibleSketchError(
                f"window misalignment: {self._epochs_seen} vs "
                f"{other._epochs_seen} epochs seen — advance both streams' "
                "epochs together"
            )

    def __repr__(self) -> str:
        return (
            f"WindowedSketch(width={self._schema.width}, "
            f"depth={self._schema.depth}, "
            f"epochs={self.live_epochs}/{self._schema.window_epochs})"
        )

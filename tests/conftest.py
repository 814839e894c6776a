"""Shared fixtures for the test suite.

Conventions: every randomised test pins its seed; statistical assertions
use generous tolerances chosen so that the pinned seeds pass with a wide
margin (they check *behaviour*, not luck).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.monitor import AUDIT
from repro.obs import METRICS
from repro.profile import PROFILER
from repro.streams.generators import shifted_zipf_pair, zipf_frequencies
from repro.streams.model import FrequencyVector
from repro.trace import TRACER

SMALL_DOMAIN = 256
MEDIUM_DOMAIN = 4096


def _reset_observability():
    METRICS.disable()
    METRICS.reset()
    TRACER.disable()
    TRACER.reset()
    AUDIT.disable()
    AUDIT.reset()
    PROFILER.stop()  # joins the sampling thread if a test left it running
    PROFILER.disable()
    PROFILER.reset()


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Keep the global metrics registry, tracer, audit log and profiler
    disabled and empty between tests."""
    _reset_observability()
    yield
    _reset_observability()


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def skewed_pair() -> tuple[FrequencyVector, FrequencyVector]:
    """A deterministic moderately-skewed workload (Zipf 1.0, shift 20)."""
    return shifted_zipf_pair(MEDIUM_DOMAIN, 100_000, 1.0, 20)


@pytest.fixture
def very_skewed_pair() -> tuple[FrequencyVector, FrequencyVector]:
    """A deterministic highly-skewed workload (Zipf 1.5, shift 5)."""
    return shifted_zipf_pair(MEDIUM_DOMAIN, 100_000, 1.5, 5)


@pytest.fixture
def small_zipf() -> FrequencyVector:
    """A small deterministic Zipf stream for cheap tests."""
    return zipf_frequencies(SMALL_DOMAIN, 10_000, 1.2)

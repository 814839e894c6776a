"""Smoke tests: the fast example scripts run end to end and talk sense.

Every example runs in ``make examples`` (part of ``make check`` and of
CI's test job); the two quick ones also run here so a broken public API
surfaces in the unit suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "skimmed-sketch answer" in out
    assert "sub-join decomposition" in out


@pytest.mark.slow
def test_sensor_window_runs():
    out = run_example("sensor_window.py")
    assert "windowed join estimate" in out
    # The final windowed estimate must have collapsed far below the
    # whole-stream one (the front filled the window).
    lines = [l for l in out.splitlines() if l.strip().startswith("9 ")]
    assert lines, out
    windowed, whole = lines[0].split("|")[1:3]
    assert float(windowed.replace(",", "")) < 0.02 * float(
        whole.replace(",", "")
    )

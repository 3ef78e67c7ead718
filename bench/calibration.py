"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the same pure-Python work can run 1.4-1.7x
slower for minutes at a time, whenever a neighbour keeps the physical core
busy; CPU time slows with wall time, so the process cannot tell.  Ten
20-second runs of one workload then spread by 0.36 (IQR over median) while
the program did identical work in each.

``HostSpeed`` times a fixed loop, part of the benchmark and independent of
the program, right before and after each measurement, and converts the
measured wall time to the speed at which one round of that loop takes
``REFERENCE_S``.  The loop does what the program does most: normalizes
and indexes strings, adds Fractions, sorts tuples and writes JSON.  On the
same ten runs the converted times spread by 0.05.
"""

from __future__ import annotations

import json
import statistics
import unicodedata
from fractions import Fraction
from time import perf_counter

# one round on a 2-vCPU Xeon virtual machine with Python 3.11.7, when no
# neighbour was busy; converted times read as wall times on that host
REFERENCE_S = 0.00075
ROUNDS = 64  # about 50 ms per calibration

_WORDS = [f"Term {i} Ébène  {'x' * (i % 5)}" for i in range(150)]


def _round() -> int:
    index: dict[str, list[str]] = {}
    for word in _WORDS:
        key = " ".join(unicodedata.normalize("NFC", word).casefold().split())
        index.setdefault(key, []).append(word)
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i % 7, i)
    keys = list(index)[:40]
    pairs = sorted((a, b) for a in keys for b in keys if a < b)
    return len(json.dumps(pairs)) + total.numerator % 7


def round_seconds() -> float:
    """Median wall time of one calibration round, over ``ROUNDS`` rounds."""
    times = []
    for _ in range(ROUNDS):
        start = perf_counter()
        _round()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Converts wall times measured between two calibrations to reference speed."""

    def __init__(self):
        self._last = round_seconds()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        """Call right after a measurement: ``seconds`` at reference speed."""
        now = round_seconds()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return seconds * factor

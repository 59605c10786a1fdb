"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of a core changes by 20-40% within seconds, as
other tenants load it, and every piece of Python code slows down together.
A fixed interpreter loop timed next to each operation tracks that speed:
measured on a 2-core shared host, 2-second medians of an enumeration call
spread 0.39 (interquartile range over median), while the same calls
divided by the adjacent loop times spread 0.03.

The benchmark therefore reports each timing scaled to a host on which one
calibration sample takes NOMINAL_S seconds: scaled = raw * NOMINAL_S /
sample, with the mean of the samples just before and after the timed
work.  Operations that are whole processes (the CLI) are scaled the same
way by the start-up time of a bare interpreter instead, nominally
NOMINAL_PROCESS_S, because process start-up does not slow down in step
with the loop.  The references are the benchmark's own code and the bare
interpreter, so no change to the package can move them.
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_S = 0.002
NOMINAL_PROCESS_S = 0.040
EVERY_S = 0.02  # take a new sample after at least this much timed work


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _loop() -> int:
    table: dict[int, tuple] = {}
    total = 0
    for i in range(6000):
        cell = _Cell(i)
        row = (cell.value, i + 1, i * 3)
        table[i & 255] = row
        total += row[1] * row[2] % 7
    return total


def sample(repeats: int = 1) -> float:
    """Seconds for one run of the loop; the fastest of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """Multiplier that scales a time taken between two samples to the nominal host."""
    return nominal / ((before + after) / 2)


def process_sample(env: dict) -> float:
    """Seconds to start and end a bare interpreter, the reference for
    operations that are whole processes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - start

"""A host-speed reference for the benchmark's timings.

The benchmark was built on a shared virtual machine whose CPU speed drifts
by up to 2x, over seconds and over minutes, with other tenants' load.  Taking
each request at its fastest pass removes the short swings but not a slow
spell that lasts through a whole run.  So the worker also times a fixed
pure-Python reference loop between consecutive requests and set-up steps,
and scales each measured time by

    REFERENCE_S / (mean of the reference times just before and just after)

The loop does the kind of work the program does (calls, tuples, integer and
`Fraction` arithmetic) and uses no code of the program, so a change to the
program moves the scaled times as it moves the raw ones.  A scaled time reads
as the time at the host speed where the loop takes REFERENCE_S, which is
about this host's fast state.  The loop runs with the garbage collector off,
so a program that leaves a large heap behind does not slow it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0002
REPEATS = 3


def _pair(a: int, b: int, c: int) -> tuple[int, int]:
    return a * b - c, a + b


def _loop() -> None:
    x = Fraction(1, 3)
    for i in range(1, 25):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 4)
    s = 0
    for i in range(600):
        a, b = _pair(i, i + 1, s & 1023)
        s = a + b


def reference_time() -> float:
    """The fastest of REPEATS back-to-back runs of the loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Scales each interval between two reference readings to REFERENCE_S."""

    def __init__(self):
        self.previous = reference_time()

    def scale(self, seconds: float) -> float:
        """Time a reference reading now and scale `seconds`, measured since the last one."""
        now = reference_time()
        factor = REFERENCE_S / ((self.previous + now) / 2)
        self.previous = now
        return seconds * factor

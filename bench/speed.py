"""Timing at a reference machine speed.

The machine the benchmark was tuned on is a shared two-core VM whose
speed changes by up to 1.6 times within seconds and drifts over minutes,
so raw times of one workload taken minutes apart differ by more than a
regression bound.  A short burst of fixed pure-Python work that does not
touch ccmix runs after every timed call, and each call's time is also
given in *reference seconds*: its raw time scaled by REFERENCE_S over the
median of the bursts nearest to it, i.e. its time on a machine where one
burst takes REFERENCE_S.  The window of SCALE_WINDOW bursts on each side
follows the machine's state for calls of a few milliseconds and spans
most of a run for calls of a second, where one burst says little about
the state during the call.
"""

from __future__ import annotations

import statistics
import time

# Nominal time of one reference burst; about its time on the tuning
# machine in its usual (slow) state, so reference and raw times are close.
REFERENCE_S = 2.0e-3
SCALE_WINDOW = 10


def reference_burst() -> float:
    """Time one burst of fixed pure-Python work (integer loop, dict, sort)."""
    t0 = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(4000):
            total += (i * 7) % 13
        table: dict[int, float] = {}
        for i in range(500):
            table[i % 50] = table.get(i % 50, 0.0) + float(i)
        sorted(table.values())
    return time.perf_counter() - t0


class SpeedClock:
    """Times calls and follows each with a reference burst."""

    def __init__(self):
        self.bursts = [reference_burst()]

    def time(self, fn) -> float:
        """Call ``fn()`` and return the seconds it took."""
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            seconds = time.perf_counter() - t0
            self.bursts.append(reference_burst())
        return seconds

    def calls(self) -> int:
        return len(self.bursts) - 1

    def scale(self, call: int) -> float:
        """Reference seconds per second around timed call number ``call``
        (counted from 0), which lies between bursts ``call`` and ``call + 1``."""
        lo = max(0, call + 1 - SCALE_WINDOW)
        return REFERENCE_S / statistics.median(self.bursts[lo : call + 1 + SCALE_WINDOW])

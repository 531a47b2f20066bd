"""Processor-speed calibration for the benchmark's timings.

On a shared host the speed of one thread swings within seconds: on a
2-core x86-64 host a fixed pure-Python loop took 25 ms in some phases and
35 ms in others, and bigsos operations tracked it.  So every timing is
taken as the thread's CPU time and rescaled by a fixed calibration loop
timed right before and right after it:

    reported = cpu_s * (REFERENCE_S / calibration_s) ** SPEED_EXPONENT

The program gains less than the calibration loop from the host's fast
phases.  On that host, least squares on logs over some 200 operations of
two fixed kinds (`laws`, `equiv --rel sim`) gave exponents of 0.67 to 0.72,
a slope the calibration's own noise biases low; comparing whole 30-second
runs made in fast and in slow phases gave about 0.7 for closure-tower and
0.9 for grow-and-lift.  SPEED_EXPONENT is 0.8, between them.  A change to the program moves the reported figures as it
moves CPU time; a change of the host's speed moves the calibration loop as
well and mostly cancels out.
"""

from __future__ import annotations

import gc
import time

CALIBRATION_ITERATIONS = 6000
REFERENCE_S = 0.0065  # about the loop's usual time on the 2-core host above
SPEED_EXPONENT = 0.8


def _calibration_loop(n: int) -> int:
    """Dict, set, tuple and frozenset work, like the program's inner loops."""
    seen: dict = {}
    sets: set = set()
    for i in range(n):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        sets.add(frozenset((i % 13, i % 7)))
    return len(seen) + len(sets)


def calibration_s() -> float:
    """Thread CPU seconds of one pass of the calibration loop.

    The garbage collector is off during the pass: a collection of the
    program's objects would otherwise land in it now and then.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _calibration_loop(CALIBRATION_ITERATIONS)
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(before_s: float, after_s: float) -> float:
    """The factor for a time taken between two calibration passes."""
    return (REFERENCE_S / ((before_s + after_s) / 2)) ** SPEED_EXPONENT


class Scaler:
    """Rescales CPU times to reference seconds.

    Call scale(cpu_s) right after each timed call: it runs the calibration
    loop once and scales by the mean of that pass and the one before.
    """

    def __init__(self):
        calibration_s()  # warm-up
        self.last = calibration_s()
        self.samples = [self.last]

    def scale(self, cpu_s: float) -> float:
        now = calibration_s()
        factor = speed_factor(self.last, now)
        self.last = now
        self.samples.append(now)
        return cpu_s * factor

"""How fast the host ran a pass, sampled on the pass's own CPU.

The benchmark shares its host with other machines' work, and a core's
speed changes by up to a factor of two within seconds: a fixed
pure-Python loop took from 0.35 to 0.85 ms within one pass.  Process
CPU time stays equal to wall time, and the two cores drift
independently, so neither CPU time nor a second core can stand in for
the speed of the core a pass runs on.  So a pass measures its own
host speed as it goes: every :data:`PERIOD_S` a timer signal
interrupts the pass's main thread, which times
:data:`LOOP_ITERATIONS` turns of a fixed loop.  A sample's *speed* is
:data:`REFERENCE_LOOP_S` over its loop time.  The *slowdown* over an
interval is one over the mean speed of the samples taken in it, the
fastest and slowest :data:`TRIM` of them left out: the host's speed is
multimodal within a pass, and a mean follows the share of time spent
in each mode where a median jumps between them.  The benchmark reports
each time divided by the slowdown over the interval it timed: seconds
at the reference speed.

The loop does the same work on every commit, so a change to the
program moves the reported times and leaves the slowdown where it was.
The handler runs between bytecodes, so a long C call delays the next
sample but is not cut into.
"""

from __future__ import annotations

import math
import signal
import time
from typing import List, Tuple

#: Seconds between two samples.
PERIOD_S = 0.05
#: Turns of the sampled loop (about half a millisecond).
LOOP_ITERATIONS = 5000
#: Seconds the loop takes at the reference speed.
REFERENCE_LOOP_S = 0.0005
#: Share of samples left out at each end when averaging speeds.
TRIM = 0.1


def reference_loop() -> int:
    """The fixed work one sample times."""
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


class Sampler:
    """Samples the loop time from a ``SIGALRM`` interval timer.

    ``samples`` holds ``(monotonic start, seconds)`` pairs.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        clock = time.perf_counter()
        reference_loop()
        self.samples.append((started, time.perf_counter() - clock))

    def _times(self, since: float, until: float) -> List[float]:
        return [seconds for at, seconds in self.samples if since <= at <= until]

    def cost_s(self, since: float = -math.inf, until: float = math.inf) -> float:
        """Seconds the samples taken in ``[since, until]`` cost."""
        return sum(self._times(since, until))

    def slowdown(self, since: float = -math.inf, until: float = math.inf) -> float:
        """One over the trimmed mean speed of the samples taken in
        ``[since, until]``, or of all samples when none was; 1.0
        without samples."""
        times = self._times(since, until) or self._times(-math.inf, math.inf)
        if not times:
            return 1.0
        speeds = sorted(REFERENCE_LOOP_S / seconds for seconds in times)
        cut = int(len(speeds) * TRIM)
        kept = speeds[cut:len(speeds) - cut]
        return len(kept) / sum(kept)

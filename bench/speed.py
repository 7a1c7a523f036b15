"""Machine speed meter: a fixed pure-Python loop, timed every 20 ms.

The reference machine is a shared VM whose speed switches between a fast and
a slow state (about 1.5x apart) for seconds to minutes at a time, so the raw
time of one workload body depends on when it ran.  While a body runs, a
SIGALRM handler times ``reference_loop`` every ``INTERVAL_S``; the median of
those times over ``NOMINAL_S`` is the slowdown the body met.  A body's time
divided by its slowdown is the time it would have taken at nominal speed.  A
change to the program moves the body's time but not the loop's, so it moves
the corrected time by the same share.

The handler runs between bytecodes of the main thread: a long call into C
(a BLAS ``eigh``) delays it.  Its own time is counted and subtracted.

The correction is partial.  Against this loop's slowdown, the
interpreter-bound workloads slowed by about its 1.3th power and the
BLAS-bound ``oracle`` by about its 0.6th.  A loop that allocates tracked the
former more closely, but its time also depends on how much of the cache the
program itself fills, so a change to the program would move the meter.  This
loop stays in the first-level cache and allocates nothing.
Only the standard library's ``signal`` and ``time`` are imported, so the
meter can run from the start of a set-up it measures.
"""

from __future__ import annotations

import signal
import time

#: ``reference_loop`` at the reference machine's fast speed (2-core VM,
#: CPython 3.11, the first percentile of 20 000 timings)
NOMINAL_S = 2.3e-4
INTERVAL_S = 0.02
#: samples taken right after a body, so every body has some
AFTER_SAMPLES = 5
#: samples taken right after set-up
SETUP_SAMPLES = 25


def reference_loop() -> int:
    total = 0
    for i in range(4000):
        total += i * i
    return total


class SpeedMeter:
    """Times ``reference_loop`` every ``INTERVAL_S`` inside a ``with``."""

    def __init__(self):
        self.samples: list[float] = []
        #: seconds the handler took from the span inside the ``with``
        self.overhead_s = 0.0
        self._previous = None

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedMeter:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.overhead_s = sum(self.samples)

    def slowdown(self, extra: int = AFTER_SAMPLES) -> float:
        """Median loop time over its nominal time, after ``extra`` more samples."""
        for _ in range(extra):
            self.sample()
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else 0.5 * (ordered[mid - 1] + ordered[mid]))
        return median / NOMINAL_S

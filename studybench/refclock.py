"""A clock in reference seconds: wall time corrected for the speed of the core.

A shared host runs a process fast or up to 1.8 times slower, in phases
that last from seconds to minutes, and code that is mostly Python calls
slows most.  A raw wall-clock time then measures the phase as much as the
program.  This clock interleaves a small fixed pure-Python kernel with the
program, on the same thread: a SIGALRM timer runs the kernel every PERIOD_S
seconds.  The time the kernel takes says how fast the core runs just then.

`now()` is the work clock: wall time minus the time spent in the kernel, so
the program's own timings exclude it.  `reference(t)` maps a work-clock
reading to reference seconds: each stretch of work between two kernel runs
is scaled by REF_KERNEL_S over the kernel's local time (the median of
SMOOTH runs around it).  A second of work reads as one reference second
when the kernel takes REF_KERNEL_S, about the slow phase of a shared 2-core
x86-64 machine (Python 3.11), and as less on a faster core.  The program's
speed relative to the kernel is what the reference clock measures, so a
change that makes the program faster reads as faster in any phase.

Differences of `reference` readings are durations in reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.04          # between kernel runs, in wall time
KERNEL_LOOPS = 4000      # about 0.45 ms, 1% of the period
REF_KERNEL_S = 0.45e-3   # kernel time that makes a work second a reference second
SMOOTH = 9               # kernel runs in the median that sets a stretch's speed


def kernel(loops=KERNEL_LOOPS):
    """Fixed interpreter work: indexing, multiply, modulo, accumulate."""
    acc = 0
    table = list(range(64))
    for i in range(loops):
        acc += table[i & 63] * i % 7
    return acc


class ReferenceClock:
    """Work clock plus the kernel runs that convert it to reference seconds."""

    def __init__(self, perf=time.perf_counter):
        self.perf = perf
        self.paused = 0.0     # wall seconds spent in the kernel
        self.marks = []       # work-clock reading at each kernel run
        self.kernel_s = []    # the kernel's time at that run
        self._cum = None

    def now(self):
        return self.perf() - self.paused

    def calibrate(self, *_signal_args):
        start = self.perf()
        kernel()
        took = self.perf() - start
        self.marks.append(start - self.paused)
        self.kernel_s.append(took)
        self.paused += self.perf() - start
        self._cum = None

    def start(self):
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _rates(self):
        """Reference seconds per work second, one per kernel run."""
        half = SMOOTH // 2
        ks = self.kernel_s
        return [REF_KERNEL_S / statistics.median(ks[max(0, i - half):i + half + 1])
                for i in range(len(ks))]

    def reference(self, t):
        """Reference seconds from the first kernel run to work-clock reading t.

        The stretch before mark i runs at rate i; readings before the first
        mark or after the last use the nearest rate.  With no kernel run yet
        the reading is returned unscaled.
        """
        if not self.marks:
            return t
        if self._cum is None:
            rates = self._rates()
            cum = [0.0]
            for i in range(1, len(self.marks)):
                cum.append(cum[-1] + rates[i] * (self.marks[i] - self.marks[i - 1]))
            self._cum = (rates, cum)
        rates, cum = self._cum
        i = bisect.bisect_right(self.marks, t)
        if i == 0:
            return rates[0] * (t - self.marks[0])
        return cum[i - 1] + rates[min(i, len(rates) - 1)] * (t - self.marks[i - 1])

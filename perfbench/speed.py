"""Host-speed calibration for item times taken on a shared machine.

On a shared 2-CPU sandbox the CPU's speed drifts by ±25 % and more over
seconds to minutes: the means of a fixed kernel over 15-s windows had an
IQR of 0.26 of their median, and process CPU time drifted with wall time,
so longer runs do not average it away.  While items run, a timer signal
interrupts the benchmark every INTERVAL_S to time a fixed probe kernel.
Each item's time, minus the probes that ran inside it, is scaled by
NOMINAL_PROBE_S / (median probe time around the item).  Item times are thus
reported in reference seconds: how long the work takes when the probe runs
in NOMINAL_PROBE_S.  A change that makes lgmirror faster or slower moves
them; a host that runs everything slower moves them much less.  Raw wall
times are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Probe time on a 2-CPU sandbox at a typical moment; only ratios to it matter.
NOMINAL_PROBE_S = 0.0014
INTERVAL_S = 0.05


def probe_kernel() -> Fraction:
    """Fraction and dict work, the instruction mix of lgmirror's core."""
    s = Fraction(0)
    seen = {}
    for i in range(1, 300):
        s += Fraction(i % 7 + 1, i % 97 + 1)
        seen[(i, i % 13)] = s
    return s


class SpeedProbe:
    """Probe timings taken while items run, and the scale they imply.

    Use as a context manager: inside it, SIGALRM fires every INTERVAL_S
    seconds and its handler runs the probe kernel in the main thread.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe        # called with each probe's duration
        self.starts: list[float] = []   # clock reading when each probe began
        self.values: list[float] = []   # probe duration
        self._previous = None

    def measure(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.starts.append(t0)
        self.values.append(time.perf_counter() - t0)
        if self.on_probe is not None:
            self.on_probe(self.values[-1])

    def __enter__(self) -> "SpeedProbe":
        self.measure()
        self._previous = signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.measure()

    def inside(self, start: float, end: float) -> float:
        """Total probe time that ran within [start, end]."""
        i, j = bisect_left(self.starts, start), bisect_right(self.starts, end)
        return sum(self.values[i:j])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second for work done in [start, end].

        Takes the median of the probes that began within one interval of
        the span, which discounts a probe that an interrupt lengthened.
        """
        i = bisect_left(self.starts, start - INTERVAL_S)
        j = bisect_right(self.starts, end + INTERVAL_S)
        if i == j:  # a long C call held the signal off: nearest probes
            i, j = max(i - 1, 0), min(j + 1, len(self.values))
        return NOMINAL_PROBE_S / statistics.median(self.values[i:j])

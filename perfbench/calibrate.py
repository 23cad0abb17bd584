"""Machine-speed probe, so timings hold steady on a shared host.

On a shared virtual machine the speed of a core drifts by +-25% over
seconds as other tenants come and go.  :class:`SpeedProbe` times a
fixed pure-Python kernel from a side thread every :data:`PERIOD`
seconds, in the thread's own CPU time so that waiting for the GIL does
not count.  :meth:`SpeedProbe.scale` turns a raw
interval into reference-machine seconds: raw seconds times
:data:`REFERENCE_S` over the mean probe time measured while that
interval ran (the interval's duration integrates the core's slowness,
which the mean of evenly spaced samples estimates).  The probe needs the GIL for about a millisecond per
sample, about 1% of one core.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD = 0.1
# Probe time of the reference machine: a probe that takes this long
# leaves a timing unchanged.
REFERENCE_S = 1.0e-3
# An interval shorter than this is calibrated from the samples taken
# within half of it on either side.
MIN_WINDOW = 1.0
_KERNEL_N = 6_000


def _kernel():
    s = 0
    for i in range(_KERNEL_N):
        s += i * i ^ (s >> 7)
    return s


class SpeedProbe:
    """Sample the kernel's duration from a daemon thread until :meth:`stop`."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.times = []      # sample midpoints, increasing
        self.seconds = []    # kernel duration of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-probe")

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            t0 = time.perf_counter()
            c0 = time.thread_time()
            _kernel()
            c1 = time.thread_time()
            t1 = time.perf_counter()
            # seconds first: a reader bisecting ``times`` never finds a
            # sample whose duration is missing.
            self.seconds.append(c1 - c0)
            self.times.append((t0 + t1) / 2)
            if self._stop.wait(self.period):
                return

    def probe_s(self, start, end):
        """Mean probe time over ``[start, end]``, widened to
        :data:`MIN_WINDOW` around its middle when shorter."""
        if end - start < MIN_WINDOW:
            mid = (start + end) / 2
            start, end = mid - MIN_WINDOW / 2, mid + MIN_WINDOW / 2
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi <= lo:  # no sample in the window: use the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return statistics.fmean(self.seconds[lo:hi])

    def scale(self, start, end):
        """Reference-machine seconds of the interval ``[start, end]``."""
        return (end - start) * REFERENCE_S / self.probe_s(start, end)

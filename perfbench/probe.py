"""Machine-speed probe: scales measured times to a nominal machine speed.

On a shared host the same work runs up to 1.6x slower in spells of
milliseconds to minutes, and the slowdown shows in CPU time as well as wall
time, so timing CPU only does not remove it.  A small fixed probe - a numpy
contraction of the apply layer's shapes, a vectorised scipy special
function and an interpreter loop - slows down with it.  While a workload
runs, a timer signal runs the probe every PERIOD_S seconds, twice in a row
so that the timed second run finds its data in cache.  An operation's time,
less the probing inside it, is scaled by NOMINAL_S over the mean probe time
around it.  Measured on a 2-vCPU KVM guest over two sets of ten runs per
workload, the interquartile spread of pass time was 10-50% of the median
raw and 1-5% scaled, and the raw medians of the two sets differed by up to
33% (warm-vector-apply) where the scaled ones differed by at most 3.5%.

The probe is fixed benchmark code that does not call semireg, so a change
to semireg moves the scaled times and leaves the probe alone.  Raw times
are kept next to the scaled ones in the result record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.special

# median probe time at nominal speed: its fast-phase value on the 2-vCPU
# x86-64 KVM guest (Xeon, AVX-512) the benchmark was calibrated on
NOMINAL_S = 0.003
PERIOD_S = 0.1
# an operation is scaled by at least this many probes nearest to it
NEAREST = 5


class SpeedProbe:
    """Samples the probe on a timer; converts raw operation times to nominal."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64))
        self.b = rng.standard_normal((48, 64, 4))
        self.z = rng.uniform(0.1, 50.0, 2000)
        self.starts = []  # probe start times, increasing
        self.ends = []
        self.times = []  # durations of the timed second runs
        self._previous = None
        self._busy = False

    def _kernel(self):
        np.einsum("xy,tyf->txf", self.a, self.b)
        scipy.special.ive(1.0, self.z)
        acc = 0
        for i in range(3000):
            acc += i * i

    def _once(self):
        if self._busy:  # a timer tick during a probe: skip, keep the lists sorted
            return
        self._busy = True
        start = time.perf_counter()
        # the first run refills the caches the workload evicted; the second,
        # timed one then measures speed rather than the workload's footprint
        self._kernel()
        mid = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - mid)
        self._busy = False

    def _tick(self, signum, frame):
        self._once()

    def __enter__(self):
        self._kernel()  # first calls carry one-time costs
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, count: int):
        """Run the probe count times now (outside any timed operation)."""
        for _ in range(count):
            self._once()

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing, both runs, that fell inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean probe time during [start, end], widened
        to the NEAREST probes when fewer ran inside it.  The mean, not the
        median: slow spells are short bursts, and the work inside the window
        pays for each of them in proportion to its length."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi >= len(self.times)
                           or start - self.ends[lo - 1] <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.fmean(self.times[lo:hi])

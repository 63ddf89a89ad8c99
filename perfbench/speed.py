"""Host speed sampled during a run, to put times on a fixed speed scale.

The benchmark runs on a shared host whose speed for identical work moves
by up to 1.7x within seconds, so raw times of one program spread more
between runs than any change worth detecting.  A :class:`Speedometer`
runs a short, fixed pure-Python probe twice from a timer signal every
``INTERVAL_S`` seconds, in the measuring thread itself, while operations
run, and times the second run.  An interval's time is then scaled by
``REF_PROBE_S`` over the median probe time from ``MARGIN_S`` before to
``MARGIN_S`` after the interval: the seconds the same work takes when the
probe takes ``REF_PROBE_S``.  The probes' own time, ``stolen``, is taken
out of every measured interval by the caller.

The probe uses none of the package's code, so a change to the package
moves a scaled time exactly as it moves the raw time at a steady speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
# The probe's time at the reference speed: about its median on a 2-core
# Intel Xeon VM (Python 3.11), so scaled times read close to raw ones there.
REF_PROBE_S = 115e-6
# The probes up to MARGIN_S before and after an interval count for it: the
# host's speed drifts over seconds, and a probe reading is itself noisy.
MARGIN_S = 0.5


def _add(a: int, b: int) -> int:
    return a + b


def probe() -> int:
    """Fixed work in the style of the package: dict, set and list updates,
    integer arithmetic through calls, and a sort.  Mixing kinds of work
    keeps any one kind's sensitivity to memory layout from setting the
    reading."""
    counts: dict[int, int] = {}
    seen = set()
    order = []
    for i in range(200):
        key = i * 7 % 61
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
            order.append(key)
    x = 0
    for i in range(300):
        x = _add(x * 31, i) & 0xFFFF
    order.sort(reverse=True)
    pairs = sorted((key % 13, key) for key in counts)
    return x + len(order) + len(pairs)


class Speedometer:
    def __init__(self) -> None:
        self.times: list[float] = []  # probe midpoints, perf_counter seconds
        self.probes: list[float] = []  # probe durations
        self.stolen = 0.0  # total probe time so far

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # The first call refills the caches the measured code displaced;
        # only the second is timed.
        start = time.perf_counter()
        probe()
        begin = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.times.append((begin + end) / 2)
        self.probes.append(end - begin)
        self.stolen += end - start

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median probe time around the interval
        between two perf_counter readings; multiply a time measured in
        that interval by it."""
        times = self.times
        lo = bisect.bisect_left(times, start - MARGIN_S)
        hi = bisect.bisect_right(times, end + MARGIN_S)
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return REF_PROBE_S / statistics.median(self.probes[lo:hi])

"""Host speed, sampled while the benchmark runs.

The small shared machines this benchmark runs on switch between speed
phases that last seconds and differ by up to 2x, so raw wall times of
the same job vary by 25 to 65 percent between runs (interquartile range
over the median; 2-vCPU Xeon, Python 3.11.7).  A timer signal therefore
runs a fixed calibration round, stdlib Fraction arithmetic and no
hypergrid code, every ``TICK_S`` seconds in the measuring thread.

Jobs that may keep more than one core busy are timed in raw seconds
(``RawClock``) instead: a round run beside such a job is slowed by the
job's own load, which would shrink the job's reference time just where
a multi-core gain is claimed, and rounds run only between its jobs do
not track its speed (per-pass spread of a two-thread integrate job:
0.18 raw against 0.22 scaled by the rounds either side).

An interval's *reference time* counts each stretch between two samples
at the speed they measured: its length times ``REF_S`` over the mean of
their round times, leaving out the rounds themselves.  It is the time
the interval would take on a host where one round takes ``REF_S``.  The
rounds cost about 1% of a run.  Over ten runs per workload the spread
of the reported medians fell to 2 to 7 percent.
"""

import bisect
import signal
from fractions import Fraction
from time import perf_counter

TICK_S = 0.02
REF_S = 150e-6  # about one round on the 2-vCPU Xeon the benchmark was defined on


_OPERANDS = [Fraction(3**200 + i, 7**150 + 3 * i) for i in range(3)]


def calibration_round() -> Fraction:
    """The kinds of work hypergrid's exact layers do: Fraction sums of
    small terms, and products of operands of a few hundred bits."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(1, i)
    for q in _OPERANDS:
        acc += q * q
    return acc


class SpeedMeter:
    """Context manager: samples calibration rounds from SIGALRM while
    active; ``reference`` converts perf_counter intervals afterwards.
    Use from the main thread only."""

    def __init__(self):
        self.times = []
        self.costs = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        calibration_round()
        self.times.append(start)
        self.costs.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def reference(self, start: float, end: float) -> float:
        """Reference seconds in the interval [start, end], which must lie
        inside the meter's lifetime: each stretch between two samples
        counts at the speed the samples either side measured, minus the
        time the calibration rounds themselves took."""
        times, costs = self.times, self.costs
        total = 0.0
        k = max(0, bisect.bisect_right(times, start) - 1)
        while k + 1 < len(times) and times[k] < end:
            lo = max(start, times[k] + costs[k])
            hi = min(end, times[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * REF_S / (costs[k] + costs[k + 1])
            k += 1
        return total


class RawClock:
    """A SpeedMeter that samples nothing: reference time is wall time."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def reference(self, start: float, end: float) -> float:
        return end - start

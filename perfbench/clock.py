"""Host-speed calibrated timing.

On a shared host, the speed of one core drifts by 25 % or more over tens of
seconds, as neighbours load the sibling hyperthreads. The drift slows every
piece of code alike, this benchmark's own timers included. So while a run
measures, a timer signal runs a fixed pure-Python slice every INTERVAL_S.
The slice times show how fast the host was while the workload ran. A
measured time is then scaled to a host on which the slice takes
REFERENCE_SLICE_S ("reference seconds"). Time spent in the slices is taken
out of every measurement.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
# The slice counts the perfect matchings of the circulant graph C16(1, 2, 5)
# with a memo dict over vertex bitmasks. That is the kind of work matchcov
# does, in code of the benchmark's own, so no change to the program moves it.
_N = 16
_ADJ = tuple(sum(1 << ((v + d) % _N) for d in (1, 2, 5, _N - 1, _N - 2, _N - 5)) for v in range(_N))
# The slice time on a 2-core Intel Xeon VM in its fast state. It fixes the
# scale of reference seconds, not their precision.
REFERENCE_SLICE_S = 0.00035


def _slice() -> int:
    memo = {0: 1}

    def count(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        rest = mask ^ low
        total = 0
        cand = _ADJ[low.bit_length() - 1] & rest
        while cand:
            bit = cand & -cand
            cand ^= bit
            total += count(rest ^ bit)
        memo[mask] = total
        return total

    return count((1 << _N) - 1)


class HostClock:
    """Samples the host's speed from a timer signal while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _slice()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Seconds, less the time spent in calibration slices."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Factor from seconds to reference seconds, from the slices taken
        after mark `since` (or from all, if there are none yet).

        Slices come at even intervals, so the mean of 1 / slice time is the
        host's mean speed over the interval; a slice stretched by preemption
        barely moves it."""
        taken = self.samples[since:] or self.samples
        return REFERENCE_SLICE_S / statistics.harmonic_mean(taken)

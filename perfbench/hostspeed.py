"""How fast the host runs Python right now, sampled next to the workload.

The host is shared: other tenants' load makes the same interpreter work take
up to about 1.8 times as long, in phases that last from seconds to minutes,
and CPU time grows with wall time, so the process clock does not remove it.
The benchmark therefore times a fixed calibration mix next to every item and
reports item times at a fixed calibration speed:

    normalized seconds = busy seconds * CAL_NOMINAL_S / calibration seconds

The mix is the benchmark's own code and never calls the package, so a
faster package moves the item times and not the calibration. `Sampler`
takes a calibration sample from a timer signal every SAMPLE_S seconds while
a pass runs, plus one at each end; an item's calibration is the mean of the
samples taken during it, or of the nearest sample on each side when it is
shorter than the interval. Time spent in samples is taken out of the items.

The correction is as good as the workload slows like the mix does. Measured
on `campaign` and `certificate`, whose time is interpreter work, it brought
the spread of five runs from 0.35-0.49 of the median down to about 0.05; the
compiled kernel's share of `obstruction` may slow by another factor.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

# about one calibration sample's time on the development host (2 vCPUs,
# Python 3.11); it only sets the scale of the reported times
CAL_NOMINAL_S = 0.002
CAL_ROUNDS = 80  # about 2 ms a sample
SAMPLE_S = 0.1


def cal_mix(rounds: int = CAL_ROUNDS) -> int:
    """Interpreter work of the kinds the package does: integer bit masks,
    list and dict lookups, small tuples, calls."""
    rows = [(i * 2654435761) & 0xFFFF for i in range(64)]
    memo: dict[tuple[int, int], int] = {}
    acc = 0
    for r in range(rounds):
        for v in range(64):
            mask = rows[v] & ~(1 << (r & 15))
            low = mask & -mask
            key = (v, low)
            hit = memo.get(key)
            if hit is None:
                memo[key] = hit = low.bit_length()
            acc += hit
        if len(memo) > 512:
            memo.clear()
    return acc


def ref_loop_s() -> float:
    """A fixed pure-Python loop, timed to make host speed drift visible."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i & 7
    return time.perf_counter() - t0


class Sampler:
    """Calibration samples taken from SIGALRM while a pass runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that lands during a sample keeps the lists sorted
            return
        self._busy = True
        t0 = time.perf_counter()
        cal_mix()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    def start(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def item(self, t0: float, t1: float) -> tuple[float, float]:
        """(busy seconds, calibration seconds) of an item timed from t0 to t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if inside:
            return t1 - t0 - sum(inside), statistics.fmean(inside)
        # no sample during the item: the last one before it and the next after
        near = [self.ends[i] - self.starts[i] for i in (lo - 1, hi) if 0 <= i < len(self.starts)]
        return t1 - t0, statistics.fmean(near)

"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark runs on a shared virtual machine whose speed drifts: for
seconds to minutes at a time the same pure-Python loop runs up to twice as
slowly, so raw times of one commit spread further across runs than any useful
bound.  A fixed calibration chunk (table lookups in a loop, like the
program's own scans; no orthokit code, so no change to orthokit moves it) is
timed throughout every measurement, and each time is scaled by the mean of
REF_S / chunk time over that measurement, i.e. by how fast the host ran
while it was taken.  A scaled time is what the measurement would have taken on
a host where one chunk takes REF_S, about the fast phase of the 2-vCPU host
the bounds were measured on, where scaled and raw times agree.

During a pass a SIGALRM interval timer runs a warm-up chunk and a timed chunk
every INTERVAL_S of wall time, in the program's own thread between its
bytecodes, and `Sampler.clock()` leaves the time spent in chunks out, so the
program's timings do not include them.  A pass's time is scaled by the mean
over all its ticks, one operation's latency by the ticks within NEAR_S of it.  The warm-up chunk takes the cache
misses that the program's own work leaves behind, so that a program touching
more memory reads as a slower host as little as possible.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_S = 2.2e-4  # one chunk on the reference host
INTERVAL_S = 0.02
# The host changes speed within a pass, so an operation's latency is scaled by
# the ticks around it, not by the whole pass.
NEAR_S = 0.1
BURST = 40  # chunks run back to back to calibrate a short measurement such as set-up

_N = 16
_TABLE = [[(a * 7 + b * 3) % _N for b in range(_N)] for a in range(_N)]
_FLAT = {a * _N + b: (a * b) % _N for a in range(_N) for b in range(_N)}


def chunk() -> int:
    """Fixed work that creates no container, so it never moves the program's GC."""
    t, d, acc = _TABLE, _FLAT, 0
    for _ in range(12):
        for a in range(_N):
            row = t[a]
            for b in range(_N):
                acc += d[a * _N + row[t[b][a]]]
    return acc


def timed_chunk() -> float:
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean host speed relative to the reference over chunk times sampled evenly in time."""
    return statistics.fmean(REF_S / s for s in samples)


def burst() -> float:
    return speed([timed_chunk() for _ in range(BURST)])


class Sampler:
    """Runs a chunk on every SIGALRM tick between start() and stop()."""

    def __init__(self):
        self.at: list[float] = []  # clock() at each tick
        self.samples: list[float] = []  # the timed chunk of each tick
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.at.append(t0 - self.spent)
        chunk()  # warms the caches the program's own work left cold
        t1 = time.perf_counter()
        chunk()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def speed_near(self, start: float, end: float) -> float:
        """Host speed over the ticks within NEAR_S of the clock() interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - NEAR_S)
        hi = bisect.bisect_right(self.at, end + NEAR_S)
        return speed(self.samples[lo:hi] or self.samples)

    def clock(self) -> float:
        """perf_counter without the time spent in chunks."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

"""CPU-speed monitor that runs next to every measurement.

On a shared host one core's speed flips, many times a second, between
its full speed and about half of it, with the host's other load; process
CPU time inflates with it, so neither wall nor CPU time is steady
between runs.  While the benchmark measures, a thread pinned to the same
core as the measured process times a short, fixed pure-Python loop every
PERIOD_S, in thread CPU time.  The loop pairs exact fractional phases
with exponent matrices and hashes the results, like heckext's hot path,
so that it slows down as heckext does.  A measured interval is reported
as

    measured seconds * REFERENCE_S / mean(loop times during the interval)

that is, in seconds at the speed where the loop takes REFERENCE_S.  The
loop never touches heckext, so a change to the program cannot move it.
The thread takes about 1.5% of the core.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

# loop time on a 2.0 GHz Xeon core at full speed (Python 3.11)
REFERENCE_S = 0.00058
PERIOD_S = 0.04

# twist-like work: exact phases paired with small exponent matrices
_PHASES = [
    tuple(Fraction(k * (i + 1) % d, d) for i, d in enumerate((2, 4, 8)))
    for k in range(5)
]
_MATRICES = [
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
]


def _loop() -> dict:
    seen: dict = {}
    for phases in _PHASES:
        for matrix in _MATRICES:
            image = tuple(
                sum((x * ph for x, ph in zip(row, phases)), Fraction(0)) % 1
                for row in matrix
            )
            key = (image, frozenset(i for i, v in enumerate(image) if v == 0))
            seen[key] = seen.get(key, 0) + 1
    return seen


class Monitor:
    """Background speed sampling; use as a context manager."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            c0 = time.thread_time()
            _loop()
            loop = time.thread_time() - c0
            self.loops.append(loop)
            self.times.append(time.perf_counter())
            self._ready.set()
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Monitor":
        self._thread.start()
        self._ready.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Scale from seconds measured in [t0, t1] to reference-speed seconds.

        Uses the samples within PERIOD_S of the interval, or the nearest
        sample when the interval is shorter than the sampling period.
        """
        n = len(self.times)  # the thread may append while this reads
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S, 0, n)
        hi = bisect.bisect_right(self.times, t1 + PERIOD_S, 0, n)
        if lo >= hi:
            lo = min(max(lo - 1, 0), n - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.loops[lo:hi])

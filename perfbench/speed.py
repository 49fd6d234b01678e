"""How fast the CPU runs Python right now, for scaling times to a reference speed.

The benchmark's host is shared, and the speed at which it runs this process
drifts by tens of percent over seconds to minutes.  A `Sampler` thread runs
a fixed standard-library loop (Fraction products, tuple and dict churn)
every 50 ms and records its thread CPU time; a latency measured between
t0 and t1 is scaled by REFERENCE_S / (mean probe time around [t0, t1]),
giving seconds at the reference speed.  The probe runs no linkrep code, so
a change to linkrep cannot move it.  It holds the interpreter lock for about
1 % of the time, which every latency then includes.  Each set-up sample
runs its own Sampler inside the fresh interpreter it times.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

# median probe_once() on the machine that defined the benchmark
REFERENCE_S = 0.00040
PERIOD_S = 0.05


def probe_once() -> float:
    """Thread CPU seconds of the fixed loop."""
    a, b, c, d = Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(7, 8)
    start = time.thread_time()
    table = {}
    for i in range(50):
        table[(i, i % 7)] = (a * b + c * d) * (a - d)
    return time.thread_time() - start


class Sampler:
    """Probes from a background thread while running; use as a context
    manager so the thread always stops."""

    def __init__(self):
        self.times: list = []
        self.values: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        value = probe_once()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def to_reference(self, wall: float, start: float, end: float) -> float:
        """`wall` seconds measured over [start, end] -> reference seconds,
        from the mean of at least 5 probes in or nearest to the interval
        (the mean tracks the work done better than the median when the
        speed switches between levels inside a long query)."""
        margin = PERIOD_S * 5
        while True:
            lo = bisect.bisect_left(self.times, start - margin)
            hi = bisect.bisect_right(self.times, end + margin)
            if hi - lo >= 5 or hi - lo == len(self.times):
                break
            margin *= 2
        return wall * REFERENCE_S / statistics.fmean(self.values[lo:hi])

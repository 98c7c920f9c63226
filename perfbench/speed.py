"""Machine-speed probe: a fixed numpy kernel timed at regular intervals
while a cycle runs, from a timer signal in the main thread.

The host this benchmark runs on is shared: the same cycle can take 1.5x
longer when neighbours are busy, and such phases last minutes. The kernel
(small real and complex `eigh`, a matvec: the operations the solver
spends its time in) slows down with them, so its median time over a run
measures how fast the machine was. `factor()` is that median relative to
NOMINAL_S; dividing a wall time by it gives the time at nominal speed.

Every kernel is too small for OpenBLAS to split over threads (its gemv
threads from 2304 * 4 = 9216 elements; the matvec has 64 * 64 = 4096), so
the probe runs single-threaded whatever the program does with the BLAS
thread pool. A change to the program's BLAS threading therefore moves the
cycle time but not the correction, and shows in full in the metric.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5
REPEATS = 400
NOMINAL_S = 0.0149   # a slice's time on an uncontended 2-core Xeon host; sets the unit


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 8))
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self._real = g + g.T
        self._complex = h + h.conj().T
        self._mat = rng.normal(size=(64, 64))
        self._vec = rng.normal(size=64)
        self.samples: list[float] = []
        self.spent = 0.0        # wall time taken by the probe itself

    def _slice(self) -> float:
        eigh = np.linalg.eigh
        start = time.perf_counter()
        for _ in range(REPEATS):
            eigh(self._real)
            eigh(self._complex)
            self._mat @ self._vec
        return time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._slice())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._on_timer(None, None)

    def factor(self) -> float:
        """Median slice time over NOMINAL_S: above 1 means a slow machine."""
        return statistics.median(self.samples) / NOMINAL_S

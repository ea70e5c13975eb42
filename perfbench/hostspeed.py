"""Host-speed probe: how long a fixed piece of Python takes on this CPU now.

The benchmark runs on a few vCPUs of a shared host, where the speed of a
vCPU drifts by a quarter or more from minute to minute with the load of
other tenants.  A chevlat process lasts 20-70 s and can run only once or
twice within a run, so a median over processes cannot hide that drift.
Instead, every timed process runs a `Probe` thread on the same CPU that
times `kernel()` every INTERVAL_S.  The mean of those samples is the mean
cost of one kernel over the life of the process, and a time multiplied by
`REF_KERNEL_S / mean` is the time the process would have taken on a host
where one kernel takes REF_KERNEL_S.  The kernel and REF_KERNEL_S are
fixed, so scaled times of two commits compare like raw times on one quiet
host.  The probe costs about 2 % of the process's CPU time.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

import numpy as np

# Nominal kernel time, about that of a 2.1 GHz Xeon core of a quiet host
# with Python 3.11 and numpy 2.4; any fixed value would do.
REF_KERNEL_S = 400e-6
INTERVAL_S = 0.02

_M = np.arange(16, dtype=np.int64).reshape(4, 4)


def kernel() -> int:
    """Integer arithmetic in the interpreter, then small numpy matrix
    products mod 3: the two kinds of work chevlat spends its time on.  On
    this benchmark's workloads the pair tracks the host's speed better
    than either alone."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    m = _M
    for _ in range(60):
        m = (m @ _M) % 3
    return s + int(m[0, 0])


def sample(n: int) -> list[float]:
    """Time `kernel()` n times back to back."""
    out = []
    for _ in range(n):
        t = perf_counter()
        kernel()
        out.append(perf_counter() - t)
    return out


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured alongside `samples` into a time
    at the reference host speed."""
    return REF_KERNEL_S / statistics.fmean(samples)


class Probe:
    """Times `kernel()` every INTERVAL_S in a daemon thread while the
    `with` block runs.  The thread inherits the CPU affinity of the thread
    that starts it, so pin the process to one CPU first."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples += sample(1)

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

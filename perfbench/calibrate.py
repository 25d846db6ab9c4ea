"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine (2 vCPUs, Intel Xeon) the speed of
interpreted code drifts by up to about 40% over seconds to minutes, with
other work on the host, and no amount of repetition inside a 30-second run
averages that out.  So the speed is sampled with a fixed pure-Python kernel
while a job runs: an interval timer interrupts the job every INTERVAL_S and
the signal handler times one kernel call.  Kernel calls just before and
after the job are added to the samples.  The job's time, less the time spent
in the handler, is divided by the median kernel time over REFERENCE_S.  The
result reads as seconds on a reference machine where the kernel takes
REFERENCE_S; raw seconds are kept in the result file.  Jobs that spend
their time in numpy are timed raw (see workloads._job).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0010
INTERVAL_S = 0.05


def _kernel() -> float:
    # The package's kind of work: Fraction arithmetic on growing
    # denominators, frozenset-keyed dicts, float lists.
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    floats = [0.0] * 64
    for i in range(1, 250):
        acc += Fraction(1, i)
        key = frozenset({(i % 13, i % 5), (i % 7, 0)})
        table[key] = table.get(key, 0) + i
        floats[i % 64] += i * 0.5
    return time.perf_counter() - start


class Sampler:
    """Context manager that samples the kernel time around and during a block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the handler took from the block

    def _handler(self, signum, frame) -> None:
        took = _kernel()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self.samples += [_kernel() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [_kernel() for _ in range(3)]

    def factor(self) -> float:
        """Median kernel time over the reference time (> 1: slower machine)."""
        return statistics.median(self.samples) / REFERENCE_S


def factor() -> float:
    """The speed factor from kernel calls made now."""
    return statistics.median(_kernel() for _ in range(5)) / REFERENCE_S

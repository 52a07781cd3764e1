"""How fast the CPU that runs the program is running right now.

On a shared virtual machine, identical CPU-bound passes of one workload took
from 3.7 to 8.5 s within three minutes, because other tenants of the
physical host slow the CPU down. The CPU time of a process grows with its
wall time, so neither tells the slowdown apart from the program's own work.
Ten runs of the same code a few minutes apart then spread by more than any
useful bound.

`SpeedProbe` measures that slowdown from inside the process being measured.
While its block runs, the profiling timer (`ITIMER_PROF`) raises SIGPROF
after every `PERIOD_S` of the process's CPU time, and the handler runs a
fixed kernel (about 1 ms of small numpy vector updates in an interpreted
loop, like the trainer and the simulator) and records the CPU time the
kernel took. The handler runs in the main thread, between two bytecodes of
the program, so every sample is taken on the CPU the program is on at that
moment and in its cache state, whichever CPU the scheduler chose. Samples
fall evenly over the program's CPU time, so their mean speed is the speed
the program ran at.

`factor()` turns local CPU seconds into reference seconds: the seconds the
same work would take on a CPU that runs the kernel in `REFERENCE_KERNEL_S`.
The kernel never calls the code under test, so a faster program shows as
fewer reference seconds and a faster host does not.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

import numpy as np

#: CPU seconds of the process between two probe samples.
PERIOD_S = 0.05
#: CPU seconds of one kernel on the reference CPU; reference seconds are
#: seconds on that CPU.
REFERENCE_KERNEL_S = 0.001

_ROWS = list(np.random.default_rng(0).standard_normal((192, 17)))


def kernel() -> None:
    """One probe sample's work: a hinge-loss SGD epoch on 192 rows of 17
    features, then wrapped integer accumulation, in plain interpreted code."""
    w = np.zeros(17)
    for t, row in enumerate(_ROWS, start=1):
        shrink = 1.0 - 1.0 / t
        if float(row @ w) < 1.0:
            w = shrink * w + (0.5 / t) * row
        else:
            w = shrink * w
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFF


class SpeedProbe:
    """Samples the CPU's speed while its block runs in this process's main
    thread.

        with SpeedProbe() as speed:
            ...                      # the work to be measured
        reference_s = (local_cpu_s - speed.cpu_s) * speed.factor()
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu_s = 0.0  # CPU seconds the handler itself used
        self._previous = None

    def _sample(self) -> float:
        start = thread_time()
        kernel()
        end = thread_time()
        self.samples.append(end - start)
        return thread_time() - start

    def _handler(self, signum, frame) -> None:
        self.cpu_s += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # the block ended before the first sample; this
            self._sample()  # one runs after it, so cpu_s leaves it out

    def factor(self) -> float:
        """Reference seconds per local CPU second over the block."""
        return speed_factor(self.samples)


def speed_factor(samples: list[float]) -> float:
    """The mean of the samples' speeds, not the inverse of their mean time:
    the work done in a block is its length times the CPU's mean speed, and a
    mean of times gives slow samples too much weight."""
    return statistics.fmean(REFERENCE_KERNEL_S / t for t in samples)

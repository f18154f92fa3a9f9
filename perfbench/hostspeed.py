"""Host-speed sampling, so timings can be scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, which swamps the program's own
run-to-run spread.  While a run is timed, a ``SIGALRM`` interval timer
interrupts the main thread every ``INTERVAL_S`` seconds and times one
fixed reference task there: small numpy operations on n=200 vectors, tiny
dense solves and a Python loop, the mix of work selrtest itself does.  The
reference task is the benchmark's own code, so a change to selrtest cannot
move it.

``clock()`` is ``time.perf_counter()`` minus the time spent in the
sampler, so the samples cost the timed program nothing.  ``factor()`` is
the reference task's nominal time divided by its mean measured time over
the run; a timing multiplied by it reads in seconds at the nominal host
speed.  The mean, not the median, because the program loses time to a slow
spell in proportion to its length, and so does the mean.  On a 2-vCPU VM,
scaling cut the spread of 15-second means of one fixed selrtest call from
9 % to 2 % of their mean.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
BRACKET_TASKS = 5  # samples just before and after the timed window, for short runs
# Time of one reference task at the nominal host speed: about its fastest
# time on a 2-vCPU x86-64 VM with numpy's OpenBLAS pinned to one thread.
NOMINAL_S = 0.002

_U = np.linspace(0.0, 1.0, 200)
_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])


def reference_task() -> float:
    acc = 0.0
    for i in range(60):
        w = np.exp(-((_U - (i % 8) / 8.0) / 0.3) ** 2)
        z = np.column_stack([w, w * _U, w * _U**2])
        acc += float(np.linalg.solve(_A + z.T @ z * 1e-3, z.sum(axis=0))[0])
        acc += float(np.log1p(w).sum())
        for j in range(40):
            acc += math.sqrt(j + i) * 1e-3
    return acc


def mean_time(tasks: int) -> float:
    """Mean seconds of ``tasks`` back-to-back reference tasks."""
    t0 = time.perf_counter()
    for _ in range(tasks):
        reference_task()
    return (time.perf_counter() - t0) / tasks


class Sampler:
    """Times ``reference_task`` on every timer tick while started, and
    ``BRACKET_TASKS`` times just before and just after."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent inside the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - t0)
        self.stolen += time.perf_counter() - t0

    def clock(self) -> float:
        """Seconds, not counting the time spent sampling."""
        return time.perf_counter() - self.stolen

    def _bracket(self) -> None:
        self.samples += [mean_time(1) for _ in range(BRACKET_TASKS)]

    def start(self) -> None:
        reference_task()  # warm numpy's code paths before the first sample
        self._bracket()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._bracket()

    def factor(self) -> float:
        """Nominal over mean measured reference time."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def summary(self) -> dict:
        xs = self.samples
        return {
            "samples": len(xs), "interval_s": INTERVAL_S, "nominal_s": NOMINAL_S,
            "mean_s": statistics.fmean(xs), "median_s": statistics.median(xs),
            "min_s": min(xs), "max_s": max(xs), "stolen_s": self.stolen,
            "factor": self.factor(),
        }

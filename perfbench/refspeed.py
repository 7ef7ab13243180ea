"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the speed available to one process drifts by 10-30%
within seconds, for all code alike.  The benchmark therefore samples fixed
reference work while it measures, and reports every time scaled to a
nominal speed: a time t measured while the samples had median speed s
(nominal time over measured time, 1.0 at nominal speed) is reported as
t * s.  The reference work is part of the benchmark, so a change to
twobridge cannot change it.  It has three parts, each like one kind of work
twobridge does, because slowdowns do not hit them alike: Fraction and float
arithmetic on a few objects, sorting and dict updates over a few thousand
objects, and small dense linear algebra.  A sample's speed is the geometric
mean of the three parts' speeds, which follows the workloads' pass times
more closely than any one part.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Wall time between samples while a SpeedProbe is active.
INTERVAL_S = 0.1

_RNG = random.Random(0)
_FLOATS = [_RNG.random() for _ in range(3000)]
_MATRIX = np.random.default_rng(0).standard_normal((80, 80))


def _arithmetic() -> None:
    acc = Fraction(0)
    total = 0.0
    seen: dict[int, tuple] = {}
    for i in range(1, 400):
        acc += Fraction(i % 7, 24)
        total += math.log(abs(2.0 * math.sin(i * 0.01)))
        seen[i & 31] = (acc, total, [i, i + 1])


def _containers() -> None:
    xs = sorted(_FLOATS)
    sums: dict[tuple[int, int], float] = {}
    for i, x in enumerate(xs):
        key = (i % 97, i % 13)
        sums[key] = sums.get(key, 0.0) + x
    sorted(sums.items(), key=lambda kv: kv[1])


def _linear_algebra() -> None:
    for _ in range(3):
        np.linalg.svd(_MATRIX)


# Each part with its time at nominal speed: its median on the machine the
# benchmark was written on (a 2-vCPU Intel Xeon virtual machine, CPython
# 3.11, one BLAS thread).  Only ratios between commits matter.
PARTS = ((_arithmetic, 0.0018), (_containers, 0.0022), (_linear_algebra, 0.0040))


def reference_speed() -> float:
    """Speed of one round of the reference work, relative to nominal."""
    logs = 0.0
    for part, nominal in PARTS:
        start = time.perf_counter()
        part()
        logs += math.log(nominal / (time.perf_counter() - start))
    return math.exp(logs / len(PARTS))


class SpeedProbe:
    """Reference samples, taken every INTERVAL_S while the probe is active.

    The samples run in a SIGALRM handler, so in the thread doing the
    measured work, on the same processor at the same moment.  ``clock``
    excludes the time they take, so work timed with it is not slowed by
    them.  Use in the main thread only.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_speed())
        self.stolen += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter minus the time spent in samples."""
        stolen = self.stolen
        return time.perf_counter() - stolen

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int = 0, until: int | None = None) -> float:
        """Factor converting times measured between samples since and until to nominal speed."""
        return statistics.median(self.samples[since:until])

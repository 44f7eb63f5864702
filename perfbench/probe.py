"""A fixed reference computation that gauges the host's speed.

The benchmark runs on a shared host whose processor speed drifts by a
third and more over minutes (see ``perfbench/README.md``).  A run lasts
seconds, so a slow stretch moves every time it measures, and the
quartile spread of a step median over ten runs reached the 0.25 bound.
The probe never calls the program: it is the benchmark's own
computation, run between steps and outside their timed windows.  Its
median time in a run is the unit of the end-to-end step metrics, so a
stretch that slows the host slows the step and the unit alike.

The probe mixes the three kinds of work the program does: interpreted
Python (about a quarter of its time), numpy arithmetic on a
cache-resident array (about half) and a 16 MB array copy (about a
quarter); the shares were the ones that tracked both ``iep-scale`` and
``gepc-solve`` best.  Over ten seeds run back to back, the quartile
spread of the step median fell from 0.18 to 0.08 on ``iep-scale`` and
from 0.10 to 0.06 on ``gepc-solve`` when divided by this mix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Sizes giving about 2, 4 and 2 ms on a 2-vCPU Xeon virtual machine.
PY_ITERATIONS = 18_000
NP_ITERATIONS = 80
COPY_FLOATS = 2_000_000

#: A probe runs after a step once this long has passed since the last
#: one: 20 to 90 probes in a 10 s run, about 5% of its time.
EVERY_SECONDS = 0.1


class Probe:
    """Times the reference computation; keeps every time it took."""

    def __init__(self) -> None:
        self._small = np.random.default_rng(0).random((300, 300))
        self._large = np.ones(COPY_FLOATS)
        self._copy = np.empty_like(self._large)
        self.seconds: list[float] = []
        self._last = float("-inf")

    def run(self) -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(PY_ITERATIONS):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(NP_ITERATIONS):
            (self._small * 1.0001).sum(axis=0)
        np.copyto(self._copy, self._large)
        end = time.perf_counter()
        self.seconds.append(end - start)
        self._last = end
        return end - start

    def maybe_run(self) -> None:
        """Run unless the last probe ended under :data:`EVERY_SECONDS` ago."""
        if time.perf_counter() - self._last >= EVERY_SECONDS:
            self.run()

    def median(self) -> float:
        return statistics.median(self.seconds)

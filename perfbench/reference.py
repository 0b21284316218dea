"""A fixed reference kernel that gauges the host's current speed.

The CPU speed of a shared host drifts by up to 2x over minutes, and the
package's times drift with it, so raw times of the same code spread past
any useful bound from run to run.  The benchmark samples this kernel
between its ops and scales each round's op times by ``REFERENCE_S`` over
the median kernel time of the round: host speed divides out, and a change
to the package moves the scaled times exactly as it moves the raw ones,
since the kernel runs no package code.

The kernel mixes the two kinds of work the package does, so that its
speed follows the host's for both: an interpreted loop of integer
arithmetic and dict stores, and numpy arithmetic on mid-sized float arrays.

Import this module only after the benchmark's set-up is timed: it imports
numpy, whose import cost belongs to the package's set-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# nominal seconds of one kernel call, close to its median on an Intel Xeon
# vCPU of a 2-vCPU VM under Python 3.11 and numpy 2.4; scaled times are
# seconds on a host of that speed
REFERENCE_S = 0.030
# least seconds between two kernel calls within a round
SAMPLE_EVERY_S = 0.5

_RAMP = np.arange(8192, dtype=float)
# every partial sum is a multiple of 0.5 below 2**53, so exact in any order
_EXPECTED = (299_999, 256, 2_944_204_800.0)


def reference_seconds() -> float:
    """Seconds of one kernel call; raises if it computed a wrong result."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 255] = total
    acc = 0.0
    for i in range(600):
        acc += float(((_RAMP * 0.5 + i) * 2.0 - _RAMP).sum())
    elapsed = time.perf_counter() - start
    if (total, len(table), acc) != _EXPECTED:
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


class Gauge:
    """Kernel samples of the current round, taken between ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        self.samples.append(reference_seconds())
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def close_round(self) -> tuple[float, list[float]]:
        """Scale of the round's op times and the samples it rests on."""
        self.sample()
        samples, self.samples = self.samples, []
        return REFERENCE_S / statistics.median(samples), samples

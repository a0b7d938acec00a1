"""The host's speed, measured beside the benchmark's timings.

A host whose cores are shared with other work drifts in speed: by up to 2x
within minutes, and within one scene, on the 2-core host of baseline.json.
No number of scenes in a run averages that out, so the benchmark reports its
times at a reference speed.
The yardstick is one *unit*: a fixed slice of the work jigglekit spends its
time in (interpreter work and small SVDs), which takes UNIT_S on a quiet
host.

While a measurement runs, a timer signal runs one unit every ``period``
seconds in the main thread (no extra thread) and records how long it took.
The mean of UNIT_S / t over those units is the share of the reference speed
the host gave.  The measured wall time, less the units' own time, is
multiplied by it.  A set-up samples itself inside its own process.

A change to jigglekit cannot change a unit, so it shows in full; a host
slow-down stretches both and cancels.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

UNIT_S = 0.0012

_MATRIX = np.arange(12.0).reshape(4, 3) + np.eye(4, 3)


def unit() -> float:
    """Run one unit of work; return its wall time."""
    t0 = perf_counter()
    for i in range(100):
        np.linalg.svd(_MATRIX + i * 1e-9, compute_uv=False)
        sum({j: j * 0.5 for j in range(20)}.values())
    return perf_counter() - t0


class Sampler:
    """Samples the host's speed while active.

    It can be entered several times (once per part of a scene); the wall
    time and the samples add up.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.wall = 0.0

    def _sample(self, signum, frame):
        self.samples.append(unit())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall += perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """The host's speed while active, as a share of reference speed."""
        samples = self.samples or [unit()]
        return sum(UNIT_S / t for t in samples) / len(samples)

    def scaled(self) -> float:
        """The wall time covered, less the samples, at reference speed."""
        return (self.wall - sum(self.samples)) * self.speed()

"""Host pace: the time a fixed probe takes, sampled while the measured code runs.

On a shared host the CPU runs the same code up to 1.8x slower in some spells
than in others; spells last from seconds to minutes, so raw times of one
commit spread by 10-30 % from run to run.  ``Pacer.time`` therefore runs a
fixed probe (a pure-Python loop with ``Fraction`` arithmetic, and a small
numpy cosine product) right before and after the measured call and, from a
``SIGALRM`` handler in the same thread, every ``PERIOD_S`` seconds during it.
The call's time, less the probe's own time, divided by the probe's mean time
and multiplied by ``PROBE_REF_S`` is its time at the reference pace: what it
would take on the host when the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.1
# close to the probe's median time (geometric mean of its two halves) on a
# shared 2-vCPU Intel Xeon host with Python 3.11 and numpy 2.4, so that paced
# times there read close to raw ones
PROBE_REF_S = 1.4e-3

_X = np.linspace(0.0, 1.0, 4096)


def _python_probe() -> None:
    total, table = 0, {}
    for i in range(5000):
        total += i * i
        table[i & 255] = total
    frac = Fraction(1, 3)
    for i in range(200):
        frac = frac * Fraction(i + 1, i + 2) + 1


def _numpy_probe() -> None:
    y = _X
    for i in range(20):
        y = np.cos(_X * i) * y


class Pacer:
    def __init__(self):
        self._reset()
        self._sample()  # warm up both halves

    def _reset(self):
        self.python_s = self.numpy_s = 0.0
        self.samples = 0
        self.probe_wall = self.probe_cpu = 0.0

    def _sample(self, *_):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _python_probe()
        wall1 = time.perf_counter()
        _numpy_probe()
        wall2 = time.perf_counter()
        self.python_s += wall1 - wall0
        self.numpy_s += wall2 - wall1
        self.samples += 1
        self.probe_wall += wall2 - wall0
        self.probe_cpu += time.process_time() - cpu0

    def pace(self) -> float:
        """Mean probe time since the last reset, in seconds."""
        return math.sqrt(self.python_s * self.numpy_s) / self.samples

    def time(self, sampled: bool, fn, *args):
        """``fn(*args)`` timed; returns (result, raw wall s, raw CPU s, scale).

        The raw times exclude the probe's; multiplied by ``scale`` they are at
        the reference pace.  With ``sampled`` false the probe runs only before
        and after the call: use that while the call waits on a child process,
        which the probe would compete with.
        """
        self._reset()
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample) if sampled else None
        probe_wall, probe_cpu = self.probe_wall, self.probe_cpu
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if sampled:
                signal.signal(signal.SIGALRM, previous)
        wall -= self.probe_wall - probe_wall
        cpu -= self.probe_cpu - probe_cpu
        self._sample()
        return result, wall, cpu, PROBE_REF_S / self.pace()

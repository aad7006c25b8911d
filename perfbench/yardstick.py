"""Fixed loops that measure how fast the host runs code right now.

Identical work runs up to twice as slow on a shared host, in phases that last
from under a second to minutes.  The benchmark times one of these loops while
it measures a call, and scales the call's time by ``nominal / loop time``,
which gives the time on a host where the loop takes its nominal time.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_ITERATIONS = 500
SAMPLE_NOMINAL_S = 0.0025
SAMPLE_INTERVAL_S = 0.2
PYTHON_ITERATIONS = 120000
PYTHON_NOMINAL_S = 0.025


def yardstick(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Seconds taken by a fixed loop of small numpy operations driven from
    Python, the same kind of work the sweeps do, on the host as it is now."""
    import numpy

    rng = numpy.random.default_rng(0)
    a, b = rng.integers(0, 2, size=(2, 256), dtype=numpy.uint8)
    perm = rng.permutation(256)
    hits = 0
    start = time.perf_counter()
    for _ in range(iterations):
        c = (a ^ b)[perm]
        hits += int((c[:128] & c[128:]).any())
        a, b = b, c
    return time.perf_counter() - start


def python_yardstick() -> float:
    """Seconds taken by a fixed pure-Python loop.  It imports nothing, so a
    fresh interpreter can time it just before a cold import."""
    table = {}
    total = 0
    start = time.perf_counter()
    for i in range(PYTHON_ITERATIONS):
        table[i & 1023] = total
        total += i * 3 % 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed while a call runs in the main thread.

    Inside ``with host:`` a SIGALRM handler times ``yardstick()`` every
    SAMPLE_INTERVAL_S, between the call's own bytecodes, so the samples cover
    the whole call rather than its two ends.  ``clock()`` is
    ``time.perf_counter()`` minus all the time spent in the handler, so a
    duration read from it is the call's own time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(yardstick())
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        # a sample may land between the two reads; read again until none did
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def slowdown(self) -> float:
        """Mean sample time of the last ``with`` block over SAMPLE_NOMINAL_S.

        A call shorter than SAMPLE_INTERVAL_S gets one sample, taken now.
        """
        if not self.samples:
            self.samples.append(yardstick())
        return statistics.mean(self.samples) / SAMPLE_NOMINAL_S

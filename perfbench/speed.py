"""Machine-speed sampling, to take core contention out of the timings.

On a shared host the same pure-Python work runs a third or more slower for
seconds at a time while a neighbour loads the core; a 20-second pass sees a
random mix of fast and slow phases, so raw wall time varies by about 30%
from run to run.  ``SpeedClock`` runs a fixed calibration kernel from a
SIGALRM timer every ``INTERVAL_S`` and keeps how long it took.  The kernel
runs twice per sample and only the second, warm run is timed, so the
program's own cache footprint does not leak into the sample.

``SpeedClock.time(fn)`` returns fn's result, its wall time (the handler's
time taken out) and its *normalized* time: each slice of wall time between
two samples is rescaled by ``NOMINAL_KERNEL_S / kernel time`` of the sample
taken at its start, i.e. to a machine on which the kernel takes exactly
``NOMINAL_KERNEL_S`` (about this 2-core Xeon when no neighbour is busy).
"""

from __future__ import annotations

import signal
import time

NOMINAL_KERNEL_S = 0.0004
INTERVAL_S = 0.1


_P = 31
_EXP = [pow(3, i, _P) for i in range(_P - 1)]  # 3 generates F_31^*
_LOG = [0] * _P
for _i, _x in enumerate(_EXP):
    _LOG[_x] = _i


class _Element:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mul(self, other):
        a, b = self.v, other.v
        if a == 0 or b == 0:
            return _Element(0)
        return _Element(_EXP[(_LOG[a] + _LOG[b]) % (_P - 1)])

    def add(self, other):
        return _Element(tuple((u + w) % _P for u, w in zip((self.v,), (other.v,)))[0])


def kernel() -> int:
    """A product of two small polynomials over F_31 with log-table elements:
    object allocation, method calls, tuples, dicts and small-int arithmetic,
    the mix of orbitsquares' pure-Python kernels, which a contended core slows
    by about as much as it slows them."""
    a = [_Element(c) for c in (3, 1, 4, 1, 5, 9, 2, 6)]
    acc = 0
    for _ in range(4):
        res = [_Element(0) for _ in range(15)]
        for i, u in enumerate(a):
            for j, w in enumerate(a):
                res[i + j] = res[i + j].add(u.mul(w))
        acc += sum({k: r.v for k, r in enumerate(res)}.values())
    return acc


def sample() -> tuple[float, float, float]:
    """(start, end, timed kernel seconds) of one calibration sample."""
    start = time.perf_counter()
    kernel()
    k0 = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return start, end, end - k0


class SpeedClock:
    """Samples the kernel every INTERVAL_S while started (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(fn(), wall seconds without sampling, normalized seconds)."""
        first = len(self.samples) - 1
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        wall = norm = 0.0
        at, speed = t0, None
        for start, end, dur in self.samples[first:]:
            if start >= t1:
                break
            if speed is not None and start > at:
                wall += start - at
                norm += (start - at) / speed
            at, speed = max(at, end), dur
        wall += t1 - at
        norm += (t1 - at) / speed
        return result, wall, norm * NOMINAL_KERNEL_S

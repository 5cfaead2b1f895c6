"""A clock that runs at a fixed reference speed of the interpreter.

The shared 2-core hosts this benchmark was written on switch between a fast
and a half-speed state many times a minute, so raw wall times of identical
work differ by up to 2x from one run to the next.  ``RefClock`` samples the
speed every ``PERIOD_S`` seconds by timing a short, fixed pure-Python probe
(the divisibility test the witness scan spends its time in) from a timer
signal, and advances by the elapsed wall time times ``REFERENCE_PROBE_S``
over the last probe's time.  Its readings are the seconds the work would
have taken at the reference speed; the probes themselves are not counted.
A change to the program moves the clock's reading of an op, not the probe.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
# probe time on an uncontended core of the host the benchmark was defined
# on; it only fixes the scale, so that readings there match wall time
REFERENCE_PROBE_S = 0.000126
_ROWS = [tuple((i * 7 + j * 3) % 6 for j in range(4)) for i in range(40)]
_CANDIDATES = [tuple((i * 5 + j) % 3 for j in range(4)) for i in range(4)]


def _probe() -> float:
    t0 = time.perf_counter()
    for g in _CANDIDATES:
        for m in _ROWS:
            all(a <= b for a, b in zip(g, m))
    return time.perf_counter() - t0


class RefClock:
    """Reference-speed seconds while in use as a context manager.

    ``now`` is continuous and never decreases: each interval between probes
    is scaled by the probe taken at its start, the same rate ``now`` uses
    inside the interval.
    """

    def __enter__(self) -> "RefClock":
        self.ticks = 0
        self.probes: list[float] = []
        self._rate = REFERENCE_PROBE_S / _probe()
        self._base = 0.0
        self._since = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self._base += (time.perf_counter() - self._since) * self._rate
        probe = _probe()
        self.probes.append(probe)
        self._rate = REFERENCE_PROBE_S / probe
        self._since = time.perf_counter()
        self.ticks += 1

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self._base + (time.perf_counter() - self._since) * self._rate
            if ticks == self.ticks:  # no probe ran while reading
                return value
